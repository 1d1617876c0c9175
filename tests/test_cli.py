"""CLI wiring, experiment runners, trace/chart IO, and exit-code tests."""

import json
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from wfw.cli import EXIT_BUDGET, EXIT_ERROR, EXIT_OK, main
from wfw.cloud import ParticleCloud, load_csv, mean_squared_gradient_norm, save_csv
from wfw.dual_solvers import trust_region_step
from wfw.errors import EmptyCloud, MissingColumn
from wfw.functionals import PotentialInteraction
from wfw.experiments import (
    ExperimentConfig,
    make_mixture_observations,
    read_trace,
    run_deconv,
)
from wfw.registry import quadratic
from wfw.svg import line_chart


def _cloud_csv(tmp_path, n=12, d=2, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    path = tmp_path / "cloud.csv"
    save_csv(ParticleCloud(scale * rng.normal(size=(n, d))), path)
    return path


def _strip_wall(text):
    return [line.rsplit(",", 1)[0] for line in text.splitlines()]


class TestExitCodes:
    def test_fw_converged_returns_zero(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(
            ["fw", "--seed", "3", "--eps", "10", "--k-max", "5", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert "status converged" in capsys.readouterr().out
        assert out.read_text().startswith("iter,J,s,delta,zeta,samples,wall_ms")

    def test_fw_budget_exhausted_returns_two(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(
            ["fw", "--seed", "3", "--eps", "1e-6", "--k-max", "3", "--out", str(out)]
        )
        assert code == EXIT_BUDGET
        assert "status budget-exhausted" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 4

    def test_fw_without_seed_is_an_error(self, tmp_path, capsys):
        code = main(["fw", "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_ERROR
        assert "seed is mandatory" in capsys.readouterr().err

    def test_deconv_without_seed_is_an_error(self, tmp_path, capsys):
        code = main(["deconv", "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_ERROR
        assert "seed is mandatory" in capsys.readouterr().err

    def test_missing_init_cloud_is_an_error(self, tmp_path, capsys):
        code = main(
            ["fw", "--seed", "1", "--init", str(tmp_path / "nope.csv")]
        )
        assert code == EXIT_ERROR
        assert "no such file" in capsys.readouterr().err

    def test_solver_rejection_is_an_error(self, tmp_path, capsys):
        # radius far above the curvature bound: the step is refused
        cloud = _cloud_csv(tmp_path, scale=0.1)
        code = main(["trust-region", "--cloud", str(cloud), "--delta", "9.0"])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


# Inputs that once ended in a raw traceback, a misleading message or a
# futile search: (argv, exit code, what stdout or stderr must say).
# "{cloud}" is a 12-atom cloud CSV.
_TR = ["trust-region", "--cloud", "{cloud}", "--delta", "0.1"]
_BAD_INPUTS = {
    "zero-objective": (
        ["fw", "--seed", "0", "--objective", "zero"],
        EXIT_OK,
        "status converged",
    ),
    "zero-objective-zero-pair": (
        ["fw", "--seed", "0", "--objective", "zero", "--pair", "zero"],
        EXIT_OK,
        "status converged",
    ),
    "alpha-zero": (["fw", "--seed", "0", "--alpha", "0"], EXIT_ERROR, "alpha"),
    "big-t-zero": (["fw", "--seed", "0", "--big-t", "0"], EXIT_ERROR, "big_t"),
    "fw-eps-zero": (
        ["fw", "--seed", "0", "--eps", "0", "--theta", "-1"],
        EXIT_ERROR,
        "eps must be positive",
    ),
    "fw-eps-negative": (
        ["fw", "--seed", "0", "--eps", "-1", "--theta", "0.5"],
        EXIT_ERROR,
        "eps must be positive",
    ),
    "eps-negative": (_TR + ["--eps", "-1"], EXIT_ERROR, "eps must be positive"),
    "eps-zero": (_TR + ["--eps", "0"], EXIT_ERROR, "eps must be positive"),
    "eps-inf": (_TR + ["--eps", "inf"], EXIT_ERROR, "eps must be positive"),
    "delta-nan": (_TR[:-1] + ["nan"], EXIT_ERROR, "delta must be positive"),
    "tau-nan": (["fw", "--seed", "0", "--tau", "nan"], EXIT_ERROR, "tau must be"),
    "theta-nan": (["fw", "--seed", "0", "--theta", "nan"], EXIT_ERROR, "theta must be"),
    # Finite in, out of range after: each is named by the flag the user set.
    "tau-inf": (["fw", "--seed", "0", "--tau", "inf"], EXIT_ERROR, "tau = inf"),
    "big-t-inf": (["fw", "--seed", "0", "--big-t", "inf"], EXIT_ERROR, "big_t = inf"),
    "big-t-overflow": (
        ["fw", "--seed", "0", "--big-t", "1e-300", "--alpha", "0.5"],
        EXIT_ERROR,
        "big_t = 1e-300",
    ),
    "fw-eps-inf": (["fw", "--seed", "0", "--eps", "inf"], EXIT_ERROR, "eps = inf"),
    # Finite and in range, but the run's smallest step, at s = r, has a radius
    # whose delta^2 / 2 underflows, which leaves the dual no finite bracket.
    "big-t-underflow": (["fw", "--seed", "0", "--big-t", "1e300"], EXIT_ERROR, "big_t = 1e+300"),
    "tau-underflow": (["fw", "--seed", "0", "--tau", "1e-300"], EXIT_ERROR, "tau = 1e-300"),
    "theta-underflow": (["fw", "--seed", "0", "--theta", "1e300"], EXIT_ERROR, "theta = 1e+300"),
    "theta-overflow": (["fw", "--seed", "0", "--theta=-1e300"], EXIT_ERROR, "theta = -1e+300"),
    "fw-eps-nan": (
        ["fw", "--seed", "0", "--eps", "nan"],
        EXIT_ERROR,
        "eps must be positive, got nan",
    ),
    "delta-cap-nan": (
        ["fw", "--seed", "0", "--delta-cap", "nan"],
        EXIT_ERROR,
        "delta1 must be",
    ),
    "dim-zero": (["fw", "--seed", "0", "--dim", "0"], EXIT_ERROR, "d >= 1"),
    "feature-scale-zero": (
        ["mmd-flow", "--seed", "0", "--feature-scale", "0", "--k-max", "3"],
        EXIT_ERROR,
        "--baseline-step",
    ),
    "feature-scale-overflow": (
        ["mmd-flow", "--seed", "0", "--feature-scale", "1e300", "--k-max", "1"],
        EXIT_ERROR,
        "feature_scale = 1e+300 overflows",
    ),
    "features-zero": (
        ["mmd-flow", "--seed", "0", "--features", "0", "--k-max", "1"],
        EXIT_ERROR,
        "features must be positive, got 0",
    ),
    "shift-nan": (
        ["mmd-flow", "--seed", "0", "--shift", "nan", "--k-max", "1"],
        EXIT_ERROR,
        "shift must be finite, got nan",
    ),
    "baseline-step-negative": (
        ["mmd-flow", "--seed", "0", "--baseline-step", "-1", "--k-max", "3"],
        EXIT_ERROR,
        "baseline_step must lie in (0, inf), got -1",
    ),
    "sinkhorn-tol-nan": (
        ["deconv", "--seed", "0", "--sinkhorn-tol", "nan", "--k-max", "1"],
        EXIT_ERROR,
        "tol must lie in (0, inf), got nan",
    ),
    "sinkhorn-tol-zero": (
        ["deconv", "--seed", "0", "--sinkhorn-tol", "0", "--k-max", "1"],
        EXIT_ERROR,
        "tol must lie in (0, inf), got 0",
    ),
    "sigma2-negative": (
        ["deconv", "--seed", "0", "--k-max", "1", "--sigma2", "-1"],
        EXIT_ERROR,
        "sigma2 must lie in (0, inf), got -1.0",
    ),
    "sigma2-nan": (
        ["deconv", "--seed", "0", "--k-max", "1", "--sigma2", "nan"],
        EXIT_ERROR,
        "sigma2 must lie in (0, inf), got nan",
    ),
    "particles-above-the-sinkhorn-cap": (
        ["deconv", "--seed", "0", "--k-max", "1", "--particles", "1001"],
        EXIT_ERROR,
        "1001 x 1001 array (cap 1000000 entries)",
    ),
    "sigma2-inf": (
        ["deconv", "--seed", "0", "--k-max", "1", "--sigma2", "inf"],
        EXIT_ERROR,
        "sigma2 must lie in (0, inf), got inf",
    ),
    "feature-scale-nan": (
        ["mmd-flow", "--seed", "0", "--feature-scale", "nan", "--k-max", "1"],
        EXIT_ERROR,
        "feature_scale must be finite, got nan",
    ),
}


class TestBadInputs:
    @pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
    def test_exit_code_and_message(self, case, tmp_path, capsys, monkeypatch):
        argv, expected, says = _BAD_INPUTS[case]
        monkeypatch.chdir(tmp_path)  # mmd-flow's baseline CSV defaults to the cwd
        cloud, out = _cloud_csv(tmp_path), tmp_path / "out.csv"
        argv = [str(cloud) if a == "{cloud}" else a for a in argv]
        code = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == expected
        if expected == EXIT_ERROR:
            assert captured.err.startswith("error: ") and says in captured.err
            assert not out.exists()
        else:
            assert says in captured.out
            # the zero field converges at once, with J, s, delta and zeta all 0
            rows = out.read_text().splitlines()
            assert len(rows) == 2
            assert [float(v) for v in rows[1].split(",")[1:5]] == [0.0] * 4


    @pytest.mark.parametrize(
        "entry, says",
        [
            ({"particles": 2.5}, "particles must be int, got 2.5"),
            ({"k_max": 2.5}, "k_max must be int, got 2.5"),
            ({"seed": "x"}, "seed must be int, got 'x'"),
            ({"sigma2": "x"}, "sigma2 must be float, got 'x'"),
            ({"particles": True}, "particles must be int, got True"),
        ],
        ids=["particles-float", "k-max-float", "seed-string", "sigma2-string", "particles-bool"],
    )
    def test_mistyped_config_value_is_named(self, entry, says, tmp_path, capsys):
        """A config value of the wrong type is refused with its key, not met
        as a raw TypeError inside the run; an int still counts as a float."""
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg.write_text(json.dumps({"seed": 0, "k_max": 1, "sigma2": 1, **entry}))
        code = main(["deconv", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {says}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["trust-region", "--delta", "0.1", "--cloud"], ["fw", "--seed", "0", "--init"]],
        ids=["trust-region", "fw"],
    )
    def test_empty_cloud_file_is_named_without_a_warning(self, argv, tmp_path, capsys):
        """An empty cloud CSV is a typed error naming its path, raised before
        numpy's "input contained no data" warning can print."""
        empty, out = tmp_path / "empty.csv", tmp_path / "out.csv"
        empty.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + [str(empty), "--out", str(out)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: cloud file {empty} holds no rows\n"
        assert not out.exists()
        with pytest.raises(EmptyCloud) as info:
            load_csv(empty)
        assert info.value.path == empty


class TestConfigPlumbing:
    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "particles": 30,
                    "k_max": 1,
                    "eps": 0.5,
                    "snap_every": 1,
                    "snapshot_prefix": str(tmp_path / "snap"),
                    "out": str(tmp_path / "t.csv"),
                }
            )
        )
        code = main(["deconv", "--config", str(cfg), "--particles", "12"])
        assert code == EXIT_OK
        snap = load_csv(tmp_path / "snap_iter0001.csv")
        assert snap.n == 12  # the flag, not the config value

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "bogus": 2}))
        code = main(["deconv", "--config", str(cfg)])
        assert code == EXIT_ERROR
        assert "unknown config keys" in capsys.readouterr().err

    def test_non_object_config_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["deconv", "--config", str(cfg)]) == EXIT_ERROR

    def test_malformed_json_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["deconv", "--config", str(cfg)]) == EXIT_ERROR

    def test_missing_config_file_is_an_error(self, tmp_path, capsys):
        assert main(["deconv", "--config", str(tmp_path / "none.json")]) == EXIT_ERROR

    def test_config_rejects_unknown_experiment(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="nonsense", seed=0)

    def test_config_rejects_zero_particles(self):
        with pytest.raises(ValueError, match="particles and dim must be positive"):
            ExperimentConfig(experiment="deconv", seed=0, particles=0)

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_mapping({"experiment": "fw", "seed": 0, "nope": 1})


class TestFwCommand:
    def test_init_cloud_is_loaded_and_final_written(self, tmp_path):
        cloud = _cloud_csv(tmp_path, n=8)
        final = tmp_path / "final.csv"
        code = main(
            [
                "fw",
                "--seed",
                "1",
                "--eps",
                "10",
                "--init",
                str(cloud),
                "--out",
                str(tmp_path / "t.csv"),
                "--final-out",
                str(final),
            ]
        )
        assert code == EXIT_OK
        # loose threshold: converged on the first pass without moving
        np.testing.assert_allclose(
            load_csv(final).points, load_csv(cloud).points, atol=1e-15
        )

    def test_pair_flag_builds_interaction(self, tmp_path):
        code = main(
            [
                "fw",
                "--seed",
                "2",
                "--eps",
                "10",
                "--particles",
                "10",
                "--pair",
                "quadratic",
                "--out",
                str(tmp_path / "t.csv"),
            ]
        )
        assert code == EXIT_OK

    def test_trace_is_deterministic_up_to_wall_clock(self, tmp_path):
        argv = ["fw", "--seed", "9", "--eps", "1e-6", "--k-max", "4", "--particles", "20"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(out1)]) == EXIT_BUDGET
        assert main(argv + ["--out", str(out2)]) == EXIT_BUDGET
        assert _strip_wall(out1.read_text()) == _strip_wall(out2.read_text())


class TestFinalObjective:
    """The printed final objective is J of the returned cloud, not of the last iterate
    the trace recorded before its step."""

    @staticmethod
    def _printed(out):
        line = next(l for l in out.splitlines() if l.startswith("final objective"))
        return float(line.split()[2].rstrip(","))

    def test_fw_prints_objective_of_final_cloud(self, tmp_path, capsys):
        final = tmp_path / "final.csv"
        argv = ["fw", "--seed", "9", "--eps", "1e-6", "--k-max", "3", "--particles", "12"]
        argv += ["--out", str(tmp_path / "t.csv"), "--final-out", str(final)]
        assert main(argv) == EXIT_BUDGET
        printed = self._printed(capsys.readouterr().out)
        assert printed == PotentialInteraction(quadratic()).value(load_csv(final))

    def test_fw_prints_gradient_norm_of_final_cloud(self, tmp_path, capsys):
        """The printed s is the witness-gradient norm of the returned cloud, not
        the trace's last s, which was measured before the last step."""
        final = tmp_path / "final.csv"
        argv = ["fw", "--seed", "9", "--eps", "1e-6", "--k-max", "3", "--particles", "12"]
        argv += ["--out", str(tmp_path / "t.csv"), "--final-out", str(final)]
        assert main(argv) == EXIT_BUDGET
        out = capsys.readouterr().out.splitlines()
        line = next(l for l in out if l.startswith("final objective"))
        s = float(line.rsplit(" s ", 1)[1])
        J = PotentialInteraction(quadratic())
        mu = load_csv(final)
        assert s == mean_squared_gradient_norm(mu, J.derivative_oracle(mu, 1.0))
        assert s == 0.397029410440499
        assert s != read_trace(tmp_path / "t.csv")["s"][-1]

    def test_deconv_prints_objective_of_final_cloud(self, tmp_path, capsys):
        argv = ["deconv", "--seed", "0", "--particles", "12", "--k-max", "3"]
        assert main(argv + ["--out", str(tmp_path / "a.csv")]) == EXIT_OK
        printed = self._printed(capsys.readouterr().out)
        cfg = ExperimentConfig(
            experiment="deconv", seed=0, particles=12, k_max=3, out=str(tmp_path / "b.csv")
        )
        mu, _, J = run_deconv(cfg)
        assert printed == J.value(mu)


class TestTrustRegionCommand:
    def test_reports_solver_fields_and_writes_cloud(self, tmp_path, capsys):
        cloud = _cloud_csv(tmp_path, n=10, seed=4)
        moved = tmp_path / "moved.csv"
        code = main(
            [
                "trust-region",
                "--cloud",
                str(cloud),
                "--delta",
                "0.1",
                "--out",
                str(moved),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        fields = dict(
            line.split("=", 1) for line in out.splitlines() if "=" in line
        )
        assert float(fields["lambda"]) > 0.0
        assert 0.0 <= float(fields["gap"]) <= 1e-3 + 1e-9
        assert int(fields["oracle_calls"]) >= 1
        assert load_csv(moved).n == 10

    @pytest.mark.parametrize("eps", ["1e-2", "1e-8"])
    def test_reports_the_share_of_the_radius_the_step_used(self, tmp_path, capsys, eps):
        """radius_share, printed after gap, is the step's cost over delta^2 /
        2, in [0, 1 + 1e-12] since the certificate puts the step in the
        ball.  Two atoms at scale 1e-2 under delta = 0.125 of the admissible
        radius: at eps = 1e-8 the step uses 98% of the radius, at eps = 1e-2
        a certified step that is stepped far past the root uses 1e-8."""
        pts = 1e-2 * np.random.default_rng(0).normal(size=(2, 1))
        save_csv(ParticleCloud(pts), tmp_path / "cloud.csv")
        delta = 0.125 * float(np.sqrt(np.mean(pts**2))) / 2.0
        code = main(
            ["trust-region", "--cloud", str(tmp_path / "cloud.csv"), "--delta", repr(delta)]
            + ["--eps", eps]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        keys = [line.split("=", 1)[0] for line in lines]
        assert keys[keys.index("gap") + 1] == "radius_share"
        share = float(lines[keys.index("radius_share")].split("=", 1)[1])
        _, rep = trust_region_step(quadratic(), ParticleCloud(pts), delta, float(eps))
        assert share == rep.cost / (0.5 * delta**2)
        assert 0.0 <= share <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "atoms, flags, named",
        [
            (1, ["--delta", "1e300", "--eps", "0.1"], "delta = 1e+300"),
            (3, ["--delta", "1e-300", "--eps", "1e-300"], "delta = 1e-300: delta^2 / 2 underflows"),
            (3, ["--delta", "1e-160", "--eps", "1e-10"], "lam_hat = 1.41"),
            (
                3,
                ["--objective", "double-well", "--delta", "1e-160", "--eps", "1e-10"],
                "lam_hat = 1.41",
            ),
            (3, ["--delta", "1e-150", "--eps", "1e-280"], "delta = 1e-150, eps = 1e-280"),
        ],
        ids=[
            "square-overflows",
            "square-underflows",
            "slope-underflows",
            "double-well-slope-underflows",
            "prox-tolerance-underflows",
        ],
    )
    def test_radius_past_the_float_range_is_a_typed_error(
        self, tmp_path, capsys, atoms, flags, named
    ):
        """One atom at the origin with delta = 1e300 (delta^2 overflows), or
        three at (1, 1) with delta^2 / 2 underflowing to 0, or subnormal
        (the bracket's right end overflows), or with a tolerance that
        underflows to 0 over the dual bracket of width ~ 1 / delta: exit 1
        with the typed error's message, not a traceback or a raw
        ValueError."""
        cloud = tmp_path / "cloud.csv"
        save_csv(ParticleCloud([[0.0, 0.0]] if atoms == 1 else [[1.0, 1.0]] * 3), cloud)
        code = main(["trust-region", "--cloud", str(cloud)] + flags)
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_sampled_search_flags_are_refused(self, tmp_path, capsys):
        """The step draws nothing, so it takes no sampled-search flags, and
        no seed: argparse refuses each with exit 2 before any step runs."""
        cloud = _cloud_csv(tmp_path)
        for flags in (["--stochastic"], ["--gamma", "0.3"], ["--seed", "0"]):
            with pytest.raises(SystemExit) as info:
                main(["trust-region", "--cloud", str(cloud), "--delta", "0.1"] + flags)
            assert info.value.code == 2
            assert "unrecognized arguments: " + flags[0] in capsys.readouterr().err


class TestDeconvRunner:
    def test_snapshots_follow_the_period(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="deconv",
            seed=0,
            particles=15,
            eps=1e-6,
            k_max=4,
            snap_every=2,
            out=str(tmp_path / "t.csv"),
            snapshot_prefix=str(tmp_path / "c"),
        )
        _, trace, _ = run_deconv(cfg)
        assert len(trace) == 4
        assert (tmp_path / "c_iter0002.csv").exists()
        assert (tmp_path / "c_iter0004.csv").exists()
        assert not (tmp_path / "c_iter0001.csv").exists()
        assert not (tmp_path / "c_iter0003.csv").exists()

    def test_trace_is_deterministic_up_to_wall_clock(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            cfg = ExperimentConfig(
                experiment="deconv",
                seed=3,
                particles=12,
                eps=1e-6,
                k_max=2,
                out=str(tmp_path / name),
            )
            run_deconv(cfg)
            outs.append(_strip_wall((tmp_path / name).read_text()))
        assert outs[0] == outs[1]


class TestMmdFlowCommand:
    def _argv(self, tmp_path, out, base):
        return [
            "mmd-flow",
            "--seed",
            "6",
            "--particles",
            "20",
            "--features",
            "16",
            "--eps",
            "0.5",
            "--k-max",
            "4",
            "--out",
            str(tmp_path / out),
            "--baseline-out",
            str(tmp_path / base),
        ]

    def test_traces_share_the_gradient_evaluation_axis(self, tmp_path, capsys):
        code = main(self._argv(tmp_path, "fw.csv", "base.csv"))
        assert code == EXIT_OK
        fw = read_trace(tmp_path / "fw.csv")
        base = read_trace(tmp_path / "base.csv")
        assert list(fw) == ["grad_evals", "J", "val"]
        assert list(base) == ["grad_evals", "J", "val"]
        assert fw["grad_evals"] == sorted(fw["grad_evals"])
        assert all(b > 0 for b in np.diff(base["grad_evals"]))
        # the baseline consumes the same budget the outer loop used
        assert base["grad_evals"][-1] >= fw["grad_evals"][-1]
        assert base["grad_evals"][-1] - fw["grad_evals"][-1] < 20

    def test_rerun_is_byte_identical(self, tmp_path):
        assert main(self._argv(tmp_path, "f1.csv", "b1.csv")) == EXIT_OK
        assert main(self._argv(tmp_path, "f2.csv", "b2.csv")) == EXIT_OK
        assert (tmp_path / "f1.csv").read_bytes() == (tmp_path / "f2.csv").read_bytes()
        assert (tmp_path / "b1.csv").read_bytes() == (tmp_path / "b2.csv").read_bytes()


class TestMixtureObservations:
    def test_shapes_and_determinism(self):
        obs1, lat1 = make_mixture_observations(40, 0.25, np.random.default_rng(0), dim=3)
        obs2, lat2 = make_mixture_observations(40, 0.25, np.random.default_rng(0), dim=3)
        assert obs1.shape == lat1.shape == (40, 3)
        np.testing.assert_array_equal(obs1, obs2)
        np.testing.assert_array_equal(lat1, lat2)

    def test_latents_cluster_on_the_mode_circle(self):
        _, lat = make_mixture_observations(
            300, 0.25, np.random.default_rng(1), dim=2, radius=1.2, mode_std=0.05
        )
        norms = np.linalg.norm(lat, axis=1)
        assert abs(float(np.mean(norms)) - 1.2) < 0.05

    def test_noise_variance_matches_sigma2(self):
        obs, lat = make_mixture_observations(
            4000, 0.09, np.random.default_rng(2), dim=2
        )
        noise = obs - lat
        assert float(np.var(noise)) == pytest.approx(0.09, rel=0.1)


class TestReadTrace:
    def test_headerless_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MissingColumn):
            read_trace(path)


class TestPlotCommand:
    def _trace(self, tmp_path, name="tr.csv", rows=((1, 10.0), (2, 5.0), (3, 2.5))):
        path = tmp_path / name
        path.write_text("iter,J\n" + "".join(f"{i},{j}\n" for i, j in rows))
        return path

    def test_three_row_polyline_vertices(self, tmp_path):
        """x in [1,3] maps to [64, 620]; y in [2.5,10] maps to [372, 36]."""
        tr = self._trace(tmp_path)
        out = tmp_path / "chart.svg"
        assert main(["plot", str(tr), "--out", str(out)]) == EXIT_OK
        svg = out.read_text()
        assert '<polyline points="64.00,36.00 342.00,260.00 620.00,372.00"' in svg
        assert ">tr</text>" in svg  # legend label is the basename

    def test_flat_range_widens_past_an_absorbed_unit(self, tmp_path):
        """A one-row trace has flat axes.  At J = 1e17, 1e17 + 1 rounds back
        to 1e17, so the y range widens by one ulp there and the chart still
        renders, its lone vertex at the bottom left."""
        tr = self._trace(tmp_path, rows=((1, 1e17),))
        out = tmp_path / "c.svg"
        assert main(["plot", str(tr), "--out", str(out)]) == EXIT_OK
        ET.parse(out)
        assert '<polyline points="64.00,372.00"' in out.read_text()

    def test_missing_column_is_an_error(self, tmp_path, capsys):
        tr = self._trace(tmp_path)
        code = main(["plot", str(tr), "--out", str(tmp_path / "c.svg"), "--y", "zeta"])
        assert code == EXIT_ERROR
        assert "zeta" in capsys.readouterr().err

    def test_log_scale_rejects_nonpositive_values(self, tmp_path, capsys):
        tr = self._trace(tmp_path, rows=((1, 1.0), (2, 0.0)))
        code = main(["plot", str(tr), "--out", str(tmp_path / "c.svg"), "--log-y"])
        assert code == EXIT_ERROR

    def test_chart_bytes_are_reproducible(self, tmp_path):
        tr1 = self._trace(tmp_path, "a.csv")
        tr2 = self._trace(tmp_path, "b.csv", rows=((1, 8.0), (2, 4.0), (3, 2.0)))
        for out in ("c1.svg", "c2.svg"):
            assert (
                main(
                    [
                        "plot",
                        str(tr1),
                        str(tr2),
                        "--out",
                        str(tmp_path / out),
                        "--title",
                        "joint",
                    ]
                )
                == EXIT_OK
            )
        assert (tmp_path / "c1.svg").read_bytes() == (tmp_path / "c2.svg").read_bytes()

    def test_legend_follows_input_order(self, tmp_path):
        tr1 = self._trace(tmp_path, "first.csv")
        tr2 = self._trace(tmp_path, "second.csv")
        out = tmp_path / "c.svg"
        assert main(["plot", str(tr2), str(tr1), "--out", str(out)]) == EXIT_OK
        svg = out.read_text()
        assert svg.index(">second<") < svg.index(">first<")


class TestLineChart:
    def test_empty_input_renders_axes_only(self):
        svg = line_chart([])
        assert svg.startswith("<svg")
        assert "<polyline" not in svg
        assert svg.count("<rect") == 2  # background and axes box

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            line_chart([("a", [1, 2], [1.0])])

    def test_text_is_escaped(self):
        """Titles and legend labels (trace file names, for `wfw plot`) may hold
        XML metacharacters; the chart still parses and keeps the raw text."""
        svg = line_chart([("a<b", [0, 1], [1, 2])], title="J & s")
        texts = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert "J & s" in texts and "a<b" in texts

    def test_flat_range_widens_by_one(self):
        """x = 0 and y = 3 alone span [0, 1] and [3, 4]."""
        svg = line_chart([("a", [0], [3.0])])
        assert all(f">{t}<" in svg for t in ("0", "1", "3", "3.25", "4"))

    def test_log_ticks_label_the_raw_scale(self):
        svg = line_chart([("a", [0, 1], [1.0, 100.0])], log_y=True)
        assert ">100<" in svg
        assert ">1<" in svg
