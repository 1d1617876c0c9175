"""Outer-loop schedule, gradient-norm estimator, and trace tests."""

import hashlib
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from wfw import cloud, frank_wolfe, moreau
from wfw.cloud import (
    ParticleCloud,
    mean_squared_gradient,
    mean_squared_gradient_norm,
    sqdist_matrix,
    wasserstein2_exact,
)
from wfw.dual_solvers import TrustRegionIndicator, root_estimate, trust_region_step
from wfw.errors import RadiusOutOfRange
from wfw.experiments import ExperimentConfig, read_trace, run_deconv
from wfw.frank_wolfe import (
    FWConfig,
    FWTrace,
    counted_model,
    estimate_gradient_norm,
    run_frank_wolfe,
)
from wfw.functionals import EntropicDeconv, PotentialInteraction
from wfw.moreau import SmoothObjective
from wfw.registry import linear, make_objective, make_pair, quadratic


def _interaction():
    return PotentialInteraction(quadratic())


def _uniform_cloud(n=50, d=2, seed=42):
    rng = np.random.default_rng(seed)
    return ParticleCloud(rng.uniform(-1.0, 1.0, size=(n, d)))


class TestFWConfig:
    def test_schedule_formulas(self):
        tau, theta, big_t, alpha = 2.0, 1.0, 4.0, 0.5
        delta1, delta2, lsm, eps = 0.3, 0.2, 2.0, 0.1
        cfg = FWConfig.from_schedule(tau, theta, big_t, alpha, delta1, delta2, lsm, eps)
        r = 0.5 * tau * eps**theta
        alpha_star = (1.0 + alpha) / alpha
        assert cfg.beta1 == min(delta1, delta2)
        assert cfg.beta2 == pytest.approx(alpha / (4.0 * lsm))
        assert cfg.beta3 == pytest.approx(
            (1.0 - alpha / 2.0) ** (1.0 / alpha) * big_t ** (-1.0 / alpha)
        )
        assert cfg.r == pytest.approx(r)
        assert cfg.eps_hat == pytest.approx(r / (2.0 * alpha_star))
        assert cfg.eps_tilde == pytest.approx(r / (4.0 * alpha_star))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", 0.0),
            ("alpha", 1.5),
            ("beta1", -1.0),
            ("beta2", 0.0),
            ("eps_hat", 0.0),
            ("eps_tilde", -1e-3),
            ("r", -0.1),
            ("k_max", 0),
            ("alpha", math.nan),
            ("beta1", math.nan),
            ("beta2", math.nan),
            ("beta3", math.nan),
            ("r", math.nan),
            ("eps_hat", math.nan),
            ("eps_tilde", math.nan),
        ],
    )
    def test_rejects_bad_fields(self, field, value):
        good = dict(
            beta1=0.1,
            beta2=0.2,
            beta3=0.3,
            r=0.01,
            eps_hat=1e-3,
            eps_tilde=1e-3,
        )
        good[field] = value
        with pytest.raises(ValueError):
            FWConfig(**good)

    @pytest.mark.parametrize(
        "arg",
        ["tau", "theta", "big_t", "alpha", "delta1", "delta2", "smoothness", "eps"],
    )
    def test_from_schedule_names_a_nan_argument(self, arg):
        """A NaN argument is refused under its own name, before any division
        (min(delta1, nan) would otherwise drop it)."""
        args = dict(
            tau=1.0,
            theta=1.0,
            big_t=1.0,
            alpha=1.0,
            delta1=0.1,
            delta2=0.1,
            smoothness=1.0,
            eps=1e-2,
        )
        args[arg] = math.nan
        with pytest.raises(ValueError, match=rf"^{arg} must .*nan"):
            FWConfig.from_schedule(**args)

    @pytest.mark.parametrize("arg, value", [("big_t", 1e300), ("tau", 1e-300), ("tau", 1.0)])
    def test_from_schedule_refuses_the_steps_the_search_refuses(self, arg, value):
        """A run steps only while s > r, so its smallest radius and tolerance
        are the schedule's at s = r.  from_schedule refuses an input exactly
        where the search's own checks refuse that step on a quadratic cloud
        of gradient norm r (L = 1): for a huge big_t (no finite bracket) and
        a tiny tau (no tolerance above 0), by name, and not at the unit
        schedule, whose step certifies."""
        args = dict(
            tau=1.0, theta=1.0, big_t=1.0, alpha=1.0, delta1=0.5, delta2=0.5,
            smoothness=1.0, eps=1e-2,
        )
        args[arg] = value
        r = 0.5 * args["tau"] * args["eps"]
        delta = min(0.5, 0.25 * r, 0.5 / args["big_t"] * r)  # beta2 = 1/4, beta3 = 1/(2T)
        zeta = delta * r / 8.0  # eps_tilde = r / (4 alpha*), alpha* = 2
        pts = np.random.default_rng(0).normal(size=(4, 2))
        mu = ParticleCloud(pts * (r / math.sqrt(np.mean(np.sum(pts**2, axis=1)))))
        try:
            _, rep = trust_region_step(quadratic(), mu, delta, zeta)
        except (RadiusOutOfRange, ValueError):  # eps must be positive
            rep = None
        assert (rep is None) == (value != 1.0)
        if rep is not None:
            assert rep.gap <= zeta
            assert FWConfig.from_schedule(**args).eps_tilde == r / 8.0
            return
        with pytest.raises(ValueError, match=re.escape(f"{arg} = {value!r}")):
            FWConfig.from_schedule(**args)


class TestEstimateGradientNorm:
    def test_small_cloud_is_exact_full_batch(self):
        """Bit for bit the full-batch norm, whatever the cloud's size."""
        for n in (40, 5000):
            mu = _uniform_cloud(n, 3, seed=1)
            phi = quadratic()
            s = estimate_gradient_norm(phi, mu)
            assert s == mean_squared_gradient_norm(mu, phi)


class TestCountedModel:
    def test_row_accounting(self):
        counter = {"rows": 0}
        phi = counted_model(quadratic(), counter)
        phi.grad_many(np.array([[1.0, 2.0]]))
        phi.grad_many(np.zeros((7, 2)))
        assert counter["rows"] == 8

    def test_norm_estimate_charges_one_row_per_atom(self):
        for n in (23, 5000):
            counter = {"rows": 0}
            mu = _uniform_cloud(n, 2, seed=5)
            phi = counted_model(quadratic(), counter)
            s = estimate_gradient_norm(phi, mu)
            assert counter["rows"] == n
            assert s == mean_squared_gradient_norm(mu, quadratic())

    def test_wrapper_keeps_the_model_fields(self):
        f = make_objective("double-well")
        phi = counted_model(f, {"rows": 0})
        assert isinstance(phi, SmoothObjective) and phi.grad_many is not f.grad_many
        kept = [field.name for field in fields(SmoothObjective) if field.name != "grad_many"]
        assert all(getattr(phi, name) is getattr(f, name) for name in kept)

    def test_a_cloud_is_evaluated_once_and_shared_read_only(self):
        """A repeat over a cloud's own points is a memo hit: it counts no rows
        and returns the same read-only array.  A writeable copy of the same
        points is evaluated, and counted, afresh."""
        counter = {"rows": 0}
        mu = _uniform_cloud(9, 2, seed=3)
        phi = counted_model(linear(np.array([0.5, -1.0])), counter)
        first = phi.grad_many(mu.points)
        assert phi.grad_many(mu.points) is first
        assert not first.flags.writeable
        fresh = phi.grad_many(mu.points.copy())
        assert fresh.flags.writeable
        np.testing.assert_array_equal(fresh, first)
        assert counter["rows"] == 18

    def test_atom_gradients_seed_the_memo_of_a_kept_cloud_only(self):
        """Rows a model hands over for a cloud's own points are returned as
        they are and count nothing; a writeable copy is evaluated and
        counted.  Rows handed over for a writeable array are never used:
        it may change before the call."""
        mu = _uniform_cloud(9, 2, seed=4)
        f = linear(np.array([0.5, -1.0]))
        given = np.zeros((9, 2))
        given.setflags(write=False)
        counter = {"rows": 0}
        phi = counted_model(replace(f, atom_gradients=(mu.points, given)), counter)
        assert phi.grad_many(mu.points) is given
        assert counter["rows"] == 0
        np.testing.assert_array_equal(phi.grad_many(mu.points.copy()), f.grad_many(mu.points))
        assert counter["rows"] == 9
        loose = mu.points.copy()
        phi = counted_model(replace(f, atom_gradients=(loose, given)), counter)
        np.testing.assert_array_equal(phi.grad_many(loose), f.grad_many(loose))
        assert counter["rows"] == 18


class _AuditedFunctional:
    """Counts witness-gradient rows independently of the loop's own counter."""

    def __init__(self, inner):
        self.inner = inner
        self.rows = 0
        self.marks = []

    def value(self, mu):
        return self.inner.value(mu)

    def derivative_oracle(self, mu, eps):
        self.marks.append(self.rows)
        model = self.inner.derivative_oracle(mu, eps)
        outer = self

        def grad(x):
            outer.rows += 1
            return model.grad(x)

        def grad_many(x):
            outer.rows += np.atleast_2d(np.asarray(x)).shape[0]
            return model.grad_many(x)

        return SmoothObjective(
            eval=model.eval,
            grad=grad,
            smoothness=model.smoothness,
            semiconvexity=model.semiconvexity,
            eval_many=model.eval_many,
            grad_many=grad_many,
        )


class TestRunFrankWolfe:
    def _cfg(self, eps, k_max, **kw):
        defaults = dict(
            tau=1.0,
            theta=1.0,
            big_t=1.0,
            alpha=1.0,
            delta1=0.1,
            delta2=0.1,
            smoothness=1.0,
            eps=eps,
            k_max=k_max,
            seed=7,
        )
        defaults.update(kw)
        return FWConfig.from_schedule(**defaults)

    def test_converges_immediately_when_threshold_is_loose(self):
        mu0 = _uniform_cloud()
        seen = []
        mu, trace = run_frank_wolfe(
            _interaction(), mu0, self._cfg(eps=10.0, k_max=50),
            on_iterate=lambda i, c: seen.append((i, c)),
        )
        assert trace.status == "converged"
        assert len(trace) == 1 and list(trace.iters) == [1]
        assert seen == [(1, mu)]
        np.testing.assert_allclose(mu.points, mu0.points)
        assert trace.final_objective == trace.objective[0]

    def test_final_objective_is_that_of_the_returned_cloud(self, tmp_path):
        """The trace's last J was measured before the last step: on deconv
        seed 0 it reads 0.5382559, against 0.5379641 for the returned cloud.
        The run's last solve was seeded with the v of the four clouds
        before, extrapolated, and a fresh functional's starts from v = 0;
        both meet tol, so they agree within tol * max cost
        (`test_functionals._agreement_bound`)."""
        cfg = ExperimentConfig(experiment="deconv", seed=0, out=str(tmp_path / "d.csv"))
        mu, trace, J = run_deconv(cfg)
        fresh = EntropicDeconv(J.sigma2, J.data, tol=J.tol)
        bound = J.tol * 0.5 * float(sqdist_matrix(mu.points, J.data.points).max())
        assert abs(trace.final_objective - fresh.value(mu)) <= bound
        assert trace.final_objective == pytest.approx(0.5379641, abs=1e-7)
        assert trace.objective[-1] == pytest.approx(0.5382559, abs=1e-7)

    def test_budget_exhaustion_and_scheduled_radius_identity(self):
        cfg = self._cfg(eps=1e-4, k_max=12)
        mu, trace = run_frank_wolfe(_interaction(), _uniform_cloud(), cfg)
        assert trace.status == "budget-exhausted"
        assert len(trace) == 12
        for s, d, z in zip(trace.s, trace.delta, trace.zeta):
            assert d == min(cfg.beta1, cfg.beta2 * s, cfg.beta3 * s ** (1.0 / cfg.alpha))
            assert z == d * cfg.eps_tilde
        # the witness-gradient norm decays along the run
        assert trace.s[-1] < trace.s[0]

    def test_sample_column_matches_independent_recount(self):
        audited = _AuditedFunctional(_interaction())
        _, trace = run_frank_wolfe(audited, _uniform_cloud(), self._cfg(1e-4, 6))
        bounds = audited.marks + [audited.rows]
        recount = [bounds[k + 1] - bounds[k] for k in range(len(trace))]
        assert list(trace.samples) == recount

    def test_same_seed_same_trace(self):
        cfg = self._cfg(1e-4, 8)
        _, t1 = run_frank_wolfe(_interaction(), _uniform_cloud(), cfg)
        _, t2 = run_frank_wolfe(_interaction(), _uniform_cloud(), cfg)
        assert t1.objective == t2.objective
        assert t1.s == t2.s
        assert t1.samples == t2.samples

    def test_large_cloud_steps_on_its_exact_norm(self):
        """Above 4,096 atoms each step's s is the exact norm of the cloud
        entering it.  The norm's n rows are the ones the step's dual
        reuses, and each prox pass on this quadratic witness adds one
        gradient per row: 3n rows for the first step's two passes, 2n for
        the later steps, whose first pass sits at the root the earlier
        steps predict."""
        mu0 = _uniform_cloud(5000, 2, seed=0)
        cfg = self._cfg(1e-2, 3, delta1=0.5, delta2=0.5, seed=0)
        J = _interaction()
        clouds = [mu0]
        _, trace = run_frank_wolfe(
            J, mu0, cfg, on_iterate=lambda i, c: clouds.append(c)
        )
        assert len(trace) == 3
        for s, mu in zip(trace.s, clouds):
            assert s == mean_squared_gradient_norm(
                mu, J.derivative_oracle(mu, cfg.eps_hat)
            )
        assert list(trace.samples) == [15000, 10000, 10000]

    def _gate_8_run(self):
        cfg = self._cfg(
            2.0 * 0.01 / math.sqrt(6.0),
            110,
            tau=math.sqrt(6.0),
            big_t=0.5,
            delta1=0.0055,
            delta2=0.0055,
            seed=42,
        )
        return run_frank_wolfe(_interaction(), _uniform_cloud(50, 2, seed=42), cfg)[1]

    def test_radius_drops_the_holder_term_past_the_float_range(self):
        """At alpha = 0.001 the term beta3 s^(1/alpha) overflows once s passes
        about 2.03; the radius is then min(beta1, beta2 s), and the loop
        steps where it once raised a raw OverflowError."""
        cfg = FWConfig(
            beta1=0.1, beta2=0.25, beta3=0.5, r=1e-3, eps_hat=1e-4, eps_tilde=1e-4,
            k_max=1, alpha=0.001,
        )
        assert (cfg.radius(3.0), cfg.radius(0.0)) == (0.1, 0.0)
        mu = ParticleCloud(3.0 * _uniform_cloud().points)
        _, trace = run_frank_wolfe(_interaction(), mu, cfg)
        assert trace.s[0] > 2.03 and list(trace.delta) == [0.1]

    def test_gate_8_steps_after_the_second_make_one_pass(self):
        """On the gate-8 config a step reads n = 50 witness rows for s and
        n per prox pass.  The first step passes twice; from the third on,
        the root predicted from the two steps before certifies at the
        first pass on every step but at most one."""
        rows = list(self._gate_8_run().samples)
        assert len(rows) == 110 and rows[0] == 150
        assert set(rows[2:]) <= {100, 150} and rows[2:].count(150) <= 1
        assert sum(rows) == 11050

    def test_a_step_squares_the_gradient_rows_of_its_atoms_once(self, monkeypatch):
        """The norm pass, the dual's m2 and the first prox pass's budgets
        share one `gradient_sqnorms` entry: the squared row norms of the
        atoms' gradient are taken once per step, and the prox squares only
        its own fresh residuals and displacements, never the read-only
        centre gradient."""
        calls = []
        square = cloud.row_sqnorm

        def spy(where):
            def counted(a):
                calls.append((where, a.shape, a.flags.writeable))
                return square(a)

            return counted

        for module in (cloud, moreau):
            monkeypatch.setattr(module, "row_sqnorm", spy(module.__name__))
        _, trace = run_frank_wolfe(_interaction(), _uniform_cloud(), self._cfg(1e-6, 3))
        assert len(trace) == 3 and len(calls) > 3
        assert [c for c in calls if not c[2]] == [("wfw.cloud", (50, 2), False)] * 3

    def test_gate_8_trace_replays_its_recorded_cells(self, tmp_path):
        """The gate-8 trace, every cell but the wall clock, hashes to the
        recorded run's bytes, with its final objective and 11,050 witness
        rows: a leaner step may move no bit of the loop's output."""
        trace = self._gate_8_run()
        trace.to_csv(tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        cells = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines).encode()
        assert hashlib.sha256(cells).hexdigest() == (
            "f10bab0169ffcfe50551a85c1e4827d8eb8a02a5cac8dba7b44cd401c7d85e91"
        )
        assert trace.final_objective == 0.0137903022005499
        assert sum(trace.samples) == 11050

    def test_hint_extrapolates_the_root_ratios_of_the_last_two_steps(self, monkeypatch):
        """Step k's hint over s / delta is 2 q(k-1) - q(k-2), q the root
        estimate of a step's certifying pass over s / delta (held when
        only one is known; nan, no hint, on the first step).  A radius
        rejected by the admissible bound keeps the ratio: the retry's hint
        is it times s over the admitted delta."""
        calls = []

        def spy(f, mu, delta, *args, root_hint=None):
            calls.append((math.sqrt(mean_squared_gradient(mu, f)), delta, root_hint))
            sampler, rep = trust_region_step(f, mu, delta, *args, root_hint=root_hint)
            calls[-1] += (rep,)
            return sampler, rep

        monkeypatch.setattr(frank_wolfe, "trust_region_step", spy)
        cfg = replace(self._misdeclared_cfg(), k_max=4)
        run_frank_wolfe(_interaction(), _uniform_cloud(), cfg)
        rejected, steps = calls[0::2], calls[1::2]
        assert len(steps) == 4 and all(len(c) == 3 for c in rejected)
        q = [
            root_estimate(TrustRegionIndicator(delta), s * s, rep.lambda_star, rep.cost)
            / (s / delta)
            for s, delta, _, rep in steps
        ]
        want = [math.nan, q[0], 2.0 * q[1] - q[0], 2.0 * q[2] - q[1]]
        for (s, d0, h0), (_, d1, h1, _), ratio in zip(rejected, steps, want):
            assert d1 == s / 2.0 < d0
            np.testing.assert_array_equal([h0, h1], [ratio * (s / d0), ratio * (s / d1)])

    def test_a_step_without_displacement_gives_no_hint(self, monkeypatch):
        """A certifying pass with cbar = 0 estimates no root: the next step
        runs without a hint (nan) and the one after holds that step's ratio."""
        hints = []

        def spy(f, mu, delta, *args, root_hint=None):
            hints.append(root_hint)
            sampler, rep = trust_region_step(f, mu, delta, *args, root_hint=root_hint)
            return sampler, replace(rep, cost=0.0) if len(hints) == 2 else rep

        monkeypatch.setattr(frank_wolfe, "trust_region_step", spy)
        run_frank_wolfe(_interaction(), _uniform_cloud(), self._cfg(1e-4, 5))
        assert [math.isnan(h) for h in hints] == [True, False, True, False, False]

    def _misdeclared_cfg(self):
        """Declares L = 0.001 for a witness of smoothness 1: the scheduled
        radius lands at 2 s while the admissible bound is s / 2."""
        return self._cfg(
            1e-4, 1, delta1=10.0, delta2=10.0, smoothness=0.001, big_t=0.25
        )

    def test_oversized_schedule_steps_at_the_admissible_radius(self):
        """The rejected radius is replaced by the admissible bound the error
        carries, s / (2 L) at L = 1, and the trace records the radius and
        tolerance the step used, not the scheduled ones."""
        cfg = self._misdeclared_cfg()
        _, trace = run_frank_wolfe(_interaction(), _uniform_cloud(), cfg)
        s = trace.s[0]
        assert min(cfg.beta1, cfg.beta2 * s, cfg.beta3 * s) == 2.0 * s
        assert trace.delta[0] == s / 2.0
        assert trace.zeta[0] == trace.delta[0] * cfg.eps_tilde

    @pytest.mark.parametrize("run", ["fw-rate", "double-well-pair", "misdeclared"])
    def test_every_step_stays_in_its_ball(self, run):
        """W2(mu_k, mu_k+1) <= delta_k for every recorded step."""
        if run == "fw-rate":
            J, mu0 = _interaction(), _uniform_cloud(20, 2, seed=0)
            cfg = self._cfg(
                2.0 * 0.01 / math.sqrt(6.0),
                110,
                tau=math.sqrt(6.0),
                big_t=0.5,
                delta1=0.0055,
                delta2=0.0055,
                seed=0,
            )
        elif run == "double-well-pair":
            objective = make_objective("double-well")
            J = PotentialInteraction(objective, make_pair("double-well"))
            mu0 = _uniform_cloud(12, 2, seed=0)
            smoothness = J.derivative_oracle(mu0, 1.0).smoothness
            cfg = self._cfg(1e-2, 5, delta1=0.5, delta2=0.5, smoothness=smoothness)
        else:
            J, mu0, cfg = _interaction(), _uniform_cloud(), self._misdeclared_cfg()
        clouds = [mu0]
        _, trace = run_frank_wolfe(
            J, mu0, cfg, on_iterate=lambda i, c: clouds.append(c)
        )
        assert len(clouds) == len(trace) + 1
        for k, delta in enumerate(trace.delta):
            dist, _ = wasserstein2_exact(clouds[k], clouds[k + 1])
            assert dist <= delta * math.sqrt(1.0 + 1e-6)


class TestTraceSerialization:
    def test_csv_header_and_roundtrip(self, tmp_path):
        trace = FWTrace()
        trace.append(1, 0.123456789012345678, 0.5, 0.25, 1e-3, 100, 12.3456)
        trace.append(2, 1.0 / 3.0, 0.25, 0.125, 5e-4, 200, 0.789)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,J,s,delta,zeta,samples,wall_ms"
        assert len(lines) == 3
        cols = read_trace(path)
        assert cols["iter"] == [1.0, 2.0]
        assert cols["J"] == [0.123456789012345678, 1.0 / 3.0]
        assert cols["samples"] == [100.0, 200.0]

    def test_columns_are_compact_arrays(self):
        """Eight bytes per entry, with list-like reads."""
        trace = FWTrace()
        trace.append(1, 0.5, 0.25, 0.125, 1e-3, 100, 1.5)
        trace.append(2, 0.25, 0.125, 0.0625, 5e-4, 200, 2.5)
        columns = [trace.iters, trace.objective, trace.s, trace.delta]
        columns += [trace.zeta, trace.samples, trace.wall_ms]
        assert [c.typecode for c in columns] == ["q", "d", "d", "d", "d", "q", "d"]
        assert all(c.itemsize == 8 for c in columns)
        assert trace.objective[-1] == 0.25 and list(trace.iters) == [1, 2]
        assert list(np.cumsum(trace.samples)) == [100, 300]

    def test_len_tracks_rows(self):
        trace = FWTrace()
        assert len(trace) == 0
        trace.append(1, 0.0, 0.0, 0.0, 0.0, 0, 0.0)
        assert len(trace) == 1
