"""Acceptance gates binding the whole stack, in dependency order.

Each test is an end-to-end contract: closed-form oracles for the exact
transport and prox layers, duality and concentration guarantees for the
dual solvers, rate and monotonicity properties for the outer loop and the
two shipped experiments, and byte-level determinism for every trace the
suite produces.  Expected values are either closed forms computed in the
test body or frozen outputs of independent reference computations.
"""

import itertools
import math
import time

import numpy as np
import pytest

from wfw.cloud import ParticleCloud, wasserstein2_exact
from wfw.dual_solvers import (
    PowerPenalty,
    TrustRegionIndicator,
    dual_interval,
    mirror_ascent,
    mirror_ascent_envelope,
    primal_dual_bisection,
    trust_region_step,
)
from wfw.experiments import ExperimentConfig, run_deconv, run_mmd_flow
from wfw.frank_wolfe import FWConfig, run_frank_wolfe
from wfw.functionals import PotentialInteraction
from wfw.moreau import (
    agd_prox_batch,
    g_value_and_grad_fullbatch,
    hp_sample_count,
    supergradient_hp,
)
from wfw.registry import linear, quadratic


def _strip_wall(text):
    """Trace lines without the wall-clock column (the one nondeterministic field)."""
    return [line.rsplit(",", 1)[0] for line in text.splitlines()]


# ---------------------------------------------------------------------------
# gate 1: exact transport against brute-force enumeration


def test_exact_transport_matches_permutation_enumeration():
    start = time.perf_counter()
    for inst in range(200):
        rng = np.random.default_rng(inst)
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(n, d))
        cost = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
        best = min(
            float(np.mean(cost[np.arange(n), list(perm)]))
            for perm in itertools.permutations(range(n))
        )
        dist, _ = wasserstein2_exact(ParticleCloud(x), ParticleCloud(y))
        assert abs(dist**2 - best) <= 1e-9
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# gate 2: prox closed forms and the iteration-budget ceiling


def _prox_iteration_ceiling(f, x, lam, eps):
    gnorm = float(np.linalg.norm(np.asarray(f.grad(x), dtype=np.float64)))
    if gnorm == 0.0:
        return 0
    kappa = math.sqrt((lam + f.semiconcavity) / (lam - f.semiconvexity))
    return max(math.ceil(4.0 * kappa * math.log(12.0 * kappa * gnorm / eps)), 0)


def test_prox_reaches_closed_forms_within_budget():
    start = time.perf_counter()
    eps = 1e-8
    for inst in range(100):
        rng = np.random.default_rng(inst)
        d = int(rng.integers(1, 4))
        x = rng.normal(size=d)
        lam = 0.2 + 7.8 * float(rng.uniform())
        if inst % 2 == 0:
            f = quadratic()
            y_star = lam * x / (1.0 + lam)
            theta_star = 0.5 * float(x @ x) / (1.0 + lam) ** 2
        else:
            a = rng.normal(size=d)
            f = linear(a)
            y_star = x - a / lam
            theta_star = float(a @ a) / (2.0 * lam**2)
        y, theta, iters, _ = agd_prox_batch(f, x[None, :], lam, eps)
        np.testing.assert_allclose(y[0], y_star, atol=1e-6)
        assert abs(theta[0] - theta_star) <= 1e-6
        assert iters[0] <= _prox_iteration_ceiling(f, x, lam, eps)
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# gate 3: envelope-derivative identity, shape, and Holder continuity


def test_envelope_derivative_identities_hold_on_grids():
    start = time.perf_counter()
    f = quadratic()
    h = 1e-4
    grid = np.linspace(1.1, 8.0, 12)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        mu = ParticleCloud(rng.normal(size=(10, 2)) * (0.5 + seed))
        vals, ders = [], []
        for lam in grid:
            g, gp = g_value_and_grad_fullbatch(f, mu, float(lam), 1e-10)
            g_hi, _ = g_value_and_grad_fullbatch(f, mu, float(lam) + h, 1e-10)
            g_lo, _ = g_value_and_grad_fullbatch(f, mu, float(lam) - h, 1e-10)
            assert abs((g_hi - g_lo) / (2.0 * h) - gp) <= 1e-3
            vals.append(g)
            ders.append(gp)
        vals = np.array(vals)
        ders = np.array(ders)
        assert np.all(np.diff(vals) >= -1e-8)  # g nondecreasing
        assert np.all(np.diff(ders) <= 1e-8)  # g' nonincreasing
        assert np.all(np.diff(vals, 2) <= 1e-8)  # concavity on the uniform grid
        # square-root-type continuity of g' between any two grid points
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                factor = 1.0 - 2.0 * math.sqrt(
                    (grid[j] - grid[i]) / (grid[j] - f.semiconvexity)
                )
                assert factor * ders[i] <= ders[j] + 1e-6
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# gate 4: trust-region closed form on linear objectives


def test_trust_region_linear_closed_form_suite():
    start = time.perf_counter()
    for inst in range(50):
        rng = np.random.default_rng(inst)
        n = int(rng.integers(5, 21))
        d = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, d))
        a = rng.normal(size=d)
        a *= (0.8 + 1.2 * float(rng.uniform())) / float(np.linalg.norm(a))
        na = float(np.linalg.norm(a))
        delta = (0.1 + 0.4 * float(rng.uniform())) * na
        mu = ParticleCloud(pts)

        _, rep = trust_region_step(linear(a), mu, delta, 1e-3)
        lam_star = na / delta
        v_star = float(np.mean(pts @ a)) - delta * na
        assert abs(rep.lambda_star - lam_star) <= 0.01 * lam_star
        assert abs(rep.dual_value - v_star) <= 1e-3 * (1.0 + abs(v_star))
        assert 0.0 <= rep.gap <= 1e-3 + 1e-9
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# gate 5: weak duality for every solver on small quadratic instances


def _feasible_primal_minimum(m2, penalty):
    """Tightest primal value over the one-parameter family of prox couplings."""
    best = math.inf
    for lam in np.linspace(1.01, 60.0, 400):
        cost = m2 / (2.0 * (1.0 + lam) ** 2)
        value = lam**2 * m2 / (2.0 * (1.0 + lam) ** 2) + penalty.psi(cost)
        if math.isfinite(value):
            best = min(best, value)
    return best


def test_every_dual_value_respects_weak_duality():
    start = time.perf_counter()
    f = quadratic()
    for inst in range(50):
        rng = np.random.default_rng(inst)
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        base = rng.normal(size=(n, d))
        m2b = float(np.mean(np.sum(base**2, axis=1)))

        # deterministic solvers on a moment-normalized cloud (E||x||^2 = 12)
        pts = base * math.sqrt(12.0 / m2b)
        mu = ParticleCloud(pts)
        m2 = float(np.mean(np.sum(pts**2, axis=1)))
        for pen in (
            PowerPenalty(1.0),
            PowerPenalty(0.5),
            TrustRegionIndicator(0.4 * math.sqrt(12.0) / 2.0),
        ):
            p_min = _feasible_primal_minimum(m2, pen)
            rep = primal_dual_bisection(f, mu, pen, 1e-4)
            assert rep.dual_value <= p_min + 1e-6
            iv = dual_interval(f, mu, pen, c=8.0)
            lam_bar, _ = mirror_ascent(
                f, mu, pen, iv, 100, np.random.default_rng(inst * 7 + 2)
            )
            gval, _ = g_value_and_grad_fullbatch(f, mu, lam_bar, 1e-10)
            assert gval - pen.psi_star(lam_bar) <= p_min + 1e-6

        # a coarse search and sampled mirror ascent on a small-moment cloud
        # (E||x||^2 = 0.2)
        pts = base * math.sqrt(0.2 / m2b)
        mu = ParticleCloud(pts)
        m2 = float(np.mean(np.sum(pts**2, axis=1)))
        pen = TrustRegionIndicator(0.4 * math.sqrt(0.2) / 2.0)
        p_min = _feasible_primal_minimum(m2, pen)
        rep = primal_dual_bisection(f, mu, pen, 0.5)
        assert rep.dual_value <= p_min + 1e-6
        iv = dual_interval(f, mu, pen, c=8.0)
        lam_bar, _ = mirror_ascent(
            f,
            mu,
            pen,
            iv,
            100,
            np.random.default_rng(inst * 7 + 4),
            stochastic=True,
            eps_oracle=0.5,
            delta_prob=0.3,
        )
        gval, _ = g_value_and_grad_fullbatch(f, mu, lam_bar, 1e-10)
        assert gval - pen.psi_star(lam_bar) <= p_min + 1e-6
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# gate 6: supergradient deviation-band calibration


def test_supergradient_deviation_band_calibrates():
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    mu = ParticleCloud(0.55 * rng.standard_normal((12, 2)))
    f = quadratic()
    lam, delta, eps = 2.0, 0.1, 0.05

    g = mu.points  # gradient field of the quadratic potential
    m4 = float(np.mean(np.sum(g**2, axis=1) ** 2))
    gap = lam - f.semiconvexity
    expected_k = math.ceil(
        64.0 * m4 / (gap**2 * min(gap**2, 1.0) * delta * eps**2)
    )
    assert hp_sample_count(f, mu, lam, eps, delta) == expected_k == 33200

    _, gp_ref = g_value_and_grad_fullbatch(f, mu, lam, 1e-12)
    band = eps / max(gap, 1.0)
    bad = sum(
        1
        for t in range(200)
        if abs(
            supergradient_hp(f, mu, lam, eps, delta, np.random.default_rng(1000 + t))
            - gp_ref
        )
        > band
    )
    assert bad / 200.0 <= delta + 3.0 * math.sqrt(delta / 200.0)
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# gate 7: averaged mirror-ascent iterate within its suboptimality envelope


class _SquareConjugate:
    """Penalty stub whose conjugate is lam^2 (toy dual: max 2 lam - lam^2)."""

    def psi_star(self, lam):
        return lam * lam

    def psi_star_deriv(self, lam):
        return 2.0 * lam


def test_mirror_ascent_obeys_its_envelope():
    start = time.perf_counter()
    for k in (100, 1000, 10000):
        lam_bar, _ = mirror_ascent(
            None,
            None,
            _SquareConjugate(),
            (0.0, 2.0),
            k,
            np.random.default_rng(6),
            oracle=lambda lam: 2.0,
            c2=4.0,
        )
        subopt = 1.0 - (2.0 * lam_bar - lam_bar**2)
        assert 0.0 <= subopt <= mirror_ascent_envelope((0.0, 2.0), k, 4.0, 4.0, 0.0)

    # stochastic leg: linear objective, trust-region dual, interior maximizer
    rng = np.random.default_rng(9)
    pts = 0.5 * rng.standard_normal((12, 3))
    mu = ParticleCloud(pts)
    a = np.array([0.08, -0.04, 0.03])
    na = float(np.linalg.norm(a))
    f = linear(a)
    pen = TrustRegionIndicator(0.07)
    m2_cloud = float(np.mean(np.sum(pts**2, axis=1)))
    iv = dual_interval(f, mu, pen, c=m2_cloud / pen.psi_star_deriv(1.0))
    assert iv[0] < na / 0.07 < iv[1]

    def h(lam):
        return float(np.mean(pts @ a)) - na**2 / (2.0 * lam) - pen.psi_star(lam)

    eps_oracle = 0.05
    c2 = 256.0 * na**4
    d_bound = pen.psi_star_deriv(iv[1])
    for k in (100, 1000, 10000):
        lam_bar, _ = mirror_ascent(
            f,
            mu,
            pen,
            iv,
            k,
            np.random.default_rng(100 + k),
            stochastic=True,
            eps_oracle=eps_oracle,
            delta_prob=0.1,
        )
        subopt = h(na / 0.07) - h(lam_bar)
        env = mirror_ascent_envelope(iv, k, c2, d_bound, eps_oracle / max(iv[0], 1.0))
        assert -1e-9 <= subopt <= env
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# gate 8: sublinear outer-loop rate on the quadratic potential


@pytest.fixture(scope="module")
def quadratic_rate_run(tmp_path_factory):
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    mu0 = ParticleCloud(rng.uniform(-1.0, 1.0, size=(50, 2)))
    cfg = FWConfig.from_schedule(
        tau=math.sqrt(6.0),
        theta=1.0,
        big_t=0.5,
        alpha=1.0,
        delta1=0.0055,
        delta2=0.0055,
        smoothness=1.0,
        eps=2.0 * 0.01 / math.sqrt(6.0),
        k_max=110,
        seed=42,
    )
    _, trace = run_frank_wolfe(PotentialInteraction(quadratic()), mu0, cfg)
    path = tmp_path_factory.mktemp("rate") / "trace.csv"
    trace.to_csv(path)
    return {
        "cfg": cfg,
        "trace": trace,
        "lines": _strip_wall(path.read_text()),
        "elapsed": time.perf_counter() - start,
    }


def test_outer_loop_exhibits_sublinear_rate(quadratic_rate_run):
    cfg = quadratic_rate_run["cfg"]
    trace = quadratic_rate_run["trace"]
    assert quadratic_rate_run["elapsed"] < 120.0
    assert len(trace) >= 100

    for s, d, z in zip(trace.s, trace.delta, trace.zeta):
        assert d == min(cfg.beta1, cfg.beta2 * s, cfg.beta3 * s ** (1.0 / cfg.alpha))
        assert z == d * cfg.eps_tilde
    # the residual J - J* (J* = 0 for this potential) is monotone within
    # the per-step inner tolerance
    for k in range(len(trace) - 1):
        assert trace.objective[k + 1] <= trace.objective[k] + trace.zeta[k]

    window = [k for k, i in enumerate(trace.iters) if 10 <= i <= 100]
    slope = np.polyfit(
        np.log(np.array(trace.iters)[window]),
        np.log(np.array(trace.objective)[window]),
        1,
    )[0]
    assert -1.4 <= slope <= -0.6


# ---------------------------------------------------------------------------
# gate 9: kernel-matching experiment drives validation discrepancy down


@pytest.fixture(scope="module")
def kernel_matching_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mmd")
    cfg = ExperimentConfig(
        experiment="mmd-flow",
        seed=11,
        particles=100,
        dim=4,
        eps=0.05,
        k_max=200,
        out=str(tmp / "fw.csv"),
        baseline_out=str(tmp / "base.csv"),
    )
    start = time.perf_counter()
    result = run_mmd_flow(cfg)
    return {
        "cfg": cfg,
        "result": result,
        "out_bytes": (tmp / "fw.csv").read_bytes(),
        "base_bytes": (tmp / "base.csv").read_bytes(),
        "elapsed": time.perf_counter() - start,
    }


def test_kernel_matching_reduces_validation_discrepancy(kernel_matching_run):
    result = kernel_matching_run["result"]
    assert kernel_matching_run["elapsed"] < 300.0
    val0 = result["validation"].value(result["student0"])
    vals = [row[2] for row in result["fw_rows"]]
    assert len(vals) <= 200
    assert vals[-1] < 0.1 * val0
    slack = 1e-12 * (1.0 + val0)
    assert all(b - a <= slack for a, b in zip(vals, vals[1:]))

    base_obj = [row[1] for row in result["baseline_rows"]]
    base_slack = 1e-12 * (1.0 + base_obj[0])
    assert all(b - a <= base_slack for a, b in zip(base_obj, base_obj[1:]))


def test_kernel_matching_work_counts(kernel_matching_run):
    """Each witness's own curvature bound sizes its prox rows, while the
    schedule keeps the kernel's global bound, and each prox pass at lam
    runs to (3/2) eps / max(lam, 1), eps the step's own tolerance: 143
    steps, 32,917 witness-gradient rows (the trace's samples) and, on
    those rows' budget, 330 Euler baseline steps."""
    result = kernel_matching_run["result"]
    trace = result["trace"]
    assert (len(trace), trace.status) == (143, "converged")
    assert sum(trace.samples) == 32917
    assert len(result["baseline_rows"]) == 330


# ---------------------------------------------------------------------------
# gate 10: deconvolution objective decreases with tight transport marginals


@pytest.fixture(scope="module")
def deconvolution_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("deconv")
    start = time.perf_counter()
    objectives, marginal_peaks, traces, rows = [], [], {}, []
    for seed in range(10):
        cfg = ExperimentConfig(
            experiment="deconv", seed=seed, out=str(tmp / f"d{seed}.csv")
        )
        _, trace, J = run_deconv(cfg)
        objectives.append(trace.objective)
        marginal_peaks.append(max(J.marginal_error_log))
        traces[seed] = _strip_wall((tmp / f"d{seed}.csv").read_text())
        rows.append(sum(trace.samples))
    return {
        "objectives": objectives,
        "marginal_peaks": marginal_peaks,
        "traces": traces,
        "rows": rows,
        "elapsed": time.perf_counter() - start,
    }


def test_deconvolution_objective_decreases_with_tight_marginals(deconvolution_runs):
    assert deconvolution_runs["elapsed"] < 300.0
    objectives = deconvolution_runs["objectives"]
    assert all(len(obj) == 20 for obj in objectives)
    averaged = np.mean(np.array(objectives), axis=0)
    assert np.all(np.diff(averaged) <= 1e-12)
    assert max(deconvolution_runs["marginal_peaks"]) <= 1e-6


def test_deconvolution_witness_rows_per_seed(deconvolution_runs):
    """Each seed's witness-gradient rows (the trace's samples), pinned: a
    faster Sinkhorn solve moves the potentials only within its tolerance
    and no prox work.  The prox steps are sized by the witness's upward
    curvature c = 1, not by L = max(1, rho), and each pass at lam runs to
    (3/2) eps / max(lam, 1).  The gradient at the cloud's
    own atoms comes from each solve's coupling and is not counted: 20
    steps of 50 atoms, 1,000 rows a run below the witness's count."""
    assert deconvolution_runs["rows"] == [
        2762, 2843, 2904, 2913, 2624, 2715, 2876, 2709, 2891, 2638
    ]


# ---------------------------------------------------------------------------
# gate 11: byte-identical traces across reruns with the same seed


def test_traces_are_byte_identical_across_reruns(
    quadratic_rate_run, kernel_matching_run, deconvolution_runs, tmp_path
):
    # outer-loop trace (wall-clock column excluded: it is the one field
    # whose bytes can never be replayed)
    rng = np.random.default_rng(42)
    mu0 = ParticleCloud(rng.uniform(-1.0, 1.0, size=(50, 2)))
    _, trace = run_frank_wolfe(
        PotentialInteraction(quadratic()), mu0, quadratic_rate_run["cfg"]
    )
    path = tmp_path / "rate.csv"
    trace.to_csv(path)
    assert _strip_wall(path.read_text()) == quadratic_rate_run["lines"]

    # kernel-matching CSVs carry no wall column and must replay exactly
    cfg = kernel_matching_run["cfg"]
    cfg2 = ExperimentConfig(
        **{
            **{f: getattr(cfg, f) for f in cfg.__dataclass_fields__},
            "out": str(tmp_path / "fw.csv"),
            "baseline_out": str(tmp_path / "base.csv"),
        }
    )
    run_mmd_flow(cfg2)
    assert (tmp_path / "fw.csv").read_bytes() == kernel_matching_run["out_bytes"]
    assert (tmp_path / "base.csv").read_bytes() == kernel_matching_run["base_bytes"]

    # deconvolution trace for one representative seed
    cfg = ExperimentConfig(experiment="deconv", seed=0, out=str(tmp_path / "d0.csv"))
    run_deconv(cfg)
    assert _strip_wall((tmp_path / "d0.csv").read_text()) == (
        deconvolution_runs["traces"][0]
    )
