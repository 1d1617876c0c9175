"""Penalty, interval, bisection, mirror-ascent, and trust-region tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfw import dual_solvers
from wfw.cloud import ParticleCloud, wasserstein2_exact
from wfw.dual_solvers import (
    DualSolveReport,
    PowerPenalty,
    TrustRegionIndicator,
    dual_interval,
    mirror_ascent,
    mirror_ascent_envelope,
    primal_dual_bisection,
    primal_dual_gap,
    trust_region_step,
)
from wfw.errors import (
    DeltaTooLarge,
    InfeasiblePrimal,
    LambdaTooSmall,
    NonFiniteIterate,
    RegularizationTooWeak,
    WeakDualityViolated,
    WfwError,
)
from wfw.frank_wolfe import counted_model
from wfw.moreau import SmoothObjective, g_value_and_grad_fullbatch
from wfw.registry import double_well, linear, quadratic, zero


def _plain_bisection_budget(f, mu, pen, eps):
    """(eps_alg, width, passes) of plain bisection on the solver's interval:
    its tolerance eps_alg = eps / (4 + l), its a-priori stopping width
    eps_alg / B with B = max(psi* smoothness, 16 m2^2, 1e-12), and the prox
    passes it spends (one at l, one per halving, one to certify)."""
    m2 = float(np.mean(np.sum(f.grad_many(mu.points) ** 2, axis=1)))
    l = f.semiconvexity + 1.0
    l, u = dual_interval(f, mu, pen, c=m2 / pen.psi_star_deriv(l))
    eps_alg = eps / (4.0 + l)
    width = eps_alg / max(pen.smoothness_on(l, u), 16.0 * m2**2, 1e-12)
    return eps_alg, width, max(math.ceil(math.log2((u - l) / width)), 0) + 2


def _spy_passes(monkeypatch):
    """(lam, h(lam), r(lam)) of every certifying prox pass, in evaluation
    order: h = cbar - psi*'(lam) and r = psi*'(lam)^(-1/2) - cbar^(-1/2)."""
    passes = []
    report_values = dual_solvers._report_values

    def spy(f, mu, pen, lam, eps_prox):
        values = report_values(f, mu, pen, lam, eps_prox)
        cbar, slope = values[4], pen.psi_star_deriv(lam)
        passes.append((lam, cbar - slope, slope**-0.5 - cbar**-0.5))
        return values

    monkeypatch.setattr(dual_solvers, "_report_values", spy)
    return passes


_SOLVER_CASES = [
    ("quadratic", "indicator"),
    ("double-well", "indicator"),
    ("linear", "indicator"),
    ("quadratic", 0.5),
    ("quadratic", 1.0),
    ("linear", 0.5),
    ("linear", 1.0),
]


#: Accuracy of the prox passes behind the slope-bound properties: each
#: atom's half squared displacement is certified within it.
_PROX_EPS = 1e-10


def _solver_instance(case, seed, n, d, frac, scale=None):
    """(f, mu, penalty, m2) of a random admissible solver instance for one of
    `_SOLVER_CASES`; the indicator's radius is frac of the admissible one.
    A given scale replaces the cloud's drawn U(0.3, 3) scale and multiplies
    the linear field."""
    kind, power = case
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d))
    spread = rng.uniform(0.3, 3.0)  # drawn either way: later draws keep their bits
    pts *= spread if scale is None else scale
    if kind == "double-well":  # its smoothness bound holds on ||x|| <= 2
        pts /= np.maximum(1.0, np.linalg.norm(pts, axis=1, keepdims=True) / 2.0)
    a = rng.normal(size=d)
    a *= rng.uniform(1.5, 3.0) / np.linalg.norm(a)  # h(l) > 0 for each penalty
    a *= 1.0 if scale is None else scale
    f = {"quadratic": quadratic(), "double-well": double_well(), "linear": linear(a)}[kind]
    if power != "indicator" and kind == "quadratic":  # admissible for m2 >= 8
        pts *= math.sqrt(12.0 / np.mean(np.sum(pts**2, axis=1)))
    m2 = float(np.mean(np.sum(f.grad_many(pts) ** 2, axis=1)))
    if power != "indicator":
        pen = PowerPenalty(power)
    elif kind == "linear":
        pen = TrustRegionIndicator(frac * np.linalg.norm(a))
    else:
        pen = TrustRegionIndicator(frac * math.sqrt(m2) / (2.0 * f.smoothness))
    return f, ParticleCloud(pts), pen, m2


_INSTANCES = (
    st.sampled_from(_SOLVER_CASES),
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.integers(1, 3),
    st.floats(0.05, 1.0),
)

#: log10 of an indicator instance's cloud (and linear field) scale.
_LOG_SCALES = st.floats(-2.5, 0.5)


class TestPenalties:
    def test_indicator_values(self):
        pen = TrustRegionIndicator(0.4)
        assert pen.psi(0.07) == 0.0
        assert math.isinf(pen.psi(0.09))
        assert pen.psi_star(3.0) == pytest.approx(0.08 * 3.0)
        assert pen.psi_star(-1.0) == 0.0

    def test_power_values(self):
        pen = PowerPenalty(0.5)
        x = 0.3
        assert pen.psi(x) == pytest.approx(x**1.5 / 1.5)
        lam = 2.0
        assert pen.psi_star(lam) == pytest.approx((0.5 / 1.5) * lam**3.0)
        assert pen.psi_star_deriv(lam) == pytest.approx(lam**2.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.01, 5.0),
        st.floats(0.0, 4.0),
        st.sampled_from(["indicator", "p05", "p10"]),
    )
    def test_fenchel_young(self, x, lam, kind):
        """psi(x) + psi*(lam) >= lam x whenever psi(x) is finite."""
        pen = {
            "indicator": TrustRegionIndicator(1.0),
            "p05": PowerPenalty(0.5),
            "p10": PowerPenalty(1.0),
        }[kind]
        psi = pen.psi(x)
        if math.isfinite(psi):
            assert psi + pen.psi_star(lam) >= lam * x - 1e-9

    def test_conjugate_derivative_is_right_derivative(self):
        pen = TrustRegionIndicator(0.5)
        h = 1e-7
        for lam in (0.0, 1.0, 3.0):
            fd = (pen.psi_star(lam + h) - pen.psi_star(lam)) / h
            assert pen.psi_star_deriv(lam) == pytest.approx(fd, abs=1e-6)

    def test_subgrad_interval_contains_derivative(self):
        pen = PowerPenalty(1.0)
        lo, hi = pen.subgrad_interval(2.0)
        assert lo <= pen.psi_star_deriv(2.0) <= hi


class TestDualInterval:
    def test_pinned_examples(self):
        """L=1, rho=0 gives (1, 5); L=2, rho=2 gives (3, 11)."""
        mu = ParticleCloud(4.0 * np.ones((4, 2)))
        pen = TrustRegionIndicator(1.0)
        f1 = quadratic()
        assert dual_interval(f1, mu, pen) == pytest.approx((1.0, 5.0))

        f2 = SmoothObjective(
            eval_many=lambda y: np.sum(y**2, axis=1),
            grad_many=lambda y: 2.0 * y,
            smoothness=2.0,
            semiconvexity=2.0,
        )
        assert dual_interval(f2, mu, pen) == pytest.approx((3.0, 11.0))

    def test_custom_width(self):
        mu = ParticleCloud(np.ones((3, 1)))
        iv = dual_interval(quadratic(), mu, TrustRegionIndicator(0.3), c=2.0)
        assert iv == pytest.approx((1.0, 3.0))

    def test_weak_power_penalty_rejected(self):
        mu = ParticleCloud(0.1 * np.ones((3, 2)))
        with pytest.raises(RegularizationTooWeak):
            dual_interval(quadratic(), mu, PowerPenalty(1.0))

    def test_oversized_indicator_reports_admissible_radius(self):
        mu = ParticleCloud(0.1 * np.ones((3, 2)))  # E||grad f||^2 = 0.02
        with pytest.raises(RegularizationTooWeak) as exc:
            dual_interval(quadratic(), mu, TrustRegionIndicator(0.5))
        assert exc.value.max_admissible == pytest.approx(math.sqrt(0.02) / 2.0)


class TestBisection:
    def test_gap_within_tolerance_and_nonnegative(self):
        rng = np.random.default_rng(0)
        for inst in range(10):
            pts = rng.normal(size=(rng.integers(3, 9), 2)) * 3.5
            mu = ParticleCloud(pts)
            m2 = float(np.mean(np.sum(pts**2, axis=1)))
            pen = TrustRegionIndicator(0.3 * math.sqrt(m2) / 2.0)
            rep = primal_dual_bisection(
                quadratic(), mu, pen, 1e-3, 0.05, np.random.default_rng(inst)
            )
            assert rep.gap >= 0.0
            assert rep.gap <= 1e-3 + 1e-9
            assert rep.interval[0] <= rep.lambda_star <= rep.interval[1]

    def test_report_rejects_negative_gap(self):
        with pytest.raises(WeakDualityViolated) as exc:
            DualSolveReport(
                lambda_star=1.0,
                dual_value=1.0,
                primal_value=0.0,
                gap=-1.0,
                oracle_calls=0,
                samples_drawn=0,
                interval=(1.0, 2.0),
            )
        assert isinstance(exc.value, WfwError)
        assert exc.value.gap == -1.0
        assert exc.value.primal == 0.0
        assert exc.value.dual == 1.0

    def test_oracle_accounting(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(6, 2)) * 3.5
        mu = ParticleCloud(pts)
        m2 = float(np.mean(np.sum(pts**2, axis=1)))
        pen = TrustRegionIndicator(0.3 * math.sqrt(m2) / 2.0)
        rep = primal_dual_bisection(quadratic(), mu, pen, 1e-3, 0.05, rng)
        # every oracle call is a certifying prox pass over the n atoms
        assert rep.samples_drawn == rep.oracle_calls * mu.n

    def test_full_batch_oracle_is_looked_up_on_the_module(self, monkeypatch):
        """Every full-batch pass goes through a module global of `dual_solvers`
        that the benchmark tracer wraps: `agd_prox_batch` for the bisection's
        certifying passes, `g_value_and_grad_fullbatch` for mirror ascent's
        slopes."""
        calls = {"agd_prox_batch": [], "g_value_and_grad_fullbatch": []}
        for name, lams in calls.items():

            def spy(*args, _real=getattr(dual_solvers, name), _lams=lams):
                _lams.append(args[2])
                return _real(*args)

            monkeypatch.setattr(dual_solvers, name, spy)
        mu = ParticleCloud(np.random.default_rng(1).normal(size=(6, 2)) * 3.5)
        m2 = float(np.mean(np.sum(mu.points**2, axis=1)))
        pen = TrustRegionIndicator(0.3 * math.sqrt(m2) / 2.0)
        rep = primal_dual_bisection(quadratic(), mu, pen, 1e-3, 0.05, None)
        assert len(calls["agd_prox_batch"]) == rep.oracle_calls
        assert calls["g_value_and_grad_fullbatch"] == []
        mirror_ascent(quadratic(), mu, pen, rep.interval, 7, None)
        assert len(calls["g_value_and_grad_fullbatch"]) == 7

    @settings(max_examples=60, deadline=None)
    @given(*_INSTANCES, st.floats(-6.0, -2.0), _LOG_SCALES)
    def test_full_batch_search_certifies_within_budget(
        self, case, seed, n, d, frac, log_eps, log_scale
    ):
        """The returned point has h <= 0, a finite primal and a gap in
        [0, eps_alg], after at most two passes more than plain bisection,
        also on the tiny fields of indicator clouds scaled down to 10^-2.5."""
        scale = 10.0**log_scale if case[1] == "indicator" else None
        f, mu, pen, _ = _solver_instance(case, seed, n, d, frac, scale)
        eps = 10.0**log_eps
        rep = primal_dual_bisection(f, mu, pen, eps, 0.05, None)
        eps_alg, _, passes = _plain_bisection_budget(f, mu, pen, eps)
        assert rep.cost <= pen.psi_star_deriv(rep.lambda_star)
        assert math.isfinite(rep.primal_value)
        # primal - dual cancels to roundoff at a tight certificate
        assert -1e-12 * (1.0 + abs(rep.primal_value)) <= rep.gap <= eps_alg
        assert rep.oracle_calls <= passes + 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([("linear", "indicator"), ("quadratic", "indicator")]),
        *_INSTANCES[1:],
        st.floats(-6.0, -2.0),
        _LOG_SCALES,
    )
    def test_affine_residual_certifies_in_three_passes(
        self, case, seed, n, d, frac, log_eps, log_scale
    ):
        """Linear and quadratic witnesses have cbar = K / (rho' + lam)^2, so
        under the indicator r = psi*'^(-1/2) - cbar^(-1/2) is affine in lam:
        the passes at l and u and one secant past the root certify."""
        f, mu, pen, _ = _solver_instance(case, seed, n, d, frac, 10.0**log_scale)
        eps = 10.0**log_eps
        rep = primal_dual_bisection(f, mu, pen, eps, 0.05, None)
        eps_alg, _, _ = _plain_bisection_budget(f, mu, pen, eps)
        assert rep.oracle_calls <= 3
        assert 0.0 <= rep.gap <= eps_alg

    def test_double_well_step_stops_on_its_certificate(self):
        """The 12-atom double-well step certifies within 6 passes; plain
        bisection to its a-priori width spends 33 (32 oracle calls before its
        certificate pass)."""
        mu = ParticleCloud(np.random.default_rng(15).normal(size=(12, 2)))
        _, rep = trust_region_step(
            double_well(), mu, 0.1, 1e-3, 0.1, np.random.default_rng(0)
        )
        pen = TrustRegionIndicator(0.1)
        eps_alg, _, passes = _plain_bisection_budget(double_well(), mu, pen, 1e-3)
        assert passes == 33
        assert rep.oracle_calls <= 6
        assert rep.gap <= eps_alg

    def test_illinois_halves_the_end_kept_twice(self, monkeypatch):
        """r is affine in lam for linear and quadratic witnesses, not for the
        double well: there the secant keeps l for two moves of u, and the
        next one uses r(l)/2 (then steps past the root as every secant does)."""
        passes = _spy_passes(monkeypatch)
        mu = ParticleCloud(np.random.default_rng(3).normal(size=(8, 2)))
        f, pen = double_well(), TrustRegionIndicator(0.1)
        rep = primal_dual_bisection(f, mu, pen, 1e-6, 0.1, None)
        (l, h_l, r_l), _, (_, h_1, _), (u, h_2, r_2), (lam, _, _) = passes[:5]
        assert h_l > 0.0 >= h_1 and h_2 <= 0.0

        def past_root(secant):
            step = 1e-6 / (4.0 + l) * (secant - f.semiconvexity)
            return secant + step / (4.0 * secant * pen.psi_star_deriv(secant))

        half = 0.5 * r_l
        halved = past_root(l + half * (u - l) / (half - r_2))
        assert lam == pytest.approx(halved, rel=1e-12)
        assert lam < past_root(l + r_l * (u - l) / (r_l - r_2))
        assert rep.gap <= 1e-6 / (4.0 + l)

    @pytest.mark.parametrize(
        "shape, scale, frac, cap",
        [((6, 2), 0.01, 0.5, "width"), ((8, 3), 1.0, 0.3, "passes")],
        ids=["width", "passes"],
    )
    def test_uncertified_search_stops_on_its_caps(
        self, monkeypatch, shape, scale, frac, cap
    ):
        """The a-priori width sizes the pass cap but does not stop the search:
        on the "width" case's tiny field it exceeds the whole interval, and
        the search still runs on to its certificate.  No real instance is
        known to reach the pass cap, so the "passes" case hides every
        certificate and reports a cost falling like exp(-40 lam), whose steep
        r makes Illinois crawl: the search stops two passes past plain
        bisection's count.  Both return a point with h <= 0."""
        if cap == "passes":

            def crawling(f, mu, pen, lam, eps_prox):
                cbar = pen.psi_star_deriv(lam) * math.exp(-40.0 * (lam - 2.0))
                return 0.0, 0.0, math.inf, mu.points, cbar

            monkeypatch.setattr(dual_solvers, "_report_values", crawling)
        passes = _spy_passes(monkeypatch)
        mu = ParticleCloud(scale * np.random.default_rng(0).normal(size=shape))
        m2 = float(np.mean(np.sum(mu.points**2, axis=1)))
        pen = TrustRegionIndicator(frac * math.sqrt(m2) / 2.0)
        rep = primal_dual_bisection(quadratic(), mu, pen, 1e-5, 0.1, None)
        eps_alg, width, plain = _plain_bisection_budget(quadratic(), mu, pen, 1e-5)
        bracket = rep.lambda_star - max(lam for lam, h, _ in passes if h > 0.0)
        assert rep.cost <= pen.psi_star_deriv(rep.lambda_star)
        assert len(passes) == rep.oracle_calls
        if cap == "width":
            l0, u0 = rep.interval
            assert u0 - l0 < width and rep.gap <= eps_alg
        else:
            assert rep.gap > eps_alg
            assert bracket > width and rep.oracle_calls == plain + 2

    def test_dual_peaking_at_the_left_end_returns_it(self):
        """A linear field weaker than the radius has h(l) < 0: the dual peaks
        at l (its maximizer |a| / delta lies below the interval), so the
        first pass is the answer."""
        mu = ParticleCloud(np.random.default_rng(3).normal(size=(5, 2)))
        a = np.array([0.3, -0.4])
        rep = primal_dual_bisection(
            linear(a), mu, TrustRegionIndicator(0.8), 1e-3, 0.1, None
        )
        assert rep.lambda_star == rep.interval[0] == 1.0
        assert rep.oracle_calls == 1
        assert rep.cost == pytest.approx(0.125)  # |a|^2 / (2 l^2)
        assert rep.gap == pytest.approx(0.32 - 0.125)  # l (delta^2/2 - cost)

    def test_stochastic_variant_stays_in_interval(self, monkeypatch):
        """The sampled search makes one full prox pass, at its answer."""
        passes = _spy_passes(monkeypatch)
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(8, 2)) * 0.45
        mu = ParticleCloud(pts)
        m2 = float(np.mean(np.sum(pts**2, axis=1)))
        pen = TrustRegionIndicator(0.4 * math.sqrt(m2) / 2.0)
        rep = primal_dual_bisection(
            quadratic(), mu, pen, 0.5, 0.3, np.random.default_rng(7), stochastic=True
        )
        assert rep.interval[0] <= rep.lambda_star <= rep.interval[1]
        assert rep.gap is None or rep.gap >= 0.0
        assert [lam for lam, _, _ in passes] == [rep.lambda_star]

    @settings(max_examples=60, deadline=None)
    @given(*_INSTANCES)
    def test_slope_bounds_behind_the_interval(self, case, seed, n, d, frac):
        """g'(rho + 1) <= m2 / 2, so 4 g'(l)^2 never exceeds the width
        bound's 16 m2^2 term; and g'(u0) <= psi*'(u0) / 4 at the right end
        of the penalty-matched interval, since u0 - rho > sqrt(2 m2 / psi*'(l))
        and g'(lam) <= m2 / (2 (lam - rho)^2): the sampled path's fallback
        to u0 is feasible."""
        f, mu, pen, m2 = _solver_instance(case, seed, n, d, frac)
        l = f.semiconvexity + 1.0
        _, u0 = dual_interval(f, mu, pen, c=m2 / pen.psi_star_deriv(l))
        _, slope_l = g_value_and_grad_fullbatch(f, mu, l, _PROX_EPS)
        _, slope_u0 = g_value_and_grad_fullbatch(f, mu, u0, _PROX_EPS)
        assert slope_l <= 0.5 * m2 + _PROX_EPS
        assert slope_u0 <= 0.25 * pen.psi_star_deriv(u0) + _PROX_EPS


class TestSampledSlope:
    """The sampled oracle's fourth moment depends on (f, mu) only, so a
    solve computes it once, however many sampled slopes it asks for."""

    def _spy(self, monkeypatch):
        calls = []
        moment = dual_solvers.gradient_fourth_moment

        def spy(f, mu):
            calls.append(mu.n)
            return moment(f, mu)

        monkeypatch.setattr(dual_solvers, "gradient_fourth_moment", spy)
        return calls

    def test_bisections_compute_it_once(self, monkeypatch):
        calls = self._spy(monkeypatch)
        rng = np.random.default_rng(2)
        mu = ParticleCloud(rng.normal(size=(8, 2)) * 0.45)
        m2 = float(np.mean(np.sum(mu.points**2, axis=1)))
        pen = TrustRegionIndicator(0.4 * math.sqrt(m2) / 2.0)
        rep = primal_dual_bisection(
            quadratic(), mu, pen, 0.5, 0.3, np.random.default_rng(7), stochastic=True
        )
        assert rep.oracle_calls > 2 and calls == [8]

    def test_mirror_ascent_shares_it_with_its_step_size(self, monkeypatch):
        calls = self._spy(monkeypatch)
        mu = ParticleCloud(0.5 * np.random.default_rng(9).standard_normal((12, 3)))
        f = linear(np.array([0.08, -0.04, 0.03]))
        counter = {"rows": 0}
        mirror_ascent(
            counted_model(f, counter),
            mu,
            TrustRegionIndicator(0.07),
            (0.5, 3.0),
            20,
            np.random.default_rng(1),
            stochastic=True,
            eps_oracle=0.05,
        )
        assert calls == [12]
        # one 12-row moment pass; every step's sample count K exceeds the 12
        # atoms, so each step is one exact full-batch pass instead, whose
        # first gradient is the cloud's memoized one: 12 rows per step, for
        # the certificate's gradient at the one certified iterate
        assert counter["rows"] == 12 + 20 * 12


class TestMirrorAscent:
    def test_single_step_returns_left_endpoint(self):
        mu = ParticleCloud(np.ones((3, 2)) * 2.0)
        pen = TrustRegionIndicator(0.5)
        lam_bar, hist = mirror_ascent(
            quadratic(), mu, pen, (1.0, 5.0), 1, np.random.default_rng(0)
        )
        assert lam_bar == pytest.approx(1.0)
        np.testing.assert_allclose(hist["lambda"], [1.0])

    def test_iterates_stay_in_interval(self):
        rng = np.random.default_rng(5)
        mu = ParticleCloud(rng.normal(size=(8, 2)) * 2.0)
        pen = TrustRegionIndicator(0.4)
        lam_bar, hist = mirror_ascent(
            quadratic(), mu, pen, (1.0, 6.0), 300, np.random.default_rng(1)
        )
        lams = np.array(hist["lambda"])
        assert np.all((lams >= 1.0) & (lams <= 6.0))
        assert 1.0 <= lam_bar <= 6.0

    def test_envelope_formula(self):
        env = mirror_ascent_envelope((1.0, 3.0), 50, 4.0, 2.0, 0.1)
        assert env == pytest.approx(2.0 * (math.sqrt(2 * 8.0 / 50) + 0.1))

    def test_toy_problem_converges_within_envelope(self):
        """max 2 lam - lam^2 on [0,2]: averaged iterate nears lam* = 1."""

        class SquareConjugate:
            def psi_star(self, lam):
                return lam * lam

            def psi_star_deriv(self, lam):
                return 2.0 * lam

            def subgrad_interval(self, lam):
                return (2.0 * lam, 2.0 * lam)

        pen = SquareConjugate()
        for k in (100, 1000):
            lam_bar, _ = mirror_ascent(
                None, None, pen, (0.0, 2.0), k, np.random.default_rng(6),
                oracle=lambda lam: 2.0, c2=4.0,
            )
            subopt = 1.0 - (2 * lam_bar - lam_bar**2)
            env = mirror_ascent_envelope((0.0, 2.0), k, 4.0, 4.0, 0.0)
            assert 0.0 <= subopt <= env


class TestTrustRegion:
    @pytest.mark.parametrize("n", [12, 50])
    def test_sampled_step_on_a_small_cloud_passes_exactly(self, n):
        """A sampled slope here needs K = 4,482,954 draws at 12 atoms and
        4,077,907 at 50, above the sample cap.  K >= n, so every slope is
        one exact full-batch pass charged n samples, and the step lands in
        the ball."""
        mu = ParticleCloud(np.random.default_rng(0).normal(size=(n, 2)))
        sampler, rep = trust_region_step(
            double_well(), mu, 0.05, 0.1, 0.3, np.random.default_rng(1), stochastic=True
        )
        assert rep.samples_drawn == rep.oracle_calls * n
        dist, _ = wasserstein2_exact(mu, sampler.target_cloud())
        assert dist <= 0.05

    def test_linear_closed_form(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(10, 3))
        mu = ParticleCloud(pts)
        a = np.array([0.9, -0.3, 0.4])
        na = float(np.linalg.norm(a))
        delta = 0.25
        sampler, rep = trust_region_step(
            linear(a), mu, delta, 1e-3, 0.1, np.random.default_rng(8)
        )
        assert rep.lambda_star == pytest.approx(na / delta, rel=0.01)
        assert rep.dual_value == pytest.approx(
            float(np.mean(pts @ a)) - delta * na, abs=1e-3
        )
        assert 0.0 <= rep.gap <= 1e-3

    def test_moved_cloud_is_within_radius_and_descends(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(12, 2))
        mu = ParticleCloud(pts)
        a = np.array([0.8, 0.6])
        delta = 0.2
        sampler, _ = trust_region_step(
            linear(a), mu, delta, 1e-4, 0.1, np.random.default_rng(10)
        )
        nu = sampler.target_cloud()
        dist, _ = wasserstein2_exact(mu, nu)
        assert dist <= delta * (1.0 + 1e-6)
        drop = float(np.mean(pts @ a)) - float(np.mean(nu.points @ a))
        assert drop == pytest.approx(delta * np.linalg.norm(a), rel=1e-2)

    def test_oversized_radius_rejected(self):
        mu = ParticleCloud(np.random.default_rng(11).normal(size=(6, 2)) * 0.1)
        f = quadratic()
        with pytest.raises(DeltaTooLarge) as exc:
            trust_region_step(f, mu, 5.0, 1e-3, 0.1, np.random.default_rng(0))
        assert exc.value.admissible < 5.0

    def test_radius_on_the_admissible_bound_accepted(self):
        rng = np.random.default_rng(17)
        mu = ParticleCloud(rng.normal(size=(8, 2)) * 0.3)
        m2 = float(np.mean(np.sum(mu.points**2, axis=1)))
        bound = math.sqrt(m2) / 2.0  # quadratic: grad f = x, L = 1
        sampler, rep = trust_region_step(
            quadratic(), mu, bound, 1e-3, 0.1, np.random.default_rng(0)
        )
        assert rep.gap >= 0.0
        assert rep.cost <= 0.5 * bound**2 * (1.0 + 1e-6)
        with pytest.raises(DeltaTooLarge) as exc:
            trust_region_step(
                quadratic(), mu, bound * (1 + 1e-9), 1e-3, 0.1, np.random.default_rng(0)
            )
        assert exc.value.admissible == bound
        assert isinstance(exc.value.__cause__, RegularizationTooWeak)

    def test_zero_field_with_curvature_rejected(self):
        """L > 0: the zero field fails the radius check with bound 0."""
        mu = ParticleCloud(np.zeros((5, 2)))
        with pytest.raises(DeltaTooLarge) as exc:
            trust_region_step(quadratic(), mu, 0.1, 1e-3, 0.1, np.random.default_rng(0))
        assert exc.value.admissible == 0.0

    def test_zero_gradient_field_rejected(self):
        mu = ParticleCloud(np.random.default_rng(12).normal(size=(4, 2)))
        with pytest.raises(DeltaTooLarge) as exc:
            trust_region_step(zero(), mu, 0.1, 1e-3, 0.1, np.random.default_rng(0))
        assert exc.value.admissible == 0.0

    def test_sampler_images_match_source(self):
        rng = np.random.default_rng(13)
        mu = ParticleCloud(rng.normal(size=(9, 2)))
        sampler, _ = trust_region_step(
            linear(np.array([1.0, 0.0])), mu, 0.15, 1e-3, 0.1, np.random.default_rng(1)
        )
        assert sampler.images.shape == mu.points.shape
        np.testing.assert_array_equal(sampler.target_cloud().points, sampler.images)

    def test_step_reuses_the_certifying_prox_pass(self, monkeypatch):
        """A step evaluates exactly the gradient rows of its own bisection,
        whose interval check also admits the radius."""
        counter = {"rows": 0}
        f = counted_model(double_well(), counter)
        mu = ParticleCloud(np.random.default_rng(15).normal(size=(12, 2)))
        bisection_rows = []

        def spy(*args, **kwargs):
            before = counter["rows"]
            rep = primal_dual_bisection(*args, **kwargs)
            bisection_rows.append((counter["rows"] - before, rep.lambda_star))
            return rep

        monkeypatch.setattr(dual_solvers, "primal_dual_bisection", spy)
        _, rep = trust_region_step(f, mu, 0.1, 1e-3, 0.1, np.random.default_rng(0))
        [(rows, lam)] = bisection_rows
        assert rep.lambda_star == lam
        assert counter["rows"] == rows == 906

    def test_misled_sampled_search_certifies_the_right_end(self, monkeypatch):
        """Sampled slopes that always read -1 drive the search down to l,
        whose pass leaves the ball; the step then certifies u0 = 11 instead,
        where g'(u0) < psi*'(u0) / 4 keeps the images inside it."""
        monkeypatch.setattr(dual_solvers, "_slope", lambda f, mu, *rest: (-1.0, mu.n))
        mu = ParticleCloud(np.random.default_rng(2).normal(size=(8, 2)) * 0.45)
        m2 = float(np.mean(np.sum(mu.points**2, axis=1)))
        delta = 0.4 * math.sqrt(m2) / 2.0
        sampler, rep = trust_region_step(
            quadratic(), mu, delta, 0.5, 0.3, np.random.default_rng(7), stochastic=True
        )
        assert rep.lambda_star == rep.interval[1] == 11.0
        assert rep.cost <= 0.5 * delta**2
        assert math.isfinite(rep.primal_value)
        dist, _ = wasserstein2_exact(mu, sampler.target_cloud())
        assert dist <= delta

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 8),
        st.sampled_from(["quadratic", "double-well"]),
        st.floats(0.05, 1.0),
        st.booleans(),
    )
    def test_moved_cloud_is_within_the_radius(self, seed, n, kind, frac, stochastic):
        """W2(mu, moved)^2 / 2 <= delta^2/2 (1 + 1e-6) on both oracle paths."""
        rng = np.random.default_rng(seed)
        mu = ParticleCloud(0.45 * rng.normal(size=(n, 2)))
        f = quadratic() if kind == "quadratic" else double_well()
        m2 = float(np.mean(np.sum(f.grad_many(mu.points) ** 2, axis=1)))
        delta = frac * math.sqrt(m2) / (2.0 * f.smoothness)
        eps = 0.5 if stochastic else 1e-3
        sampler, _ = trust_region_step(f, mu, delta, eps, 0.3, rng, stochastic=stochastic)
        dist, _ = wasserstein2_exact(mu, sampler.target_cloud())
        assert 0.5 * dist**2 <= 0.5 * delta**2 * (1.0 + 1e-6)

    def test_step_computes_the_gradient_norm_once(self, monkeypatch):
        """The radius check, the dual interval, its penalty-matched width and
        the bisection's bound all share one pass over the atoms."""
        calls = []
        mean_sq_grad = dual_solvers.mean_squared_gradient

        def spy(mu, f):
            calls.append(mu.n)
            return mean_sq_grad(mu, f)

        monkeypatch.setattr(dual_solvers, "mean_squared_gradient", spy)
        counter = {"rows": 0}
        f = counted_model(double_well(), counter)
        mu = ParticleCloud(np.random.default_rng(15).normal(size=(12, 2)))
        trust_region_step(f, mu, 0.1, 1e-3, 0.1, np.random.default_rng(0))
        assert calls == [12]

    @pytest.mark.parametrize("scale", [1e103, 1e160])
    def test_overflowing_field_at_the_atoms_raises_a_typed_error(self, scale):
        """The step's one gradient pass over the atoms overflows on a
        double-well cloud with a huge coordinate."""
        mu = ParticleCloud([[0.5, 0.0], [scale, 0.0]])
        with pytest.raises(NonFiniteIterate) as info:
            trust_region_step(double_well(), mu, 0.1, 1e-3, 0.1, np.random.default_rng(0))
        assert info.value.active == 2

    def test_diverging_prox_raises_a_typed_error(self):
        """A double-well cloud at scale 1.91, outside the region its
        smoothness bound covers: the radius is admitted, the prox diverges,
        and the step raises NonFiniteIterate with its context, not a numpy
        overflow warning (an error under this suite)."""
        rng = np.random.default_rng(0)
        n = int(rng.integers(2, 9))
        scale = 10 ** rng.uniform(0.2, 0.5)
        assert n == 7 and round(scale, 2) == 1.91
        mu = ParticleCloud(scale * rng.standard_normal((n, 2)))
        with pytest.raises(NonFiniteIterate) as info:
            trust_region_step(double_well(), mu, 0.3, 0.5, None, None)
        assert info.value.lam > double_well().semiconvexity
        assert info.value.step >= 1
        assert 1 <= info.value.active <= n


class TestPrimalDualGap:
    def test_nonnegative_on_grid(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(8, 2)) * 3.0
        mu = ParticleCloud(pts)
        pen = PowerPenalty(1.0)
        for lam in (1.2, 2.0, 4.0):
            gap = primal_dual_gap(quadratic(), mu, pen, lam, 1e-10)
            assert gap >= 0.0

    def test_nonnegative_at_the_linear_closed_form(self):
        """At lam* = |a| / delta of gate 4's linear instances the cost lands on
        delta^2/2 up to roundoff, on either side.  psi and psi* are an exact
        conjugate pair, so each instance either certifies a gap >= 0 or
        reports its cost outside the ball; none may read below zero."""
        outcomes = {"gap": 0, "infeasible": 0}
        for inst in range(50):
            rng = np.random.default_rng(inst)
            n, d = int(rng.integers(5, 21)), int(rng.integers(1, 4))
            mu = ParticleCloud(rng.normal(size=(n, d)))
            a = rng.normal(size=d)
            a *= (0.8 + 1.2 * float(rng.uniform())) / float(np.linalg.norm(a))
            na = float(np.linalg.norm(a))
            pen = TrustRegionIndicator((0.1 + 0.4 * float(rng.uniform())) * na)
            try:
                gap = primal_dual_gap(linear(a), mu, pen, na / pen.delta, 1e-3)
            except InfeasiblePrimal as exc:
                assert exc.cost > exc.bound
                outcomes["infeasible"] += 1
            else:
                assert gap >= 0.0, inst
                outcomes["gap"] += 1
        # not vacuous: 30 gaps and 20 infeasible on x86-64 with numpy 2.4
        assert min(outcomes.values()) >= 10

    def test_rejects_lambda_below_semiconvexity(self):
        mu = ParticleCloud(np.ones((3, 2)))
        with pytest.raises(LambdaTooSmall):
            primal_dual_gap(double_well(), mu, PowerPenalty(1.0), 0.5, 1e-8)
