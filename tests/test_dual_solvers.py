"""Penalty, interval, bisection, mirror-ascent, and trust-region tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wfw import dual_solvers, moreau
from wfw.cloud import ParticleCloud, wasserstein2_exact
from wfw.dual_solvers import (
    DualSolveReport,
    PowerPenalty,
    TrustRegionIndicator,
    dual_interval,
    mirror_ascent,
    mirror_ascent_envelope,
    primal_dual_bisection,
    root_estimate,
    trust_region_step,
)
from wfw.errors import (
    DeltaTooLarge,
    GapNotCertified,
    IntervalEmpty,
    LambdaTooSmall,
    NonFiniteIterate,
    ProxNotCertified,
    RadiusOutOfRange,
    RegularizationTooWeak,
    WeakDualityViolated,
    WfwError,
)
from wfw.frank_wolfe import counted_model
from wfw.moreau import SmoothObjective, g_value_and_grad_fullbatch
from wfw.registry import linear, make_objective, quadratic


def _stop(eps):
    """The search's stop threshold on a pass's read gap: eps / 16 for the
    step past the root plus 3 eps / 4 for the pass's misread, which leaves
    3 eps / 16 of eps for the dual slack of its images."""
    return 13.0 / 16.0 * eps


def _pass_eps(eps, lam):
    """The row tolerance of a search's pass at lam, (3/2) eps / max(lam, 1)."""
    return 1.5 * eps / max(lam, 1.0)


def _plain_bisection_budget(f, mu, pen, eps):
    """(stop, width, passes) of plain bisection on the solver's interval:
    the search's stop threshold `_stop`, its a-priori stopping width (eps /
    8) / B with B = max(psi* smoothness, 16 m2^2, 1e-12), and the prox
    passes it spends (one at l, one per halving, one to certify)."""
    m2 = float(np.mean(np.sum(f.grad_many(mu.points) ** 2, axis=1)))
    l = f.semiconvexity + 1.0
    l, u = dual_interval(f, mu, pen, c=m2 / pen.psi_star_deriv(l))
    width = eps / 8.0 / max(pen.smoothness_on(l, u), 16.0 * m2**2, 1e-12)
    return _stop(eps), width, max(math.ceil(math.log2((u - l) / width)), 0) + 2


def _right_end(f, mu, pen, eps):
    """Right end of the solvers' bracket (rho, hi]: the crossing c of
    m2 / (2 (lam - rho)^2) with psi*'(lam), stepped past the root by
    (eps / 8) (c - rho) / (4 c psi*'(c)), a gap of at most eps / 16."""
    m2 = float(np.mean(np.sum(f.grad_many(mu.points) ** 2, axis=1)))
    rho = f.semiconvexity
    _, u = dual_interval(f, mu, pen, c=m2 / pen.psi_star_deriv(rho + 1.0))
    c = dual_solvers._slope_crossing(pen, m2, -rho, u)
    return c + eps / 8.0 * (c - rho) / (4.0 * c * pen.psi_star_deriv(c))


def _spy_passes(monkeypatch):
    """(lam, h(lam), r(lam)) of every certifying prox pass, in evaluation
    order: h = cbar - psi*'(lam) and r = psi*'(lam)^(-1/2) - cbar^(-1/2)."""
    passes = []
    prox_pass = dual_solvers._prox_pass

    def spy(f, mu, pen, lam, eps_prox, *counts):
        rep = prox_pass(f, mu, pen, lam, eps_prox, *counts)
        slope = pen.psi_star_deriv(lam)
        passes.append((lam, rep.cost - slope, slope**-0.5 - rep.cost**-0.5))
        return rep

    monkeypatch.setattr(dual_solvers, "_prox_pass", spy)
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
    f = linear(a) if kind == "linear" else make_objective(kind)
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

    def test_indicator_whose_bound_overflows_raises_a_typed_error(self):
        """delta = 1e300: delta^2 / 2 is past the float range, and the
        indicator raises RadiusOutOfRange with delta, not OverflowError."""
        with pytest.raises(RadiusOutOfRange) as info:
            TrustRegionIndicator(1e300)
        assert isinstance(info.value, WfwError)
        assert info.value.delta == 1e300 and info.value.lam_hat is None

    def test_power_rejects_a_nonpositive_exponent(self):
        with pytest.raises(ValueError, match="alpha must be positive"):
            PowerPenalty(0.0)

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
            rep = primal_dual_bisection(quadratic(), mu, pen, 1e-3)
            assert rep.gap >= 0.0
            assert rep.gap <= 1e-3 + 1e-9
            assert 0.0 < rep.lambda_star <= _right_end(quadratic(), mu, pen, 1e-3)

    @pytest.mark.parametrize("eps", [0.0, math.nan, math.inf])
    def test_bad_arguments_are_named_before_any_pass(self, eps, monkeypatch):
        passes = _spy_passes(monkeypatch)
        mu = ParticleCloud(np.random.default_rng(1).normal(size=(6, 2)))
        with pytest.raises(ValueError, match="eps"):
            primal_dual_bisection(quadratic(), mu, TrustRegionIndicator(0.1), eps)
        assert passes == []

    def test_report_rejects_negative_gap(self):
        with pytest.raises(WeakDualityViolated) as exc:
            DualSolveReport(
                lambda_star=1.0,
                dual_value=1.0,
                primal_value=0.0,
                gap=-1.0,
                oracle_calls=0,
                images=np.zeros((1, 1)),
                cost=0.0,
            )
        assert isinstance(exc.value, WfwError)
        assert exc.value.gap == -1.0
        assert exc.value.primal == 0.0
        assert exc.value.dual == 1.0

    def test_oracle_accounting(self, monkeypatch):
        passes = _spy_passes(monkeypatch)
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(6, 2)) * 3.5
        mu = ParticleCloud(pts)
        m2 = float(np.mean(np.sum(pts**2, axis=1)))
        pen = TrustRegionIndicator(0.3 * math.sqrt(m2) / 2.0)
        rep = primal_dual_bisection(quadratic(), mu, pen, 1e-3)
        # every oracle call is a certifying prox pass over the n atoms
        assert rep.oracle_calls == len(passes)

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
        rep = primal_dual_bisection(quadratic(), mu, pen, 1e-3)
        assert len(calls["agd_prox_batch"]) == rep.oracle_calls
        assert calls["g_value_and_grad_fullbatch"] == []
        mirror_ascent(quadratic(), mu, pen, dual_interval(quadratic(), mu, pen), 7, None)
        assert len(calls["g_value_and_grad_fullbatch"]) == 7

    @settings(max_examples=60, deadline=None)
    @given(*_INSTANCES, st.floats(-6.0, -2.0), _LOG_SCALES)
    def test_full_batch_search_certifies_within_budget(
        self, case, seed, n, d, frac, log_eps, log_scale
    ):
        """The returned point has h <= 0, a finite primal and a read gap in
        [0, 13 eps / 16], the stop threshold, after at most two passes more
        than plain bisection, also on the tiny fields of indicator clouds
        scaled down to 10^-2.5."""
        scale = 10.0**log_scale if case[1] == "indicator" else None
        f, mu, pen, _ = _solver_instance(case, seed, n, d, frac, scale)
        eps = 10.0**log_eps
        rep = primal_dual_bisection(f, mu, pen, eps)
        stop, _, passes = _plain_bisection_budget(f, mu, pen, eps)
        assert rep.cost <= pen.psi_star_deriv(rep.lambda_star)
        assert math.isfinite(rep.primal_value)
        # primal - dual cancels to roundoff at a tight certificate
        assert -1e-12 * (1.0 + abs(rep.primal_value)) <= rep.gap <= stop
        assert rep.oracle_calls <= passes + 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([("linear", "indicator"), ("quadratic", "indicator")]),
        *_INSTANCES[1:],
        st.floats(-6.0, -2.0),
        _LOG_SCALES,
    )
    def test_affine_residual_certifies_in_two_passes(
        self, case, seed, n, d, frac, log_eps, log_scale
    ):
        """Linear and quadratic witnesses have cbar = K / (rho' + lam)^2, so
        under the indicator r = psi*'^(-1/2) - cbar^(-1/2) is affine in lam
        with slope -sqrt(2 / m2): the first pass and one Newton step on
        that a-priori slope, past the root, read a gap within the stop
        threshold."""
        f, mu, pen, _ = _solver_instance(case, seed, n, d, frac, 10.0**log_scale)
        eps = 10.0**log_eps
        rep = primal_dual_bisection(f, mu, pen, eps)
        assert rep.oracle_calls <= 2
        assert 0.0 <= rep.gap <= _stop(eps)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(1, 3),
        st.floats(0.05, 5.0),
        st.floats(-6.0, -1.0),
        _LOG_SCALES,
    )
    def test_linear_field_certifies_at_its_first_pass(
        self, seed, n, d, frac, log_eps, log_scale
    ):
        """Under the indicator a linear field's root is lam_hat = |a| /
        delta itself.  The unhinted first pass sits at lam_hat stepped past
        the root, where h < 0 by more than the rounding of cbar, so it
        certifies alone, also for fields weaker than the radius (frac > 1)."""
        case = ("linear", "indicator")
        f, mu, pen, _ = _solver_instance(case, seed, n, d, frac, 10.0**log_scale)
        eps = 10.0**log_eps
        rep = primal_dual_bisection(f, mu, pen, eps)
        assert rep.oracle_calls == 1
        assert 0.0 <= rep.gap <= _stop(eps)

    @settings(max_examples=200, deadline=None)
    @given(*_INSTANCES, st.floats(-6.0, -1.0))
    def test_returned_pass_keeps_its_true_gap_within_eps(
        self, case, seed, n, d, frac, log_eps
    ):
        """Each pass at lam solves its rows to (3/2) eps / max(lam, 1), so
        its images add at most 3 eps / 16 of dual slack to the gap it reads,
        and the search returns a read gap within 13 eps / 16.  Against a
        reference prox at the returned lam solved to 1e-13, the true gap,
        the returned primal value less the reference dual, stays within
        eps.  A draw the reference cannot certify is skipped."""
        f, mu, pen, _ = _solver_instance(case, seed, n, d, frac)
        eps = 10.0**log_eps
        rep = primal_dual_bisection(f, mu, pen, eps)
        lam = rep.lambda_star
        try:
            y, theta, _, _ = moreau.agd_prox_batch(f, mu.points, lam, 1e-13)
        except WfwError:
            assume(False)
        dual = float(np.mean(f.eval_many(y) + lam * theta)) - pen.psi_star(lam)
        assert rep.primal_value - dual <= eps

    def test_pass_counts_over_a_fixed_family(self):
        """Passes per search over 3,000 fixed draws of `_solver_instance`
        (draw i: seed i, case, n, d, frac and eps = 10^U(-6, -1) from
        default_rng(i)), pinned.  Certifying eps / (4 + rho + 1), with rows
        solved to that over max(lam, 1), the histogram read {1: 1410, 2:
        1341, 3: 151, 4: 94, 5: 4} (1.647 passes a search); certifying eps
        itself it reads {1: 1455, 2: 1283, 3: 199, 4: 63} (1.623), and no
        draw spends five."""
        counts = {}
        for i in range(3000):
            rng = np.random.default_rng(i)
            case = _SOLVER_CASES[int(rng.integers(len(_SOLVER_CASES)))]
            n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            frac, eps = float(rng.uniform(0.05, 1.0)), 10.0 ** float(rng.uniform(-6.0, -1.0))
            f, mu, pen, _ = _solver_instance(case, i, n, d, frac)
            calls = primal_dual_bisection(f, mu, pen, eps).oracle_calls
            counts[calls] = counts.get(calls, 0) + 1
        assert counts == {1: 1455, 2: 1283, 3: 199, 4: 63}

    def test_double_well_step_stops_on_its_certificate(self):
        """The 12-atom double-well step certifies within 6 passes; plain
        bisection to its a-priori width spends 33 (32 oracle calls before its
        certificate pass)."""
        mu = ParticleCloud(np.random.default_rng(15).normal(size=(12, 2)))
        _, rep = trust_region_step(make_objective("double-well"), mu, 0.1, 1e-3)
        pen = TrustRegionIndicator(0.1)
        stop, _, passes = _plain_bisection_budget(make_objective("double-well"), mu, pen, 1e-3)
        assert passes == 33
        assert rep.oracle_calls <= 6
        assert rep.gap <= stop

    @pytest.mark.parametrize(
        "shape, scale, frac, cap",
        [((6, 2), 0.01, 0.5, 3), ((8, 3), 1.0, 0.3, 32)],
        ids=["width", "passes"],
    )
    def test_uncertified_search_stops_on_its_caps(
        self, monkeypatch, shape, scale, frac, cap
    ):
        """The pass cap is three past plain bisection's count from the
        bracket (rho, lam_hat + rho + step] to the a-priori width: 3 on the
        "width" case's tiny field, whose width exceeds the bracket, and 32
        on the "passes" case.  A cost falling like exp(-40 lam) hides every
        certificate and puts the root at 2, below lam_hat - L.  The first
        pass sits at lam_hat stepped past the root, which with rho = 0 is
        the bracket's right end.  The Newton step from there lands far
        below zero; it is clamped above lam_hat - L before its step past
        the root, so the second pass sits one step above that end (no
        division by psi*'(lam) = 0).  Later passes leave that end for the
        root, all above rho = 0, and the search raises GapNotCertified at
        its cap instead of returning a report."""

        def crawling(f, mu, pen, lam, eps_prox, *counts):
            cbar = pen.psi_star_deriv(lam) * math.exp(-40.0 * (lam - 2.0))
            return DualSolveReport(
                lambda_star=lam, dual_value=0.0, primal_value=0.0, gap=math.inf,
                oracle_calls=1, images=mu.points, cost=cbar,
            )

        monkeypatch.setattr(dual_solvers, "_prox_pass", crawling)
        passes = _spy_passes(monkeypatch)
        mu = ParticleCloud(scale * np.random.default_rng(0).normal(size=shape))
        m2 = float(np.mean(np.sum(mu.points**2, axis=1)))
        pen = TrustRegionIndicator(frac * math.sqrt(m2) / 2.0)
        with pytest.raises(GapNotCertified) as info:
            primal_dual_bisection(quadratic(), mu, pen, 1e-5)
        stop, width, _ = _plain_bisection_budget(quadratic(), mu, pen, 1e-5)
        lam_hat = math.sqrt(m2) / pen.delta  # L = 1, rho = 0
        step = 1e-5 / (16.0 * pen.delta**2)
        lo, hi = lam_hat - 1.0, lam_hat + step
        width = max(width, math.ulp(hi))
        assert math.ceil(math.log2(max(hi, width) / width)) + 3 == cap
        assert len(passes) == cap
        assert passes[0][0] == pytest.approx(hi, rel=1e-12)
        assert passes[1][0] == pytest.approx(lo + step, rel=1e-12)
        assert all(0.0 < lam <= hi for lam, _, _ in passes)
        assert passes[2][0] < lo
        assert isinstance(info.value, WfwError)
        assert info.value.lam == passes[-1][0]
        assert info.value.gap == math.inf and info.value.eps == stop

    def test_root_below_the_a_priori_left_end_is_found(self, monkeypatch):
        """On a unit-scale double-well cloud, partly outside the ball
        ||x|| <= 2 where L = 11 holds, the slope bound behind the left end
        lam_hat - L = 162.9 fails: the root sits near 143.3.  The Newton step
        stays above that end; the secant through the first two passes
        leaves it, and the search certifies below it in four passes."""
        passes = _spy_passes(monkeypatch)
        mu = ParticleCloud(np.random.default_rng(3).normal(size=(8, 2)))
        f, pen = make_objective("double-well"), TrustRegionIndicator(0.1)
        rep = primal_dual_bisection(f, mu, pen, 1e-6)
        lo = math.sqrt(np.mean(np.sum(f.grad_many(mu.points) ** 2, axis=1))) / 0.1 - 11.0
        assert lo == pytest.approx(162.924, abs=1e-3)
        assert passes[1][0] > lo > passes[2][0]
        assert rep.lambda_star == pytest.approx(143.34, abs=1e-2)
        assert rep.oracle_calls == 4
        assert 0.0 <= rep.gap <= _stop(1e-6)

    def test_dual_peaking_at_the_left_end_returns_it(self):
        """A linear field weaker than the radius has its dual maximizer
        |a| / delta = 0.625 below rho + 1 = 1, the left end of
        `dual_interval`.  The bracket (rho, lam_hat + rho] (rho = 0), its
        right end stepped past the root, holds it: the first pass, at
        lam_hat = lam_hat - L (L = 0) stepped past the root by eps / (16
        delta^2), is that right end and certifies, its cost |a|^2 / (2
        lam^2) within 0.05% of the radius's delta^2 / 2 = 0.32."""
        mu = ParticleCloud(np.random.default_rng(3).normal(size=(5, 2)))
        a = np.array([0.3, -0.4])
        f = linear(a)
        rep = primal_dual_bisection(f, mu, TrustRegionIndicator(0.8), 1e-3)
        m2 = float(np.mean(np.sum(f.grad_many(mu.points) ** 2, axis=1)))
        lam = math.sqrt(m2) / 0.8 + 1e-3 / (16.0 * 0.8**2)
        assert rep.lambda_star == pytest.approx(lam, rel=1e-12)
        assert rep.lambda_star == pytest.approx(0.625, rel=1e-3)
        assert rep.oracle_calls == 1
        assert 0.0 <= rep.gap <= _stop(1e-3)
        assert rep.cost == pytest.approx(0.25 / (2.0 * lam**2), rel=1e-12)
        assert 0.32 * (1.0 - 5e-4) <= rep.cost <= 0.32

    @settings(max_examples=60, deadline=None)
    @given(*_INSTANCES)
    def test_slope_bounds_behind_the_interval(self, case, seed, n, d, frac):
        """g'(rho + 1) <= m2 / 2, so 4 g'(l)^2 never exceeds the width
        bound's 16 m2^2 term; and a pass at the bracket's right end hi, at
        the solver's prox accuracy, has h <= 0, so a pass at hi lies inside
        the ball.  The step of hi past the crossing, where g'(lam) <= m2 /
        (2 (lam - rho)^2) = psi*'(lam), puts g'(hi) at least eps / (16 hi)
        below psi*'(hi).  The rows' certificate would let cbar misread by up
        to (3/4) eps / hi, so this is checked, not implied: over 4,000 fixed
        draws the read h stays below -0.73 eps / (16 hi)."""
        f, mu, pen, m2 = _solver_instance(case, seed, n, d, frac)
        l = f.semiconvexity + 1.0
        l, _ = dual_interval(f, mu, pen, c=m2 / pen.psi_star_deriv(l))
        _, slope_l = g_value_and_grad_fullbatch(f, mu, l, _PROX_EPS)
        assert slope_l <= 0.5 * m2 + _PROX_EPS
        hi = _right_end(f, mu, pen, 1e-3)
        rep = dual_solvers._prox_pass(f, mu, pen, hi, _pass_eps(1e-3, hi), 1)
        assert rep.cost <= pen.psi_star_deriv(rep.lambda_star)

    @settings(max_examples=60, deadline=None)
    @given(*_INSTANCES)
    @example(("linear", "indicator"), 0, 6, 2, 5.0)
    def test_a_priori_bracket_holds_the_root(self, case, seed, n, d, frac):
        """m2 / (2 (lam + L)^2) <= g'(lam) <= m2 / (2 (lam - rho)^2) where L
        covers the cloud, so with no prox pass h = g' - psi*' is >= 0 at
        the crossing with s = L and <= 0 at hi, the crossing with s = -rho
        stepped past the root, up to the prox accuracy.  The search returns
        a root in (rho, hi] with a gap within eps, also the root 0.2 below
        rho + 1 of a linear field five times weaker than the radius.  Under
        the indicator the crossings are lam_hat - L and lam_hat + rho with
        lam_hat = sqrt(m2) / delta."""
        f, mu, pen, m2 = _solver_instance(case, seed, n, d, frac)
        rho = f.semiconvexity
        _, u = dual_interval(f, mu, pen, c=m2 / pen.psi_star_deriv(rho + 1.0))
        lo = dual_solvers._slope_crossing(pen, m2, f.smoothness, u)
        hi = _right_end(f, mu, pen, 1e-3)
        for lam, sign in ((lo, 1.0), (hi, -1.0)):
            _, slope = g_value_and_grad_fullbatch(f, mu, lam, _PROX_EPS)
            assert sign * (slope - pen.psi_star_deriv(lam)) >= -_PROX_EPS
        rep = primal_dual_bisection(f, mu, pen, 1e-3)
        assert rho < rep.lambda_star <= hi
        assert -1e-12 * (1.0 + abs(rep.primal_value)) <= rep.gap <= 1e-3
        if isinstance(pen, TrustRegionIndicator):
            lam_hat = math.sqrt(m2) / pen.delta
            assert lo == pytest.approx(lam_hat - f.smoothness, rel=1e-12)
            # (eps / 8) (b - rho) / (4 b psi*'(b)) with b = lam_hat + rho
            step = 1e-3 / (16.0 * pen.delta**2)
            b = lam_hat + rho
            assert b < hi <= b + step + 4.0 * math.ulp(hi)


    @settings(max_examples=60, deadline=None)
    @given(
        *_INSTANCES,
        st.floats(-6.0, -2.0),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_hint_inside_the_bracket_certifies_or_raises_typed(
        self, case, seed, n, d, frac, log_eps, t
    ):
        """A hint anywhere in (rho, hi) moves only the first pass: the
        search still returns a pass with h <= 0, a gap within the stop
        threshold and a
        finite primal value, or raises a typed error (a hint near rho can
        ask a prox row for more steps than `moreau.BUDGET_CAP`)."""
        f, mu, pen, _ = _solver_instance(case, seed, n, d, frac)
        eps, rho = 10.0**log_eps, f.semiconvexity
        hint = rho + t * (_right_end(f, mu, pen, eps) - rho)
        try:
            rep = primal_dual_bisection(f, mu, pen, eps, root_hint=hint)
        except WfwError:
            return
        assert rep.cost <= pen.psi_star_deriv(rep.lambda_star)
        assert rep.gap <= _stop(eps)
        assert math.isfinite(rep.primal_value)

    @settings(max_examples=40, deadline=None)
    @given(
        *_INSTANCES,
        st.floats(-6.0, -2.0),
        st.sampled_from(["nan", "inf", "-inf", "rho", "below", "hi", "above"]),
    )
    def test_hint_outside_the_bracket_changes_no_bit(
        self, case, seed, n, d, frac, log_eps, where
    ):
        """A hint that is not a number in (rho, hi) is no hint: the search
        passes first at lam_hat and returns the hint-less report, images
        and all, or raises the same error."""
        f, mu, pen, _ = _solver_instance(case, seed, n, d, frac)
        eps, rho = 10.0**log_eps, f.semiconvexity
        hi = _right_end(f, mu, pen, eps)
        hint = {
            "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
            "rho": rho, "below": rho - 1.0, "hi": hi, "above": 2.0 * hi,
        }[where]

        def outcome(**hint):
            try:
                return primal_dual_bisection(f, mu, pen, eps, **hint)
            except WfwError as exc:
                return type(exc)

        base, hinted = outcome(), outcome(root_hint=hint)
        assert hinted == base
        if isinstance(base, DualSolveReport):
            np.testing.assert_array_equal(hinted.images, base.images)

    @settings(max_examples=40, deadline=None)
    @given(*_INSTANCES[1:], st.floats(-6.0, -2.0), _LOG_SCALES)
    @example(0, 2, 1, 0.125, -2.0, -2.0)
    def test_root_estimate_of_a_quadratic_certifies_in_one_pass(
        self, seed, n, d, frac, log_eps, log_scale
    ):
        """Under the indicator a quadratic's r is affine in lam with slope
        -sqrt(2 / m2), so the root its certifying pass estimates is the
        root, and a search hinted with it certifies at its first pass.  As
        a ratio to lam_hat the estimate is lam delta / sqrt(m2) + 1 - delta
        / sqrt(2 cbar).  Both forms sum terms of the size of lam / lam_hat,
        which a coarse eps over a tiny field puts far above 1 (6,014 at seed
        0, n = 2, d = 1, frac = 0.125, eps = 1e-2, scale 1e-2, where the first
        pass, stepped past the root by eps / (16 delta^2), certifies), so
        they agree to the rounding of that size."""
        case = ("quadratic", "indicator")
        f, mu, pen, m2 = _solver_instance(case, seed, n, d, frac, 10.0**log_scale)
        eps = 10.0**log_eps
        rep = primal_dual_bisection(f, mu, pen, eps)
        est = root_estimate(pen, m2, rep.lambda_star, rep.cost)
        lam_hat = math.sqrt(m2) / pen.delta
        ratio = rep.lambda_star / lam_hat + 1.0 - pen.delta / math.sqrt(2.0 * rep.cost)
        size = max(rep.lambda_star / lam_hat, 1.0)
        assert est / lam_hat == pytest.approx(ratio, rel=1e-12, abs=1e-12 * size)
        again = primal_dual_bisection(f, mu, pen, eps, root_hint=est)
        assert again.oracle_calls == 1
        assert 0.0 <= again.gap <= _stop(eps)

    def test_crossing_at_c_is_computed_only_for_a_second_pass(self, monkeypatch):
        """The crossing at s = c bounds only the Newton step of a second
        pass.  A search whose first pass certifies (hinted with the root of
        a quadratic) computes the crossings at s = 0 and s = -rho alone;
        one that takes a second pass (unhinted on a double well) adds s = c
        after its first pass."""
        crossings, passes = [], []
        real_crossing, real_pass = dual_solvers._slope_crossing, dual_solvers._prox_pass

        def crossing(penalty, m2, s, u):
            crossings.append(s)
            return real_crossing(penalty, m2, s, u)

        def prox_pass(*args):
            passes.append(len(crossings))
            return real_pass(*args)

        monkeypatch.setattr(dual_solvers, "_slope_crossing", crossing)
        monkeypatch.setattr(dual_solvers, "_prox_pass", prox_pass)
        f, mu, pen, m2 = _solver_instance(("quadratic", "indicator"), 7, 6, 2, 0.5)
        rep = primal_dual_bisection(f, mu, pen, 1e-4)
        est = root_estimate(pen, m2, rep.lambda_star, rep.cost)
        crossings.clear()
        passes.clear()
        assert primal_dual_bisection(f, mu, pen, 1e-4, root_hint=est).oracle_calls == 1
        assert crossings == [0.0, -f.semiconvexity] and passes == [2]
        f, mu, pen, _ = _solver_instance(("double-well", "indicator"), 7, 6, 2, 0.5)
        crossings.clear()
        passes.clear()
        assert primal_dual_bisection(f, mu, pen, 1e-4).oracle_calls >= 2
        assert crossings == [0.0, -f.semiconvexity, f.semiconcavity]
        assert passes[:2] == [2, 3]


class TestSampledSlope:
    """The sampled oracle's fourth moment depends on (f, mu) only, so a
    mirror-ascent run computes it once, however many sampled slopes it asks
    for."""

    def _spy(self, monkeypatch):
        calls = []
        moment = dual_solvers.gradient_fourth_moment

        def spy(f, mu):
            calls.append(mu.n)
            return moment(f, mu)

        monkeypatch.setattr(dual_solvers, "gradient_fourth_moment", spy)
        return calls

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
    @pytest.mark.parametrize(
        "interval, k, error",
        [((1.0, 5.0), 0, ValueError), ((2.0, 2.0), 5, IntervalEmpty)],
        ids=["k=0", "u=l"],
    )
    def test_rejects_bad_arguments(self, interval, k, error):
        mu = ParticleCloud(np.ones((3, 2)))
        with pytest.raises(error):
            mirror_ascent(quadratic(), mu, TrustRegionIndicator(0.5), interval, k, None)

    @pytest.mark.parametrize("l", [0.0, -0.5])
    def test_left_end_at_or_below_semiconvexity_is_named(self, l):
        """At l = rho the plug-in bound 256 m4 / (l - rho)^4 would divide by
        zero: LambdaTooSmall naming l and rho comes first."""
        mu = ParticleCloud(np.random.default_rng(0).normal(size=(5, 2)))
        with pytest.raises(LambdaTooSmall, match=f"l = {l} .* semiconvexity 0.0"):
            mirror_ascent(
                quadratic(), mu, TrustRegionIndicator(0.4), (l, 3.0), 5,
                np.random.default_rng(0),
            )

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

        pen = SquareConjugate()
        for k in (100, 1000):
            lam_bar, _ = mirror_ascent(
                None, None, pen, (0.0, 2.0), k, np.random.default_rng(6),
                oracle=lambda lam: 2.0, c2=4.0,
            )
            subopt = 1.0 - (2 * lam_bar - lam_bar**2)
            env = mirror_ascent_envelope((0.0, 2.0), k, 4.0, 4.0, 0.0)
            assert 0.0 <= subopt <= env

    def test_overflowing_fourth_moment_raises_a_typed_error(self):
        """At 1e80 the double-well's squared gradient norm (1e480) overflows
        in the plug-in fourth moment that sets C^2: NonFiniteIterate with
        the atom count, not a numpy overflow warning."""
        mu = ParticleCloud([[0.5, 0.0], [1e80, 0.0]])
        pen = TrustRegionIndicator(0.1)
        f = make_objective("double-well")
        with pytest.raises(NonFiniteIterate) as info:
            mirror_ascent(f, mu, pen, (2.0, 3.0), 5, np.random.default_rng(0))
        assert info.value.active == 2


class TestTrustRegion:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["quadratic", "double-well", "linear"]),
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 3)),
            elements=st.floats(-2.0, 2.0),
        ),
        arrays(np.float64, 3, elements=st.floats(-3.0, 3.0)),
        st.floats(-300.0, 300.0),
        st.floats(-300.0, 300.0),
    )
    @example("quadratic", np.ones((3, 2)), np.zeros(3), -150.0, -280.0)
    def test_step_returns_a_feasible_report_or_a_typed_error(
        self, kind, atoms, a, log_delta, log_eps
    ):
        """Over radii and tolerances across the float range, a step returns
        a report inside the ball with a nonnegative gap (to roundoff), or
        raises a `WfwError`; a raw error or a RuntimeWarning fails.  At
        delta = 1e-150 and eps = 1e-280 the prox tolerance, eps over a
        bracket of width ~ 1 / delta, underflows to 0."""
        f = make_objective(kind) if kind != "linear" else linear(a[: atoms.shape[1]])
        delta = 10.0**log_delta
        try:
            _, rep = trust_region_step(f, ParticleCloud(atoms), delta, 10.0**log_eps)
        except WfwError:
            return
        assert rep.cost <= 0.5 * delta**2 and rep.gap >= -1e-6

    def test_linear_closed_form(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(10, 3))
        mu = ParticleCloud(pts)
        a = np.array([0.9, -0.3, 0.4])
        na = float(np.linalg.norm(a))
        delta = 0.25
        sampler, rep = trust_region_step(linear(a), mu, delta, 1e-3)
        assert rep.lambda_star == pytest.approx(na / delta, rel=0.01)
        assert rep.dual_value == pytest.approx(
            float(np.mean(pts @ a)) - delta * na, abs=1e-3
        )
        assert 0.0 <= rep.gap <= 1e-3

    def test_field_weaker_than_the_radius_certifies_its_root(self):
        """|a| = 1e-3 under delta = 0.25 puts the root |a| / delta = 0.004
        within 1 of rho = 0.  The first pass sits at the root stepped past
        it by eps / (16 delta^2) = eps, 0.00401 at eps = 1e-5:
        still below lam = 1, where the prox budget reads min(lam - rho, 1)
        and counts each row's distance |a| / lam to its prox.  That pass
        certifies, with all but 0.8% of the radius used."""
        mu = ParticleCloud(np.random.default_rng(0).normal(size=(5, 2)))
        _, rep = trust_region_step(linear([1e-3, 0.0]), mu, 0.25, 1e-5)
        assert rep.lambda_star == pytest.approx(0.004 + 1e-5, rel=1e-12)
        assert rep.oracle_calls == 1
        assert 0.0 <= rep.gap <= _stop(1e-5)
        assert rep.cost == pytest.approx(0.5 * (1e-3 / rep.lambda_star) ** 2, rel=1e-12)
        assert 0.992 * 0.5 * 0.25**2 <= rep.cost <= 0.5 * 0.25**2

    def test_moved_cloud_is_within_radius_and_descends(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(12, 2))
        mu = ParticleCloud(pts)
        a = np.array([0.8, 0.6])
        delta = 0.2
        sampler, _ = trust_region_step(linear(a), mu, delta, 1e-4)
        nu = sampler.target_cloud()
        dist, _ = wasserstein2_exact(mu, nu)
        assert dist <= delta * (1.0 + 1e-6)
        drop = float(np.mean(pts @ a)) - float(np.mean(nu.points @ a))
        assert drop == pytest.approx(delta * np.linalg.norm(a), rel=1e-2)

    def test_oversized_radius_rejected(self):
        mu = ParticleCloud(np.random.default_rng(11).normal(size=(6, 2)) * 0.1)
        f = quadratic()
        with pytest.raises(DeltaTooLarge) as exc:
            trust_region_step(f, mu, 5.0, 1e-3)
        assert exc.value.admissible < 5.0

    def test_radius_on_the_admissible_bound_accepted(self):
        rng = np.random.default_rng(17)
        mu = ParticleCloud(rng.normal(size=(8, 2)) * 0.3)
        m2 = float(np.mean(np.sum(mu.points**2, axis=1)))
        bound = math.sqrt(m2) / 2.0  # quadratic: grad f = x, L = 1
        sampler, rep = trust_region_step(quadratic(), mu, bound, 1e-3)
        assert rep.gap >= 0.0
        assert rep.cost <= 0.5 * bound**2 * (1.0 + 1e-6)
        with pytest.raises(DeltaTooLarge) as exc:
            trust_region_step(quadratic(), mu, bound * (1 + 1e-9), 1e-3)
        assert exc.value.admissible == bound
        assert isinstance(exc.value.__cause__, RegularizationTooWeak)

    def test_zero_field_with_curvature_rejected(self):
        """L > 0: the zero field fails the radius check with bound 0."""
        mu = ParticleCloud(np.zeros((5, 2)))
        with pytest.raises(DeltaTooLarge) as exc:
            trust_region_step(quadratic(), mu, 0.1, 1e-3)
        assert exc.value.admissible == 0.0

    def test_zero_gradient_field_rejected(self):
        mu = ParticleCloud(np.random.default_rng(12).normal(size=(4, 2)))
        with pytest.raises(DeltaTooLarge) as exc:
            trust_region_step(make_objective("zero"), mu, 0.1, 1e-3)
        assert exc.value.admissible == 0.0

    @pytest.mark.parametrize("delta", [1e-170, 2.5e-303])
    def test_radius_whose_square_underflows_is_named_on_a_flat_field(self, delta):
        """delta^2 / 2 underflows to 0: the indicator refuses the radius, as
        it refuses one whose square overflows, on an L = 0 field as on the
        quadratic.  Past the indicator, psi*' = 0 would leave the flat
        field's interval the width sqrt(16 L^2) = 0, read as a vanishing
        field."""
        mu = ParticleCloud(np.random.default_rng(0).normal(size=(4, 2)))
        for f in (linear([5e-3, 0.0]), quadratic()):
            with pytest.raises(RadiusOutOfRange) as info:
                trust_region_step(f, mu, delta, 1e-6)
            assert (info.value.delta, info.value.lam_hat) == (delta, None)
            assert "underflows" in str(info.value)

    def test_nonzero_field_on_a_collapsed_interval_is_not_called_vanishing(self):
        """m2 = 1e-40 on an L = 0 field puts u = 1 + 2e-20 at l = 1: the
        interval is empty, but the field is not zero, so IntervalEmpty
        propagates and no DeltaTooLarge says the field vanishes."""
        mu = ParticleCloud(np.random.default_rng(0).normal(size=(4, 2)))
        with pytest.raises(IntervalEmpty):
            trust_region_step(linear([1e-20, 0.0]), mu, 1.0, 1e-6)

    def test_sampler_images_match_source(self):
        rng = np.random.default_rng(13)
        mu = ParticleCloud(rng.normal(size=(9, 2)))
        sampler, _ = trust_region_step(linear(np.array([1.0, 0.0])), mu, 0.15, 1e-3)
        assert sampler.images.shape == mu.points.shape
        np.testing.assert_array_equal(sampler.target_cloud().points, sampler.images)

    @pytest.mark.parametrize(
        "objective", [linear(np.array([1.0, 0.0])), quadratic(), make_objective("double-well")]
    )
    def test_target_cloud_is_built_on_the_report_images(self, objective):
        """The next cloud holds the certifying pass's images themselves, frozen
        and owning their data, so every per-cloud memo keeps them."""
        mu = ParticleCloud(np.random.default_rng(14).normal(size=(9, 2)))
        sampler, rep = trust_region_step(objective, mu, 0.15, 1e-3)
        nu = sampler.target_cloud()
        assert nu.points is rep.images and nu.points is sampler.images
        assert not nu.points.flags.writeable and nu.points.flags.owndata
        assert nu.points.dtype == np.float64 and nu.points.shape == mu.points.shape

    def test_step_reuses_the_certifying_prox_pass(self, monkeypatch):
        """A step evaluates exactly the gradient rows of its own bisection,
        whose interval check also admits the radius."""
        counter = {"rows": 0}
        f = counted_model(make_objective("double-well"), counter)
        mu = ParticleCloud(np.random.default_rng(15).normal(size=(12, 2)))
        bisection_rows = []

        def spy(*args, **kwargs):
            before = counter["rows"]
            rep = primal_dual_bisection(*args, **kwargs)
            bisection_rows.append((counter["rows"] - before, rep.lambda_star))
            return rep

        monkeypatch.setattr(dual_solvers, "primal_dual_bisection", spy)
        _, rep = trust_region_step(f, mu, 0.1, 1e-3)
        [(rows, lam)] = bisection_rows
        assert rep.lambda_star == lam
        assert counter["rows"] == rows == 81

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 8),
        st.sampled_from(["quadratic", "double-well"]),
        st.floats(0.05, 1.0),
        st.sampled_from([1e-3, 0.5]),
    )
    def test_moved_cloud_is_within_the_radius(self, seed, n, kind, frac, eps):
        """W2(mu, moved)^2 / 2 <= delta^2/2 (1 + 1e-6) at a tight and a coarse eps."""
        rng = np.random.default_rng(seed)
        mu = ParticleCloud(0.45 * rng.normal(size=(n, 2)))
        f = quadratic() if kind == "quadratic" else make_objective("double-well")
        m2 = float(np.mean(np.sum(f.grad_many(mu.points) ** 2, axis=1)))
        delta = frac * math.sqrt(m2) / (2.0 * f.smoothness)
        sampler, _ = trust_region_step(f, mu, delta, eps)
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
        f = counted_model(make_objective("double-well"), counter)
        mu = ParticleCloud(np.random.default_rng(15).normal(size=(12, 2)))
        trust_region_step(f, mu, 0.1, 1e-3)
        assert calls == [12]

    @pytest.mark.parametrize("scale", [1e103, 1e160])
    def test_overflowing_field_at_the_atoms_raises_a_typed_error(self, scale):
        """The step's one gradient pass over the atoms overflows on a
        double-well cloud with a huge coordinate."""
        mu = ParticleCloud([[0.5, 0.0], [scale, 0.0]])
        with pytest.raises(NonFiniteIterate) as info:
            trust_region_step(make_objective("double-well"), mu, 0.1, 1e-3)
        assert info.value.active == 2

    def test_huge_mean_squared_gradient_raises_a_typed_error(self):
        """At 1e26 the double-well's m2 (1e156) is finite but its square in
        the a-priori width is not.  The first pass, at lam_hat = sqrt(m2) /
        delta = 7.07e78, cannot certify the far atom's prox: a typed
        ProxNotCertified, not a raw OverflowError."""
        mu = ParticleCloud([[0.5, 0.0], [1e26, 0.0]])
        with pytest.raises(ProxNotCertified) as info:
            trust_region_step(make_objective("double-well"), mu, 0.1, 1e-3)
        assert isinstance(info.value, WfwError)
        assert info.value.active == 1
        assert info.value.lam == pytest.approx(7.0711e78, rel=1e-4)

    def test_uncertified_prox_on_a_huge_coordinate_raises_a_typed_error(self, monkeypatch):
        """With a coordinate at 1e20 the step's first pass, at lam_hat =
        sqrt(m2) / delta = 7.07e60, cannot certify the far atom's prox (its
        residual is rounding noise on a 1e20 coordinate), and the step
        raises ProxNotCertified with lam, step and active, not a report."""
        passes = []
        prox = dual_solvers.agd_prox_batch

        def spy(f, x, lam, eps):
            passes.append(lam)
            return prox(f, x, lam, eps)

        monkeypatch.setattr(dual_solvers, "agd_prox_batch", spy)
        monkeypatch.setattr(moreau, "agd_prox_batch", spy)
        mu = ParticleCloud([[0.5, 0.0], [1e20, 0.0]])
        with pytest.raises(ProxNotCertified) as info:
            trust_region_step(make_objective("double-well"), mu, 0.1, 0.5)
        assert isinstance(info.value, WfwError)
        assert passes == [info.value.lam]
        assert info.value.lam == pytest.approx(7.0711e60, rel=1e-4)
        assert info.value.step >= 1
        assert info.value.active == 1

    def test_tiny_eps_raises_a_typed_error(self):
        """Rounding keeps the quadratic prox from certifying at an accuracy
        below eps = 1e-170, and the step raises ProxNotCertified, not
        ZeroDivisionError."""
        mu = ParticleCloud(np.random.default_rng(0).normal(size=(12, 2)))
        with pytest.raises(ProxNotCertified) as info:
            trust_region_step(quadratic(), mu, 0.3, 1e-170)
        assert info.value.step >= 1

    @pytest.mark.parametrize(
        "kind, delta, eps", [("quadratic", 1e-160, 1e-10), ("double-well", 1e-160, 1e-10)]
    )
    def test_slope_underflowing_on_the_bracket_raises_a_typed_error(self, kind, delta, eps):
        """Three atoms at (1, 1), where both fields are (1, 1): m2 = 2 and
        psi*' = delta^2 / 2 = 5e-321 is subnormal, so the bracket's right
        end, stepped past lam_hat = sqrt(2) / delta by eps / 8 over 4 lam
        psi*', is inf.  The search raises RadiusOutOfRange with delta and
        lam_hat before it sizes its bisection, not a raw ValueError from
        ceil(nan)."""
        mu = ParticleCloud([[1.0, 1.0]] * 3)
        f = quadratic() if kind == "quadratic" else make_objective("double-well")
        with pytest.raises(RadiusOutOfRange) as info:
            trust_region_step(f, mu, delta, eps)
        assert info.value.delta == delta
        assert info.value.lam_hat == math.sqrt(2.0) / delta

    def test_diverging_prox_raises_a_typed_error(self):
        """A double-well cloud at scale 3, outside the region its smoothness
        bound covers, at the admissible radius sqrt(m2) / (2 L): the first
        pass, at lam_hat = 2 L = 22 stepped past the root by 4.4e-4,
        diverges, and the step raises
        NonFiniteIterate with its context, not a numpy overflow warning (an
        error under this suite)."""
        rng = np.random.default_rng(2)
        n = int(rng.integers(2, 9))
        rng.uniform(0.2, 0.5)  # keeps the draw of the atoms below
        assert n == 7
        mu = ParticleCloud(3.0 * rng.standard_normal((n, 2)))
        f = make_objective("double-well")
        m2 = float(np.mean(np.sum(f.grad_many(mu.points) ** 2, axis=1)))
        with pytest.raises(NonFiniteIterate) as info:
            trust_region_step(f, mu, math.sqrt(m2) / 22.0, 0.5)
        assert info.value.lam == pytest.approx(22.000443, rel=1e-6)
        assert info.value.step >= 1
        assert 1 <= info.value.active <= n


class TestPrimalDualGap:
    """The Fenchel-Young gap of one prox pass at a given lam."""

    def test_nonnegative_on_grid(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(8, 2)) * 3.0
        mu = ParticleCloud(pts)
        pen = PowerPenalty(1.0)
        for lam in (1.2, 2.0, 4.0):
            rep = dual_solvers._prox_pass(quadratic(), mu, pen, lam, 1e-10, 1)
            assert rep.gap >= 0.0

    def test_nonnegative_at_the_linear_closed_form(self):
        """At lam* = |a| / delta of gate 4's linear instances the cost lands on
        delta^2/2 up to roundoff, on either side.  psi and psi* are an exact
        conjugate pair, so each instance's gap is either finite and >= 0 or,
        with its cost outside the ball, inf; none may read below zero."""
        outcomes = {"gap": 0, "infeasible": 0}
        for inst in range(50):
            rng = np.random.default_rng(inst)
            n, d = int(rng.integers(5, 21)), int(rng.integers(1, 4))
            mu = ParticleCloud(rng.normal(size=(n, d)))
            a = rng.normal(size=d)
            a *= (0.8 + 1.2 * float(rng.uniform())) / float(np.linalg.norm(a))
            na = float(np.linalg.norm(a))
            pen = TrustRegionIndicator((0.1 + 0.4 * float(rng.uniform())) * na)
            rep = dual_solvers._prox_pass(linear(a), mu, pen, na / pen.delta, 1e-3, 1)
            if rep.gap == math.inf:
                assert rep.cost > pen.cost_bound
                outcomes["infeasible"] += 1
            else:
                assert rep.gap >= 0.0, inst
                outcomes["gap"] += 1
        # not vacuous: 30 gaps and 20 infeasible on x86-64 with numpy 2.4
        assert min(outcomes.values()) >= 10

    def test_rejects_lambda_below_semiconvexity(self):
        mu = ParticleCloud(np.ones((3, 2)))
        f = make_objective("double-well")
        with pytest.raises(LambdaTooSmall):
            dual_solvers._prox_pass(f, mu, PowerPenalty(1.0), 0.5, 1e-8, 1)
