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
    LambdaTooSmall,
    RegularizationTooWeak,
    WeakDualityViolated,
    WfwError,
)
from wfw.frank_wolfe import counted_model
from wfw.moreau import SmoothObjective
from wfw.registry import double_well, linear, quadratic, zero


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
        # setup call + one per bisection step, n atoms sampled per call,
        # plus the final report pass
        assert rep.samples_drawn == rep.oracle_calls * mu.n + mu.n

    def test_full_batch_oracle_is_looked_up_on_the_module(self, monkeypatch):
        """Every full-batch slope goes through the module global
        `dual_solvers.g_value_and_grad_fullbatch`, which the benchmark
        tracer wraps."""
        calls = []
        fullbatch = dual_solvers.g_value_and_grad_fullbatch

        def spy(*args):
            calls.append(args[2])
            return fullbatch(*args)

        monkeypatch.setattr(dual_solvers, "g_value_and_grad_fullbatch", spy)
        mu = ParticleCloud(np.random.default_rng(1).normal(size=(6, 2)) * 3.5)
        m2 = float(np.mean(np.sum(mu.points**2, axis=1)))
        pen = TrustRegionIndicator(0.3 * math.sqrt(m2) / 2.0)
        rep = primal_dual_bisection(quadratic(), mu, pen, 1e-3, 0.05, None)
        assert len(calls) == rep.oracle_calls
        calls.clear()
        mirror_ascent(quadratic(), mu, pen, rep.interval, 7, None)
        assert len(calls) == 7

    def test_stochastic_variant_stays_in_interval(self):
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
        # one 12-row moment pass, then per step one prox over the 12 atoms
        # hit: its first gradient and one certified iteration (two more)
        assert counter["rows"] == 12 + 20 * 3 * 12


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
        """A step without nudges evaluates exactly the gradient rows of its
        own bisection, whose interval check also admits the radius."""
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
        assert rep.lambda_star == lam  # no nudge
        assert counter["rows"] == rows == 3850

    def test_step_computes_the_gradient_norm_once(self, monkeypatch):
        """The radius check, the dual interval, its penalty-matched width and
        the bisection's bound all share one pass over the atoms."""
        calls = []
        mean_sq_grad = dual_solvers._mean_sq_grad

        def spy(f, mu):
            calls.append(mu.n)
            return mean_sq_grad(f, mu)

        monkeypatch.setattr(dual_solvers, "_mean_sq_grad", spy)
        counter = {"rows": 0}
        f = counted_model(double_well(), counter)
        mu = ParticleCloud(np.random.default_rng(15).normal(size=(12, 2)))
        trust_region_step(f, mu, 0.1, 1e-3, 0.1, np.random.default_rng(0))
        assert calls == [12]


class TestPrimalDualGap:
    def test_nonnegative_on_grid(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(8, 2)) * 3.0
        mu = ParticleCloud(pts)
        pen = PowerPenalty(1.0)
        for lam in (1.2, 2.0, 4.0):
            gap = primal_dual_gap(quadratic(), mu, pen, lam, 1e-10)
            assert gap >= 0.0

    def test_rejects_lambda_below_semiconvexity(self):
        mu = ParticleCloud(np.ones((3, 2)))
        with pytest.raises(LambdaTooSmall):
            primal_dual_gap(double_well(), mu, PowerPenalty(1.0), 0.5, 1e-8)
