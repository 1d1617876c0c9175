"""Proximal solver, sample-count, and envelope-derivative tests."""

import math

import numpy as np
import pytest

from wfw.cloud import ParticleCloud
from wfw.errors import KCapExceeded, LambdaTooSmall
from wfw.frank_wolfe import counted_model
from wfw.moreau import (
    SmoothObjective,
    agd_prox,
    agd_prox_batch,
    g_value_and_grad_fullbatch,
    gradient_fourth_moment,
    hp_sample_count,
    supergradient_hp,
)
from wfw.registry import double_well, linear, quadratic


def _iteration_ceiling(f, x, lam, eps):
    """Worst-case budget the solver must respect."""
    kappa = math.sqrt((lam + f.smoothness) / (lam - f.semiconvexity))
    gnorm = float(np.linalg.norm(f.grad(np.asarray(x, dtype=float))))
    if gnorm == 0.0:
        return 0
    return max(math.ceil(4.0 * kappa * math.log(12.0 * kappa * gnorm / eps)), 0)


class TestProxClosedForms:
    def test_quadratic(self):
        """argmin 0.5|y|^2 + lam/2 |y-x|^2 = lam x / (1 + lam)."""
        f = quadratic()
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = rng.normal(size=3)
            lam = float(rng.uniform(0.2, 8.0))
            res = agd_prox(f, x, lam, 1e-12)
            np.testing.assert_allclose(res.y, lam * x / (1 + lam), atol=1e-6)
            theta = 0.5 * float(np.sum((res.y - x) ** 2))
            assert res.theta == pytest.approx(theta, abs=1e-12)
            assert res.iters <= _iteration_ceiling(f, x, lam, 1e-12)

    def test_linear(self):
        """argmin a.y + lam/2 |y-x|^2 = x - a/lam, found in one step."""
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = rng.normal(size=2)
            f = linear(a)
            x = rng.normal(size=2)
            lam = float(rng.uniform(0.3, 5.0))
            res = agd_prox(f, x, lam, 1e-12)
            np.testing.assert_allclose(res.y, x - a / lam, atol=1e-9)
            assert res.iters == 1

    def test_zero_gradient_start_returns_immediately(self):
        f = quadratic()
        res = agd_prox(f, np.zeros(2), 2.0, 1e-10)
        np.testing.assert_allclose(res.y, np.zeros(2))
        assert res.iters == 0

    def test_lambda_at_or_below_semiconvexity_rejected(self):
        f = double_well()
        with pytest.raises(LambdaTooSmall):
            agd_prox(f, np.ones(2), f.semiconvexity, 1e-6)

    def test_grad_eval_accounting(self):
        """Two gradients per iteration: the setup gradient serves the first."""
        f = quadratic()
        res = agd_prox(f, np.array([1.0, 2.0]), 3.0, 1e-12)
        assert res.grad_evals == 2 * res.iters

    def test_batch_matches_row_loop(self):
        f = double_well()
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 2)) * 0.8
        lam = f.semiconvexity + 2.0
        y, theta, iters, _ = agd_prox_batch(f, X, lam, 1e-10)
        for i in range(6):
            single = agd_prox(f, X[i], lam, 1e-10)
            np.testing.assert_allclose(y[i], single.y, atol=1e-12)
            assert theta[i] == pytest.approx(single.theta, abs=1e-12)

    def test_double_well_stationarity(self):
        """Returned point satisfies the prox first-order condition."""
        f = double_well()
        x = np.array([1.4, -0.3])
        lam = 6.0
        res = agd_prox(f, x, lam, 1e-12)
        resid = f.grad(res.y) + lam * (res.y - x)
        assert np.linalg.norm(resid) < 1e-5


class TestEnvelopeDerivative:
    def test_quadratic_closed_forms(self):
        """g(lam) = lam/(1+lam) * m2/2 and g'(lam) = m2 / (2 (1+lam)^2)."""
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(11, 3))
        mu = ParticleCloud(pts)
        m2 = float(np.mean(np.sum(pts**2, axis=1)))
        f = quadratic()
        for lam in (0.5, 1.0, 2.5, 10.0):
            g, gp = g_value_and_grad_fullbatch(f, mu, lam, 1e-12)
            assert g == pytest.approx(lam / (1 + lam) * m2 / 2, rel=1e-9)
            assert gp == pytest.approx(m2 / (2 * (1 + lam) ** 2), rel=1e-8)

    def test_linear_closed_forms(self):
        """g(lam) = E[a.x] - |a|^2/(2 lam), g'(lam) = |a|^2/(2 lam^2)."""
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(7, 2))
        mu = ParticleCloud(pts)
        a = np.array([0.8, -0.6])
        f = linear(a)
        for lam in (0.7, 2.0, 5.0):
            g, gp = g_value_and_grad_fullbatch(f, mu, lam, 1e-12)
            assert g == pytest.approx(float(np.mean(pts @ a)) - 1.0 / (2 * lam), rel=1e-9)
            assert gp == pytest.approx(1.0 / (2 * lam**2), rel=1e-9)

    def test_concave_and_nondecreasing_in_lambda(self):
        rng = np.random.default_rng(5)
        mu = ParticleCloud(rng.normal(size=(9, 2)))
        f = quadratic()
        lams = np.linspace(0.4, 6.0, 25)
        gs = np.array([g_value_and_grad_fullbatch(f, mu, l, 1e-12)[0] for l in lams])
        diffs = np.diff(gs)
        assert np.all(diffs >= -1e-10)
        assert np.all(np.diff(diffs) <= 1e-8)

    def test_derivative_umin_bound(self):
        """theta = |y*-x|^2/2 is at most 2 |grad f(x)|^2 / (lam - rho)^2."""
        f = double_well()
        rng = np.random.default_rng(6)
        mu = ParticleCloud(rng.normal(size=(8, 2)))
        for lam in (f.semiconvexity + 1.0, f.semiconvexity + 4.0):
            _, gp = g_value_and_grad_fullbatch(f, mu, lam, 1e-10)
            bound = 2.0 * max(
                float(np.sum(f.grad(x) ** 2)) for x in mu.points
            ) / (lam - f.semiconvexity) ** 2
            assert gp <= bound + 1e-8


class TestSupergradientSampling:
    def test_sample_count_formula(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(10, 2)) * 0.6
        mu = ParticleCloud(pts)
        f = quadratic()
        m4 = float(np.mean(np.sum(pts**2, axis=1) ** 2))
        lam, eps, delta = 2.0, 0.05, 0.1
        gap = lam - f.semiconvexity
        expected = math.ceil(
            64.0 * m4 / (gap**2 * min(gap**2, 1.0) * delta * eps**2)
        )
        assert hp_sample_count(f, mu, lam, eps, delta) == expected

    def test_estimator_unbiased_against_fullbatch(self):
        """Mean of many hp estimates approaches the full-batch derivative."""
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(10, 2)) * 0.5
        mu = ParticleCloud(pts)
        f = quadratic()
        lam = 2.0
        _, gp = g_value_and_grad_fullbatch(f, mu, lam, 1e-12)
        ests = [
            supergradient_hp(f, mu, lam, 0.1, 0.2, np.random.default_rng(50 + t))
            for t in range(40)
        ]
        assert abs(float(np.mean(ests)) - gp) < 0.01

    def test_deviation_band(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(12, 2)) * 0.55
        mu = ParticleCloud(pts)
        f = quadratic()
        lam, eps, delta = 2.0, 0.05, 0.1
        _, gp = g_value_and_grad_fullbatch(f, mu, lam, 1e-12)
        band = eps / max(lam - f.semiconvexity, 1.0)
        viol = sum(
            abs(supergradient_hp(f, mu, lam, eps, delta, np.random.default_rng(t)) - gp)
            > band
            for t in range(50)
        )
        assert viol / 50 <= delta + 3 * math.sqrt(delta / 50)

    def test_k_cap(self):
        rng = np.random.default_rng(10)
        mu = ParticleCloud(rng.normal(size=(6, 2)) * 5.0)
        f = quadratic()
        with pytest.raises(KCapExceeded) as exc:
            supergradient_hp(f, mu, 1.0, 1e-4, 0.01, rng)
        assert exc.value.required > exc.value.cap

    def test_lambda_too_small(self):
        mu = ParticleCloud(np.ones((3, 1)))
        with pytest.raises(LambdaTooSmall):
            supergradient_hp(double_well(), mu, 0.5, 0.1, 0.1, np.random.default_rng(0))

    def test_given_fourth_moment_skips_the_gradient_pass(self):
        mu = ParticleCloud(np.random.default_rng(12).normal(size=(8, 2)) * 0.5)
        f = quadratic()
        m4 = gradient_fourth_moment(f, mu)
        assert m4 == float(np.mean(np.sum(mu.points**2, axis=1) ** 2))
        assert hp_sample_count(f, mu, 2.0, 0.1, 0.2, m4=m4) == hp_sample_count(
            f, mu, 2.0, 0.1, 0.2
        )
        given, fresh = {"rows": 0}, {"rows": 0}
        est = supergradient_hp(
            counted_model(f, given), mu, 2.0, 0.1, 0.2, np.random.default_rng(5), m4=m4
        )
        assert est == supergradient_hp(
            counted_model(f, fresh), mu, 2.0, 0.1, 0.2, np.random.default_rng(5)
        )
        assert fresh["rows"] - given["rows"] == mu.n

    def test_same_seed_same_estimate(self):
        mu = ParticleCloud(np.random.default_rng(11).normal(size=(8, 2)) * 0.5)
        f = quadratic()
        e1 = supergradient_hp(f, mu, 2.0, 0.1, 0.2, np.random.default_rng(99))
        e2 = supergradient_hp(f, mu, 2.0, 0.1, 0.2, np.random.default_rng(99))
        assert e1 == e2


class TestSmoothObjective:
    def test_validates_constants(self):
        with pytest.raises(ValueError):
            SmoothObjective(
                eval_many=lambda y: np.zeros(y.shape[0]),
                grad_many=np.zeros_like,
                smoothness=0.5,
                semiconvexity=1.0,
            )
