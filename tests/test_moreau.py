"""Proximal solver, sample-count, and envelope-derivative tests."""

import math

import numpy as np
import pytest

from wfw.cloud import ParticleCloud
from wfw.errors import KCapExceeded, LambdaTooSmall, NonFiniteIterate
from wfw.frank_wolfe import counted_model
from wfw.functionals import EntropicDeconv, MMDSquared, RandomFeatureKernel
from wfw.moreau import (
    SmoothObjective,
    agd_prox_batch,
    g_value_and_grad_fullbatch,
    gradient_fourth_moment,
    hp_sample_count,
    supergradient_hp,
)
from wfw.registry import double_well, linear, quadratic


def _prox_row(f, x, lam, eps):
    """`agd_prox_batch` on the one row x: (y, theta, iters, grad_evals)."""
    y, theta, iters, gevals = agd_prox_batch(f, np.asarray(x, float)[None, :], lam, eps)
    return y[0], theta[0], iters[0], gevals[0]


def _iteration_ceiling(f, x, lam, eps):
    """Worst-case budget the solver must respect."""
    kappa = math.sqrt((lam + f.smoothness) / (lam - f.semiconvexity))
    gnorm = float(np.linalg.norm(f.grad(np.asarray(x, dtype=float))))
    if gnorm == 0.0:
        return 0
    return max(math.ceil(4.0 * kappa * math.log(12.0 * kappa * gnorm / eps)), 0)


def _masked_prox_batch(f, x, lam, eps):
    """Reference: the prox loop over the full batch with an active mask.

    Every step re-gathers the active rows by index and scatters them back.
    `agd_prox_batch` keeps a compacted working set instead and must match
    this bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    mu_sc = lam - f.semiconvexity
    l_smooth = lam + f.smoothness
    kappa = math.sqrt(l_smooth / mu_sc)
    step = 1.0 / l_smooth
    momentum = (kappa - 1.0) / (kappa + 1.0)
    g0 = f.grad_many(x)
    gnorm0 = np.sqrt(np.sum(g0**2, axis=1))
    budget = np.zeros(n, dtype=np.int64)
    pos = gnorm0 > 0
    if np.any(pos):
        raw = 4.0 * kappa * np.log(12.0 * kappa * gnorm0[pos] / eps)
        budget[pos] = np.maximum(np.ceil(raw), 0.0).astype(np.int64)
    y = x.copy()
    z = x.copy()
    iters = np.zeros(n, dtype=np.int64)
    active = budget > 0
    d_tol = 0.5 * math.sqrt(eps)
    while np.any(active):
        idx = np.nonzero(active)[0]
        gy = f.grad_many(y[idx]) if iters[idx[0]] else g0[idx]
        z_new = y[idx] - step * (gy + lam * (y[idx] - x[idx]))
        assert np.all(np.isfinite(z_new))
        iters[idx] += 1
        gz = f.grad_many(z_new)
        resid = gz + lam * (z_new - x[idx])
        d = np.sqrt(np.sum(resid**2, axis=1)) / mu_sc
        dist = np.sqrt(np.sum((z_new - x[idx]) ** 2, axis=1))
        certified = (d * (dist + 0.5 * d) <= 0.5 * eps) & (d <= d_tol)
        y[idx] = z_new + momentum * (z_new - z[idx])
        z[idx] = z_new
        done = certified | (iters[idx] >= budget[idx])
        active[idx[done]] = False
    theta = 0.5 * np.sum((z - x) ** 2, axis=1)
    return z, theta, iters, np.maximum(2 * iters, 1)


def _recorded(f, calls):
    """f, with the bytes, shape and order of every gradient query appended to calls."""

    def grad_many(z):
        calls.append((z.shape, z.tobytes()))
        return f.grad_many(z)

    return SmoothObjective(
        eval_many=f.eval_many,
        grad_many=grad_many,
        smoothness=f.smoothness,
        semiconvexity=f.semiconvexity,
    )


def _witness(kind, rng):
    """(witness, centers, lam): centers at mixed distances, so budgets and
    certification steps differ from row to row.  The quadratic's gradient
    is its argument, so it also checks that no queried array is written to."""
    x = rng.normal(size=(9, 2)) * rng.uniform(0.05, 1.5, size=(9, 1))
    if kind == "quadratic":
        x[[1, 6]] = 0.0  # zero gradient: budget 0
        return quadratic(), x, 0.7
    if kind == "double-well":
        x[2] = 0.0
        x[5] = [1.0, 0.0]  # both stationary: budget 0
        return double_well(), x, 3.5
    if kind == "linear":
        return linear([0.3, -1.2]), x, 2.0
    if kind == "deconv":
        data = ParticleCloud(rng.normal(size=(11, 2)))
        J = EntropicDeconv(0.25, data)
        f = J.derivative_oracle(ParticleCloud(rng.normal(size=(7, 2))), 1e-9)
        return f, x, f.semiconvexity + 1.5
    kernel = RandomFeatureKernel(0.8 * rng.standard_normal((64, 2)))
    J = MMDSquared(kernel, ParticleCloud(rng.normal(size=(10, 2))))
    f = J.derivative_oracle(ParticleCloud(rng.normal(size=(10, 2)) + 1.0), 1e-9)
    return f, x, f.semiconvexity + 0.5


class TestCompactedLoop:
    """`agd_prox_batch` against the masked reference loop, byte for byte."""

    @pytest.mark.parametrize(
        "kind", ["quadratic", "double-well", "linear", "deconv", "mmd-features"]
    )
    @pytest.mark.parametrize("eps", [1e-3, 1e-10])
    def test_bit_identical_to_the_masked_loop(self, kind, eps):
        f, x, lam = _witness(kind, np.random.default_rng(len(kind)))
        got_calls, want_calls = [], []
        got = agd_prox_batch(_recorded(f, got_calls), x, lam, eps)
        want = _masked_prox_batch(_recorded(f, want_calls), x, lam, eps)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        # Every gradient query sees the same rows, in the same order and shape.
        assert got_calls == want_calls
        if kind in ("quadratic", "double-well"):
            assert np.count_nonzero(got[2] == 0) == 2
        if kind not in ("quadratic", "linear"):  # those two certify in one step
            assert len(set(got[2].tolist())) > 2

    def test_diverging_rows_raise_with_context(self):
        """Centers outside the double-well's smoothness region blow up; the
        loop raises its own typed error, with no numpy warning first."""
        x = np.array([[0.1, 0.2], [40.0, -30.0], [0.5, 0.0]])
        with pytest.raises(NonFiniteIterate) as info:
            agd_prox_batch(double_well(), x, 2.0, 1e-6)
        err = info.value
        assert err.lam == 2.0
        assert err.step >= 1
        assert 1 <= err.active <= 3


    @pytest.mark.parametrize(
        "kind, scale", [("double-well", 1e103), ("double-well", 1e160), ("deconv", 1e160)]
    )
    def test_overflowing_gradient_at_a_center_raises_at_step_zero(self, kind, scale):
        """At 1e103 the double-well's gradient overflows, at 1e160 its squared
        norm does, as does the deconvolution witness's gradient norm: a typed
        error before the first step, with no numpy warning first."""
        f, _, lam = _witness(kind, np.random.default_rng(0))
        x = np.array([[0.5, 0.0], [scale, 0.0]])
        with pytest.raises(NonFiniteIterate) as info:
            agd_prox_batch(f, x, lam, 1e-6)
        err = info.value
        assert (err.lam, err.step, err.active) == (lam, 0, 2)


class TestProxClosedForms:
    def test_quadratic(self):
        """argmin 0.5|y|^2 + lam/2 |y-x|^2 = lam x / (1 + lam)."""
        f = quadratic()
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = rng.normal(size=3)
            lam = float(rng.uniform(0.2, 8.0))
            y, theta, iters, _ = _prox_row(f, x, lam, 1e-12)
            np.testing.assert_allclose(y, lam * x / (1 + lam), atol=1e-6)
            assert theta == pytest.approx(0.5 * float(np.sum((y - x) ** 2)), abs=1e-12)
            assert iters <= _iteration_ceiling(f, x, lam, 1e-12)

    def test_linear(self):
        """argmin a.y + lam/2 |y-x|^2 = x - a/lam, found in one step."""
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = rng.normal(size=2)
            f = linear(a)
            x = rng.normal(size=2)
            lam = float(rng.uniform(0.3, 5.0))
            y, _, iters, _ = _prox_row(f, x, lam, 1e-12)
            np.testing.assert_allclose(y, x - a / lam, atol=1e-9)
            assert iters == 1

    def test_zero_gradient_start_returns_immediately(self):
        f = quadratic()
        y, _, iters, _ = _prox_row(f, np.zeros(2), 2.0, 1e-10)
        np.testing.assert_allclose(y, np.zeros(2))
        assert iters == 0

    def test_lambda_at_or_below_semiconvexity_rejected(self):
        f = double_well()
        with pytest.raises(LambdaTooSmall):
            _prox_row(f, np.ones(2), f.semiconvexity, 1e-6)

    def test_grad_eval_accounting(self):
        """Two gradients per iteration: the setup gradient serves the first."""
        f = quadratic()
        _, _, iters, grad_evals = _prox_row(f, np.array([1.0, 2.0]), 3.0, 1e-12)
        assert grad_evals == 2 * iters

    def test_batch_matches_row_loop(self):
        f = double_well()
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 2)) * 0.8
        lam = f.semiconvexity + 2.0
        y, theta, iters, _ = agd_prox_batch(f, X, lam, 1e-10)
        for i in range(6):
            y_i, theta_i, iters_i, _ = _prox_row(f, X[i], lam, 1e-10)
            np.testing.assert_array_equal(y[i], y_i)
            assert theta[i] == theta_i
            assert iters[i] == iters_i

    def test_double_well_stationarity(self):
        """Returned point satisfies the prox first-order condition."""
        f = double_well()
        x = np.array([1.4, -0.3])
        lam = 6.0
        y, _, _, _ = _prox_row(f, x, lam, 1e-12)
        resid = f.grad(y) + lam * (y - x)
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
