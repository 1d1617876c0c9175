"""Proximal solver, sample-count, and envelope-derivative tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfw.cloud import ParticleCloud, row_sqnorm
from wfw.errors import (
    KCapExceeded,
    LambdaTooSmall,
    NonFiniteIterate,
    ProxNotCertified,
    WfwError,
)
from wfw.frank_wolfe import counted_model
from wfw.functionals import EntropicDeconv, MMDSquared, RandomFeatureKernel
from wfw.moreau import (
    BUDGET_CAP,
    SmoothObjective,
    agd_prox_batch,
    g_value_and_grad_fullbatch,
    gradient_fourth_moment,
    hp_sample_count,
    supergradient_hp,
)
from wfw.registry import linear, make_objective, quadratic


def _prox_row(f, x, lam, eps):
    """`agd_prox_batch` on the one row x: (y, theta, iters, grad_evals)."""
    y, theta, iters, gevals = agd_prox_batch(f, np.asarray(x, float)[None, :], lam, eps)
    return y[0], theta[0], iters[0], gevals[0]


def _iteration_ceiling(f, x, lam, eps):
    """Worst-case budget the solver must respect."""
    kappa = math.sqrt((lam + f.semiconcavity) / (lam - f.semiconvexity))
    gnorm = float(np.linalg.norm(f.grad(np.asarray(x, dtype=float))))
    if gnorm == 0.0:
        return 0
    return max(math.ceil(4.0 * kappa * math.log(12.0 * kappa * gnorm / eps)), 0)


def _masked_prox_batch(f, x, lam, eps):
    """Reference: the prox loop over the full batch with an active mask.

    Every step re-gathers the active rows by index and scatters them back.
    `agd_prox_batch` keeps a compacted working set instead and must match
    this bit for bit.  Step 1 is the gradient step from the center; each
    later step certifies its momentum point or steps from it, restarting
    the momentum where the gradient points along the step.  The prox
    objective's curvature lies in [lam - rho, lam + c].
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    mu_sc = lam - f.semiconvexity
    l_smooth = lam + f.semiconcavity
    kappa = math.sqrt(l_smooth / mu_sc)
    step = 1.0 / l_smooth
    momentum = (kappa - 1.0) / (kappa + 1.0)
    g0 = f.grad_many(x)
    gnorm0 = np.sqrt(np.sum(g0**2, axis=1))
    budget = np.zeros(n, dtype=np.int64)
    pos = gnorm0 > 0
    if np.any(pos):
        raw = 4.0 * kappa * np.log(12.0 * kappa * gnorm0[pos] / (min(mu_sc, 1.0) * eps))
        budget[pos] = np.maximum(np.ceil(raw), 0.0).astype(np.int64)
    assert np.all(gnorm0[budget == 0] / mu_sc <= 0.5 * math.sqrt(eps))
    y = x - step * g0
    z = y.copy()
    out = x.copy()
    iters = np.zeros(n, dtype=np.int64)
    active = budget > 0
    d_tol = 0.5 * math.sqrt(eps)
    k = 0
    while np.any(active):
        idx = np.nonzero(active)[0]
        k += 1
        resid = f.grad_many(y[idx]) + lam * (y[idx] - x[idx])
        assert np.all(np.isfinite(resid))
        d = np.sqrt(np.sum(resid**2, axis=1)) / mu_sc
        dist = np.sqrt(np.sum((y[idx] - x[idx]) ** 2, axis=1))
        certified = (d * (dist + 0.5 * d) <= 0.5 * eps) & (d <= d_tol)
        out[idx[certified]] = y[idx[certified]]
        iters[idx[certified]] = k
        active[idx[certified]] = False
        assert np.all(budget[active] > k)
        go = ~certified
        idx, resid = idx[go], resid[go]
        z_new = y[idx] - step * resid
        restart = np.sum(resid * (z_new - z[idx]), axis=1) > 0
        y[idx] = z_new + np.where(restart, 0.0, momentum)[:, None] * (z_new - z[idx])
        z[idx] = z_new
    theta = 0.5 * np.sum((out - x) ** 2, axis=1)
    return out, theta, iters, iters + 1


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
        semiconcavity=f.semiconcavity,
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
        return make_objective("double-well"), x, 3.5
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


_WITNESS_KINDS = ["quadratic", "double-well", "linear", "deconv", "mmd-features"]

# (kind, seed, log10 scale of the centers, log10 (lam - rho), log10 eps)
_PASS_DRAWS = (
    st.sampled_from(_WITNESS_KINDS),
    st.integers(0, 2**32 - 1),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.5),
    st.floats(-12.0, -1.0),
)


class TestCompactedLoop:
    """`agd_prox_batch` against the masked reference loop, byte for byte."""

    @pytest.mark.parametrize("kind", _WITNESS_KINDS)
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
        if kind == "deconv":  # steps sized by c = 1, not by L = rho
            assert f.semiconcavity == 1.0 < f.smoothness

    @pytest.mark.parametrize("eps", [1e-3, 1e-10])
    def test_deconv_images_lie_within_the_certified_distance(self, eps):
        """The deconvolution witness's prox, stepped by its upward curvature
        c = 1 < L, lands within sqrt(eps)/2 of a reference prox: plain
        gradient steps of 1/(lam + L), the two-sided bound, run until the
        strong-convexity distance bound is below sqrt(1e-14)/2."""
        f, x, lam = _witness("deconv", np.random.default_rng(6))
        assert f.semiconcavity < f.smoothness
        y, _, _, _ = agd_prox_batch(f, x, lam, eps)
        ref, mu_sc = x.copy(), lam - f.semiconvexity
        for _ in range(100_000):
            resid = f.grad_many(ref) + lam * (ref - x)
            if np.sqrt(row_sqnorm(resid)).max() / mu_sc <= 0.5e-7:
                break
            ref -= resid / (lam + f.smoothness)
        else:
            pytest.fail("the reference prox did not converge")
        assert np.sqrt(row_sqnorm(y - ref)).max() <= 0.5 * math.sqrt(eps)

    @settings(max_examples=60, deadline=None)
    @given(*_PASS_DRAWS)
    def test_drawn_batches_match_the_masked_loop(self, kind, seed, log_scale, log_gap, log_eps):
        """The check above on the batches, scales, weights and tolerances
        `TestCertificate` draws: wherever the pass returns, its arrays and
        its gradient queries match the masked loop's byte for byte (a draw
        where it raises a typed error is skipped)."""
        f, x, _ = _witness(kind, np.random.default_rng(seed))
        x = x * 10**log_scale
        lam, eps = f.semiconvexity + 10**log_gap, 10**log_eps
        got_calls, want_calls = [], []
        try:
            got = agd_prox_batch(_recorded(f, got_calls), x, lam, eps)
        except WfwError:
            return
        want = _masked_prox_batch(_recorded(f, want_calls), x, lam, eps)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert got_calls == want_calls

    def test_rows_outlast_the_budget_of_a_row_that_left(self):
        """A double-well center 2e-8 off the unit circle gets an 8-step
        budget and certifies at step 1; the two far rows then step past 8.
        The least budget of the rows still active is taken again when a row
        leaves, so the pass returns them, as the masked loop does."""
        f, lam, eps = make_objective("double-well"), 2.0, 1e-6
        x = np.array([[1.0 + 2e-8, 0.0], [1.4, -0.3], [0.3, 0.5]])
        kappa = math.sqrt((lam + f.semiconcavity) / (lam - f.semiconvexity))
        assert math.ceil(4.0 * kappa * math.log(12.0 * kappa * 4e-8 / eps)) == 8
        got = agd_prox_batch(f, x, lam, eps)
        assert got[2][0] == 1 and got[2][1:].min() > 8
        for a, b in zip(got, _masked_prox_batch(f, x, lam, eps)):
            assert a.tobytes() == b.tobytes()

    def test_empty_batch_returns_empty_arrays(self):
        """No rows: one gradient query on the empty batch, and four empty
        arrays of the usual dtypes and trailing shapes."""
        calls = []
        y, theta, iters, grad_evals = agd_prox_batch(
            _recorded(quadratic(), calls), np.zeros((0, 2)), 1.0, 1e-3
        )
        assert (y.shape, theta.shape, iters.shape, grad_evals.shape) == ((0, 2), (0,), (0,), (0,))
        assert (y.dtype, theta.dtype, iters.dtype, grad_evals.dtype) == (
            np.float64, np.float64, np.int64, np.int64
        )
        assert [shape for shape, _ in calls] == [(0, 2)]

    def test_diverging_rows_raise_with_context(self):
        """Centers outside the double-well's smoothness region blow up; the
        loop raises its own typed error, with no numpy warning first."""
        x = np.array([[0.1, 0.2], [40.0, -30.0], [0.5, 0.0]])
        with pytest.raises(NonFiniteIterate) as info:
            agd_prox_batch(make_objective("double-well"), x, 2.0, 1e-6)
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


class TestCertificate:
    """Every row `agd_prox_batch` returns certifies; otherwise it raises."""

    @settings(max_examples=60, deadline=None)
    @given(*_PASS_DRAWS)
    def test_every_returned_row_certifies(self, kind, seed, log_scale, log_gap, log_eps):
        """Recomputed from the returned rows alone: the strong-convexity
        bound d = ||grad a(y)||/(lam - rho) gives d (dist + d/2) <= eps/2
        and d <= sqrt(eps)/2, unless the pass raises a typed error."""
        f, x, _ = _witness(kind, np.random.default_rng(seed))
        x = x * 10**log_scale
        lam, eps = f.semiconvexity + 10**log_gap, 10**log_eps
        try:
            y, theta, iters, grad_evals = agd_prox_batch(f, x, lam, eps)
        except WfwError:
            return
        resid = f.grad_many(y) + lam * (y - x)
        d = np.sqrt(np.sum(resid**2, axis=1)) / (lam - f.semiconvexity)
        dist = np.sqrt(np.sum((y - x) ** 2, axis=1))
        assert np.all(d * (dist + 0.5 * d) <= 0.5 * eps)
        assert np.all(d <= 0.5 * math.sqrt(eps))
        np.testing.assert_array_equal(theta, 0.5 * np.sum((y - x) ** 2, axis=1))
        np.testing.assert_array_equal(grad_evals, iters + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["quadratic", "double-well", "linear"]),
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 12),
        st.floats(-1.0, 1.5),
        st.floats(-12.0, -1.0),
    )
    def test_theta_is_half_the_squared_displacement_bit_for_bit(
        self, kind, seed, n, d, log_gap, log_eps
    ):
        """theta, taken from each row's certificate as it leaves, is
        0.5 * row_sqnorm(y - x) over the returned batch, bit for bit: on a
        cloud's read-only atoms through a counted model (whose squared
        gradient norms come from the shared memo) and on a writeable copy."""
        rng = np.random.default_rng(seed)
        mu = ParticleCloud(rng.normal(size=(n, d)) * rng.uniform(0.05, 1.5, size=(n, 1)))
        if kind == "linear":
            f = linear(rng.normal(size=d))
        else:
            f = quadratic() if kind == "quadratic" else make_objective("double-well")
        lam, eps = f.semiconvexity + 10**log_gap, 10**log_eps
        for model, x in ((counted_model(f, {"rows": 0}), mu.points), (f, mu.points.copy())):
            try:
                y, theta, _, _ = agd_prox_batch(model, x, lam, eps)
            except WfwError:
                return
            assert theta.tobytes() == (0.5 * row_sqnorm(y - x)).tobytes()

    def test_row_outside_the_smoothness_region_raises(self):
        """A double-well center at (-1.10, 5.43), far outside the ball
        ||x|| <= 2 that L = 11 covers, neither diverges nor certifies under
        restart: after its 105-step budget it raises with its context."""
        f = make_objective("double-well")
        with pytest.raises(ProxNotCertified) as info:
            agd_prox_batch(f, np.array([[-1.10, 5.43]]), 8.879, 2.16e-4)
        err = info.value
        assert (err.lam, err.step, err.active) == (8.879, 105, 1)

    def test_rounding_bound_row_raises(self):
        """At lam = 1.2207e56 the prox of a 1e20 coordinate moves it by less
        than its rounding unit, so no iterate certifies: ProxNotCertified,
        not a silently returned row."""
        with pytest.raises(ProxNotCertified) as info:
            agd_prox_batch(make_objective("double-well"), np.array([[1e20, 0.0]]), 1.2207e56, 0.5)
        err = info.value
        assert err.lam == 1.2207e56
        assert err.step >= 1
        assert err.active == 1

    def test_budget_past_the_float_range_stays_finite(self):
        """At eps = 1e-300 the budget's ratio 12 kappa ||grad f(x)|| /
        (min(lam - rho, 1) eps) is 1.2e361, past the float range (kappa is 1
        in floating point at lam = 1.2207e56, ||grad f(x)|| is 1e60).  Its
        log, taken as a sum of logs, is 831.4, so the row above that cannot
        certify raises after ceil(4 * 831.4) = 3326 steps: neither at step
        1 nor never."""
        budget = math.ceil(4.0 * (math.log(12.0) + math.log(1e60) + 300.0 * math.log(10.0)))
        assert budget == 3326
        f = make_objective("double-well")
        with pytest.raises(ProxNotCertified) as info:
            agd_prox_batch(f, np.array([[1e20, 0.0]]), 1.2207e56, 1e-300)
        err = info.value
        assert (err.lam, err.step, err.active) == (1.2207e56, budget, 1)

    def test_budget_above_the_cap_raises_before_step_one(self):
        """A softplus in x0 (rho = 0, L = 1/4, no minimizer) at lam = 1e-28
        gives the row at (0, 0) a budget of about 8e15 steps, hours of
        stepping: it raises at step 0, after the one gradient at the center.
        The witness stops a loop that steps on after its third call."""
        calls = []

        def grad_many(x):
            calls.append(x.shape[0])
            if len(calls) > 3:
                raise RuntimeError("the prox row kept stepping")
            g = np.zeros_like(x)
            g[:, 0] = 0.5 * (1.0 + np.tanh(0.5 * x[:, 0]))
            return g

        f = SmoothObjective(
            eval_many=lambda x: np.logaddexp(0.0, x[:, 0]),
            grad_many=grad_many,
            smoothness=0.25,
            semiconvexity=0.0,
        )
        x = np.zeros((1, 2))
        assert _iteration_ceiling(f, x[0], 1e-28, 1e-3) > 1e15 > BUDGET_CAP
        calls.clear()
        with pytest.raises(ProxNotCertified) as info:
            agd_prox_batch(f, x, 1e-28, 1e-3)
        assert (info.value.lam, info.value.step, info.value.active) == (1e-28, 0, 1)
        assert calls == [1]

    def test_uncertified_center_with_no_budget_raises_at_step_zero(self):
        """Budget 0 (||grad f(x)|| <= min(lam - rho, 1) eps/(12 kappa))
        returns the center, which must certify: its distance to the prox is
        at most eps / 12, within sqrt(eps) / 2 only for eps <= 36.  At
        eps = 100 a center 8 from its prox does not certify."""
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ProxNotCertified) as info:
            agd_prox_batch(linear([8.0, 0.0]), x, 1.0, 100.0)
        assert (info.value.step, info.value.active) == (0, 2)

    def test_center_near_the_semiconvexity_gets_a_budget(self):
        """With lam - rho = 1e-12 the distance ||grad f(x)|| / (lam - rho)
        to the prox is 1e9, which the budget's log term counts: the rows
        step once, to the prox x - a / lam."""
        x = np.array([[0.0, 0.0], [1e-3, 0.0]])
        a = np.array([1e-3, 0.0])
        y, _, iters, _ = agd_prox_batch(linear(a), x, 1e-12, 1.0)
        np.testing.assert_array_equal(iters, [1, 1])
        np.testing.assert_allclose(y, x - a / 1e-12, rtol=1e-12)

    def test_quadratic_returns_after_the_plain_first_step(self):
        """z1 = x - x/(1 + lam) is the quadratic's prox, so every row with a
        nonzero gradient returns at step 1 with one gradient besides g0."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 3)) * rng.uniform(1e-3, 10.0, size=(40, 1))
        x[[4, 17]] = 0.0
        for lam, eps in ((0.3, 1e-12), (2.0, 1e-6), (50.0, 1e-3)):
            y, _, iters, grad_evals = agd_prox_batch(quadratic(), x, lam, eps)
            moved = np.any(x != 0.0, axis=1)
            np.testing.assert_array_equal(iters, np.where(moved, 1, 0))
            np.testing.assert_array_equal(grad_evals, iters + 1)
            np.testing.assert_allclose(y, lam * x / (1.0 + lam), rtol=1e-12, atol=0)


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

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_eps_not_positive_rejected(self, eps):
        """The budget takes log eps: eps = 0 or NaN would give a row no
        finite budget, or none at all, so it is rejected up front."""
        with pytest.raises(ValueError, match="eps must be positive"):
            _prox_row(make_objective("double-well"), np.array([1.4, -0.3]), 3.0, eps)

    def test_lambda_at_or_below_semiconvexity_rejected(self):
        f = make_objective("double-well")
        with pytest.raises(LambdaTooSmall):
            _prox_row(f, np.ones(2), f.semiconvexity, 1e-6)

    def test_grad_eval_accounting(self):
        """One gradient per step, plus the one at the center."""
        calls = []
        f = _recorded(make_objective("double-well"), calls)
        _, _, iters, grad_evals = _prox_row(f, np.array([1.4, -0.3]), 6.0, 1e-12)
        assert iters > 1
        assert grad_evals == iters + 1 == len(calls)

    def test_batch_matches_row_loop(self):
        f = make_objective("double-well")
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
        f = make_objective("double-well")
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
        f = make_objective("double-well")
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

    def test_zero_field_needs_one_sample(self):
        """A zero gradient field has m4 = 0: every draw reads 0, so one is enough."""
        mu = ParticleCloud(np.random.default_rng(7).normal(size=(5, 2)))
        assert hp_sample_count(linear(np.zeros(2)), mu, 2.0, 0.05, 0.1) == 1

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

    @pytest.mark.parametrize("eps", [1e-160, 1e-200])
    def test_count_past_the_float_range_exceeds_the_cap(self, eps):
        """At eps = 1e-160 the count overflows, at 1e-200 eps^2 underflows
        to 0: either way it is inf, above any cap, and the query raises
        KCapExceeded, not OverflowError or ZeroDivisionError."""
        mu = ParticleCloud(np.random.default_rng(0).normal(size=(12, 2)))
        assert hp_sample_count(quadratic(), mu, 2.0, eps, 0.1) == math.inf
        with pytest.raises(KCapExceeded) as exc:
            supergradient_hp(quadratic(), mu, 2.0, eps, 0.1, np.random.default_rng(0))
        assert exc.value.required > exc.value.cap

    def test_lambda_too_small(self):
        mu = ParticleCloud(np.ones((3, 1)))
        f = make_objective("double-well")
        with pytest.raises(LambdaTooSmall):
            supergradient_hp(f, mu, 0.5, 0.1, 0.1, np.random.default_rng(0))

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

    @pytest.mark.parametrize(
        "semiconcavity, says",
        [(math.nan, "nan"), (1.5, "1.5"), (-0.75, "-0.75"), (math.inf, "inf")],
        ids=["nan", "above-smoothness", "below-minus-semiconvexity", "inf"],
    )
    def test_refuses_semiconcavity_outside_its_range(self, semiconcavity, says):
        """c must lie in [-rho, L] = [-0.5, 1]: a NaN, a c above L or below
        -rho is refused by name."""
        with pytest.raises(ValueError, match=f"semiconcavity must lie in .* got {says}$"):
            SmoothObjective(
                eval_many=lambda y: np.zeros(y.shape[0]),
                grad_many=np.zeros_like,
                smoothness=1.0,
                semiconvexity=0.5,
                semiconcavity=semiconcavity,
            )

    def test_semiconcavity_defaults_to_smoothness(self):
        """c defaults to L; both ends of [-rho, L] are admitted."""
        kw = dict(eval_many=lambda y: np.zeros(y.shape[0]), grad_many=np.zeros_like)
        assert SmoothObjective(**kw, smoothness=1.0, semiconvexity=0.5).semiconcavity == 1.0
        for c in (-0.5, 1.0):
            f = SmoothObjective(**kw, smoothness=1.0, semiconvexity=0.5, semiconcavity=c)
            assert f.semiconcavity == c

    def test_rejects_negative_semiconvexity(self):
        with pytest.raises(ValueError, match="semiconvexity must be >= 0"):
            SmoothObjective(
                eval_many=lambda y: np.zeros(y.shape[0]),
                grad_many=np.zeros_like,
                smoothness=1.0,
                semiconvexity=-1.0,
            )
