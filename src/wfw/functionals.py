"""Objective functionals on particle clouds and their derivative oracles.

Each functional J maps a cloud to a real value and, through
`derivative_oracle`, to a smooth witness function phi whose pointwise
gradient is the first-order expansion of J along displacement of the
particles; the outer loop only ever consumes (value, witness).
"""

import math

import numpy as np

from .cloud import CloudMemo, sqdist_matrix
from .errors import NonFiniteDual, SinkhornNotConverged
from .moreau import SmoothObjective

# Peak of |tanh''|, slightly rounded up: 4 / (3 * sqrt(3)).
_TANH_CURV = 0.7699


def _logsumexp(a, axis=None):
    """log(sum(exp(a))) along `axis`, bit for bit what scipy.special.logsumexp returns.

    Same arithmetic as scipy's real-input path: the maxima are counted (m
    ties), left out of the shifted sum, and added back as log1p(s / m) +
    log(m) + max.  (scipy falls back to log(sum(exp(a))) where that is not
    finite, which happens only at an infinite or NaN maximum, and there
    both forms agree.)  It skips scipy's array-API dispatch, which costs
    ~3x the arithmetic on 50 x 50 inputs.
    """
    if axis is None:
        axis = tuple(range(a.ndim))
    a_max = a.max(axis=axis, keepdims=True)
    mask = a == a_max
    m = mask.sum(axis=axis, keepdims=True, dtype=a.dtype)
    e = a - a_max
    np.exp(e, out=e)
    np.putmask(e, mask, 0.0)
    s = e.sum(axis=axis, keepdims=True)
    out = (np.log1p(s / m) + np.log(m) + a_max).squeeze(axis=axis)
    return out[()] if out.ndim == 0 else out


class GaussianKernel:
    """k(x, y) = exp(-||x-y||^2 / (2 sigma^2)); gradient Lipschitz bound 1/sigma^2."""

    name = "gaussian"

    def __init__(self, sigma):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)
        self.grad_lipschitz = 1.0 / self.sigma**2

    def gram(self, a, b):
        return np.exp(-sqdist_matrix(a, b) / (2.0 * self.sigma**2))

    def mean_grad(self, a, z):
        """Rows: (1/|a|) sum_i grad_z k(a_i, z_row)."""
        k = self.gram(z, a)
        return -(z * k.mean(axis=1, keepdims=True) - (k @ a) / a.shape[0]) / self.sigma**2


class InverseMultiquadricKernel:
    """k(x, y) = (c^2 + ||x-y||^2)^(-beta); gradient Lipschitz bound 6 beta / c^(2 beta + 2)."""

    name = "imq"

    def __init__(self, c, beta):
        if c <= 0 or beta <= 0:
            raise ValueError("c and beta must be positive")
        self.c = float(c)
        self.beta = float(beta)
        self.grad_lipschitz = 6.0 * self.beta / self.c ** (2.0 * self.beta + 2.0)

    def gram(self, a, b):
        return (self.c**2 + sqdist_matrix(a, b)) ** (-self.beta)

    def mean_grad(self, a, z):
        g1 = (self.c**2 + sqdist_matrix(z, a)) ** (-self.beta - 1.0)
        return -2.0 * self.beta * (
            z * g1.mean(axis=1, keepdims=True) - (g1 @ a) / a.shape[0]
        )


class RandomFeatureKernel:
    """Feature-map kernel k(x, y) = (1/B) sum_b tanh(t_b . x) tanh(t_b . y).

    `table` holds the B frozen feature directions t_b as rows; the Gram
    matrix is a Gram of feature vectors, hence positive semidefinite by
    construction.  The gradient Lipschitz bound uses the peak curvature of
    tanh and the mean squared row norm of the table.  A cloud's feature map
    and its mean embedding are each computed once and shared by every
    caller (`CloudMemo`).
    """

    name = "random-feature"

    def __init__(self, table):
        table = np.asarray(table, dtype=np.float64)
        if table.ndim != 2 or table.shape[0] < 1:
            raise ValueError("feature table must be (B, d) with B >= 1")
        self.table = table.copy()
        self.table.setflags(write=False)
        self.grad_lipschitz = _TANH_CURV * float(np.mean(np.sum(table**2, axis=1)))
        self._memo = CloudMemo(self._map)
        self._mean_memo = CloudMemo(self._mean)

    def features(self, x):
        """phi(x) = tanh(x T^T), one row per point, as a read-only array."""
        return self._memo(x)

    def mean_embedding(self, x):
        """The column mean of phi(x), as a read-only array."""
        return self._mean_memo(x)

    def _map(self, x):
        phi = np.tanh(x @ self.table.T)
        phi.setflags(write=False)
        return phi

    def _mean(self, x):
        m = self.features(x).mean(axis=0)
        m.setflags(write=False)
        return m

    def feature_grad(self, z, w):
        """Rows: grad_z of phi(z) . w, for a weight vector w of length B."""
        return ((1.0 - self.features(z) ** 2) * w) @ self.table

    def gram(self, a, b):
        return self.features(a) @ self.features(b).T / self.table.shape[0]

    def mean_grad(self, a, z):
        return self.feature_grad(z, self.mean_embedding(a)) / self.table.shape[0]


class Functional:
    """Interface: value(mu) and derivative_oracle(mu, eps) -> SmoothObjective."""

    def value(self, mu):
        raise NotImplementedError

    def derivative_oracle(self, mu, eps):
        raise NotImplementedError


class MMDSquared(Functional):
    """Squared maximum mean discrepancy to a fixed target cloud.

    value(mu) is the V-statistic E_mm k + E_tt k - 2 E_mt k; the witness of
    `derivative_oracle` is twice the difference of mean kernel embeddings,
    the factor matching the first-order expansion of the V-statistic under
    particle displacement.

    Under `RandomFeatureKernel`, k(x, y) = phi(x) . phi(y) / B is linear in
    feature space, so both are computed there: value(mu) is
    ||mean phi(x) - mean phi(y)||^2 / B and the witness is phi(z) . w with
    w = (2/B) (mean phi(x) - mean phi(y)).  That costs one feature map
    and one mean embedding per cloud, shared by every functional on the
    same kernel, and no Gram matrix; the target's mean embedding is
    computed once, here.  Other kernels use the Gram forms.
    """

    def __init__(self, kernel, target):
        self.kernel = kernel
        self.target = target
        y = target.points
        if isinstance(kernel, RandomFeatureKernel):
            self._target_embedding = kernel.mean_embedding(y)
            self._value, self._witness = self._feature_value, self._feature_witness
        else:
            self._target_mean = float(np.mean(kernel.gram(y, y)))
            self._value, self._witness = self._gram_value, self._gram_witness

    def value(self, mu):
        return self._value(mu.points)

    def derivative_oracle(self, mu, eps):
        eval_many, grad_many = self._witness(mu.points)
        lips = 4.0 * self.kernel.grad_lipschitz
        return SmoothObjective(
            eval_many=eval_many,
            grad_many=grad_many,
            smoothness=lips,
            semiconvexity=lips,
        )

    def _gram_value(self, x):
        y = self.target.points
        return float(
            np.mean(self.kernel.gram(x, x))
            + self._target_mean
            - 2.0 * np.mean(self.kernel.gram(x, y))
        )

    def _gram_witness(self, x):
        kernel = self.kernel
        y = self.target.points

        def eval_many(z):
            return 2.0 * (
                kernel.gram(z, x).mean(axis=1) - kernel.gram(z, y).mean(axis=1)
            )

        def grad_many(z):
            return 2.0 * (kernel.mean_grad(x, z) - kernel.mean_grad(y, z))

        return eval_many, grad_many

    def _embedding_gap(self, x):
        return self.kernel.mean_embedding(x) - self._target_embedding

    def _feature_value(self, x):
        gap = self._embedding_gap(x)
        return float(gap @ gap) / self.kernel.table.shape[0]

    def _feature_witness(self, x):
        kernel = self.kernel
        w = (2.0 / kernel.table.shape[0]) * self._embedding_gap(x)

        def eval_many(z):
            return kernel.features(z) @ w

        def grad_many(z):
            return kernel.feature_grad(z, w)

        return eval_many, grad_many


def _soft_c_transform(w, cost, s2):
    """-s2 log mean_j exp((w_j - cost_ij) / s2) per row i: the exact u-update
    given v (w = v), the v-update given u (w = u, cost transposed)."""
    return -s2 * (_logsumexp((w[None, :] - cost) / s2, axis=1) - math.log(w.shape[0]))


def _sinkhorn_sweeps(v, cost, s2, target, budget):
    """Plain log-domain sweeps from v, two reductions each, until the L1
    column-marginal error after the exact u-update is <= target or `budget`
    sweeps are spent.  That error reads off the next v-update: the column
    marginal is exp((v - v_next) / s2) / m.  Returns (v, err, sweeps)."""
    sweeps = 0
    while True:
        u = _soft_c_transform(v, cost, s2)
        v_next = _soft_c_transform(u, cost.T, s2)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v_next))):
            raise NonFiniteDual("dual potentials left the finite range")
        err = float(np.sum(np.abs(np.exp((v - v_next) / s2) - 1.0))) / v.shape[0]
        if err <= target or sweeps == budget:
            return v, err, sweeps
        v, sweeps = v_next, sweeps + 1


def _sinkhorn_newton(v, cost, s2, target):
    """Newton steps on the semi-dual in v, from v until the column-marginal
    error is <= target (Sinkhorn-Newton; Brauer, Clason, Lorenz & Wirth,
    arXiv:1710.06635).

    u is eliminated by an exact u-update, so the coupling P has row sums
    1/n.  The semi-dual's gradient is 1/m - b, b = P's column sums, and its
    Hessian (diag(b) - n P^T P) / s2 is PSD with null space 1.  Conjugate
    gradients solve for the step from `P @ d` and `P.T @ (.)` products
    alone: no m x m buffer, and no LAPACK solve, whose bits can depend on
    the BLAS build.  The step backtracks on the marginal error and never
    moves a potential by more than 2 max(max cost, s2).  Returns
    (v, err, steps); err > target means it stalled: no halving of the
    step lowered the error, or 50 steps were spent.
    """
    n, m = cost.shape
    reach = 2.0 * max(float(cost.max()), s2)

    def coupling(v):
        log_p = (_soft_c_transform(v, cost, s2)[:, None] + v[None, :] - cost) / s2
        p = np.exp(log_p - math.log(n) - math.log(m))
        b = p.sum(axis=0)
        return p, b, float(np.sum(np.abs(b - 1.0 / m)))

    p, b, err = coupling(v)
    steps = 0
    while err > target and steps < 50:
        r = 1.0 / m - b
        r -= np.mean(r)
        d, q, rr = np.zeros(m), r.copy(), float(r @ r)
        stop = err**3 * rr  # inexact Newton: |residual| <= err^1.5 |gradient|
        for _ in range(m):
            hq = b * q - n * (p.T @ (p @ q))
            qhq = float(q @ hq)
            # curvature below the operator's rounding: q is numerically null
            if not qhq > 1e-14 * float(b.max()) * float(q @ q):
                break
            a = rr / qhq
            d += a * q
            r -= a * hq
            rr, rr_old = float(r @ r), rr
            if rr <= stop:
                break
            q = r + (rr / rr_old) * q
        d *= s2
        span = float(np.max(np.abs(d)))
        if not span > 0.0:
            break
        t = min(1.0, reach / span)
        for _ in range(30):
            trial = coupling(v + t * d)
            if trial[2] < err:
                break
            t *= 0.5
        else:
            break
        v = v + t * d
        p, b, err = trial
        steps += 1
    return v, err, steps


def _sinkhorn_potentials(x, y, sigma2, tol, max_iter=20000):
    """Entropic transport potentials between uniform clouds, as (u, v,
    marginal_error, iterations, coupling_mass), gauged to mean(u) == mean(v).

    The error, <= tol, is the L1 column-marginal error after an exact
    u-update; `iterations` counts sweeps plus Newton steps.  (a) Plain
    sweeps run to 1e-2, then (b) Newton steps to tol.  If either stalls,
    (c) both rerun over an eps ladder from max(max cost, sigma2), divided
    by 4 per stage, each stage to 1e-3 and sigma2 itself to tol (Schmitzer,
    arXiv:1610.06519).  Plain sweeps, up to `max_iter` iterations in all,
    are the last fallback.

    Raises:
        SinkhornNotConverged: the fallback ran out of iterations.
        NonFiniteDual: a sweep left the finite range.
    """
    n, m = x.shape[0], y.shape[0]
    cost = 0.5 * sqdist_matrix(x, y)
    iterations = 0

    def stage(v, s2, target):
        nonlocal iterations
        v, err, sweeps = _sinkhorn_sweeps(v, cost, s2, max(target, 1e-2), 100)
        v, err, steps = _sinkhorn_newton(v, cost, s2, target)
        iterations += sweeps + steps
        return v, err

    v, err = stage(np.zeros(m), sigma2, tol)
    if err > tol:
        v, s2 = np.zeros(m), max(float(cost.max()), sigma2)
        while s2 > sigma2:
            v, _ = stage(v, s2, 1e-3)
            s2 /= 4.0
        v, err = stage(v, sigma2, tol)
    if err > tol:
        budget = max(max_iter - iterations, 0)
        v, err, sweeps = _sinkhorn_sweeps(v, cost, sigma2, tol, budget)
        iterations += sweeps
    if err > tol:
        raise SinkhornNotConverged(
            f"marginal error {err} after {iterations} iterations (tol {tol})",
            marginal_error=err,
            iterations=iterations,
        )
    u = _soft_c_transform(v, cost, sigma2)
    log_pi = (u[:, None] + v[None, :] - cost) / sigma2 - math.log(n) - math.log(m)
    mass = float(np.exp(_logsumexp(log_pi)))
    shift = 0.5 * (float(np.mean(v)) - float(np.mean(u)))
    return u + shift, v - shift, err, iterations, mass


class EntropicDeconv(Functional):
    """Entropy-regularized transport cost from the iterate to a fixed data cloud.

    value(mu) is the converged dual objective mean(u) + mean(v) (with the
    coupling-mass correction, which vanishes at convergence).  The witness
    is the canonical smooth extension of the u-potential,

        phi(z) = -sigma2 * log( (1/m) sum_j exp((v_j - ||z - y_j||^2 / 2) / sigma2) ),

    whose gradient is z minus the softmax-weighted data mean.

    One Sinkhorn solve serves each cloud: `value` and `derivative_oracle`
    on the same `ParticleCloud` share it through a `CloudMemo`, and any
    other array is solved afresh every time.  Every actual solve appends
    its final marginal error to `marginal_error_log` for auditing, so the
    log holds one entry per solve.
    """

    def __init__(self, sigma2, data, tol=1e-9):
        if sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        self.sigma2 = float(sigma2)
        self.data = data
        self.tol = float(tol)
        self.marginal_error_log = []
        self._solve = CloudMemo(self._sinkhorn)
        # Softmax weights always sit on the data atoms, so the weighted
        # covariance never exceeds (diam/2)^2 in any direction: a global
        # semiconvexity bound for the witness.
        d2 = sqdist_matrix(data.points, data.points)
        diam2 = float(np.max(d2))
        self._rho = max(0.0, diam2 / (4.0 * self.sigma2) - 1.0)

    def _sinkhorn(self, points):
        """(u, v, mass) for the cloud at `points`, logging the marginal error."""
        u, v, err, _, mass = _sinkhorn_potentials(
            points, self.data.points, self.sigma2, self.tol
        )
        self.marginal_error_log.append(err)
        return u, v, mass

    def value(self, mu):
        u, v, mass = self._solve(mu.points)
        return float(np.mean(u) + np.mean(v) - self.sigma2 * (mass - 1.0))

    def derivative_oracle(self, mu, eps):
        _, v, _ = self._solve(mu.points)
        y, sigma2 = self.data.points, self.sigma2
        # Logits of the softmax over the data atoms, less the ||z||^2 / (2 sigma2)
        # that ||z - y_j||^2 = ||z||^2 + ||y_j||^2 - 2 z . y_j puts in each one.
        yt = y.T / sigma2
        c = (v - 0.5 * np.sum(y**2, axis=1)) / sigma2 - math.log(y.shape[0])

        def softmax(z):
            e = z @ yt
            e += c
            top = e.max(axis=1)
            e -= top[:, None]
            np.exp(e, out=e)
            return e, top

        def eval_many(z):
            e, top = softmax(z)
            return 0.5 * np.sum(z**2, axis=1) - sigma2 * (np.log(e.sum(axis=1)) + top)

        def grad_many(z):
            e, _ = softmax(z)
            return z - (e @ y) / e.sum(axis=1, keepdims=True)

        rho = self._rho
        return SmoothObjective(
            eval_many=eval_many,
            grad_many=grad_many,
            smoothness=max(1.0, rho),
            semiconvexity=rho,
        )


class PairPotential:
    """Symmetric interaction term w(x, y) with its gradient in the first slot.

    `eval(x, y)` and `grad_x(x, y)` broadcast over leading axes: on inputs of
    shape (..., d) they return shapes (...) and (..., d).
    """

    def __init__(self, eval, grad_x, smoothness, semiconvexity):
        self.eval = eval
        self.grad_x = grad_x
        self.smoothness = float(smoothness)
        self.semiconvexity = float(semiconvexity)


class PotentialInteraction(Functional):
    """Potential-plus-interaction energy.

    value(mu) = (1/n) sum_i v(x_i) + (1/n^2) sum_ij w(x_i, x_j); the witness
    phi(z) = v(z) + (2/n) sum_j w(z, x_j) is exact (eps is ignored and
    repeated oracle calls are identical).  Pair terms are evaluated on
    (rows, atoms, d) broadcasts of the two point sets.
    """

    def __init__(self, v, w=None):
        self.v = v
        self.w = w

    def value(self, mu):
        x = mu.points
        total = float(np.mean(self.v.eval_many(x)))
        if self.w is not None:
            total += float(np.mean(self.w.eval(x[:, None, :], x[None, :, :])))
        return total

    def derivative_oracle(self, mu, eps):
        v, w = self.v, self.w
        if w is None:
            return v
        atoms = mu.points[None, :, :]

        def eval_many(z):
            inter = np.mean(w.eval(z[:, None, :], atoms), axis=1)
            return v.eval_many(z) + 2.0 * inter

        def grad_many(z):
            inter = np.mean(w.grad_x(z[:, None, :], atoms), axis=1)
            return v.grad_many(z) + 2.0 * inter

        return SmoothObjective(
            eval_many=eval_many,
            grad_many=grad_many,
            smoothness=v.smoothness + 2.0 * w.smoothness,
            semiconvexity=v.semiconvexity + 2.0 * w.semiconvexity,
        )
