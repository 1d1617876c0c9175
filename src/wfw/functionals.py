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


def _logsumexp(a, axis=None, keepdims=False):
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
    out = np.log1p(s / m) + np.log(m) + a_max
    if not keepdims:
        out = out.squeeze(axis=axis)
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
    is computed once and shared by every caller (`CloudMemo`).
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

    def features(self, x):
        """phi(x) = tanh(x T^T), one row per point, as a read-only array."""
        return self._memo(x)

    def _map(self, x):
        phi = np.tanh(x @ self.table.T)
        phi.setflags(write=False)
        return phi

    def feature_grad(self, z, w):
        """Rows: grad_z of phi(z) . w, for a weight vector w of length B."""
        return ((1.0 - self.features(z) ** 2) * w) @ self.table

    def gram(self, a, b):
        return self.features(a) @ self.features(b).T / self.table.shape[0]

    def mean_grad(self, a, z):
        return self.feature_grad(z, self.features(a).mean(axis=0)) / self.table.shape[0]


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
    over the cloud and no Gram matrix; the target's mean embedding is
    computed once, here.  Other kernels use the Gram forms.
    """

    def __init__(self, kernel, target):
        self.kernel = kernel
        self.target = target
        y = target.points
        if isinstance(kernel, RandomFeatureKernel):
            self._target_embedding = kernel.features(y).mean(axis=0)
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
        return self.kernel.features(x).mean(axis=0) - self._target_embedding

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


def _sinkhorn_potentials(x, y, sigma2, tol, max_iter=20000):
    """Log-domain alternating dual updates for uniform marginals.

    Returns (u, v, marginal_error, iterations, coupling_mass) with the
    potentials gauged to mean(u) == mean(v).

    Each sweep costs two reductions.  After the u-update the row marginals
    are exact, so only the column marginal is tested, and its column
    log-sums are the ones the next v-update consumes.  The coupling itself
    is built once, at exit, for its mass.
    """
    n, m = x.shape[0], y.shape[0]
    cost = 0.5 * sqdist_matrix(x, y)
    u = np.zeros(n)
    err = math.inf
    col_lse = _logsumexp((u[:, None] - cost) / sigma2, axis=0)
    for it in range(1, max_iter + 1):
        v = -sigma2 * (col_lse - math.log(n))
        u = -sigma2 * (_logsumexp((v[None, :] - cost) / sigma2, axis=1) - math.log(m))
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise NonFiniteDual("dual potentials left the finite range")
        col_lse = _logsumexp((u[:, None] - cost) / sigma2, axis=0)
        col = np.exp(v / sigma2 + col_lse - math.log(n) - math.log(m))
        err = float(np.sum(np.abs(col - 1.0 / m)))
        if err <= tol:
            log_pi = (
                (u[:, None] + v[None, :] - cost) / sigma2 - math.log(n) - math.log(m)
            )
            mass = float(np.exp(_logsumexp(log_pi)))
            shift = 0.5 * (float(np.mean(v)) - float(np.mean(u)))
            return u + shift, v - shift, err, it, mass
    raise SinkhornNotConverged(
        f"marginal error {err} after {max_iter} iterations (tol {tol})",
        marginal_error=err,
        iterations=max_iter,
    )


def sinkhorn_dual(mu, data, sigma2, tol=1e-9):
    """Dual potential on the data side of the entropic transport between mu and data.

    Deterministic given inputs; the returned vector is gauged so the two
    potentials share their mean.

    Raises:
        SinkhornNotConverged: marginal error still above tol after
            20,000 sweeps.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    _, v, _, _, _ = _sinkhorn_potentials(mu.points, data.points, sigma2, tol)
    return v


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
        y = self.data.points
        m = y.shape[0]
        sigma2 = self.sigma2

        def _logits(z):
            return (v[None, :] - 0.5 * sqdist_matrix(z, y)) / sigma2

        def eval_many(z):
            return -sigma2 * (_logsumexp(_logits(z), axis=1) - math.log(m))

        def grad_many(z):
            lg = _logits(z)
            w = np.exp(lg - _logsumexp(lg, axis=1, keepdims=True))
            return z - w @ y

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
