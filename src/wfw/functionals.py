"""Objective functionals on particle clouds and their derivative oracles.

Each functional J maps a cloud to a real value and, through
`derivative_oracle`, to a smooth witness function phi whose pointwise
gradient is the first-order expansion of J along displacement of the
particles; the outer loop only ever consumes (value, witness).
"""

import math

import numpy as np

from .cloud import CloudMemo, row_sqnorm, sqdist_matrix
from .errors import NonFiniteDual, SinkhornNotConverged, SizeCapExceeded, WfwError
from .moreau import SmoothObjective
from .registry import RadialQuartic

# Peak of |tanh''|, slightly rounded up: 4 / (3 * sqrt(3)).
_TANH_CURV = 0.7699

#: Cap on n*m (cloud atoms times data atoms) and on m*m for `EntropicDeconv`.
#: A solve holds about five float64 n x m arrays at once (the cost, the
#: current coupling, and a trial step's logits and coupling), 41-42 bytes
#: an entry under tracemalloc, and the data's diameter pass 16-24 bytes an
#: m*m entry: the cap bounds the peak near 42 MB, and admits n = m = 1,000.
SINKHORN_CAP = 10**6

# How many kept solves' v a seed extrapolates through: polynomial
# extrapolation through h of them sums coefficient magnitudes to 2^h - 1,
# so past four it amplifies the solves' own error more than it gains.
_SEED_SOLVES = 4


def _softmax(a):
    """Unnormalized row softmax of the 2-d logits `a`, in place: returns
    (e, top) with top the row max and e = exp(a - top), so that row i's
    log-sum-exp is log(e[i].sum()) + top[i] and its softmax e[i] / e[i].sum()."""
    top = a.max(axis=1)
    a -= top[:, None]
    np.exp(a, out=a)
    return a, top


class RandomFeatureKernel:
    """Feature-map kernel k(x, y) = (1/B) sum_b tanh(t_b . x) tanh(t_b . y).

    `table` holds the B frozen feature directions t_b as rows; k is an
    inner product of feature vectors, hence positive semidefinite by
    construction.  The gradient Lipschitz bound uses the peak curvature of
    tanh and the mean of `row_sqnorms`, the squared row norms ||t_b||^2
    (read-only).  A cloud's feature map and its mean embedding are each
    computed once and shared by every caller (`CloudMemo`).

    Raises:
        ValueError: the table is not (B, d) with B >= 1, or the bound is
            not finite (an entry is, or a squared row norm or their sum
            overflows); no numpy warning is printed first.
    """

    def __init__(self, table):
        table = np.asarray(table, dtype=np.float64)
        if table.ndim != 2 or table.shape[0] < 1:
            raise ValueError("feature table must be (B, d) with B >= 1")
        self.table = table.copy()
        self.table.setflags(write=False)
        with np.errstate(over="ignore"):
            self.row_sqnorms = row_sqnorm(self.table)
            mean_sq = float(np.mean(self.row_sqnorms))
        if not math.isfinite(mean_sq):
            raise ValueError(f"table: the mean of its squared row norms is {mean_sq}, not finite")
        self.row_sqnorms.setflags(write=False)
        self.grad_lipschitz = _TANH_CURV * mean_sq
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
        phi = self.features(x)
        m = np.add.reduce(phi, axis=0) / phi.shape[0]  # ndarray.mean's ufuncs, unwrapped
        m.setflags(write=False)
        return m


class MMDSquared:
    """Squared maximum mean discrepancy to a fixed target cloud, under a
    `RandomFeatureKernel`.

    value(mu) is the V-statistic E_mm k + E_tt k - 2 E_mt k; the witness of
    `derivative_oracle` is twice the difference of mean kernel embeddings,
    the factor matching the first-order expansion of the V-statistic under
    particle displacement.

    k(x, y) = phi(x) . phi(y) / B is linear in feature space, so both are
    computed there: value(mu) is ||mean phi(x) - mean phi(y)||^2 / B and
    the witness is phi(z) . w with w = (2/B) (mean phi(x) - mean phi(y)),
    whose gradient ((1 - phi(z)^2) * w) T is formed as w T - phi(z)^2
    (diag(w) T), both products of w and T taken once per oracle.  That
    costs one feature map and one mean embedding per cloud, shared by every
    functional on the same kernel, and no Gram matrix; the target's mean
    embedding is computed once, here.

    The witness's smoothness and semiconvexity are both the curvature
    bound at its own weights, _TANH_CURV * sum_b |w_b| ||t_b||^2: its
    Hessian is sum_b w_b tanh''(t_b . z) t_b t_b^T, and |tanh''| <=
    _TANH_CURV.  Each |w_b| <= 4/B, as tanh lies in [-1, 1], so the bound
    never exceeds the global 4 * kernel.grad_lipschitz, and it is 0 where
    the embeddings coincide.
    """

    def __init__(self, kernel, target):
        self.kernel = kernel
        self.target = target
        self._target_embedding = kernel.mean_embedding(target.points)

    def value(self, mu):
        gap = self._embedding_gap(mu.points)
        return float(gap @ gap) / self.kernel.table.shape[0]

    def derivative_oracle(self, mu, eps):
        kernel = self.kernel
        w = (2.0 / kernel.table.shape[0]) * self._embedding_gap(mu.points)
        curv = _TANH_CURV * float(np.abs(w) @ kernel.row_sqnorms)
        wt, tw = w @ kernel.table, w[:, None] * kernel.table
        return SmoothObjective(
            eval_many=lambda z: kernel.features(z) @ w,
            grad_many=lambda z: wt - kernel.features(z) ** 2 @ tw,
            smoothness=curv,
            semiconvexity=curv,
        )

    def _embedding_gap(self, x):
        return self.kernel.mean_embedding(x) - self._target_embedding


def _soft_c_transform(w, cost, s2):
    """(-s2 log mean_j exp((w_j - cost_ij) / s2) per row i, the softmax's e,
    its row sums): the u-update of v, or with cost.T the v-update of u."""
    e, top = _softmax((w[None, :] - cost) / s2)
    rows = e.sum(axis=1)
    return -s2 * (np.log(rows) + top - math.log(w.shape[0])), e, rows


def _coupling(v, cost, s2):
    """(u, p, b, err) at v from one row softmax: the exact u-update, the
    coupling (row sums 1/n), its column sums and L1 column-marginal error."""
    u, e, rows = _soft_c_transform(v, cost, s2)
    if not np.all(np.isfinite(u)):
        raise NonFiniteDual("dual potentials left the finite range")
    p = e / (e.shape[0] * rows[:, None])
    b = p.sum(axis=0)
    return u, p, b, float(np.sum(np.abs(b - 1.0 / b.shape[0])))


def _sinkhorn_sweeps(v, cost, s2, target):
    """Plain log-domain sweeps from v, each a v-update (soft c-transform of
    u) after `_coupling`, until the latter's error is <= target or 100
    sweeps are spent.  Returns (v, its coupling, sweeps)."""
    sweeps = 0
    while True:
        c = _coupling(v, cost, s2)
        if c[3] <= target or sweeps == 100:
            return v, c, sweeps
        v, sweeps = _soft_c_transform(c[0], cost.T, s2)[0], sweeps + 1


def _sinkhorn_newton(v, c, cost, s2, target):
    """Newton steps on the semi-dual in v, from v and its coupling c until
    the column-marginal error is <= target (Sinkhorn-Newton; Brauer,
    Clason, Lorenz & Wirth, arXiv:1710.06635).

    u is eliminated by an exact u-update, so the coupling P has row sums
    1/n.  The semi-dual's gradient is 1/m - b, b = P's column sums, and its
    Hessian (diag(b) - n P^T P) / s2 is PSD with null space 1.  Conjugate
    gradients apply it as b q - n P^T (P q), O(n m) per iteration: no m x m
    matrix (slower from ~200 atoms) and no LAPACK solve (BLAS-dependent
    bits).  They may take 2 m iterations: m suffice in exact arithmetic,
    but on a near-permutation coupling (Hessian condition ~1e5) rounding
    can need more, and a direction cut at m need not lower the error.
    The conjugate gradient has two exits.  Its residual r is the step's
    first-order prediction of the next 1/m - b, so it stops once ||r||^2 <=
    (target / 2)^2 / m, which bounds that prediction's L1 norm, the next
    marginal error to first order, by target / 2; and, as inexact Newton
    (Eisenstat & Walker, 1996), once ||r|| <= err^1.5 ||1/m - b||, which
    keeps the loose solves of a far start cheap.  Whichever comes first
    ends it: the first keeps a close start from solving past its target.
    The step backtracks on the marginal error and never moves a
    potential by more than 2 max(max cost, s2).  Returns (v, its coupling,
    steps); an error above target means it stalled: no halving of the step
    lowered the error, or 50 steps were spent.
    """
    n, m = cost.shape
    reach = 2.0 * max(float(cost.max()), s2)
    _, p, b, err = c
    steps = 0
    while err > target and steps < 50:
        r = 1.0 / m - b
        r -= np.mean(r)
        d, q, rr = np.zeros(m), r.copy(), float(r @ r)
        stop = max(err**3 * rr, 0.25 * target * target / m)
        pt, floor = p.T, 1e-14 * float(b.max())
        for _ in range(2 * m):
            hq = b * q - n * (pt @ (p @ q))
            qhq = float(q @ hq)
            # curvature below the operator's rounding: q is numerically null
            if not qhq > floor * float(q @ q):
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
            trial = _coupling(v + t * d, cost, s2)
            if trial[3] < err:
                break
            t *= 0.5
        else:
            break
        v = v + t * d
        _, p, b, err = c = trial
        steps += 1
    return v, c, steps


def _entropic_solve(x, y, sigma2, tol, v0=None):
    """Entropic transport potentials between uniform clouds, as (u, v,
    marginal_error, iterations, P), gauged to mean(u) == mean(v).

    u is the exact u-update of v, so the coupling P they define has row
    sums 1/n and total mass 1.  The error, <= tol, is P's L1 column-marginal
    error; `iterations` counts sweeps plus Newton steps.  From v0 (or 0),
    (a) up to 100 plain sweeps run to 1e-2, then (b) up to 50 Newton steps
    to tol.  If either stalls, (c) both rerun from 0 over an eps ladder
    from max(max cost, sigma2), divided by 4 per stage, each stage to 1e-3
    and sigma2 itself to tol (Schmitzer, arXiv:1610.06519).  Every stage
    is bounded, and so is the ladder, so the solve needs no global cap.

    Raises:
        SinkhornNotConverged: the ladder's last stage, at sigma2, stalled
            above tol.
        NonFiniteDual: an iterate left the finite range.
    """
    cost = 0.5 * sqdist_matrix(x, y)
    iterations = 0

    def stage(v, s2, target):
        nonlocal iterations
        v, c, sweeps = _sinkhorn_sweeps(v, cost, s2, max(target, 1e-2))
        v, c, steps = _sinkhorn_newton(v, c, cost, s2, target)
        iterations += sweeps + steps
        return v, c

    v, c = stage(np.zeros(y.shape[0]) if v0 is None else v0, sigma2, tol)
    if c[3] > tol:
        v, s2 = np.zeros(y.shape[0]), max(float(cost.max()), sigma2)
        while s2 > sigma2:
            v, _ = stage(v, s2, 1e-3)
            s2 /= 4.0
        v, c = stage(v, sigma2, tol)
    u, err = c[0], c[3]
    if err > tol:
        raise SinkhornNotConverged(
            f"marginal error {err} after {iterations} iterations (tol {tol})",
            marginal_error=err,
            iterations=iterations,
        )
    shift = 0.5 * (float(np.mean(v)) - float(np.mean(u)))
    return u + shift, v - shift, err, iterations, c[1]


class EntropicDeconv:
    """Entropy-regularized transport cost from the iterate to a fixed data cloud.

    value(mu) is the converged dual objective mean(u) + mean(v); u is the
    exact u-update of v, so the coupling has mass 1 and the dual carries no
    mass term.  The witness is the canonical smooth extension of the
    u-potential,

        phi(z) = -sigma2 * log( (1/m) sum_j exp((v_j - ||z - y_j||^2 / 2) / sigma2) ),

    whose gradient is z minus the softmax-weighted data mean.  It is the
    soft c-transform of v, through the same row softmax as the solve.  Its
    Hessian is I - Cov/sigma2, Cov the softmax-weighted covariance of the
    data atoms: it bends up by at most 1 (the semiconcavity) and down by at
    most rho = max(0, diam^2 / (4 sigma2) - 1), and L = max(1, rho).

    One Sinkhorn solve serves each cloud: `value` and `derivative_oracle`
    on the same `ParticleCloud` share it through a `CloudMemo`; any other
    array is solved afresh, from v = 0.  Each solve the memo keeps starts
    from the v of up to the last four it kept, extrapolated by the
    polynomial through them, so a fresh functional's value(mu) agrees only
    to within the tolerance.  Each solve appends its marginal error to
    `marginal_error_log`.

    The solve's coupling P also gives the witness gradient at the cloud's
    own atoms: row i of n P is the witness softmax at x_i, so grad phi(x_i)
    = x_i - n (P y)_i, equal to `grad_many` at x_i up to rounding.  For a
    cloud the memo keeps, `derivative_oracle` hands these rows over as the
    model's `atom_gradients`, so no witness row need be evaluated there.

    Raises:
        SizeCapExceeded: m * m (the data's diameter pass, here) or n * m (a
            solve on n atoms) exceeds `SINKHORN_CAP`, before the array is
            allocated.
    """

    def __init__(self, sigma2, data, tol=1e-9):
        if not 0 < sigma2 < math.inf:
            raise ValueError(f"sigma2 must lie in (0, inf), got {sigma2}")
        self.sigma2 = float(sigma2)
        self.data = data
        self.tol = float(tol)
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must lie in (0, inf), got {tol}")
        self.marginal_error_log = []
        self._solve = CloudMemo(self._sinkhorn)
        self._last_v = []  # v of the last solves the memo kept, oldest first
        m = data.points.shape[0]
        _check_size("the data's diameter", m, m)
        # Softmax weights always sit on the data atoms, so the weighted
        # covariance never exceeds (diam/2)^2 in any direction: a global
        # semiconvexity bound for the witness.
        diam2 = float(np.max(sqdist_matrix(data.points, data.points)))
        self._rho = max(0.0, diam2 / (4.0 * self.sigma2) - 1.0)

    def _sinkhorn(self, points):
        """(u, v, atom gradients) for `points`; logs the error.  A solve
        that the memo keeps is seeded by extrapolating the v of the last h
        <= 4 kept solves, sum_j (-1)^j C(h, j + 1) v(k - j) (v(k) itself
        after one, v = 0 before any), becomes v(k), and returns the witness
        gradient at `points`, read-only.  Any other solve starts from v = 0,
        leaves the history alone and returns no gradients (None)."""
        y = self.data.points
        _check_size("a solve", points.shape[0], y.shape[0])
        kept, last = CloudMemo.keeps(points), self._last_v
        seed = None
        if kept and last:
            h = len(last)
            seed = h * last[-1]  # v(k) itself when h = 1
            for j in range(1, h):
                seed += (-1) ** j * math.comb(h, j + 1) * last[-1 - j]
        u, v, err, _, p = _entropic_solve(points, y, self.sigma2, self.tol, seed)
        self.marginal_error_log.append(err)
        if not kept:
            return u, v, None
        self._last_v = (last + [v])[-_SEED_SOLVES:]
        grads = points - points.shape[0] * (p @ y)
        grads.setflags(write=False)
        return u, v, grads

    def value(self, mu):
        u, v, _ = self._solve(mu.points)
        return float(np.mean(u) + np.mean(v))

    def derivative_oracle(self, mu, eps):
        _, v, grads = self._solve(mu.points)
        y, sigma2 = self.data.points, self.sigma2
        # Logits of the softmax over the data atoms, less the ||z||^2 / (2 sigma2)
        # that ||z - y_j||^2 = ||z||^2 + ||y_j||^2 - 2 z . y_j puts in each one.
        yt = y.T / sigma2
        c = (v - 0.5 * row_sqnorm(y)) / sigma2 - math.log(y.shape[0])

        def eval_many(z):
            a = z @ yt
            a += c
            e, top = _softmax(a)
            return 0.5 * row_sqnorm(z) - sigma2 * (np.log(e.sum(axis=1)) + top)

        def grad_many(z):
            a = z @ yt
            a += c
            e, _ = _softmax(a)
            return z - (e @ y) / e.sum(axis=1, keepdims=True)

        rho = self._rho
        return SmoothObjective(
            eval_many=eval_many,
            grad_many=grad_many,
            smoothness=max(1.0, rho),
            semiconvexity=rho,
            semiconcavity=1.0,
            atom_gradients=None if grads is None else (mu.points, grads),
        )


def _check_size(what, rows, cols):
    """SizeCapExceeded where a rows x cols array would exceed SINKHORN_CAP."""
    if rows * cols > SINKHORN_CAP:
        raise SizeCapExceeded(
            f"{what} needs a {rows} x {cols} array (cap {SINKHORN_CAP} entries)",
            required=rows * cols,
            cap=SINKHORN_CAP,
        )


def _pair_means(w, x):
    """Batch forms of z -> mean_j W(z - x_j) and its gradient for the
    `RadialQuartic` W, from the atoms' moments: with u = z - m, y = x - m,
    S = mean y y^T, t = mean |y|^2 y and k = mean |y|^4, the mean is a + b
    (|u|^2 + tr S) + c (|u|^4 + 2 |u|^2 tr S + 4 u^T S u - 4 u . t + k) and
    its gradient 2b u + 4c ((|u|^2 + tr S) u + 2 S u - t), O(d^2) a row.
    The atoms' mean m is held as a float plus r, the mean of x - m, so the
    cancellation stays at the cloud's spread wherever the cloud sits."""
    a, b, c = w.a, w.b, w.c
    m = x.mean(axis=0)
    r = (x - m).mean(axis=0)
    y = x - m - r
    y2 = row_sqnorm(y)
    s, t = (y.T @ y) / x.shape[0], (y2 @ y) / x.shape[0]
    tr, k = float(np.mean(y2)), float(np.mean(y2 * y2))

    def eval_many(z):
        u = z - m - r
        u2, usu = row_sqnorm(u), np.add.reduce((u @ s) * u, axis=1)
        return a + b * (u2 + tr) + c * (u2 * (u2 + 2.0 * tr) + 4.0 * (usu - u @ t) + k)

    def grad_many(z):
        u = z - m - r
        return 2.0 * b * u + 4.0 * c * ((row_sqnorm(u) + tr)[:, None] * u + 2.0 * (u @ s) - t)

    return eval_many, grad_many


class PotentialInteraction:
    """Potential-plus-interaction energy.

    value(mu) = (1/n) sum_i v(x_i) + (1/n^2) sum_ij W(x_i - x_j), v a
    `SmoothObjective` and W a `registry.RadialQuartic` (`make_pair`) or None.
    W is even, so the witness phi(z) = v(z) + (2/n) sum_j W(z - x_j) is the
    exact first variation (eps is ignored and repeated oracle calls are
    identical), and each of its three curvature constants is v's plus twice
    W's.  Both pair sums are `_pair_means` over the cloud, value's at z = x_i.

    Raises:
        WfwError: w is neither None nor a `RadialQuartic`.
    """

    def __init__(self, v, w=None):
        if not (w is None or isinstance(w, RadialQuartic)):
            raise WfwError(f"a pair term must be a RadialQuartic row, got {type(w).__name__}")
        self.v = v
        self.w = w

    def value(self, mu):
        x = mu.points
        total = float(np.add.reduce(self.v.eval_many(x)) / mu.n)
        if self.w is not None:
            total += float(np.mean(_pair_means(self.w, x)[0](x)))
        return total

    def derivative_oracle(self, mu, eps):
        v, w = self.v, self.w
        if w is None:
            return v
        pair_eval, pair_grad = _pair_means(w, mu.points)
        return SmoothObjective(
            eval_many=lambda z: v.eval_many(z) + 2.0 * pair_eval(z),
            grad_many=lambda z: v.grad_many(z) + 2.0 * pair_grad(z),
            smoothness=v.smoothness + 2.0 * w.smoothness,
            semiconvexity=v.semiconvexity + 2.0 * w.semiconvexity,
            semiconcavity=v.semiconcavity + 2.0 * w.semiconcavity,
        )
