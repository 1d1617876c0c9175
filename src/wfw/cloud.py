"""Particle clouds and exact desk-scale optimal transport.

A cloud is a uniform empirical measure: n points in R^d, each carrying mass
1/n.  Everything downstream (functionals, prox solves, the outer loop) only
ever touches measures through this representation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteIterate, SizeCapExceeded

#: Hard cap on n*m for the exact transport solvers.
EXACT_OT_CAP = 10**6

_MARGINAL_TOL = 1e-9


@dataclass(frozen=True)
class ParticleCloud:
    """Equal-weight particle measure on R^d.

    Args:
        points: array-like of shape (n, d); copied to float64 and frozen.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("cloud needs an (n, d) array with n >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("cloud coordinates must be finite")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


class CloudMemo:
    """fn(points), computed once per cloud: a one-entry memo keyed on array identity.

    Only a read-only array that owns its data (every `ParticleCloud`'s
    points) is remembered: it cannot change under the memo, and holding it
    keeps its identity from passing to another array.  Any other array may
    change between calls, so fn runs afresh on it and the entry is kept.
    """

    def __init__(self, fn):
        self._fn = fn
        self._key = self._value = None

    def __call__(self, points):
        if points is self._key and not points.flags.writeable:
            return self._value
        value = self._fn(points)
        if not points.flags.writeable and points.flags.owndata:
            self._key, self._value = points, value
        return value


@dataclass(frozen=True)
class TransportPlan:
    """Coupling between two clouds: nonnegative n-by-m weights with uniform marginals."""

    weights: np.ndarray
    source: ParticleCloud
    target: ParticleCloud

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        n, m = self.source.n, self.target.n
        if w.shape != (n, m):
            raise ValueError(f"plan shape {w.shape} != ({n}, {m})")
        if np.any(w < -_MARGINAL_TOL):
            raise ValueError("plan has negative entries")
        row_err = np.max(np.abs(w.sum(axis=1) - 1.0 / n))
        col_err = np.max(np.abs(w.sum(axis=0) - 1.0 / m))
        if row_err > _MARGINAL_TOL or col_err > _MARGINAL_TOL:
            raise ValueError(
                f"marginals off by (rows {row_err:.2e}, cols {col_err:.2e})"
            )
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def cost(self):
        """Sum_ij w_ij ||x_i - y_j||^2 (squared-displacement transport cost)."""
        d2 = sqdist_matrix(self.source.points, self.target.points)
        return float(np.sum(self.weights * d2))


def sqdist_matrix(x, y):
    """Pairwise squared Euclidean distances, clipped to be exactly nonnegative."""
    d2 = (
        np.sum(x**2, axis=1)[:, None]
        + np.sum(y**2, axis=1)[None, :]
        - 2.0 * (x @ y.T)
    )
    return np.maximum(d2, 0.0)


def wasserstein2_exact(a, b, cap=EXACT_OT_CAP):
    """Exact 2-Wasserstein distance between two clouds.

    Uses an exact assignment solve when the clouds have equal size (the
    optimal plan is then a permutation) and a dense LP otherwise.  This is a
    test oracle, not a hot path: n*m is capped.

    Args:
        a, b: ParticleCloud with matching dimension.
        cap: maximum allowed n*m for the dense solve.

    Returns:
        (distance, plan): the distance is sqrt of the minimal coupling cost.

    Raises:
        DimensionMismatch: ambient dimensions differ.
        SizeCapExceeded: n*m above the cap; caller must subsample.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} vs {b.dim}")
    n, m = a.n, b.n
    if n * m > cap:
        raise SizeCapExceeded(
            f"exact OT needs {n * m} entries (cap {cap})", required=n * m, cap=cap
        )
    d2 = sqdist_matrix(a.points, b.points)
    if n == m:
        # scipy.optimize loads on first use: only this oracle needs it, and
        # at import it would add ~22 MB and ~0.23 s to every `import wfw`.
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(d2)
        w = np.zeros((n, m))
        w[rows, cols] = 1.0 / n
        cost = float(d2[rows, cols].sum() / n)
    else:
        w, cost = _lp_transport(d2, n, m)
    plan = TransportPlan(w, a, b)
    return math.sqrt(max(cost, 0.0)), plan


def _lp_transport(d2, n, m):
    # Equality-constrained LP over vec(w); marginal constraints are
    # rank-deficient by one, so drop the last column constraint.
    # Sparse, so memory grows with the 2nm nonzeros, not (n+m-1) * nm.
    from scipy import sparse
    from scipy.optimize import linprog

    c = d2.ravel()
    a_rows = sparse.kron(sparse.eye(n), np.ones((1, m)))
    a_cols = sparse.kron(np.ones((1, n)), sparse.eye(m - 1, m))
    a_eq = sparse.vstack([a_rows, a_cols], format="csc")
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m - 1, 1.0 / m)])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    w = np.maximum(res.x.reshape(n, m), 0.0)
    # Rescale marginals exactly to kill solver roundoff before validation.
    w *= (1.0 / n) / np.maximum(w.sum(axis=1, keepdims=True), 1e-300)
    return w, float(np.sum(w * d2))


def mean_squared_gradient(cloud, g):
    """(1/n) sum ||grad(x_i)||^2; NonFiniteIterate if it leaves the finite range."""
    with np.errstate(over="ignore", invalid="ignore"):
        grads = g.grad_many(cloud.points)
        m2 = float(np.mean(np.sum(grads**2, axis=1)))
    if not math.isfinite(m2):
        raise NonFiniteIterate(
            f"squared gradient norm left the finite range on {cloud.n} atoms",
            active=cloud.n,
        )
    return m2


def mean_squared_gradient_norm(cloud, g):
    """L2(mu) norm of a gradient field: sqrt((1/n) sum ||grad(x_i)||^2)."""
    return math.sqrt(mean_squared_gradient(cloud, g))


def save_csv(cloud, path, header=False):
    """Write one row per particle, d numeric columns."""
    hdr = ",".join(f"x{i}" for i in range(cloud.dim)) if header else ""
    np.savetxt(path, cloud.points, delimiter=",", header=hdr, comments="")


def load_csv(path, header=False):
    """Read a cloud written by save_csv (or any d-column numeric CSV)."""
    pts = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    return ParticleCloud(pts)
