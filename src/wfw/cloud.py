"""Particle clouds and exact desk-scale optimal transport.

A cloud is a uniform empirical measure: n points in R^d, each carrying mass
1/n.  Everything downstream (functionals, prox solves, the outer loop) only
ever touches measures through this representation.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyCloud, NonFiniteIterate, SizeCapExceeded

#: Hard cap on n*n for the exact transport solve.
EXACT_OT_CAP = 10**6


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
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("cloud needs an (n, d) array with n >= 1 and d >= 1")
        if not np.isfinite(pts).all():
            raise ValueError("cloud coordinates must be finite")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def adopt(cls, points):
        """A cloud on `points` itself, made read-only, neither checked nor
        copied: only for a finite (n, d) float64 array that owns its data
        and that nothing writes to after, such as a step's prox images."""
        points.setflags(write=False)
        cloud = object.__new__(cls)
        object.__setattr__(cloud, "points", points)
        return cloud

    @property
    def n(self):
        return self.points.shape[0]


class CloudMemo:
    """fn(points), computed once per cloud: a one-entry memo keyed on array identity.

    Only a read-only array that owns its data (every `ParticleCloud`'s
    points) is remembered (`keeps`): it cannot change under the memo, and
    holding it keeps its identity from passing to another array.  Any other
    array may change between calls, so fn runs afresh on it and the entry
    is kept.
    """

    def __init__(self, fn):
        self._fn = fn
        self._key = self._value = None

    @staticmethod
    def keeps(points):
        """Whether fn(points), once computed, becomes the remembered entry."""
        return not points.flags.writeable and points.flags.owndata

    def seed(self, points, value):
        """Remember `value` as fn(points), where the memo keeps `points`;
        fn is then never called on them.  Any other array is left out."""
        if self.keeps(points):
            self._key, self._value = points, value

    def get(self, points):
        """The remembered fn(points), or None where a call would compute it."""
        return self._value if points is self._key and not points.flags.writeable else None

    def __call__(self, points):
        value = self.get(points)
        if value is None:
            value = self._fn(points)
            self.seed(points, value)
        return value


def row_sqnorm(a):
    """Squared Euclidean norm of each row of a 2-D array, summed left to right."""
    return np.add.reduce(a * a, axis=1)


def sqdist_matrix(x, y):
    """Pairwise squared Euclidean distances, clipped to be exactly nonnegative."""
    d2 = row_sqnorm(x)[:, None] + row_sqnorm(y)[None, :] - 2.0 * (x @ y.T)
    return np.maximum(d2, 0.0)


def wasserstein2_exact(a, b):
    """Exact 2-Wasserstein distance between two clouds of n atoms each.

    Between uniform clouds of equal size an optimal plan is a permutation,
    found by an exact assignment solve.  This is a test oracle, not a hot
    path: n*n is capped at EXACT_OT_CAP.

    Returns:
        (distance, perm): the distance is sqrt of the minimal mean squared
        displacement, attained by sending a's atom i to b's atom perm[i].

    Raises:
        DimensionMismatch: ambient dimensions or atom counts differ.
        SizeCapExceeded: n*n above EXACT_OT_CAP; caller must subsample.
    """
    if a.points.shape != b.points.shape:
        raise DimensionMismatch(f"clouds of shape {a.points.shape} vs {b.points.shape}")
    n = a.n
    if n * n > EXACT_OT_CAP:
        raise SizeCapExceeded(
            f"exact OT needs {n * n} entries (cap {EXACT_OT_CAP})",
            required=n * n,
            cap=EXACT_OT_CAP,
        )
    # scipy.optimize loads on first use: only this oracle needs it, and at
    # import it would add ~22 MB and ~0.23 s to every `import wfw`.
    from scipy.optimize import linear_sum_assignment

    d2 = sqdist_matrix(a.points, b.points)
    rows, cols = linear_sum_assignment(d2)
    cost = float(d2[rows, cols].sum() / n)
    return math.sqrt(max(cost, 0.0)), cols


def _sqnorms_and_mean(g):
    sq = row_sqnorm(g)
    return sq, float(np.add.reduce(sq) / g.shape[0])


#: (squared row norms, their mean) of the gradient at a cloud's atoms, taken
#: once per step for its norm pass, its dual's m2 and its prox budgets.
gradient_sqnorms = CloudMemo(_sqnorms_and_mean)


def mean_squared_gradient(cloud, g):
    """(1/n) sum ||grad(x_i)||^2; NonFiniteIterate if it leaves the finite range.

    Where a memoized gradient (as `counted_model`'s) and `gradient_sqnorms`
    both hold the cloud, as on a step's second call, nothing is computed,
    so no np.errstate is entered."""
    grad_many = g.grad_many
    grads = grad_many.get(cloud.points) if isinstance(grad_many, CloudMemo) else None
    sq = None if grads is None else gradient_sqnorms.get(grads)
    if sq is None:
        with np.errstate(over="ignore", invalid="ignore"):
            sq = gradient_sqnorms(grad_many(cloud.points))
    m2 = sq[1]
    if not math.isfinite(m2):
        raise NonFiniteIterate(
            f"squared gradient norm left the finite range on {cloud.n} atoms",
            active=cloud.n,
        )
    return m2


def mean_squared_gradient_norm(cloud, g):
    """L2(mu) norm of a gradient field: sqrt((1/n) sum ||grad(x_i)||^2)."""
    return math.sqrt(mean_squared_gradient(cloud, g))


def save_csv(cloud, path):
    """Write one row per particle, d numeric columns."""
    np.savetxt(path, cloud.points, delimiter=",")


def load_csv(path):
    """Read a cloud written by save_csv (or any d-column numeric CSV); a
    file with no rows is an `EmptyCloud` error that names its path."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        pts = np.loadtxt(path, delimiter=",", ndmin=2)
    if pts.size == 0:
        raise EmptyCloud(f"cloud file {path} holds no rows", path=path)
    return ParticleCloud(pts)
