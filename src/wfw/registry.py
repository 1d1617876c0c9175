"""Named potentials: one table of even radial quartics W(x) = a + b ||x||^2
+ c ||x||^4 with their curvature constants, resolving the CLI's
`--objective` and `--pair`: `make_objective` builds W as a `SmoothObjective`
and `make_pair` returns the row, the pair term W(x - y) of `PotentialInteraction`.
"""

from collections import namedtuple

import numpy as np

from .cloud import row_sqnorm
from .moreau import SmoothObjective

#: W(x) = a + b ||x||^2 + c ||x||^4, even, with -semiconvexity I <= grad^2 W
#: <= semiconcavity I and `smoothness` bounding both, as `SmoothObjective` has them.
RadialQuartic = namedtuple("RadialQuartic", "a b c smoothness semiconvexity semiconcavity")

RADIAL_QUARTICS = {
    "quadratic": RadialQuartic(0.0, 0.5, 0.0, 1.0, 0.0, 1.0),  # (1/2)||x||^2
    # (1/4)(||x||^2 - 1)^2: semiconvexity 1; smoothness bound on ||x|| <= 2.
    "double-well": RadialQuartic(0.25, -0.5, 0.25, 11.0, 1.0, 11.0),
    "zero": RadialQuartic(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
}
# `_potential`'s three forms: a quartic, (1/2)||x||^2 or 0.
assert all(w.c or w.a == 0.0 and w.b in (0.0, 0.5) for w in RADIAL_QUARTICS.values())


def _potential(w):
    """W as a `SmoothObjective`.  A quartic takes the vertex form c (||x||^2
    + b / 2c)^2 + W_min, free of cancellation in its well.  The quadratic
    keeps b ||x||^2 and the identity field, the cost of the rate runs' whole
    witness, and zero never squares x, which could overflow."""
    a, b, c = w.a, w.b, w.c
    if c:
        shift, floor = b / (2.0 * c), a - b * b / (4.0 * c)
        eval_many = lambda x: c * (row_sqnorm(x) + shift) ** 2 + floor
        grad_many = lambda x: (4.0 * c * (row_sqnorm(x) + shift))[:, None] * x
    elif b:
        eval_many, grad_many = (lambda x: b * row_sqnorm(x)), (lambda x: x)
    else:
        eval_many, grad_many = (lambda x: np.zeros(x.shape[0])), np.zeros_like
    return SmoothObjective(eval_many, grad_many, w.smoothness, w.semiconvexity, w.semiconcavity)


def quadratic():
    """v(x) = (1/2)||x||^2 — convex, gradient Lipschitz constant 1."""
    return make_objective("quadratic")


def linear(a):
    """v(x) = a . x — the workhorse of the closed-form solver tests."""
    a = np.asarray(a, dtype=np.float64)
    return SmoothObjective(
        eval_many=lambda x: x @ a,
        grad_many=lambda x: np.broadcast_to(a, x.shape).copy(),
        smoothness=0.0,
        semiconvexity=0.0,
    )


_REJECTED = ("kl", "f-divergence", "f-div", "chi2", "tv")


def _row(kind, name):
    if name in _REJECTED:
        raise ValueError(f"divergence-type {kind}s are not supported: {name!r}")
    if name not in RADIAL_QUARTICS:
        raise ValueError(f"unknown {kind} {name!r}; choose from {sorted(RADIAL_QUARTICS)}")
    return RADIAL_QUARTICS[name]


def make_objective(name):
    return _potential(_row("objective", name))


def make_pair(name):
    """The pair term w(x, y) = W(x - y) for the named W: its `RadialQuartic`
    row, as `PotentialInteraction` takes it."""
    return _row("pair potential", name)
