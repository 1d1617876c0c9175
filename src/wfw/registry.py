"""Named builders for the built-in potentials.

The CLI resolves `--objective` and `--pair` flags here, from one table: a
pair term w(x, y) = W(x - y) is the named objective W, and every one of
them is even.  Tests use the same builders so closed-form constants live
in exactly one place.
"""

import numpy as np

from .cloud import row_sqnorm
from .moreau import SmoothObjective


def quadratic():
    """v(x) = (1/2)||x||^2 — convex, gradient Lipschitz constant 1."""
    return SmoothObjective(
        eval_many=lambda x: 0.5 * row_sqnorm(x),
        grad_many=lambda x: x,
        smoothness=1.0,
        semiconvexity=0.0,
    )


def double_well():
    """v(x) = (1/4)(||x||^2 - 1)^2 — semiconvexity 1; smoothness bound on ||x|| <= 2."""
    return SmoothObjective(
        eval_many=lambda x: 0.25 * (row_sqnorm(x) - 1.0) ** 2,
        grad_many=lambda x: (row_sqnorm(x) - 1.0)[:, None] * x,
        smoothness=11.0,
        semiconvexity=1.0,
    )


def zero():
    """v identically 0."""
    return SmoothObjective(
        eval_many=lambda x: np.zeros(x.shape[0]),
        grad_many=np.zeros_like,
        smoothness=0.0,
        semiconvexity=0.0,
    )


def linear(a):
    """v(x) = a . x — the workhorse of the closed-form solver tests."""
    a = np.asarray(a, dtype=np.float64)
    return SmoothObjective(
        eval_many=lambda x: x @ a,
        grad_many=lambda x: np.broadcast_to(a, x.shape).copy(),
        smoothness=0.0,
        semiconvexity=0.0,
    )


OBJECTIVES = {
    "quadratic": quadratic,
    "double-well": double_well,
    "zero": zero,
}

_REJECTED = ("kl", "f-divergence", "f-div", "chi2", "tv")


def _build(kind, name):
    if name in _REJECTED:
        raise ValueError(f"divergence-type {kind}s are not supported: {name!r}")
    if name not in OBJECTIVES:
        raise ValueError(f"unknown {kind} {name!r}; choose from {sorted(OBJECTIVES)}")
    return OBJECTIVES[name]()


def make_objective(name):
    return _build("objective", name)


def make_pair(name):
    """The pair term w(x, y) = W(x - y) for the named objective W: an even
    `SmoothObjective` of the difference, as `PotentialInteraction` takes it."""
    return _build("pair potential", name)
