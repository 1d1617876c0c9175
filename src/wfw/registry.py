"""Named builders for the built-in potentials and pair interactions.

The CLI resolves `--objective`/`--pair` flags here; tests use the same
builders so closed-form constants live in exactly one place.
"""

import numpy as np

from .functionals import PairPotential
from .moreau import SmoothObjective


def quadratic():
    """v(x) = (1/2)||x||^2 — convex, gradient Lipschitz constant 1."""
    return SmoothObjective(
        eval_many=lambda x: 0.5 * np.sum(x**2, axis=1),
        grad_many=lambda x: x,
        smoothness=1.0,
        semiconvexity=0.0,
    )


def double_well():
    """v(x) = (1/4)(||x||^2 - 1)^2 — semiconvexity 1; smoothness bound on ||x|| <= 2."""
    return SmoothObjective(
        eval_many=lambda x: 0.25 * (np.sum(x**2, axis=1) - 1.0) ** 2,
        grad_many=lambda x: (np.sum(x**2, axis=1) - 1.0)[:, None] * x,
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


def pair_quadratic():
    """w(x, y) = (1/2)||x - y||^2."""
    return PairPotential(
        eval=lambda x, y: 0.5 * np.sum((x - y) ** 2, axis=-1),
        grad_x=lambda x, y: x - y,
        smoothness=1.0,
        semiconvexity=0.0,
    )


def pair_double_well():
    """w(x, y) = (1/4)(||x - y||^2 - 1)^2; smoothness bound on ||x - y|| <= 2."""

    def _eval(x, y):
        return 0.25 * (np.sum((x - y) ** 2, axis=-1) - 1.0) ** 2

    def _grad_x(x, y):
        d = x - y
        return (np.sum(d**2, axis=-1) - 1.0)[..., None] * d

    return PairPotential(
        eval=_eval,
        grad_x=_grad_x,
        smoothness=11.0,
        semiconvexity=1.0,
    )


def pair_zero():
    """w identically 0."""
    return PairPotential(
        eval=lambda x, y: np.zeros(np.broadcast_shapes(x.shape, y.shape)[:-1]),
        grad_x=lambda x, y: np.zeros(np.broadcast_shapes(x.shape, y.shape)),
        smoothness=0.0,
        semiconvexity=0.0,
    )


OBJECTIVES = {
    "quadratic": quadratic,
    "double-well": double_well,
    "zero": zero,
}

PAIRS = {
    "quadratic": pair_quadratic,
    "double-well": pair_double_well,
    "zero": pair_zero,
}

_REJECTED = ("kl", "f-divergence", "f-div", "chi2", "tv")


def _build(table, kind, name):
    if name in _REJECTED:
        raise ValueError(f"divergence-type {kind}s are not supported: {name!r}")
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}; choose from {sorted(table)}")
    return table[name]()


def make_objective(name):
    return _build(OBJECTIVES, "objective", name)


def make_pair(name):
    return _build(PAIRS, "pair potential", name)
