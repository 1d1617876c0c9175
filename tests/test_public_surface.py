"""The package's public surface: what `wfw.__all__` names, what it no longer
has, what context its typed errors carry and which parameters it refuses."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import wfw
from wfw import cloud, dual_solvers, errors, frank_wolfe, functionals, moreau, registry

# Deleted with their tests: no gate, CLI command, experiment runner or
# benchmark reached them.  The pair-potential class and its builders went
# when pair terms became even `SmoothObjective`s of x - y; the one-row prox
# and its result type went beside `agd_prox_batch`, which takes one row;
# the Gram kernels went when MMD kept only its feature-space arithmetic; the
# transport plan class went with the LP for clouds of unequal size; the
# free-lam gap oracle and its infeasibility error went because the search
# returns only passes with h <= 0, which lie inside the ball.  The pair
# broadcast went, with the per-name builders and their table, when every
# named potential became a row of radial quartics whose pair means are
# closed-form polynomials in the cloud's moments: the (rows, atoms, d)
# differences cost O(rows n d) memory that no cap bounded.
_DELETED = (
    "geodesic_point",
    "make_kernel",
    "sinkhorn_dual",
    "smoothness_probe",
    "PairPotential",
    "PAIRS",
    "pair_double_well",
    "pair_quadratic",
    "pair_zero",
    "agd_prox",
    "ProxResult",
    "GaussianKernel",
    "InverseMultiquadricKernel",
    "TransportPlan",
    "primal_dual_gap",
    "InfeasiblePrimal",
    "_pairwise",
    "OBJECTIVES",
    "double_well",
    "zero",
)


def test_all_resolves_once_and_deleted_names_are_gone():
    assert len(set(wfw.__all__)) == len(wfw.__all__)
    assert [name for name in wfw.__all__ if not hasattr(wfw, name)] == []
    for name in _DELETED:
        with pytest.raises(ImportError):
            exec(f"from wfw import {name}", {})
        for module in (cloud, dual_solvers, errors, frank_wolfe, functionals, moreau, registry):
            assert not hasattr(module, name)


def test_trust_region_search_takes_no_sampling_arguments():
    """One full-batch search: no failure probability, generator or
    sampled-path switch, since the search draws nothing."""
    signatures = {
        name: str(inspect.signature(getattr(wfw, name)))
        for name in ("trust_region_step", "primal_dual_bisection")
    }
    assert signatures == {
        "trust_region_step": "(f, mu, delta, eps, root_hint=None)",
        "primal_dual_bisection": "(f, mu, penalty, eps, root_hint=None)",
    }


def test_exact_transport_takes_two_clouds():
    """Equal-size clouds only, capped at EXACT_OT_CAP: no cap argument."""
    assert str(inspect.signature(wfw.wasserstein2_exact)) == "(a, b)"


def test_outer_loop_keeps_one_iterate():
    """The moved cloud is the step's image of each atom; no flag resamples it."""
    assert str(inspect.signature(wfw.run_frank_wolfe)) == "(J, mu0, cfg, on_iterate=None)"


def test_dual_solve_report_carries_no_sample_count():
    """`oracle_calls` times the atom count was all `samples_drawn` could say."""
    names = [field.name for field in dataclasses.fields(wfw.DualSolveReport)]
    assert "samples_drawn" not in names and "oracle_calls" in names


# Each typed error and the context names it declares, in declaration order.
_CONTEXT = {
    errors.DimensionMismatch: (),
    errors.SizeCapExceeded: ("required", "cap"),
    errors.SinkhornNotConverged: ("marginal_error", "iterations"),
    errors.NonFiniteDual: (),
    errors.LambdaTooSmall: (),
    errors.NonFiniteIterate: ("lam", "step", "active"),
    errors.ProxNotCertified: ("lam", "step", "active"),
    errors.KCapExceeded: ("required", "cap"),
    errors.RegularizationTooWeak: ("max_admissible",),
    errors.IntervalEmpty: (),
    errors.DeltaTooLarge: ("admissible",),
    errors.RadiusOutOfRange: ("delta", "lam_hat", "eps"),
    errors.GapNotCertified: ("lam", "gap", "eps"),
    errors.WeakDualityViolated: ("gap", "primal", "dual"),
    errors.EmptyCloud: ("path",),
    errors.MissingColumn: (),
}


def test_every_typed_error_is_listed():
    assert set(errors.WfwError.__subclasses__()) == set(_CONTEXT)


@pytest.mark.parametrize("cls", list(_CONTEXT), ids=lambda cls: cls.__name__)
def test_typed_error_takes_only_its_declared_context(cls):
    """One constructor: declared names default to None, passed ones are
    set, and a name the class does not declare, even one another class
    declares, is a TypeError."""
    names = _CONTEXT[cls]
    bare = cls("message")
    assert str(bare) == "message" and bare.args == ("message",)
    assert [getattr(bare, name) for name in names] == [None] * len(names)
    full = cls("message", **{name: i for i, name in enumerate(names)})
    assert [getattr(full, name) for name in names] == list(range(len(names)))
    for stray in ("undeclared", "lam" if "cap" in names else "cap"):
        with pytest.raises(TypeError, match=f"{cls.__name__} carries no context {stray!r}"):
            cls("message", **{stray: 1})


def _smooth(smoothness, semiconvexity):
    return wfw.SmoothObjective(
        eval_many=lambda z: np.zeros(z.shape[0]),
        grad_many=np.zeros_like,
        smoothness=smoothness,
        semiconvexity=semiconvexity,
    )


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: wfw.PowerPenalty(math.nan), ValueError),
        (lambda: wfw.EntropicDeconv(math.nan, wfw.ParticleCloud(np.ones((2, 2)))), ValueError),
        (lambda: _smooth(1.0, math.nan), ValueError),
        (lambda: _smooth(math.nan, 0.0), ValueError),
        (
            lambda: wfw.mirror_ascent(
                registry.quadratic(),
                wfw.ParticleCloud(np.ones((3, 2))),
                wfw.TrustRegionIndicator(0.5),
                (math.nan, math.nan),
                5,
                None,
            ),
            errors.IntervalEmpty,
        ),
        (
            lambda: wfw.dual_interval(
                registry.quadratic(),
                wfw.ParticleCloud(np.ones((3, 2))),
                wfw.TrustRegionIndicator(0.5),
                c=math.nan,
            ),
            errors.IntervalEmpty,
        ),
    ],
    ids=["alpha", "sigma2", "semiconvexity", "smoothness", "interval", "dual-interval-c"],
)
def test_nan_parameters_are_refused(build, error):
    """Each check reads `not x > bound`, so NaN fails it and is named."""
    with pytest.raises(error, match="nan"):
        build()
