"""The package's public surface: what `wfw.__all__` names, and what it no longer has."""

import dataclasses
import inspect

import pytest

import wfw
from wfw import cloud, frank_wolfe, functionals, moreau, registry

# Deleted with their tests: no gate, CLI command, experiment runner or
# benchmark reached them.  The pair-potential class and its builders went
# when pair terms became even `SmoothObjective`s of x - y; the one-row prox
# and its result type went beside `agd_prox_batch`, which takes one row;
# the Gram kernels went when MMD kept only its feature-space arithmetic; the
# transport plan class went with the LP for clouds of unequal size.
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
)


def test_all_resolves_once_and_deleted_names_are_gone():
    assert len(set(wfw.__all__)) == len(wfw.__all__)
    assert [name for name in wfw.__all__ if not hasattr(wfw, name)] == []
    for name in _DELETED:
        with pytest.raises(ImportError):
            exec(f"from wfw import {name}", {})
        for module in (cloud, frank_wolfe, functionals, moreau, registry):
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
