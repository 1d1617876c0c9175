"""The package's public surface: what `wfw.__all__` names, and what it no longer has."""

import pytest

import wfw
from wfw import frank_wolfe, functionals, moreau, registry

# Deleted with their tests: no gate, CLI command, experiment runner or
# benchmark reached them.  The pair-potential class and its builders went
# when pair terms became even `SmoothObjective`s of x - y; the one-row prox
# and its result type went beside `agd_prox_batch`, which takes one row.
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
)


def test_all_resolves_once_and_deleted_names_are_gone():
    assert len(set(wfw.__all__)) == len(wfw.__all__)
    assert [name for name in wfw.__all__ if not hasattr(wfw, name)] == []
    for name in _DELETED:
        with pytest.raises(ImportError):
            exec(f"from wfw import {name}", {})
        for module in (frank_wolfe, functionals, moreau, registry):
            assert not hasattr(module, name)
