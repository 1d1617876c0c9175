"""The package's public surface: what `wfw.__all__` names, and what it no longer has."""

import pytest

import wfw

# Deleted with their tests: no gate, CLI command, experiment runner or
# benchmark reached them.
_DELETED = ("geodesic_point", "make_kernel", "sinkhorn_dual", "smoothness_probe")


def test_all_resolves_once_and_deleted_names_are_gone():
    assert len(set(wfw.__all__)) == len(wfw.__all__)
    assert [name for name in wfw.__all__ if not hasattr(wfw, name)] == []
    for name in _DELETED:
        with pytest.raises(ImportError):
            exec(f"from wfw import {name}", {})
