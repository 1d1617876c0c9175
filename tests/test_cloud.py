"""Particle-cloud container and exact transport tests."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfw.cloud import (
    EXACT_OT_CAP,
    ParticleCloud,
    load_csv,
    mean_squared_gradient,
    mean_squared_gradient_norm,
    row_sqnorm,
    save_csv,
    wasserstein2_exact,
)
from wfw.errors import DimensionMismatch, NonFiniteIterate, SizeCapExceeded
from wfw.functionals import EntropicDeconv
from wfw.registry import linear, make_objective, quadratic


def test_import_loads_no_scipy():
    """scipy loads with the exact-OT oracle, not with the package: at import
    it adds ~22 MB and ~0.23 s to every `import wfw`.  A fresh interpreter
    shows it, since this one has loaded scipy already."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, wfw; print(sorted(m for m in sys.modules if 'scipy' in m))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _brute_force_w2(a, b):
    """Minimal mean squared displacement over atom permutations."""
    n = a.n
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = float(np.mean(np.sum((a.points - b.points[list(perm)]) ** 2, axis=1)))
        best = min(best, cost)
    return math.sqrt(best)


class TestParticleCloud:
    def test_promotes_1d_to_column(self):
        cloud = ParticleCloud(np.array([1.0, 2.0, 3.0]))
        assert cloud.points.shape == (3, 1)
        assert cloud.n == 3

    def test_points_are_frozen_copies(self):
        raw = np.zeros((4, 2))
        cloud = ParticleCloud(raw)
        raw[0, 0] = 7.0
        assert cloud.points[0, 0] == 0.0
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ParticleCloud(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0)], ids=["n=0", "d=0"])
    def test_rejects_an_empty_shape(self, shape):
        with pytest.raises(ValueError, match="n >= 1 and d >= 1"):
            ParticleCloud(np.zeros(shape))

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = ParticleCloud(rng.normal(size=(6, 3)))
        path = tmp_path / "cloud.csv"
        save_csv(cloud, path)
        back = load_csv(path)
        np.testing.assert_allclose(back.points, cloud.points, rtol=0, atol=0)


class TestExactTransport:
    def test_matches_permutation_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 4))
            a = ParticleCloud(rng.normal(size=(n, d)))
            b = ParticleCloud(rng.normal(size=(n, d)))
            dist, perm = wasserstein2_exact(a, b)
            assert dist == pytest.approx(_brute_force_w2(a, b), abs=1e-9)
            cost = float(np.mean(row_sqnorm(a.points - b.points[perm])))
            assert cost == pytest.approx(dist**2, abs=1e-12)

    def test_identity(self):
        cloud = ParticleCloud(np.arange(8.0).reshape(4, 2))
        dist, _ = wasserstein2_exact(cloud, cloud)
        assert dist == pytest.approx(0.0, abs=1e-12)

    def test_translation_shifts_distance(self):
        """W2 between a cloud and its translate is the translation norm."""
        rng = np.random.default_rng(2)
        a = ParticleCloud(rng.normal(size=(5, 3)))
        shift = np.array([1.0, -2.0, 0.5])
        b = ParticleCloud(a.points + shift)
        dist, _ = wasserstein2_exact(a, b)
        assert dist == pytest.approx(np.linalg.norm(shift), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        a = ParticleCloud(rng.normal(size=(n, 2)))
        b = ParticleCloud(rng.normal(size=(n, 2)))
        c = ParticleCloud(rng.normal(size=(n, 2)))
        dab, _ = wasserstein2_exact(a, b)
        dbc, _ = wasserstein2_exact(b, c)
        dac, _ = wasserstein2_exact(a, c)
        assert dac <= dab + dbc + 1e-9

    def test_dimension_mismatch(self):
        a = ParticleCloud(np.zeros((2, 2)))
        b = ParticleCloud(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            wasserstein2_exact(a, b)

    def test_unequal_atom_counts(self):
        a = ParticleCloud(np.zeros((3, 2)))
        b = ParticleCloud(np.zeros((4, 2)))
        with pytest.raises(DimensionMismatch, match=r"\(3, 2\) vs \(4, 2\)"):
            wasserstein2_exact(a, b)

    def test_size_cap(self):
        """1,001 atoms need 1,002,001 > EXACT_OT_CAP entries: refused before
        any n x n array is built."""
        a = ParticleCloud(np.zeros((1001, 1)))
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapExceeded) as info:
                wasserstein2_exact(a, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.n * a.n * 8
        assert (info.value.required, info.value.cap) == (1001**2, EXACT_OT_CAP)


def test_row_sqnorm_has_the_bits_of_the_sum_of_squares():
    """numpy reduces each row left to right either way, so the one helper
    gives np.sum(a**2, axis=1) bit for bit at every width."""
    rng = np.random.default_rng(0)
    for d in [*range(1, 17), 33, 100]:
        a = rng.normal(size=(40, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(40, 1))
        assert row_sqnorm(a).tobytes() == np.sum(a**2, axis=1).tobytes()


class TestGradientNorm:
    def test_linear_field_is_constant(self):
        a = np.array([0.6, -0.8])
        cloud = ParticleCloud(np.random.default_rng(8).normal(size=(9, 2)))
        norm = mean_squared_gradient_norm(cloud, linear(a))
        assert norm == pytest.approx(1.0, rel=1e-12)

    def test_quadratic_field_equals_rms_radius(self):
        pts = np.array([[1.0, 0.0], [0.0, 2.0], [-2.0, 1.0]])
        cloud = ParticleCloud(pts)
        expected = math.sqrt(float(np.mean(np.sum(pts**2, axis=1))))
        assert mean_squared_gradient_norm(cloud, quadratic()) == pytest.approx(expected)

    def test_norm_is_the_root_of_the_mean_square(self):
        """Bit for bit the norm taken in one numpy expression: math.sqrt
        rounds the mean square the same way, so s keeps its trace digits."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cloud = ParticleCloud(rng.normal(size=(int(rng.integers(1, 30)), 3)))
            grads = make_objective("double-well").grad_many(cloud.points)
            want = float(np.sqrt(np.mean(np.sum(grads**2, axis=1))))
            assert mean_squared_gradient_norm(cloud, make_objective("double-well")) == want
            assert math.sqrt(mean_squared_gradient(cloud, make_objective("double-well"))) == want

    @pytest.mark.parametrize(
        "field, scale", [("double-well", 1e103), ("double-well", 1e160), ("deconv", 1e160)]
    )
    def test_overflowing_field_raises_a_typed_error(self, field, scale):
        """The field (double-well at 1e103) or its square (1e160) overflows:
        NonFiniteIterate with the atom count, not a numpy warning."""
        rng = np.random.default_rng(3)
        if field == "deconv":
            J = EntropicDeconv(0.25, ParticleCloud(rng.normal(size=(6, 2))))
            g = J.derivative_oracle(ParticleCloud(rng.normal(size=(5, 2))), 1e-9)
        else:
            g = make_objective("double-well")
        cloud = ParticleCloud([[0.5, 0.0], [scale, 0.0]])
        for norm in (mean_squared_gradient, mean_squared_gradient_norm):
            with pytest.raises(NonFiniteIterate) as info:
                norm(cloud, g)
            assert info.value.active == 2
