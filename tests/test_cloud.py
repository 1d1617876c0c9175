"""Particle-cloud container, exact transport, and geodesic tests."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

# `wfw.cloud` loads scipy.optimize on first use.  Loading it here keeps that
# one-time import out of the tracemalloc window below, which bounds the LP's
# own allocations.
import scipy.optimize  # noqa: F401
from hypothesis import given, settings
from hypothesis import strategies as st

from wfw.cloud import (
    ParticleCloud,
    TransportPlan,
    geodesic_point,
    load_csv,
    mean_squared_gradient_norm,
    save_csv,
    wasserstein2_exact,
)
from wfw.errors import DimensionMismatch, SizeCapExceeded, TOutOfRange
from wfw.registry import linear, quadratic


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
        assert cloud.n == 3 and cloud.dim == 1

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

    def test_second_moment(self):
        pts = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert ParticleCloud(pts).second_moment() == pytest.approx(12.5)

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = ParticleCloud(rng.normal(size=(6, 3)))
        path = tmp_path / "cloud.csv"
        save_csv(cloud, path)
        back = load_csv(path)
        np.testing.assert_allclose(back.points, cloud.points, rtol=0, atol=0)


class TestTransportPlan:
    def test_rejects_bad_marginals(self):
        a = ParticleCloud(np.zeros((2, 1)))
        b = ParticleCloud(np.ones((2, 1)))
        weights = np.array([[0.5, 0.0], [0.0, 0.4]])
        with pytest.raises(ValueError):
            TransportPlan(weights, a, b)

    def test_cost_of_identity_coupling(self):
        a = ParticleCloud(np.array([[0.0], [1.0]]))
        b = ParticleCloud(np.array([[0.0], [2.0]]))
        plan = TransportPlan(np.diag([0.5, 0.5]), a, b)
        assert plan.cost() == pytest.approx(0.5)


class TestExactTransport:
    def test_matches_permutation_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 4))
            a = ParticleCloud(rng.normal(size=(n, d)))
            b = ParticleCloud(rng.normal(size=(n, d)))
            dist, plan = wasserstein2_exact(a, b)
            assert dist == pytest.approx(_brute_force_w2(a, b), abs=1e-9)
            assert plan.cost() == pytest.approx(dist**2, abs=1e-12)

    def test_unequal_sizes_against_lp_structure(self):
        rng = np.random.default_rng(1)
        a = ParticleCloud(rng.normal(size=(4, 2)))
        b = ParticleCloud(rng.normal(size=(6, 2)))
        dist, plan = wasserstein2_exact(a, b)
        assert plan.weights.shape == (4, 6)
        np.testing.assert_allclose(plan.weights.sum(axis=1), 1 / 4, atol=1e-9)
        np.testing.assert_allclose(plan.weights.sum(axis=0), 1 / 6, atol=1e-9)
        assert dist >= 0.0

    def test_unequal_sizes_never_hold_a_dense_constraint_matrix(self):
        """Peak memory of the LP path stays below the (n+m-1) x nm float
        matrix a dense build of its marginal constraints would take."""
        rng = np.random.default_rng(3)
        n, m = 60, 59
        a = ParticleCloud(rng.normal(size=(n, 2)))
        b = ParticleCloud(rng.normal(size=(m, 2)))
        tracemalloc.start()
        try:
            dist, _ = wasserstein2_exact(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist > 0.0
        assert peak < (n + m - 1) * n * m * 8

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

    def test_size_cap(self):
        a = ParticleCloud(np.zeros((3, 1)))
        b = ParticleCloud(np.zeros((4, 1)))
        with pytest.raises(SizeCapExceeded):
            wasserstein2_exact(a, b, cap=10)


class TestGeodesic:
    def test_endpoints(self):
        rng = np.random.default_rng(4)
        a = ParticleCloud(rng.normal(size=(4, 2)))
        b = ParticleCloud(rng.normal(size=(4, 2)))
        _, plan = wasserstein2_exact(a, b)
        start = geodesic_point(plan, 0.0)
        end = geodesic_point(plan, 1.0)
        d0, _ = wasserstein2_exact(start, a)
        d1, _ = wasserstein2_exact(end, b)
        assert d0 == pytest.approx(0.0, abs=1e-12)
        assert d1 == pytest.approx(0.0, abs=1e-12)

    def test_constant_speed(self):
        """W2(mu_t, mu_s) = |t - s| * W2(mu_0, mu_1) along the path."""
        rng = np.random.default_rng(5)
        a = ParticleCloud(rng.normal(size=(5, 2)))
        b = ParticleCloud(rng.normal(size=(5, 2)))
        dist, plan = wasserstein2_exact(a, b)
        for t, s in ((0.25, 0.75), (0.0, 0.4), (0.3, 1.0)):
            mt = geodesic_point(plan, t)
            ms = geodesic_point(plan, s)
            dts, _ = wasserstein2_exact(mt, ms)
            assert dts == pytest.approx(abs(t - s) * dist, abs=1e-9)

    def test_unequal_sizes_interpolate(self):
        rng = np.random.default_rng(6)
        a = ParticleCloud(rng.normal(size=(2, 1)))
        b = ParticleCloud(rng.normal(size=(3, 1)))
        dist, plan = wasserstein2_exact(a, b)
        mid = geodesic_point(plan, 0.5)
        da, _ = wasserstein2_exact(mid, a)
        db, _ = wasserstein2_exact(mid, b)
        assert da == pytest.approx(0.5 * dist, abs=1e-9)
        assert db == pytest.approx(0.5 * dist, abs=1e-9)

    def test_t_out_of_range(self):
        a = ParticleCloud(np.zeros((2, 1)))
        _, plan = wasserstein2_exact(a, a)
        with pytest.raises(TOutOfRange):
            geodesic_point(plan, 1.5)

    def test_output_cap(self):
        rng = np.random.default_rng(7)
        a = ParticleCloud(rng.normal(size=(7, 1)))
        b = ParticleCloud(rng.normal(size=(11, 1)))
        _, plan = wasserstein2_exact(a, b)
        with pytest.raises(SizeCapExceeded):
            geodesic_point(plan, 0.5, cap=10)


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
