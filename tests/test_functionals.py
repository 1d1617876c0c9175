"""Kernel, MMD, entropic-smoothing, and potential-energy tests."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from wfw import experiments, functionals
from wfw.cloud import ParticleCloud, mean_squared_gradient_norm, sqdist_matrix
from wfw.dual_solvers import trust_region_step
from wfw.errors import NonFiniteDual, SinkhornNotConverged, SizeCapExceeded, WfwError
from wfw.experiments import ExperimentConfig, run_mmd_flow
from wfw.functionals import (
    SINKHORN_CAP,
    EntropicDeconv,
    MMDSquared,
    PotentialInteraction,
    RandomFeatureKernel,
    _entropic_solve,
)
from wfw.registry import RADIAL_QUARTICS, make_objective, make_pair, quadratic


def _kernel():
    return RandomFeatureKernel(0.5 * np.random.default_rng(0).standard_normal((16, 2)))


_KERNEL = pytest.mark.parametrize("kernel", [_kernel()], ids=["random-feature"])


def _gram(kernel, a, b):
    """The reference Gram matrix K = phi(a) phi(b)^T / B."""
    return kernel.features(a) @ kernel.features(b).T / kernel.table.shape[0]


def _mean_grad(kernel, a, z):
    """Rows: (1/|a|) sum_i grad_z k(a_i, z_row), the feature gradient
    against the mean of phi(a) / B."""
    w = kernel.features(a).mean(axis=0)
    return ((1.0 - kernel.features(z) ** 2) * w) @ kernel.table / kernel.table.shape[0]


def _k(kernel, x, y):
    """k(x, y) for two points, through the reference Gram matrix."""
    return float(_gram(kernel, x[None, :], y[None, :])[0, 0])


def _grad_k(kernel, x, y):
    """grad_x k(x, y) for two points, through the reference mean gradient."""
    return _mean_grad(kernel, y[None, :], x[None, :])[0]


class TestKernels:
    @pytest.mark.parametrize(
        "build, says",
        [
            (lambda: RandomFeatureKernel(np.ones(3)), "feature table must be"),
            (lambda: EntropicDeconv(0.0, ParticleCloud(np.zeros((2, 2)))), "sigma2"),
        ],
        ids=["random-feature", "deconv"],
    )
    def test_rejects_bad_parameters(self, build, says):
        with pytest.raises(ValueError, match=says):
            build()

    @pytest.mark.parametrize(
        "table",
        [[[1e200, 0.0], [0.5, 0.5]], [[1.3e154, 0.0], [0.0, 1.3e154]]],
        ids=["row-norm", "mean"],
    )
    def test_rejects_a_table_whose_squared_row_norms_overflow(self, table):
        """A squared row norm (1e400) or the sum of two (3.4e308) past the
        float range leaves no finite bound: the kernel refuses the table by
        name, with no numpy RuntimeWarning (an error under this suite)."""
        with pytest.raises(ValueError, match="^table: .* inf, not finite"):
            RandomFeatureKernel(np.array(table))

    @_KERNEL
    def test_symmetry(self, kernel):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x, y = rng.normal(size=(2, 2))
            assert _k(kernel, x, y) == pytest.approx(_k(kernel, y, x), rel=1e-12)

    @_KERNEL
    def test_gram_psd(self, kernel):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(12, 2))
        gram = _gram(kernel, pts, pts)
        np.testing.assert_allclose(gram, gram.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-9

    @_KERNEL
    def test_grad_matches_finite_differences(self, kernel):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(2, 2))
        g = _grad_k(kernel, x, y)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (_k(kernel, x + e, y) - _k(kernel, x - e, y)) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=1e-5)

    @_KERNEL
    def test_grad_lipschitz_bound_on_samples(self, kernel):
        """|grad_x k(x,y) - grad_x k(x',y)| <= L |x-x'| on random pairs."""
        rng = np.random.default_rng(4)
        for _ in range(40):
            y = rng.normal(size=2)
            x1 = rng.normal(size=2)
            x2 = x1 + 0.05 * rng.normal(size=2)
            lhs = np.linalg.norm(_grad_k(kernel, x1, y) - _grad_k(kernel, x2, y))
            assert lhs <= kernel.grad_lipschitz * np.linalg.norm(x1 - x2) * (1 + 1e-6)

    def test_random_feature_matches_feature_dot(self):
        table = 0.4 * np.random.default_rng(5).standard_normal((8, 3))
        k = RandomFeatureKernel(table)
        x, y = np.random.default_rng(6).normal(size=(2, 3))
        expected = float(np.mean(np.tanh(table @ x) * np.tanh(table @ y)))
        assert _k(k, x, y) == pytest.approx(expected, rel=1e-12)


_clouds = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(1, 12),  # n
    st.integers(1, 12),  # m
    st.integers(1, 4),  # d
)


class TestMMDSquared:
    def test_value_is_v_statistic(self):
        rng = np.random.default_rng(7)
        X = ParticleCloud(rng.normal(size=(6, 2)))
        Y = ParticleCloud(rng.normal(size=(5, 2)))
        k = _kernel()
        J = MMDSquared(k, Y)
        kxx = _gram(k, X.points, X.points).mean()
        kyy = _gram(k, Y.points, Y.points).mean()
        kxy = _gram(k, X.points, Y.points).mean()
        assert J.value(X) == pytest.approx(kxx + kyy - 2 * kxy, rel=1e-12)

    def test_zero_at_target(self):
        rng = np.random.default_rng(8)
        Y = ParticleCloud(rng.normal(size=(7, 2)))
        J = MMDSquared(_kernel(), Y)
        assert J.value(Y) == pytest.approx(0.0, abs=1e-12)
        assert J.value(ParticleCloud(Y.points + 1.0)) > 0.0

    @_KERNEL
    def test_first_order_expansion(self, kernel):
        """J(mu_t) - J(mu) - t <witness grads, V> vanishes like t^2."""
        rng = np.random.default_rng(9)
        X = ParticleCloud(rng.normal(size=(8, 2)))
        Y = ParticleCloud(rng.normal(size=(6, 2)) + 0.4)
        J = MMDSquared(kernel, Y)
        model = J.derivative_oracle(X, 1e-9)
        V = rng.normal(size=X.points.shape)
        base = J.value(X)
        lin = float(np.mean(np.sum(model.grad_many(X.points) * V, axis=1)))
        rems = []
        for t in (1e-3, 5e-4, 2.5e-4):
            rem = abs(J.value(ParticleCloud(X.points + t * V)) - base - t * lin)
            rems.append(rem / t)
        # remainder/t itself must shrink linearly with t
        assert rems[2] < rems[0] / 2.0
        assert rems[0] < 1e-2

    def test_oracle_constants(self):
        """Both constants are the curvature bound at the witness's own
        weights w = (2/B) (mean phi(x) - mean phi(y)): 0.7699 sum_b |w_b|
        ||t_b||^2, here with phi(0) = 0 for the target at the origin."""
        k = _kernel()
        J = MMDSquared(k, ParticleCloud(np.zeros((3, 2))))
        model = J.derivative_oracle(ParticleCloud(np.ones((4, 2))), 1e-6)
        table = k.table
        w = (2.0 / table.shape[0]) * np.tanh(table.sum(axis=1))
        expected = 0.7699 * float(np.sum(np.abs(w) * np.sum(table**2, axis=1)))
        assert model.smoothness == pytest.approx(expected, rel=1e-12)
        assert model.semiconvexity == model.smoothness
        assert model.smoothness < 4.0 * k.grad_lipschitz

    @settings(max_examples=100, deadline=None)
    @given(
        clouds=_clouds,
        features=st.integers(1, 24),
        scale=st.floats(0.05, 3.0),
        shift=st.floats(-2.0, 2.0),
    )
    def test_oracle_constants_bound_the_witness_curvature(
        self, clouds, features, scale, shift
    ):
        """Central-difference ratios |grad(z + h v) - grad(z - h v)| / 2h
        stay within the witness's smoothness, which stays within the global
        4 * grad_lipschitz; both constants are 0 at the target itself."""
        seed, n, m, d = clouds
        rng = np.random.default_rng(seed)
        kernel = RandomFeatureKernel(scale * rng.standard_normal((features, d)))
        target = ParticleCloud(rng.normal(size=(m, d)))
        J = MMDSquared(kernel, target)
        model = J.derivative_oracle(ParticleCloud(rng.normal(size=(n, d)) + shift), 1e-9)
        lips = model.smoothness
        assert model.semiconvexity == lips
        # The two sides sum the row norms in different orders: a few ulps.
        assert lips <= 4.0 * kernel.grad_lipschitz * (1.0 + 1e-12)

        z = 2.0 * rng.normal(size=(16, d))
        v = rng.normal(size=(16, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        h = 1e-4
        diff = model.grad_many(z + h * v) - model.grad_many(z - h * v)
        ratios = np.linalg.norm(diff, axis=1) / (2.0 * h)
        assert np.all(ratios <= lips * (1.0 + 1e-6))

        at_target = J.derivative_oracle(ParticleCloud(target.points), 1e-9)
        assert at_target.smoothness == at_target.semiconvexity == 0.0


def _gram_mmd(kernel, x, y):
    """Reference MMD^2 and witness through Gram matrices: the V-statistic
    and the mean-gradient forms."""
    value = float(
        np.mean(_gram(kernel, x, x))
        + np.mean(_gram(kernel, y, y))
        - 2.0 * np.mean(_gram(kernel, x, y))
    )

    def eval_many(z):
        return 2.0 * (_gram(kernel, z, x).mean(axis=1) - _gram(kernel, z, y).mean(axis=1))

    def grad_many(z):
        return 2.0 * (_mean_grad(kernel, x, z) - _mean_grad(kernel, y, z))

    return value, eval_many, grad_many


class TestMMDFeatureSpace:
    @settings(max_examples=60, deadline=None)
    @given(
        clouds=_clouds,
        features=st.integers(1, 48),
        scale=st.floats(0.01, 3.0),
        rows=st.integers(1, 6),
    )
    def test_random_feature_path_matches_gram_reference(
        self, clouds, features, scale, rows
    ):
        seed, n, m, d = clouds
        rng = np.random.default_rng(seed)
        table = scale * rng.standard_normal((features, d))
        kernel = RandomFeatureKernel(table)
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0)
        y = rng.normal(size=(m, d)) + rng.uniform(-1.0, 1.0)
        z = 2.0 * rng.normal(size=(rows, d))
        J = MMDSquared(kernel, ParticleCloud(y))
        model = J.derivative_oracle(ParticleCloud(x), 1e-9)
        ref_value, ref_eval, ref_grad = _gram_mmd(kernel, x, y)

        value = J.value(ParticleCloud(x))
        assert value >= 0.0
        # Every Gram entry lies in [-1, 1], so the V-statistic's cancellation
        # error is a few ulps of 1; the gradients scale with the table rows.
        assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-14)
        np.testing.assert_allclose(model.eval_many(z), ref_eval(z), rtol=1e-12, atol=1e-14)
        grad_scale = float(np.max(np.linalg.norm(table, axis=1)))
        np.testing.assert_allclose(
            model.grad_many(z), ref_grad(z), rtol=1e-12, atol=1e-14 * grad_scale
        )

    @settings(max_examples=100, deadline=None)
    @given(
        clouds=_clouds,
        features=st.integers(1, 48),
        log_scale=st.floats(-2.0, 2.0),
        rows=st.integers(1, 6),
    )
    @example(clouds=(0, 5, 4, 2), features=16, log_scale=2.0, rows=6)
    def test_witness_gradient_matches_its_elementwise_form(
        self, clouds, features, log_scale, rows
    ):
        """grad_many(z) = w T - phi(z)^2 (diag(w) T) differs from the form
        ((1 - phi(z)^2) * w) T by at most (3B + 8) eps sum_b |w_b| ||t_b||
        in every entry, B the features and eps the float64 epsilon: each
        form rounds its B-term sums within (2B + 4) eps of that sum.  Table
        scales up to 100 saturate tanh to +-1, where 1 - phi^2 is exactly
        0 and the new form cancels w T against itself; the example does."""
        seed, n, m, d = clouds
        rng = np.random.default_rng(seed)
        table = 10.0**log_scale * rng.standard_normal((features, d))
        kernel = RandomFeatureKernel(table)
        x, y = rng.normal(size=(n, d)), rng.normal(size=(m, d)) + 0.5
        z = 2.0 * rng.normal(size=(rows, d))
        model = MMDSquared(kernel, ParticleCloud(y)).derivative_oracle(ParticleCloud(x), 1e-9)
        w = (2.0 / features) * (kernel.features(x).mean(axis=0) - kernel.features(y).mean(axis=0))
        old = ((1.0 - kernel.features(z) ** 2) * w) @ table
        bound = (3 * features + 8) * np.finfo(float).eps * float(
            np.abs(w) @ np.linalg.norm(table, axis=1)
        )
        assert np.all(np.abs(model.grad_many(z) - old) <= bound)
        if (clouds, features, log_scale, rows) == ((0, 5, 4, 2), 16, 2.0, 6):
            assert np.any(np.abs(kernel.features(z)) == 1.0)

    def test_random_feature_oracle_builds_no_gram(self):
        """The kernel has no Gram form: value and witness go through the
        feature map alone."""
        assert not hasattr(RandomFeatureKernel, "gram")
        rng = np.random.default_rng(12)
        kernel = RandomFeatureKernel(0.4 * rng.standard_normal((16, 3)))
        J = MMDSquared(kernel, ParticleCloud(rng.normal(size=(9, 3))))
        mu = ParticleCloud(rng.normal(size=(7, 3)) + 1.0)
        assert J.value(mu) > 0.0
        model = J.derivative_oracle(mu, 1e-9)
        z = rng.normal(size=(4, 3))
        assert model.eval_many(z).shape == (4,)
        assert model.grad_many(z).shape == (4, 3)

    def test_mmd_flow_baseline_maps_each_cloud_once_per_use(
        self, tmp_path, monkeypatch
    ):
        """A baseline step maps its n atoms through tanh once: J and J_val of
        the moved cloud, and the next step's witness embedding and gradient
        at the atoms, share one map.  The start cloud adds one more.  The
        spy counts the rows tanh actually maps."""
        feature_rows = {"total": 0, "baseline": 0}
        tanh = np.tanh

        def counted_tanh(x):
            feature_rows["total"] += x.shape[0]
            return tanh(x)

        flow = experiments.mmd_gradient_flow

        def counted_flow(*args, **kwargs):
            before = feature_rows["total"]
            result = flow(*args, **kwargs)
            feature_rows["baseline"] = feature_rows["total"] - before
            return result

        monkeypatch.setattr(np, "tanh", counted_tanh)
        monkeypatch.setattr(experiments, "mmd_gradient_flow", counted_flow)
        n = 6
        cfg = ExperimentConfig(
            experiment="mmd-flow",
            seed=11,
            particles=n,
            dim=2,
            eps=0.05,
            k_max=3,
            features=8,
            out=str(tmp_path / "fw.csv"),
            baseline_out=str(tmp_path / "base.csv"),
        )
        result = run_mmd_flow(cfg)
        steps = len(result["baseline_rows"])
        assert steps > 0
        assert feature_rows["baseline"] == n * (steps + 1)

    def test_next_step_maps_the_prox_images_zero_times(self, monkeypatch):
        """A step's certifying prox pass evaluates the witness on its
        images, read-only, so the kernel keeps their feature map: the cloud
        adopted on them, its values and the next witness's embedding and
        gradient at its atoms map nothing, with the bits of a fresh map."""
        rng = np.random.default_rng(22)
        table = 0.5 * rng.standard_normal((12, 3))
        kernel = RandomFeatureKernel(table)
        teacher = ParticleCloud(rng.normal(size=(9, 3)))
        J = MMDSquared(kernel, teacher)
        J_val = MMDSquared(kernel, ParticleCloud(rng.normal(size=(9, 3))))
        mu = ParticleCloud(rng.normal(size=(7, 3)) + 1.0)
        model = J.derivative_oracle(mu, 1e-9)
        s = mean_squared_gradient_norm(mu, model)
        sampler, rep = trust_region_step(model, mu, 0.25 * s / model.smoothness, 1e-6)
        assert not rep.images.flags.writeable

        maps = []
        feature_map = RandomFeatureKernel._map

        def counted(self, x):
            maps.append(x.shape[0])
            return feature_map(self, x)

        monkeypatch.setattr(RandomFeatureKernel, "_map", counted)
        nu = sampler.target_cloud()
        value, val = J.value(nu), J_val.value(nu)
        grad = J.derivative_oracle(nu, 1e-9).grad_many(nu.points)
        assert maps == []

        fresh = RandomFeatureKernel(table)
        points = nu.points.copy()
        assert value == MMDSquared(fresh, teacher).value(ParticleCloud(points))
        assert val == MMDSquared(fresh, J_val.target).value(ParticleCloud(points))
        fresh_model = MMDSquared(fresh, teacher).derivative_oracle(ParticleCloud(points), 1e-9)
        assert np.array_equal(grad, fresh_model.grad_many(points))

    def test_mean_embedding_is_taken_once_per_cloud(self, monkeypatch):
        """J.value, J_val.value and J.derivative_oracle on one cloud, under a
        shared kernel, take its column mean once, and give the same bits as
        the mean taken afresh.  A writeable array is never remembered: its
        mean follows it when it changes in place."""
        means = []
        mean = RandomFeatureKernel._mean

        def counted(self, x):
            means.append(x.shape[0])
            return mean(self, x)

        monkeypatch.setattr(RandomFeatureKernel, "_mean", counted)
        rng = np.random.default_rng(21)
        kernel = RandomFeatureKernel(0.6 * rng.standard_normal((12, 2)))
        teacher = ParticleCloud(rng.normal(size=(8, 2)))
        J = MMDSquared(kernel, teacher)
        J_val = MMDSquared(kernel, ParticleCloud(rng.normal(size=(8, 2))))
        mu = ParticleCloud(rng.normal(size=(5, 2)) + 0.5)
        assert means == [8, 8]
        value, val = J.value(mu), J_val.value(mu)
        model = J.derivative_oracle(mu, 1e-9)
        assert means == [8, 8, 5]

        phi = np.tanh(mu.points @ kernel.table.T)
        gap = phi.mean(axis=0) - np.tanh(teacher.points @ kernel.table.T).mean(axis=0)
        assert value == float(gap @ gap) / 12
        z = rng.normal(size=(3, 2))
        assert np.array_equal(model.eval_many(z), np.tanh(z @ kernel.table.T) @ ((2.0 / 12) * gap))
        assert val == J_val.value(ParticleCloud(mu.points))

        x = mu.points.copy()
        first = kernel.mean_embedding(x)
        x += 1.0
        np.testing.assert_array_equal(
            kernel.mean_embedding(x), np.tanh(x @ kernel.table.T).mean(axis=0)
        )
        assert not np.array_equal(first, kernel.mean_embedding(x))
        assert means == [8, 8, 5, 5, 5, 5, 5]
        with pytest.raises(ValueError):
            first[0] = 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        points=arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 3)),
            elements=st.floats(-2.0, 2.0),
        ),
        moves=st.lists(
            st.tuples(
                st.sampled_from(
                    ["cloud", "equal cloud", "thawed cloud", "writeable", "view"]
                ),
                st.floats(-1.0, 1.0),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_feature_map_is_never_stale(self, points, moves):
        """Whichever array comes in, and in whatever order, its map is tanh
        of its current values: a writeable array or a read-only view that
        changed in place, a new cloud, a new cloud with equal values, or a
        cloud made writeable and moved in place.  Every returned map, cached
        or not, is read-only."""
        table = 0.5 * np.random.default_rng(0).standard_normal((5, points.shape[1]))
        kernel = RandomFeatureKernel(table)
        cloud = ParticleCloud(points)
        base = points.copy()
        view = base.view()
        view.setflags(write=False)
        for kind, shift in moves:
            if kind == "cloud":
                cloud = ParticleCloud(cloud.points + shift)
            elif kind == "equal cloud":
                cloud = ParticleCloud(cloud.points)
            elif kind == "thawed cloud":
                cloud.points.setflags(write=True)
                cloud.points[...] += shift
            else:
                base += shift
            x = {"writeable": base, "view": view}.get(kind, cloud.points)
            for arr in (x, cloud.points, x):
                phi = kernel.features(arr)
                np.testing.assert_array_equal(phi, np.tanh(arr @ table.T))
                with pytest.raises(ValueError):
                    phi[0, 0] = 0.0


def _data_potential(mu, data, sigma2):
    """v, the data-side potential of the entropic transport from mu to data."""
    return _entropic_solve(mu.points, data.points, sigma2, 1e-9)[1]


class TestSinkhorn:
    def test_self_transport_gauge(self):
        """Transporting a point mass to itself yields zero potentials."""
        cloud = ParticleCloud(np.array([[0.7, -0.2]]))
        v = _data_potential(cloud, cloud, 0.5)
        np.testing.assert_allclose(v, 0.0, atol=1e-12)

    def test_translation_invariance_of_marginal_convergence(self):
        """Shifting both clouds together shifts costs but not convergence."""
        rng = np.random.default_rng(10)
        a = ParticleCloud(rng.normal(size=(6, 2)))
        b = ParticleCloud(rng.normal(size=(8, 2)))
        v1 = _data_potential(a, b, 0.3)
        shift = np.array([2.0, -1.0])
        v2 = _data_potential(
            ParticleCloud(a.points + shift), ParticleCloud(b.points + shift), 0.3
        )
        np.testing.assert_allclose(v1, v2, atol=1e-6)

    def test_potential_dimensions(self):
        rng = np.random.default_rng(11)
        a = ParticleCloud(rng.normal(size=(4, 2)))
        b = ParticleCloud(rng.normal(size=(9, 2)))
        v = _data_potential(a, b, 0.25)
        assert v.shape == (9,)


def _four_reduction_sinkhorn(x, y, sigma2, tol, max_iter):
    """The earlier Sinkhorn loop, kept as the reference: it builds the coupling
    every sweep and tests both marginals with two extra full reductions."""
    n, m = x.shape[0], y.shape[0]
    cost = 0.5 * sqdist_matrix(x, y)
    u = np.zeros(n)
    v = np.zeros(m)
    for it in range(1, max_iter + 1):
        v = -sigma2 * (logsumexp((u[:, None] - cost) / sigma2, axis=0) - math.log(n))
        u = -sigma2 * (logsumexp((v[None, :] - cost) / sigma2, axis=1) - math.log(m))
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise NonFiniteDual("dual potentials left the finite range")
        log_pi = (u[:, None] + v[None, :] - cost) / sigma2 - math.log(n) - math.log(m)
        row = np.exp(logsumexp(log_pi, axis=1))
        col = np.exp(logsumexp(log_pi, axis=0))
        err = max(
            float(np.sum(np.abs(row - 1.0 / n))), float(np.sum(np.abs(col - 1.0 / m)))
        )
        if err <= tol:
            shift = 0.5 * (float(np.mean(v)) - float(np.mean(u)))
            return u + shift, v - shift, err, it
    raise SinkhornNotConverged("reference", marginal_error=err, iterations=max_iter)


def _solve_or_iterations(solve, *args):
    """The solver's result, or the iteration count it gave up after."""
    try:
        return solve(*args)
    except SinkhornNotConverged as exc:
        return exc.iterations


def _coupling(x, y, sigma2, u, v):
    """The coupling the potentials define between the uniform clouds."""
    n, m = x.shape[0], y.shape[0]
    return np.exp((u[:, None] + v[None, :] - 0.5 * sqdist_matrix(x, y)) / sigma2) / (n * m)


def _marginal_errors(x, y, sigma2, u, v):
    """L1 row and column marginal errors of the coupling the potentials define."""
    n, m = x.shape[0], y.shape[0]
    pi = _coupling(x, y, sigma2, u, v)
    return np.abs(pi.sum(axis=1) - 1.0 / n).sum(), np.abs(pi.sum(axis=0) - 1.0 / m).sum()


class TestSinkhornSweep:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        m=st.integers(1, 12),
        dim=st.integers(1, 3),
        sigma2=st.sampled_from([0.1, 0.25, 0.5, 2.0]),
        tol=st.sampled_from([1e-6, 1e-9]),
    )
    # cost / sigma2 up to 106: the coupling is a permutation up to entries of
    # 1e-16 and 5e-43: both meet the marginals and agree on the coupling to
    # 1e-15, yet their potentials differ by 3.1 (u_1 - v_2 is nearly free).
    @example(seed=3, n=2, m=2, dim=3, sigma2=0.1, tol=1e-6)
    def test_two_reduction_sweep_matches_four_reduction_reference(
        self, seed, n, m, dim, sigma2, tol
    ):
        """Where the sweep-only reference converges within 300 sweeps, the
        solver meets tol with the same dual value mean(u) + mean(v) and
        coupling up to the reference's own O(tol) distance from the solution
        (100 tol: 1e-7 at tol 1e-9); where the reference gives up, the solver
        converges.  The marginals determine these, not each potential: where
        a coupling entry is tiny, moving u_i and v_j apart barely moves it.
        u is the exact u-update of v, so the solver's coupling has mass 1 to
        rounding, whatever its column error: the dual needs no mass term."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, dim))
        y = rng.normal(size=(m, dim)) + 0.5
        u, v, err, _, _ = _entropic_solve(x, y, sigma2, tol)
        assert err <= tol
        assert _marginal_errors(x, y, sigma2, u, v)[1] <= 2.0 * tol
        mass = float(np.sum(_coupling(x, y, sigma2, u, v)))
        assert mass == pytest.approx(1.0, rel=0.0, abs=1e-12)
        ref = _solve_or_iterations(_four_reduction_sinkhorn, x, y, sigma2, tol, 300)
        if isinstance(ref, int):
            return
        ru, rv, _, _ = ref
        dual = float(np.mean(u) + np.mean(v))
        assert dual == pytest.approx(float(np.mean(ru) + np.mean(rv)), rel=0.0, abs=100.0 * tol)
        np.testing.assert_allclose(
            _coupling(x, y, sigma2, u, v),
            _coupling(x, y, sigma2, ru, rv),
            rtol=0.0,
            atol=100.0 * tol,
        )


def _three_d_draw(seed):
    """(x, y, sigma2) of the 3-d family: 1-8 atoms a side, d <= 3, clouds
    scaled by 10^U(-0.5, 1), sigma2 = 10^U(-2, 4)."""
    rng = np.random.default_rng(seed)
    n, m, d = rng.integers(1, 9), rng.integers(1, 9), rng.integers(1, 4)
    sigma2 = 10 ** rng.uniform(-2, 4)
    scale = 10 ** rng.uniform(-0.5, 1)
    return scale * rng.normal(size=(n, d)), scale * rng.normal(size=(m, d)), sigma2


class TestSinkhornStalls:
    """Inputs on which 20,000 plain sweeps stopped short of the tolerance."""

    def test_two_point_clouds_at_small_sigma2(self):
        """cost / sigma2 up to 120: the sweeps sat at 4.2e-6."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2)) + 0.5
        u, v, err, _, _ = _entropic_solve(x, y, 0.1, 1e-9)
        assert err <= 1e-9
        assert max(_marginal_errors(x, y, 0.1, u, v)) <= 2e-9

    def test_deconv_witness_of_the_batch_contract(self):
        """Seed 36644787 of the deconv batch contract: the sweeps sat at 3.67e-7."""
        _assert_batch_rows_equal_per_point_forms("deconv", 36644787, 1)

    def test_spent_budget_raises_a_typed_error(self, monkeypatch):
        """Draw 208 of the 3-d family (n = m = 8, sigma2 = 0.176, cost /
        sigma2 up to 398), on which plain sweeps stall near 4e-7.  No known
        input makes the Newton stage stall, so it is made to stall at once:
        the first stage and the ladder take 92 sweeps in all, each stage's
        sweeps stopping at 1e-2, and the last stage at sigma2 ends there, so
        the solve reports that error and its iteration count."""
        monkeypatch.setattr(functionals, "_sinkhorn_newton", lambda v, c, *_: (v, c, 0))
        x, y, sigma2 = _three_d_draw(208)
        assert x.shape == (8, 3) and y.shape == (8, 3)
        with pytest.raises(SinkhornNotConverged) as info:
            _entropic_solve(x, y, sigma2, 1e-9)
        assert 1e-9 < info.value.marginal_error <= 1e-2
        assert info.value.iterations == 92

    @pytest.mark.parametrize(
        "family, seed", [("3-d", 208), ("2-d moved", 183), ("2-d moved", 2678)]
    )
    def test_newton_finishes_without_the_fallback(self, family, seed):
        """The draws whose Newton stage stalled when its conjugate gradient
        stopped at m iterations (README, "Cost of the deconvolution
        oracle") each meet tol, with no plain-sweep fallback left to finish
        them.  The 2-d draws are solved, then moved by 0.1 scale and solved
        from the first v."""
        if family == "3-d":
            x, y, sigma2 = _three_d_draw(seed)
            assert _entropic_solve(x, y, sigma2, 1e-9)[2] <= 1e-9
            return
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 9), rng.integers(1, 9)
        scale, sigma2 = 10 ** rng.uniform(-0.5, 0.5), 10 ** rng.uniform(-2, 0)
        x = scale * rng.normal(size=(n, 2))
        y = scale * (rng.normal(size=(m, 2)) + 0.3)
        _, v, _, _, _ = _entropic_solve(x, y, sigma2, 1e-9)
        moved = x + 0.1 * scale * rng.normal(size=x.shape)
        assert _entropic_solve(moved, y, sigma2, 1e-9, v)[2] <= 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        m=st.integers(1, 8),
        log_scale=st.floats(-0.5, 0.5),
        log_sigma2=st.floats(-2.0, 0.0),
    )
    @example(seed=374837, n=7, m=7, log_scale=0.3828882354073191, log_sigma2=-0.6875)
    @example(seed=165, n=8, m=8, log_scale=-0.23046875, log_sigma2=-2.0)
    def test_converges_down_to_small_sigma2(self, seed, n, m, log_scale, log_sigma2):
        """Clouds scaled by 10^U(-0.5, 0.5) at sigma2 in [1e-2, 1], where cost /
        sigma2 reaches the thousands and whole columns underflow.  Both
        examples once needed the plain-sweep fallback: with the conjugate
        gradient stopped at m iterations, 374837's ladder stopped at 2.58e-9
        and 83 sweeps finished it, and 165's Newton stage stalled at 1.1e-6
        and 19,875 sweeps ended at 1.7e-7, short of tol."""
        rng = np.random.default_rng(seed)
        scale, sigma2 = 10.0**log_scale, 10.0**log_sigma2
        x = scale * rng.normal(size=(n, 2))
        y = scale * (rng.normal(size=(m, 2)) + 0.3)
        u, v, err, _, _ = _entropic_solve(x, y, sigma2, 1e-9)
        assert err <= 1e-9
        assert max(_marginal_errors(x, y, sigma2, u, v)) <= 2e-9


def _raises_with_peak(error, fn):
    """(the `error` fn() must raise, tracemalloc's peak bytes over the call)."""
    tracemalloc.start()
    try:
        with pytest.raises(error) as info:
            fn()
        return info.value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSinkhornCap:
    """n * m and m * m above SINKHORN_CAP raise before any such array exists."""

    def test_cap_admits_a_thousand_atoms_a_side(self):
        assert 1000 * 1000 <= SINKHORN_CAP

    def test_data_above_the_cap_raise_before_the_diameter_pass(self):
        m = math.isqrt(SINKHORN_CAP) + 1
        data = ParticleCloud(np.random.default_rng(22).normal(size=(m, 2)))
        exc, peak = _raises_with_peak(SizeCapExceeded, lambda: EntropicDeconv(0.25, data))
        assert (exc.required, exc.cap) == (m * m, SINKHORN_CAP)
        assert peak < 8 * m * m / 100

    @pytest.mark.parametrize("call", ["value", "derivative_oracle"])
    def test_solve_above_the_cap_raises_before_the_cost_matrix(self, call):
        rng = np.random.default_rng(23)
        m = 10
        n = SINKHORN_CAP // m + 1
        J = EntropicDeconv(0.25, ParticleCloud(rng.normal(size=(m, 2))))
        mu = ParticleCloud(rng.normal(size=(n, 2)))
        solve = J.value if call == "value" else lambda mu: J.derivative_oracle(mu, 1e-9)
        exc, peak = _raises_with_peak(SizeCapExceeded, lambda: solve(mu))
        assert (exc.required, exc.cap) == (n * m, SINKHORN_CAP)
        assert peak < 8 * n * m / 100
        assert J.marginal_error_log == []


def _agreement_bound(J, mu):
    """How far apart two solves that each meet J.tol may put J.value(mu).

    The semi-dual F(v) = mean(u(v)) + mean(v) is concave, with gradient
    1/m - b: its L1 norm is the marginal error, and its entries sum to 0.
    A solve at error <= tol therefore lies below the optimum by at most
    tol * osc(v* - v) / 2, and potentials that are soft c-transforms
    oscillate by at most the largest cost.  Either solve is within
    tol * max cost of the optimum, so the two are within that of each other.
    """
    return J.tol * 0.5 * float(sqdist_matrix(mu.points, J.data.points).max())


class TestEntropicDeconv:
    def test_one_solve_per_cloud(self):
        rng = np.random.default_rng(17)
        data = ParticleCloud(rng.normal(size=(10, 2)))
        J = EntropicDeconv(0.25, data)
        mu = ParticleCloud(rng.normal(size=(10, 2)))
        val = J.value(mu)
        J.derivative_oracle(mu, 1e-9)
        assert len(J.marginal_error_log) == 1
        assert J.value(mu) == val
        assert len(J.marginal_error_log) == 1
        nu = ParticleCloud(mu.points + 0.1)
        J.derivative_oracle(nu, 1e-9)
        J.value(nu)
        assert len(J.marginal_error_log) == 2
        # nu's solve was seeded with mu's v; a fresh functional solves from v = 0
        fresh = EntropicDeconv(0.25, data).value(nu)
        assert abs(fresh - J.value(nu)) <= _agreement_bound(J, nu)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        m=st.integers(1, 8),
        log_scale=st.floats(-0.5, 0.5),
        log_sigma2=st.floats(-2.0, 0.0),
        log_move=st.floats(-3.0, 0.5),
    )
    def test_warm_started_and_fresh_functionals_agree(
        self, seed, n, m, log_scale, log_sigma2, log_move
    ):
        """The draws of `test_converges_down_to_small_sigma2`, with the cloud
        moved by 10^U(-3, 0.5) of its scale: the value from a solve seeded
        with the first cloud's v and one from v = 0 both meet tol and agree
        within `_agreement_bound`."""
        rng = np.random.default_rng(seed)
        scale, sigma2 = 10.0**log_scale, 10.0**log_sigma2
        mu = ParticleCloud(scale * rng.normal(size=(n, 2)))
        data = ParticleCloud(scale * (rng.normal(size=(m, 2)) + 0.3))
        nu = ParticleCloud(mu.points + 10.0**log_move * scale * rng.normal(size=(n, 2)))
        J, fresh = EntropicDeconv(sigma2, data), EntropicDeconv(sigma2, data)
        J.value(mu)
        warm = J.value(nu)
        assert abs(warm - fresh.value(nu)) <= _agreement_bound(J, nu)
        assert max(J.marginal_error_log + fresh.marginal_error_log) <= J.tol

    @pytest.mark.parametrize("seed, sigma2", [(0, 0.25), (1, 0.25), (2, 0.05), (3, 1.0)])
    def test_seed_at_the_solution_costs_at_most_one_newton_step(
        self, monkeypatch, seed, sigma2
    ):
        """Seeded with its own converged v (gauged, so its coupling is the
        same), a solve makes no sweep and at most one Newton step."""
        sweeps = []
        real = functionals._sinkhorn_sweeps

        def spy(*args):
            out = real(*args)
            sweeps.append(out[2])
            return out

        monkeypatch.setattr(functionals, "_sinkhorn_sweeps", spy)
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(50, 2)), rng.normal(size=(50, 2))
        _, v, _, _, _ = _entropic_solve(x, y, sigma2, 1e-9)
        sweeps.clear()
        _, _, err, iterations, _ = _entropic_solve(x, y, sigma2, 1e-9, v)
        assert sweeps == [0]
        assert iterations <= 1 and err <= 1e-9

    def test_gate_ten_run_spends_at_most_thirty_iterations(self, monkeypatch, tmp_path):
        """At the gate-10 defaults (seed 0) each solve is seeded by the
        polynomial through the v of up to the last four clouds (the cloud
        before's alone for the second): the run's 21 solves, one per step and
        one for the returned cloud, take 27 sweeps and Newton steps in all
        ([6, 2, then 1 each]), where a seed at the cloud before's v took 46
        and solves from v = 0 took 133.  Every solve from the third on takes
        exactly one Newton step."""
        iterations = []
        real = functionals._entropic_solve

        def spy(*args):
            out = real(*args)
            iterations.append(out[3])
            return out

        monkeypatch.setattr(functionals, "_entropic_solve", spy)
        cfg = ExperimentConfig(experiment="deconv", seed=0, out=str(tmp_path / "d.csv"))
        _, _, J = experiments.run_deconv(cfg)
        assert len(J.marginal_error_log) == len(iterations) == 21
        assert sum(iterations) <= 30
        assert iterations[2:] == [1] * 19

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 8), min_size=5, max_size=8),
        m=st.integers(1, 8),
        log_sigma2=st.floats(-2.0, 0.0),
        gap=st.integers(1, 7),
    )
    def test_extrapolated_seeds_off_any_trajectory(self, seed, sizes, m, log_sigma2, gap):
        """Unrelated clouds in a row, so the extrapolated seed, through up
        to four earlier solves' v, may start a solve far from its solution,
        with a writeable array between two of them.  Every solve meets tol
        and agrees with a fresh functional's within `_agreement_bound`.  The
        writeable array's solve neither reads nor changes the history: it
        equals a fresh functional's bit for bit, and every cloud's value
        equals that of a twin functional fed the clouds alone."""
        rng = np.random.default_rng(seed)
        sigma2 = 10.0**log_sigma2
        data = ParticleCloud(rng.normal(size=(m, 2)) + 0.3)
        clouds = [ParticleCloud(rng.normal(size=(n, 2))) for n in sizes]
        loose = SimpleNamespace(points=rng.normal(size=(int(rng.integers(1, 9)), 2)))
        at = min(gap, len(clouds) - 1)  # the writeable array goes before clouds[at]
        J, twin = EntropicDeconv(sigma2, data), EntropicDeconv(sigma2, data)
        for k, mu in enumerate(clouds):
            if k == at:
                assert J.value(loose) == EntropicDeconv(sigma2, data).value(loose)
            value = J.value(mu)
            assert value == twin.value(mu)
            fresh = EntropicDeconv(sigma2, data).value(mu)
            assert abs(value - fresh) <= _agreement_bound(J, mu)
        assert len(J.marginal_error_log) == len(clouds) + 1
        assert max(J.marginal_error_log) <= J.tol

    def test_seed_history_holds_four_solves(self, monkeypatch):
        """The history holds the v of at most four kept solves, the newest
        last; a one-solve history seeds with that v bit for bit, and each
        later seed is the polynomial through the history, 2 v(k) - v(k-1)
        up to 4 v(k) - 6 v(k-1) + 4 v(k-2) - v(k-3)."""
        seeds, held = [], []
        real = functionals._entropic_solve

        def spy(x, y, sigma2, tol, v0=None):
            seeds.append(None if v0 is None else v0.copy())
            out = real(x, y, sigma2, tol, v0)
            held.append(out[1])
            return out

        monkeypatch.setattr(functionals, "_entropic_solve", spy)
        rng = np.random.default_rng(21)
        J = EntropicDeconv(0.25, ParticleCloud(rng.normal(size=(6, 2))))
        points = rng.normal(size=(5, 2))
        for k in range(7):
            J.value(ParticleCloud(points + 0.05 * k))
            assert len(J._last_v) == min(k + 1, 4)
            assert all(a is b for a, b in zip(J._last_v, held[-4:]))
        assert seeds[0] is None
        assert seeds[1].tobytes() == held[0].tobytes()
        weights = {2: (2, -1), 3: (3, -3, 1), 4: (4, -6, 4, -1)}
        for k in range(2, 7):
            w = weights[min(k, 4)]
            want = sum(c * v for c, v in zip(w, reversed(held[k - len(w) : k])))
            np.testing.assert_allclose(seeds[k], want, rtol=0, atol=1e-12)

    def test_gate_ten_steps_evaluate_no_witness_row_at_the_atoms(self, monkeypatch, tmp_path):
        """Each step's norm pass and prox centre take the atoms' gradient
        from the solve's coupling: no witness call of a gate-10 run (seed 0)
        is on the cloud's own points, and the rows the witness does
        evaluate are the trace's samples."""
        real = EntropicDeconv.derivative_oracle
        calls = []

        def oracle(J, mu, eps):
            model = real(J, mu, eps)

            def grad_many(z):
                calls.append((z is mu.points, z.shape[0]))
                return model.grad_many(z)

            return dataclasses.replace(model, grad_many=grad_many)

        monkeypatch.setattr(EntropicDeconv, "derivative_oracle", oracle)
        cfg = ExperimentConfig(experiment="deconv", seed=0, out=str(tmp_path / "d.csv"))
        _, trace, _ = experiments.run_deconv(cfg)
        assert len(trace) == 20 and calls
        assert not any(at_atoms for at_atoms, _ in calls)
        assert sum(rows for _, rows in calls) == sum(trace.samples) == 2762

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_changeable_points_are_solved_afresh(self, read_only_view):
        """A writeable array, or a read-only view of one, may change between
        calls, so its solve is never reused."""
        rng = np.random.default_rng(18)
        data = ParticleCloud(rng.normal(size=(6, 2)))
        J = EntropicDeconv(0.25, data)
        points = rng.normal(size=(5, 2))
        mu = SimpleNamespace(points=points.view() if read_only_view else points)
        mu.points.setflags(write=not read_only_view)
        before = J.value(mu)
        points += 0.3
        after = J.value(mu)
        assert len(J.marginal_error_log) == 2
        assert after == EntropicDeconv(0.25, data).value(ParticleCloud(points))
        assert after != before

    def test_marginal_errors_are_logged_and_small(self):
        rng = np.random.default_rng(12)
        data = ParticleCloud(rng.normal(size=(10, 2)))
        J = EntropicDeconv(0.25, data, tol=1e-9)
        J.value(ParticleCloud(rng.normal(size=(10, 2))))
        assert len(J.marginal_error_log) == 1
        assert J.marginal_error_log[0] <= 1e-9

    def test_witness_evaluates_to_dual_potential_at_atoms(self):
        """At the cloud's own atoms the witness recovers the u-potentials,
        whose mean is half the gauge-balanced objective mean(u) + mean(v)."""
        rng = np.random.default_rng(13)
        data = ParticleCloud(rng.normal(size=(9, 2)))
        mu = ParticleCloud(rng.normal(size=(7, 2)))
        J = EntropicDeconv(0.3, data)
        val = J.value(mu)
        model = J.derivative_oracle(mu, 1e-9)
        u_mean = float(np.mean(model.eval_many(mu.points)))
        assert abs(val - 2.0 * u_mean) <= 1e-12 * max(1.0, abs(val))

    def test_first_order_expansion(self):
        rng = np.random.default_rng(14)
        data = ParticleCloud(rng.normal(size=(8, 2)))
        mu = ParticleCloud(rng.normal(size=(8, 2)) * 0.7)
        J = EntropicDeconv(0.25, data)
        model = J.derivative_oracle(mu, 1e-9)
        V = rng.normal(size=mu.points.shape)
        base = J.value(mu)
        lin = float(np.mean(np.sum(model.grad_many(mu.points) * V, axis=1)))
        r1 = abs(J.value(ParticleCloud(mu.points + 1e-3 * V)) - base - 1e-3 * lin) / 1e-3
        r2 = abs(J.value(ParticleCloud(mu.points + 2.5e-4 * V)) - base - 2.5e-4 * lin) / 2.5e-4
        assert r2 < r1 / 2.0

    def test_witness_curvature_within_declared_bounds(self):
        """Numerical Hessians of the witness stay in [-rho, L]."""
        rng = np.random.default_rng(15)
        data = ParticleCloud(rng.normal(size=(8, 2)) * 1.5)
        mu = ParticleCloud(rng.normal(size=(6, 2)))
        J = EntropicDeconv(0.25, data)
        model = J.derivative_oracle(mu, 1e-9)
        h = 1e-4
        for _ in range(25):
            z = rng.normal(size=2) * 1.5
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            second = (
                model.eval(z + h * d) - 2 * model.eval(z) + model.eval(z - h * d)
            ) / h**2
            assert -model.semiconvexity - 1e-3 <= second <= model.smoothness + 1e-3

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sigma2=st.floats(0.05, 1.0),
        log_scale=st.floats(-0.5, 0.5),
    )
    def test_witness_bends_up_by_at_most_one(self, seed, sigma2, log_scale):
        """The witness's Hessian is I - Cov / sigma2 with Cov the softmax
        covariance of the data, so it bends up by at most c = 1 and down by
        at most rho.  Second differences along random directions, at points
        out to twice the data's scale and at the potentials v of a real
        solve, stay in [-rho, c] up to 1e-3."""
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        data = ParticleCloud(scale * rng.normal(size=(8, 2)))
        mu = ParticleCloud(scale * (rng.normal(size=(6, 2)) + 0.5))
        model = EntropicDeconv(sigma2, data).derivative_oracle(mu, 1e-9)
        assert model.semiconcavity == 1.0
        z = 2.0 * scale * rng.normal(size=(20, 2))
        d = rng.normal(size=(20, 2))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        h = 1e-4
        second = (
            model.eval_many(z + h * d) - 2.0 * model.eval_many(z) + model.eval_many(z - h * d)
        ) / h**2
        assert np.all(second >= -model.semiconvexity - 1e-3)
        assert np.all(second <= model.semiconcavity + 1e-3)

    def test_large_sigma_flattens_derivative(self):
        rng = np.random.default_rng(16)
        data = ParticleCloud(rng.normal(size=(8, 2)))
        mu = ParticleCloud(rng.normal(size=(8, 2)))
        J = EntropicDeconv(1e4, data)
        model = J.derivative_oracle(mu, 1e-9)
        g = model.grad_many(mu.points)
        # softmax weights flatten to uniform: gradient ~ z - mean(data)
        expected = mu.points - data.points.mean(axis=0)
        np.testing.assert_allclose(g, expected, atol=1e-3)


def _distance_form_witness(v, y, sigma2):
    """The deconvolution witness as defined, through squared distances and
    scipy's logsumexp: the reference for the oracle's inner-product form."""

    def logits(z):
        return (v[None, :] - 0.5 * sqdist_matrix(z, y)) / sigma2

    def eval_many(z):
        return -sigma2 * (logsumexp(logits(z), axis=1) - math.log(y.shape[0]))

    def grad_many(z):
        lg = logits(z)
        return z - np.exp(lg - logsumexp(lg, axis=1, keepdims=True)) @ y

    return eval_many, grad_many


def _witness_for_potentials(v, y, sigma2):
    """EntropicDeconv's witness for the v-potentials given, with no Sinkhorn
    solve: the oracle reads v from its per-cloud solve, replaced here."""
    J = EntropicDeconv(sigma2, ParticleCloud(y))
    J._solve = lambda points: (None, v, None)
    return J.derivative_oracle(ParticleCloud(y), 1e-9)


class TestDeconvWitnessForm:
    """The witness as one matrix product and one softmax per call."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 12),
        rows=st.integers(1, 8),
        dim=st.integers(1, 3),
        log_sigma2=st.floats(-2.0, 4.0),
        log_scale=st.floats(-0.5, 1.0),
    )
    def test_matches_the_distance_form(self, seed, m, rows, dim, log_sigma2, log_scale):
        """To 1e-10 of the terms either form adds: sigma2 in 10^[-2, 4], data
        scaled by 10^[-0.5, 1], potentials on the cost's scale, and query
        points out to 3x the data's scale, where the softmax is a near
        one-hot at small sigma2 and near uniform at large sigma2."""
        rng = np.random.default_rng(seed)
        sigma2, scale = 10.0**log_sigma2, 10.0**log_scale
        y = scale * rng.normal(size=(m, dim))
        v = scale**2 * rng.normal(size=m)
        z = 3.0 * scale * rng.uniform(-1.0, 1.0, size=(rows, dim))
        model = _witness_for_potentials(v, y, sigma2)
        ref_eval, ref_grad = _distance_form_witness(v, y, sigma2)
        want, got = ref_eval(z), model.eval_many(z)
        ymax2 = float(np.max(np.sum(y**2, axis=1)))
        terms = np.abs(want) + 0.5 * (np.sum(z**2, axis=1) + ymax2) + np.max(np.abs(v))
        assert np.all(np.abs(got - want) <= 1e-10 * terms)
        want, got = ref_grad(z), model.grad_many(z)
        terms = np.linalg.norm(z, axis=1) + math.sqrt(ymax2)
        assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-10 * terms)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        m=st.integers(1, 12),
        dim=st.integers(1, 3),
        log_sigma2=st.floats(-2.0, 1.0),
    )
    def test_atom_gradients_match_the_witness(self, seed, n, m, dim, log_sigma2):
        """The rows the oracle hands over for a cloud's atoms, x_i - n (P
        y)_i from the solve's coupling P, match `grad_many` on a writeable
        copy of the same points to 1e-10 of the terms, as the two witness
        forms do.  A writeable array gets no rows."""
        rng = np.random.default_rng(seed)
        sigma2 = 10.0**log_sigma2
        data = ParticleCloud(rng.normal(size=(m, dim)) + 0.3)
        mu = ParticleCloud(rng.normal(size=(n, dim)))
        J = EntropicDeconv(sigma2, data)
        model = J.derivative_oracle(mu, 1e-9)
        points, got = model.atom_gradients
        assert points is mu.points and not got.flags.writeable
        z = mu.points.copy()
        want = model.grad_many(z)
        ymax2 = float(np.max(np.sum(data.points**2, axis=1)))
        terms = np.linalg.norm(z, axis=1) + math.sqrt(ymax2)
        assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-10 * terms)
        assert J.derivative_oracle(SimpleNamespace(points=z), 1e-9).atom_gradients is None

    def test_witness_builds_no_distance_matrix(self, monkeypatch):
        def no_sqdist(a, b):
            raise AssertionError("the deconvolution witness built a distance matrix")

        rng = np.random.default_rng(19)
        J = EntropicDeconv(0.25, ParticleCloud(rng.normal(size=(9, 2))))
        model = J.derivative_oracle(ParticleCloud(rng.normal(size=(7, 2))), 1e-9)
        monkeypatch.setattr(functionals, "sqdist_matrix", no_sqdist)
        z = rng.normal(size=(4, 2))
        assert model.eval_many(z).shape == (4,)
        assert model.grad_many(z).shape == (4, 2)


class TestPotentialInteraction:
    def test_value_formula(self):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(5, 2))
        mu = ParticleCloud(pts)
        J = PotentialInteraction(quadratic(), make_pair("quadratic"))
        v_term = float(np.mean(0.5 * np.sum(pts**2, axis=1)))
        w_term = 0.0
        for i in range(5):
            for j in range(5):
                w_term += 0.5 * float(np.sum((pts[i] - pts[j]) ** 2))
        w_term /= 25.0
        assert J.value(mu) == pytest.approx(v_term + w_term, rel=1e-12)

    def test_oracle_is_exact_first_variation(self):
        """phi(z) = v(z) + (2/n) sum_j w(z, x_j), checked by differencing."""
        rng = np.random.default_rng(18)
        pts = rng.normal(size=(6, 2))
        mu = ParticleCloud(pts)
        J = PotentialInteraction(quadratic(), make_pair("double-well"))
        model = J.derivative_oracle(mu, 1e-9)
        V = rng.normal(size=pts.shape)
        base = J.value(mu)
        lin = float(np.mean(np.sum(model.grad_many(pts) * V, axis=1)))
        t = 1e-6
        fd = (J.value(ParticleCloud(pts + t * V)) - base) / t
        assert lin == pytest.approx(fd, abs=1e-4)

    def test_without_interaction_returns_potential_model(self):
        J = PotentialInteraction(quadratic())
        mu = ParticleCloud(np.ones((3, 2)))
        model = J.derivative_oracle(mu, 1e-9)
        assert model.smoothness == pytest.approx(1.0)
        assert J.value(mu) == pytest.approx(1.0)

    def test_constants_combine(self):
        J = PotentialInteraction(quadratic(), make_pair("double-well"))
        model = J.derivative_oracle(ParticleCloud(np.zeros((2, 2))), 1e-9)
        assert model.smoothness == quadratic().smoothness + 2 * make_pair("double-well").smoothness

    def test_semiconcavity_sums_as_the_other_constants(self):
        """The witness's Hessian is v's plus (2/n) sum_j W's, so each of its
        three constants is v's plus twice W's, c included."""
        v = dataclasses.replace(quadratic(), smoothness=3.0, semiconvexity=0.5, semiconcavity=1.0)
        w = make_pair("quadratic")._replace(smoothness=2.0, semiconvexity=0.25, semiconcavity=1.5)
        J = PotentialInteraction(v, w)
        model = J.derivative_oracle(ParticleCloud(np.zeros((2, 2))), 1e-9)
        assert (model.smoothness, model.semiconvexity, model.semiconcavity) == (7.0, 1.0, 4.0)

    def test_a_pair_outside_the_table_is_refused(self):
        """A `SmoothObjective` pair term, the generic form the closed-form
        means replaced, is a typed error, not a silently wrong witness."""
        with pytest.raises(WfwError, match="a pair term must be a RadialQuartic row"):
            PotentialInteraction(quadratic(), make_objective("double-well"))

    def test_oracle_and_value_hold_no_pair_array(self):
        """One oracle, its batch forms on all 1,000 atoms and the value stay
        under 2 MB; a (rows, atoms, d) pair broadcast peaks at 40 MB here."""
        x = np.random.default_rng(5).uniform(-1.0, 1.0, size=(1000, 2))
        mu = ParticleCloud(x)
        J = PotentialInteraction(make_objective("double-well"), make_pair("double-well"))
        tracemalloc.start()
        try:
            model = J.derivative_oracle(mu, 1e-9)
            model.grad_many(x), model.eval_many(x), J.value(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak


def _witness(kind, rng):
    """A witness model of the named kind at a random small cloud."""
    mu = ParticleCloud(rng.normal(size=(int(rng.integers(1, 7)), 2)))
    target = ParticleCloud(rng.normal(size=(5, 2)) + 0.3)
    if kind.startswith("mmd-"):
        return MMDSquared(_kernel(), target).derivative_oracle(mu, 1e-9)
    if kind == "deconv":
        return EntropicDeconv(0.3, target).derivative_oracle(mu, 1e-9)
    pair = make_pair(kind[5:])
    return PotentialInteraction(make_objective("double-well"), pair).derivative_oracle(
        mu, 1e-9
    )


_WITNESS_KINDS = ["mmd-random-feature", "deconv"] + [
    f"pair-{name}" for name in sorted(RADIAL_QUARTICS)
]


def _assert_batch_rows_equal_per_point_forms(kind, seed, rows):
    rng = np.random.default_rng(seed)
    model = _witness(kind, rng)
    Z = 1.5 * rng.normal(size=(rows, 2))
    values, grads = model.eval_many(Z), model.grad_many(Z)
    assert values.shape == (rows,) and grads.shape == (rows, 2)
    for i in range(rows):
        assert values[i] == pytest.approx(model.eval(Z[i]), rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grads[i], model.grad(Z[i]), rtol=1e-12, atol=1e-12)


class TestBatchContract:
    @pytest.mark.parametrize("kind", _WITNESS_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8))
    def test_batch_rows_equal_per_point_forms(self, kind, seed, rows):
        _assert_batch_rows_equal_per_point_forms(kind, seed, rows)

    @pytest.mark.parametrize("name", sorted(RADIAL_QUARTICS))
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 6),
        shift=st.sampled_from([0.0, 10.0, 1e3]),
    )
    @example(seed=380, rows=6, shift=1e3)  # 1.1x the bound without the mean's remainder
    def test_pair_witness_and_value_match_per_pair_loop(self, name, seed, rows, shift):
        """The closed-form pair means against the loop over pairs through
        W's own forms, on clouds and query rows moved `shift` off the
        origin: centring on the cloud's mean keeps the cancellation at its
        spread, the rounding remainder of the mean included.  At shift 0 v is
        the double well, so the witness's v + 2 mean_j W and value's mean v +
        mean W are checked whole; off the origin v is 0, as a double well of
        ~1e12 there would swamp the pair term the shift is meant to test."""
        rng = np.random.default_rng(seed)
        v = make_objective("double-well" if shift == 0.0 else "zero")
        W = make_objective(name)
        x = rng.normal(size=(int(rng.integers(1, 7)), 2)) + shift
        mu = ParticleCloud(x)
        J = PotentialInteraction(v, make_pair(name))
        model = J.derivative_oracle(mu, 1e-9)
        Z = 1.5 * rng.normal(size=(rows, 2)) + shift
        values, grads = model.eval_many(Z), model.grad_many(Z)
        n = x.shape[0]
        for i, z in enumerate(Z):
            ref_val = v.eval(z) + 2.0 * sum(W.eval(z - a) for a in x) / n
            ref_grad = v.grad(z) + 2.0 * sum(W.grad(z - a) for a in x) / n
            assert values[i] == pytest.approx(ref_val, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(grads[i], ref_grad, rtol=1e-12, atol=1e-12)
        ref_value = float(np.mean(v.eval_many(x))) + sum(
            W.eval(a - b) for a in x for b in x
        ) / n**2
        assert J.value(mu) == pytest.approx(ref_value, rel=1e-12, abs=1e-12)


class TestRegistry:
    @pytest.mark.parametrize("name", ["kl", "f-divergence", "chi2", "tv"])
    def test_density_based_objectives_rejected(self, name):
        with pytest.raises(ValueError):
            make_objective(name)
        with pytest.raises(ValueError):
            make_pair(name)

    def test_pair_messages_name_the_pair_table(self):
        with pytest.raises(ValueError, match="divergence-type pair potentials"):
            make_pair("kl")
        with pytest.raises(
            ValueError,
            match=r"unknown pair potential 'nope'; choose from "
            r"\['double-well', 'quadratic', 'zero'\]",
        ):
            make_pair("nope")

    @pytest.mark.parametrize("name", sorted(RADIAL_QUARTICS))
    def test_pair_terms_are_even(self, name):
        """W(-x) = W(x) and grad W(-x) = -grad W(x) for each row's W: the
        witness v + (2/n) sum_j W(. - x_j) is the first variation only for an
        even W."""
        w = make_objective(name)
        x = 1.5 * np.random.default_rng(23).normal(size=(40, 3))
        np.testing.assert_allclose(w.eval_many(-x), w.eval_many(x), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w.grad_many(-x), -w.grad_many(x), rtol=1e-12, atol=1e-12)

    def test_double_well_constants_cover_unit_ball(self):
        """Hessian of 0.25(|x|^2-1)^2 lies in [-rho, L] for |x| <= 2."""
        f = make_objective("double-well")
        rng = np.random.default_rng(19)
        h = 1e-4
        for _ in range(50):
            x = rng.uniform(-1.0, 1.0, size=2)
            x *= 2.0 * rng.uniform() / max(np.linalg.norm(x), 1e-9)
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            second = (f.eval(x + h * d) - 2 * f.eval(x) + f.eval(x - h * d)) / h**2
            assert -f.semiconvexity - 1e-3 <= second <= f.smoothness + 1e-3
