"""Kernel, MMD, entropic-smoothing, and potential-energy tests."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from wfw import experiments, functionals
from wfw.cloud import ParticleCloud, sqdist_matrix
from wfw.errors import NonFiniteDual, SinkhornNotConverged
from wfw.experiments import ExperimentConfig, run_mmd_flow
from wfw.functionals import (
    EntropicDeconv,
    GaussianKernel,
    InverseMultiquadricKernel,
    MMDSquared,
    PotentialInteraction,
    RandomFeatureKernel,
    _sinkhorn_potentials,
)
from wfw.registry import OBJECTIVES, make_objective, make_pair, quadratic


def _kernels():
    table = 0.5 * np.random.default_rng(0).standard_normal((16, 2))
    return [
        GaussianKernel(0.8),
        InverseMultiquadricKernel(1.2, 0.5),
        RandomFeatureKernel(table),
    ]


def _k(kernel, x, y):
    """k(x, y) for two points, through the batch Gram matrix."""
    return float(kernel.gram(x[None, :], y[None, :])[0, 0])


def _grad_k(kernel, x, y):
    """grad_x k(x, y) for two points, through the batch mean gradient."""
    return kernel.mean_grad(y[None, :], x[None, :])[0]


class TestKernels:
    @pytest.mark.parametrize("kernel", _kernels(), ids=lambda k: k.name)
    def test_symmetry(self, kernel):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x, y = rng.normal(size=(2, 2))
            assert _k(kernel, x, y) == pytest.approx(_k(kernel, y, x), rel=1e-12)

    @pytest.mark.parametrize("kernel", _kernels(), ids=lambda k: k.name)
    def test_gram_psd(self, kernel):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(12, 2))
        gram = kernel.gram(pts, pts)
        np.testing.assert_allclose(gram, gram.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-9

    @pytest.mark.parametrize("kernel", _kernels(), ids=lambda k: k.name)
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

    @pytest.mark.parametrize("kernel", _kernels(), ids=lambda k: k.name)
    def test_grad_lipschitz_bound_on_samples(self, kernel):
        """|grad_x k(x,y) - grad_x k(x',y)| <= L |x-x'| on random pairs."""
        rng = np.random.default_rng(4)
        for _ in range(40):
            y = rng.normal(size=2)
            x1 = rng.normal(size=2)
            x2 = x1 + 0.05 * rng.normal(size=2)
            lhs = np.linalg.norm(_grad_k(kernel, x1, y) - _grad_k(kernel, x2, y))
            assert lhs <= kernel.grad_lipschitz * np.linalg.norm(x1 - x2) * (1 + 1e-6)

    def test_gaussian_peak_and_scale(self):
        k = GaussianKernel(2.0)
        x = np.array([1.0, 1.0])
        assert _k(k, x, x) == pytest.approx(1.0)
        assert k.grad_lipschitz == pytest.approx(1.0 / 4.0)

    def test_random_feature_matches_feature_dot(self):
        table = 0.4 * np.random.default_rng(5).standard_normal((8, 3))
        k = RandomFeatureKernel(table)
        x, y = np.random.default_rng(6).normal(size=(2, 3))
        expected = float(np.mean(np.tanh(table @ x) * np.tanh(table @ y)))
        assert _k(k, x, y) == pytest.approx(expected, rel=1e-12)


class TestMMDSquared:
    def test_value_is_v_statistic(self):
        rng = np.random.default_rng(7)
        X = ParticleCloud(rng.normal(size=(6, 2)))
        Y = ParticleCloud(rng.normal(size=(5, 2)))
        k = GaussianKernel(1.0)
        J = MMDSquared(k, Y)
        kxx = k.gram(X.points, X.points).mean()
        kyy = k.gram(Y.points, Y.points).mean()
        kxy = k.gram(X.points, Y.points).mean()
        assert J.value(X) == pytest.approx(kxx + kyy - 2 * kxy, rel=1e-12)

    def test_zero_at_target(self):
        rng = np.random.default_rng(8)
        Y = ParticleCloud(rng.normal(size=(7, 2)))
        J = MMDSquared(GaussianKernel(1.0), Y)
        assert J.value(Y) == pytest.approx(0.0, abs=1e-12)
        assert J.value(ParticleCloud(Y.points + 1.0)) > 0.0

    @pytest.mark.parametrize("kernel", _kernels(), ids=lambda k: k.name)
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
        k = GaussianKernel(1.5)
        J = MMDSquared(k, ParticleCloud(np.zeros((3, 2))))
        model = J.derivative_oracle(ParticleCloud(np.ones((4, 2))), 1e-6)
        assert model.smoothness == pytest.approx(4.0 * k.grad_lipschitz)
        assert model.semiconvexity == pytest.approx(4.0 * k.grad_lipschitz)


def _gram_mmd(kernel, x, y):
    """Reference MMD^2 and witness through Gram matrices: the V-statistic
    and the mean-gradient forms, in the order `MMDSquared` evaluates them
    for kernels without a feature map."""
    target_mean = float(np.mean(kernel.gram(y, y)))
    value = float(
        np.mean(kernel.gram(x, x)) + target_mean - 2.0 * np.mean(kernel.gram(x, y))
    )

    def eval_many(z):
        return 2.0 * (kernel.gram(z, x).mean(axis=1) - kernel.gram(z, y).mean(axis=1))

    def grad_many(z):
        return 2.0 * (kernel.mean_grad(x, z) - kernel.mean_grad(y, z))

    return value, eval_many, grad_many


_clouds = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(1, 12),  # n
    st.integers(1, 12),  # m
    st.integers(1, 4),  # d
)


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

    @pytest.mark.parametrize(
        "kernel",
        [GaussianKernel(0.8), InverseMultiquadricKernel(1.2, 0.5)],
        ids=lambda k: k.name,
    )
    @settings(max_examples=20, deadline=None)
    @given(clouds=_clouds)
    def test_gram_kernels_keep_their_bits(self, kernel, clouds):
        seed, n, m, d = clouds
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(n, d)), rng.normal(size=(m, d)) + 0.5
        z = rng.normal(size=(5, d))
        J = MMDSquared(kernel, ParticleCloud(y))
        model = J.derivative_oracle(ParticleCloud(x), 1e-9)
        ref_value, ref_eval, ref_grad = _gram_mmd(kernel, x, y)
        assert J.value(ParticleCloud(x)) == ref_value
        assert np.array_equal(model.eval_many(z), ref_eval(z))
        assert np.array_equal(model.grad_many(z), ref_grad(z))

    def test_random_feature_oracle_builds_no_gram(self, monkeypatch):
        def no_gram(self, a, b):
            raise AssertionError("random-feature MMD built a Gram matrix")

        monkeypatch.setattr(RandomFeatureKernel, "gram", no_gram)
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
        at the atoms, share one map.  The start cloud adds one more.  No
        Gram matrix is built.  The spy counts the rows tanh actually maps."""
        feature_rows = {"total": 0, "baseline": 0}
        tanh = np.tanh

        def counted_tanh(x):
            feature_rows["total"] += x.shape[0]
            return tanh(x)

        def no_gram(self, a, b):
            raise AssertionError("random-feature MMD built a Gram matrix")

        flow = experiments.mmd_gradient_flow

        def counted_flow(*args, **kwargs):
            before = feature_rows["total"]
            result = flow(*args, **kwargs)
            feature_rows["baseline"] = feature_rows["total"] - before
            return result

        monkeypatch.setattr(np, "tanh", counted_tanh)
        monkeypatch.setattr(RandomFeatureKernel, "gram", no_gram)
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
    return _sinkhorn_potentials(mu.points, data.points, sigma2, 1e-9)[1]


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
        u, v, err, _ = _sinkhorn_potentials(x, y, sigma2, tol)
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


class TestSinkhornStalls:
    """Inputs on which 20,000 plain sweeps stopped short of the tolerance."""

    def test_two_point_clouds_at_small_sigma2(self):
        """cost / sigma2 up to 120: the sweeps sat at 4.2e-6."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2)) + 0.5
        u, v, err, _ = _sinkhorn_potentials(x, y, 0.1, 1e-9)
        assert err <= 1e-9
        assert max(_marginal_errors(x, y, 0.1, u, v)) <= 2e-9

    def test_deconv_witness_of_the_batch_contract(self):
        """Seed 36644787 of the deconv batch contract: the sweeps sat at 3.67e-7."""
        _assert_batch_rows_equal_per_point_forms("deconv", 36644787, 1)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        m=st.integers(1, 8),
        log_scale=st.floats(-0.5, 0.5),
        log_sigma2=st.floats(-2.0, 0.0),
    )
    @example(seed=374837, n=7, m=7, log_scale=0.3828882354073191, log_sigma2=-0.6875)
    def test_converges_down_to_small_sigma2(self, seed, n, m, log_scale, log_sigma2):
        """Clouds scaled by 10^U(-0.5, 0.5) at sigma2 in [1e-2, 1], where cost /
        sigma2 reaches the thousands and whole columns underflow.  The example
        is the one input known to need the plain-sweep fallback: the eps
        ladder stops at 2.58e-9 and 83 sweeps finish it."""
        rng = np.random.default_rng(seed)
        scale, sigma2 = 10.0**log_scale, 10.0**log_sigma2
        x = scale * rng.normal(size=(n, 2))
        y = scale * (rng.normal(size=(m, 2)) + 0.3)
        u, v, err, _ = _sinkhorn_potentials(x, y, sigma2, 1e-9)
        assert err <= 1e-9
        assert max(_marginal_errors(x, y, sigma2, u, v)) <= 2e-9


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
        # a fresh functional, solving each call from scratch, gives the same bits
        assert EntropicDeconv(0.25, data).value(nu) == J.value(nu)

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
    J._solve = lambda points: (None, v)
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
        J = PotentialInteraction(quadratic(), quadratic())
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
        J = PotentialInteraction(quadratic(), quadratic())
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
        J = PotentialInteraction(quadratic(), quadratic())
        model = J.derivative_oracle(ParticleCloud(np.zeros((2, 2))), 1e-9)
        assert model.smoothness == pytest.approx(
            quadratic().smoothness + 2 * quadratic().smoothness
        )


def _witness(kind, rng):
    """A witness model of the named kind at a random small cloud."""
    mu = ParticleCloud(rng.normal(size=(int(rng.integers(1, 7)), 2)))
    target = ParticleCloud(rng.normal(size=(5, 2)) + 0.3)
    if kind.startswith("mmd-"):
        kernel = {k.name: k for k in _kernels()}[kind[4:]]
        return MMDSquared(kernel, target).derivative_oracle(mu, 1e-9)
    if kind == "deconv":
        return EntropicDeconv(0.3, target).derivative_oracle(mu, 1e-9)
    pair = make_pair(kind[5:])
    return PotentialInteraction(make_objective("double-well"), pair).derivative_oracle(
        mu, 1e-9
    )


_WITNESS_KINDS = [f"mmd-{k.name}" for k in _kernels()] + ["deconv"] + [
    f"pair-{name}" for name in sorted(OBJECTIVES)
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

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6))
    def test_pair_witness_and_value_match_per_pair_loop(self, name, seed, rows):
        rng = np.random.default_rng(seed)
        v, w = make_objective("double-well"), make_pair(name)
        x = rng.normal(size=(int(rng.integers(1, 7)), 2))
        mu = ParticleCloud(x)
        J = PotentialInteraction(v, w)
        model = J.derivative_oracle(mu, 1e-9)
        Z = 1.5 * rng.normal(size=(rows, 2))
        values, grads = model.eval_many(Z), model.grad_many(Z)
        n = x.shape[0]
        for i, z in enumerate(Z):
            ref_val = v.eval(z) + 2.0 * sum(w.eval(z - a) for a in x) / n
            ref_grad = v.grad(z) + 2.0 * sum(w.grad(z - a) for a in x) / n
            assert values[i] == pytest.approx(ref_val, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(grads[i], ref_grad, rtol=1e-12, atol=1e-12)
        ref_value = float(np.mean(v.eval_many(x))) + sum(
            w.eval(a - b) for a in x for b in x
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

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_pair_terms_are_even(self, name):
        """W(-x) = W(x) and grad W(-x) = -grad W(x): the witness
        v + (2/n) sum_j W(. - x_j) is the first variation only for an even W."""
        w = make_pair(name)
        x = 1.5 * np.random.default_rng(23).normal(size=(40, 3))
        np.testing.assert_allclose(
            w.eval_many(-x), w.eval_many(x), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            w.grad_many(-x), -w.grad_many(x), rtol=1e-12, atol=1e-12
        )

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
