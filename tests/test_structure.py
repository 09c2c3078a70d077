"""Tests for design/structure matrix construction, the effect map and
quadratic-form eigenvalue weights."""

import tracemalloc

import numpy as np
import pytest

import oracles
from dsdprior import structure
from dsdprior._io import read_matrix_market, write_matrix_market
from dsdprior.structure import (
    DesignMatrix,
    QfWeights,
    StructureSpec,
    build_bspline_basis,
    build_icar,
    build_rw,
    qf_weights,
)


def _bspline_oracle(x, knots, degree):
    """Textbook Cox-de Boor recursion, closed at the right end of the base
    interval so the last data point belongs to the last segment."""
    knots = np.asarray(knots, dtype=float)
    right_end = knots[-degree - 1] if degree > 0 else knots[-1]
    n_basis = len(knots) - degree - 1

    def b(j, k, t):
        if k == 0:
            if t == right_end:
                return 1.0 if knots[j] < t <= knots[j + 1] else 0.0
            return 1.0 if knots[j] <= t < knots[j + 1] else 0.0
        out = 0.0
        d1 = knots[j + k] - knots[j]
        if d1 > 0:
            out += (t - knots[j]) / d1 * b(j, k - 1, t)
        d2 = knots[j + k + 1] - knots[j + 1]
        if d2 > 0:
            out += (knots[j + k + 1] - t) / d2 * b(j + 1, k - 1, t)
        return out

    return np.array([[b(j, degree, t) for j in range(n_basis)] for t in np.atleast_1d(x)])


def _connected_by_bfs(adj):
    """Hand-rolled breadth-first search; the independent connectivity oracle."""
    n = adj.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in np.flatnonzero(adj[i]):
            if j not in seen:
                seen.add(int(j))
                frontier.append(int(j))
    return len(seen) == n


def _random_graph(n, extra, seed):
    """Adjacency of a random spanning tree on n vertices plus up to
    `extra` random edges."""
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order, order[1:]):
        adj[a, b] = adj[b, a] = 1.0
    for _ in range(extra):
        a, b = rng.integers(0, n, 2)
        if a != b:
            adj[a, b] = adj[b, a] = 1.0
    return adj


def _lattice(rows, cols):
    """Adjacency of a rows x cols grid graph, numbered row by row."""
    adj = np.zeros((rows * cols, rows * cols))
    v = np.arange(rows * cols).reshape(rows, cols)
    for a, b in ((v[:, :-1], v[:, 1:]), (v[:-1], v[1:])):
        adj[a.ravel(), b.ravel()] = adj[b.ravel(), a.ravel()] = 1.0
    return adj


def _refuse_dense_eigvalsh(monkeypatch):
    def refuse(a):
        raise AssertionError("dense eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


def _refuse_effect_map(monkeypatch):
    def refuse(design, spec):
        raise AssertionError("_effect_map called")

    monkeypatch.setattr(structure, "_effect_map", refuse)


def _full_selection(n_g, n, seed):
    """One-hot rows over n_g regions, each region observed at least once."""
    rng = np.random.default_rng(seed)
    regions = rng.permutation(np.concatenate([np.arange(n_g), rng.integers(0, n_g, n - n_g)]))
    values = np.zeros((n, n_g))
    values[np.arange(n), regions] = 1.0
    return DesignMatrix(values=values, kind="selection")


def _effect_map_weights(design, spec):
    """The effect-map route written out: positive eigenvalues of the Gram
    matrix of the column-centered effect map."""
    e = structure._effect_map(design, spec)
    e -= e.mean(axis=0)
    eigs = np.linalg.eigvalsh(e.T @ e)
    return eigs[eigs > eigs.size * np.finfo(float).eps * eigs[-1]]


def _sample_effects(spec, count, seed):
    """Draw constrained effects nu = U+ gamma+, gamma+ ~ N(0, Lambda+^-1)."""
    eigs, vecs = np.linalg.eigh(spec.precision.toarray())
    kappa = spec.rank_deficiency
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((spec.n_g - kappa, count))
    return vecs[:, kappa:] @ (g / np.sqrt(eigs[kappa:])[:, None])


class TestBuildRw:
    def test_first_order_small(self):
        spec = build_rw(1, 3)
        np.testing.assert_array_equal(
            spec.precision.toarray(), np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        )
        assert spec.rank_deficiency == 1

    def test_second_order_null_space(self):
        spec = build_rw(2, 5)
        assert spec.rank_deficiency == 2
        trend = np.arange(5.0)
        np.testing.assert_allclose(spec.precision @ trend, 0.0, atol=1e-12)
        np.testing.assert_allclose(spec.precision @ np.ones(5), 0.0, atol=1e-12)

    def test_circular_second_order_rank(self):
        spec = build_rw(2, 366, circular=True)
        assert spec.rank_deficiency == 1
        # dense eigensolver oracle: exactly one eigenvalue below 1e-10
        eigs = np.linalg.eigvalsh(spec.precision.toarray())
        assert int(np.sum(eigs < 1e-10)) == 1

    def test_circular_first_order(self):
        spec = build_rw(1, 8, circular=True)
        assert spec.rank_deficiency == 1
        np.testing.assert_allclose(spec.precision @ np.ones(8), 0.0, atol=1e-12)

    @pytest.mark.parametrize("circular", [False, True])
    @pytest.mark.parametrize("order", [1, 2])
    def test_stencil_fill_is_the_difference_product(self, order, circular):
        # bit for bit against D'D formed densely; on crw2(4) the +-2
        # offsets wrap onto one entry and must add
        for n_g in range(order + 2, 13):
            eye = np.eye(n_g)
            if not circular:
                d = np.diff(eye, n=order, axis=0)
            elif order == 1:
                d = np.roll(eye, -1, axis=1) - eye
            else:
                d = np.roll(eye, -1, axis=1) + np.roll(eye, 1, axis=1) - 2.0 * eye
            assert build_rw(order, n_g, circular).precision.toarray().tobytes() == (d.T @ d).tobytes()

    def test_walks_carry_their_spectrum(self):
        for order, circular in ((1, False), (1, True), (2, True)):
            spec = build_rw(order, 40, circular)
            eigs = np.linalg.eigvalsh(spec.precision.toarray())
            np.testing.assert_allclose(spec.spectrum, eigs, atol=1e-12)
            assert spec.spectrum[0] == 0.0
        assert build_rw(2, 40).spectrum is None

    def test_rejects_bad_order_or_size(self):
        with pytest.raises(ValueError):
            build_rw(3, 10)
        with pytest.raises(ValueError):
            build_rw(2, 3)


class TestBuildIcar:
    def test_path_graph_matches_first_order_walk(self):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        spec = build_icar(adj)
        np.testing.assert_array_equal(spec.precision.toarray(), build_rw(1, 3).precision.toarray())
        assert spec.rank_deficiency == 1

    def test_disconnected_components(self):
        adj = np.zeros((4, 4))
        adj[0, 1] = adj[1, 0] = 1.0
        adj[2, 3] = adj[3, 2] = 1.0
        assert build_icar(adj).rank_deficiency == 2

    def test_random_connected_graph(self):
        n = 20
        adj = _random_graph(n, extra=15, seed=7)
        assert _connected_by_bfs(adj)
        spec = build_icar(adj)
        assert spec.rank_deficiency == 1
        np.testing.assert_allclose(spec.precision @ np.ones(n), 0.0, atol=1e-12)

    def test_rejects_malformed_adjacency(self):
        with pytest.raises(ValueError):
            build_icar(np.array([[0.0, 1.0], [0.0, 0.0]]))  # asymmetric
        with pytest.raises(ValueError):
            build_icar(np.array([[1.0, 1.0], [1.0, 0.0]]))  # self loop
        with pytest.raises(ValueError):
            build_icar(np.array([[0.0, 2.0], [2.0, 0.0]]))  # non-binary


class TestBuildBsplineBasis:
    def test_partition_of_unity(self):
        x = np.linspace(0.0, 1.0, 40)
        dm = build_bspline_basis(x, m=8)
        np.testing.assert_allclose(dm.values.sum(axis=1), 1.0, atol=1e-12)
        assert dm.values.shape == (40, 8)
        assert dm.kind == "basis"

    def test_single_point_hat_peak(self):
        dm = build_bspline_basis(np.array([0.5]), m=3, degree=1, bounds=(0.0, 1.0))
        np.testing.assert_allclose(dm.values.toarray(), np.array([[0.0, 1.0, 0.0]]), atol=1e-15)

    def test_matches_recursive_oracle(self):
        x = np.linspace(-1.0, 1.0, 50)
        dm = build_bspline_basis(x, m=5, degree=3)
        # m - degree = 2 unit segments over [-1, 1], extended 3 steps past each end
        knots = np.arange(-4.0, 5.0)
        oracle = _bspline_oracle(x, knots, 3)
        np.testing.assert_allclose(dm.values.toarray(), oracle, atol=1e-12)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            build_bspline_basis(np.linspace(0, 1, 10), m=4, degree=3)

    def test_rejects_degenerate_range(self):
        with pytest.raises(ValueError):
            build_bspline_basis(np.array([0.3]), m=6, degree=3)


class TestStructureSpec:
    def test_checks_hold_no_mask(self):
        # a dense K of n_g = 3000 would be 72 MB; K is sparse, and the
        # finiteness and symmetry checks add no n_g x n_g mask (each 9 MB)
        tracemalloc.start()
        try:
            build_rw(2, 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 76e6

    def test_rejects_asymmetric(self):
        k = np.eye(3)
        k[0, 1] = 1e-6
        with pytest.raises(ValueError):
            StructureSpec(precision=k, rank_deficiency=0)

    def test_rounding_asymmetry_is_averaged_away(self):
        k = np.eye(3)
        k[0, 1] = 1e-14
        spec = StructureSpec(precision=k, rank_deficiency=0)
        np.testing.assert_array_equal(spec.precision.toarray(), (k + k.T) / 2.0)
        assert not any(b.flags.writeable for b in structure._buffers(spec.precision))

    def test_rejects_boolean_rank_deficiency(self):
        for flag in (True, False, np.bool_(True)):
            with pytest.raises(ValueError, match="integer"):
                StructureSpec(precision=np.eye(3), rank_deficiency=flag)
        assert StructureSpec(precision=np.eye(3), rank_deficiency=np.int64(1)).rank_deficiency == 1

    def test_rejects_negative_definite_at_split(self):
        # rows of -I do not sum to 0, so the weights take the effect map,
        # whose eigendecomposition of K refuses the indefinite structure
        spec = StructureSpec(precision=-np.eye(3), rank_deficiency=0)
        with pytest.raises(ValueError, match="no positive eigenvalues"):
            qf_weights(DesignMatrix.identity(3), spec, constrained=False)

    def test_rejects_declared_rank_mismatch(self):
        spec = StructureSpec(precision=np.eye(4), rank_deficiency=1)
        with pytest.raises(ValueError, match="declared rank deficiency 1 but found 0"):
            qf_weights(DesignMatrix.identity(4), spec, constrained=True)

    def test_rejects_spectrum_that_is_not_k_s(self):
        k = build_rw(1, 6, circular=True)
        for bad in (2.0 * k.spectrum, k.spectrum[::-1], k.spectrum[1:], np.full(6, 2.0)):
            with pytest.raises(ValueError, match="spectrum"):
                StructureSpec(precision=k.precision, rank_deficiency=1, spectrum=bad)

    def test_spectrum_route_keeps_the_rank_check(self):
        spec = build_rw(1, 12, circular=True)
        wrong = StructureSpec(precision=spec.precision, rank_deficiency=2, spectrum=spec.spectrum)
        with pytest.raises(ValueError, match="declared rank deficiency 2 but found 1"):
            qf_weights(DesignMatrix.identity(12), wrong, constrained=True)


class TestSpectralSplit:
    """The split of K at its declared rank deficiency that the effect map
    E = Z U+ Lambda+^{-1/2} takes; with an identity design E = U+ Lambda+^{-1/2}."""

    def test_full_rank_identity(self):
        e = structure._effect_map(DesignMatrix.identity(6), StructureSpec(np.eye(6), 0))
        assert e.shape == (6, 6)
        np.testing.assert_allclose(e.T @ e, np.eye(6), atol=1e-10)

    def test_first_order_walk_null_is_constant(self):
        e = structure._effect_map(DesignMatrix.identity(10), build_rw(1, 10))
        assert e.shape == (10, 9)
        # the range is the orthogonal complement of the constant
        np.testing.assert_allclose(np.ones(10) @ e, 0.0, atol=1e-12)

    def test_second_order_walk_null_is_linear_span(self):
        e = structure._effect_map(DesignMatrix.identity(30), build_rw(2, 30))
        assert e.shape == (30, 28)
        basis = np.stack([np.ones(30), np.arange(30.0)], axis=1)
        q, _ = np.linalg.qr(basis)
        # span{1, t} is orthogonal to every range direction: residual below 1e-9
        u = e / np.linalg.norm(e, axis=0)
        assert np.linalg.norm(q.T @ u) < 1e-9

    def test_orthonormal_block_and_reconstruction(self):
        # E'KE = I on the range, and E E' = K+, whose pseudo-inverse is K
        spec = build_rw(2, 17)
        e = structure._effect_map(DesignMatrix.identity(17), spec)
        k = spec.precision.toarray()
        np.testing.assert_allclose(e.T @ k @ e, np.eye(15), atol=1e-10)
        rebuilt = np.linalg.pinv(e @ e.T, hermitian=True)
        err = np.linalg.norm(rebuilt - k) / np.linalg.norm(k)
        assert err < 1e-9


class TestEffectMap:
    def test_whitens_the_structure_on_its_range(self):
        # identity design: E = U+ Lambda+^{-1/2}, so E'KE = I and U0'E = 0
        spec = build_rw(2, 25)
        e = structure._effect_map(DesignMatrix.identity(25), spec)
        assert e.shape == (25, 23)
        k = spec.precision.toarray()
        np.testing.assert_allclose(e.T @ k @ e, np.eye(23), atol=1e-9)
        u0 = np.linalg.eigh(k)[1][:, :2]
        assert np.max(np.abs(u0.T @ e)) < 1e-9

    def test_rejects_wrong_column_count(self):
        z = DesignMatrix.identity(11)
        spec = build_rw(1, 12)
        with pytest.raises(ValueError, match="structure size"):
            qf_weights(z, spec, constrained=True)


class TestQfWeights:
    def test_identity_design_identity_structure(self):
        w = qf_weights(DesignMatrix.identity(9), StructureSpec(np.eye(9), 0), constrained=False)
        np.testing.assert_allclose(w.weights, np.ones(8), atol=1e-12)
        assert w.n_predictor == 9
        assert w.zero_count >= 1

    def test_single_covariate_column(self):
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 3.0, size=40)
        z = DesignMatrix(values=x[:, None], kind="covariate-column")
        w = qf_weights(z, StructureSpec(np.eye(1), 0), constrained=False)
        assert w.weights.size == 1
        target = np.sum((x - x.mean()) ** 2)  # (n-1) * sample variance
        np.testing.assert_allclose(w.weights[0], target, rtol=1e-12)

    def test_penalized_basis_against_pseudoinverse_oracle(self):
        x = np.linspace(-1.0, 1.0, 50)
        z = build_bspline_basis(x, m=5, degree=3)
        spec = build_rw(2, 5)
        w = qf_weights(z, spec, constrained=True)
        assert w.weights.size == 5 - 2
        # independent route: eigenvalues of the nonsymmetric product
        # (Z^T M Z) K^-  keeping the nonnull ones
        m = np.eye(50) - 1.0 / 50
        g = z.values.toarray().T @ m @ z.values.toarray()
        oracle = np.linalg.eigvals(g @ np.linalg.pinv(spec.precision.toarray()))
        oracle = np.sort(oracle.real)[-3:]
        np.testing.assert_allclose(np.sort(w.weights), oracle, rtol=1e-9)

    def test_selection_design_against_pseudoinverse_oracle(self):
        # 48 one-hot rows over 36 of 40 regions: an rw1 effect that is
        # constant on the observed regions and free on the 4 unobserved
        # ones is centered away, so 4 range directions join the null one
        rng = np.random.default_rng(17)
        regions = np.concatenate([np.arange(36), rng.integers(0, 36, size=12)])
        values = np.zeros((48, 40))
        values[np.arange(48), regions] = 1.0
        z = DesignMatrix(values=values, kind="selection")
        spec = build_rw(1, 40)
        w = qf_weights(z, spec, constrained=True)
        assert w.weights.size == 35
        assert w.zero_count == 5
        m = np.eye(48) - 1.0 / 48
        g = z.values.toarray().T @ m @ z.values.toarray()
        oracle = np.linalg.eigvals(g @ np.linalg.pinv(spec.precision.toarray()))
        oracle = np.sort(oracle.real)[-35:]
        np.testing.assert_allclose(w.weights, oracle, rtol=1e-9)

    def test_circular_walk_against_closed_form_spectrum(self):
        # identity design: the weights are 1 / (range eigenvalues of K),
        # and crw2 has the circulant spectrum (2 - 2 cos(2 pi k / n))^2
        # (Rue & Held 2005, GMRF, sec. 3.1), which build_rw carries, so no
        # eigensolve is involved. The cos form here is the less accurate
        # side: 2 - 2 cos(x) is exact given cos(x), whose half-ulp rounding
        # is a relative error of at most 1.1e-16 / (2 pi / n)^2 = 3.8e-13
        # at k = 1, doubled by the square to 7.5e-13.
        n = 366
        w = qf_weights(DesignMatrix.identity(n), build_rw(2, n, circular=True), constrained=True)
        k = np.arange(1, n)
        closed = np.sort(1.0 / (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)) ** 2)
        np.testing.assert_allclose(w.weights, closed, rtol=1e-12)
        assert w.zero_count == 1

    def test_orthogonal_reparameterization_invariance(self):
        rng = np.random.default_rng(11)
        x = np.linspace(0.0, 1.0, 30)
        z = build_bspline_basis(x, m=6, degree=3)
        spec = build_rw(2, 6)
        base = qf_weights(z, spec, constrained=True)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        z2 = DesignMatrix(values=z.values.toarray() @ q, kind="basis")
        k = spec.precision.toarray()
        spec2 = StructureSpec((q.T @ k @ q + (q.T @ k @ q).T) / 2, 2)
        rotated = qf_weights(z2, spec2, constrained=True)
        np.testing.assert_allclose(np.sort(rotated.weights), np.sort(base.weights), rtol=1e-9)

    def test_rejects_unconstrained_improper_structure(self):
        z = DesignMatrix.identity(12)
        with pytest.raises(ValueError):
            qf_weights(z, build_rw(1, 12), constrained=False)

    def test_rejects_tiny_predictor(self):
        z = DesignMatrix(values=np.ones((1, 1)), kind="covariate-column")
        with pytest.raises(ValueError):
            qf_weights(z, StructureSpec(np.eye(1), 0), constrained=False)

    def test_constraint_annihilates_null_directions(self):
        # identity design: sampled constrained effects are orthogonal to U0
        spec = build_rw(2, 25)
        nu = _sample_effects(spec, count=64, seed=5)
        u0 = np.linalg.eigh(spec.precision.toarray())[1][:, :2]
        assert np.max(np.abs(u0.T @ nu)) < 1e-9

    def test_sampled_moments_match_weight_sums(self):
        # Monte Carlo mean/variance of V against sum(lambda)/(n-1) and
        # 2*sum(lambda^2)/(n-1)^2, within 3 standard errors at sigma2=1
        spec = build_rw(1, 12)
        w = qf_weights(DesignMatrix.identity(12), spec, constrained=True)
        nu = _sample_effects(spec, count=200_000, seed=9)
        v = np.sum((nu - nu.mean(axis=0)) ** 2, axis=0) / (12 - 1)
        s1 = w.weights.sum() / 11.0
        s2 = 2.0 * np.sum(w.weights**2) / 11.0**2
        se_mean = v.std(ddof=1) / np.sqrt(v.size)
        assert abs(v.mean() - s1) < 3 * se_mean
        se_var = np.std((v - v.mean()) ** 2, ddof=1) / np.sqrt(v.size)
        assert abs(v.var(ddof=1) - s2) < 3 * se_var


class TestSpectrumRoute:
    """Weights taken from K's spectrum alone: the closed form a walk
    carries, or one eigenvalues-only solve of K or of D^-1/2 K D^-1/2."""

    @pytest.mark.parametrize("n", [366, 2000])
    @pytest.mark.parametrize("kind", ["rw1", "crw1"])
    def test_walk_weights_match_closed_form(self, kind, n):
        spec = build_rw(1, n, circular=kind == "crw1")
        w = qf_weights(DesignMatrix.identity(n), spec, constrained=True)
        oracle = np.sort(1.0 / np.array(oracles.walk_spectrum(kind, n)))
        np.testing.assert_allclose(w.weights, oracle, rtol=1e-12)
        assert w.zero_count == 1

    def test_second_order_circular_walk_at_any_n(self):
        # the closed form's null eigenvalue is an exact 0: at n = 5000 the
        # smallest range eigenvalue, 16 sin^4(pi / n) = 2.5e-12, lies below
        # the n eps lambda_max threshold of a computed spectrum
        spec = build_rw(2, 5000, circular=True)
        w = qf_weights(DesignMatrix.identity(5000), spec, constrained=True)
        oracle = np.sort(1.0 / np.array(oracles.walk_spectrum("crw2", 5000)))
        np.testing.assert_allclose(w.weights, oracle, rtol=1e-12)
        assert w.zero_count == 1

    @pytest.mark.parametrize("order, circular", [(2, True), (1, False)])
    def test_selection_against_mpmath_oracle(self, monkeypatch, order, circular):
        # 36 rows over all 30 regions; both routes carry a relative error
        # of order eps * lambda_max / lambda_min, 2e-12 on crw2(30). The
        # cut-off sends crw2(30) (half-bandwidth 5) to the dense route and
        # the 50-digit oracle is too slow at the first banded size, n = 125,
        # so the cut-off is lifted here to check the banded route itself
        spec = build_rw(order, 30, circular)
        z = _full_selection(30, 36, seed=23)
        oracle = oracles.centered_effect_weights(z.values.toarray(), spec.precision.toarray())
        monkeypatch.setattr(structure, "_BAND_FRACTION", 1.0)
        _refuse_dense_eigvalsh(monkeypatch)
        w = qf_weights(z, spec, constrained=True)
        np.testing.assert_allclose(w.weights, oracle, rtol=1e-11)
        assert w.zero_count == 1

    def test_large_circular_selection_against_covariance_form(self, monkeypatch):
        # crw2(1976) observed by 2371 rows, on the banded route. Both the
        # banded and the dense precision-form solve lose up to
        # eps * lambda_max / lambda_min (4.2e-5 here) relative on the
        # smallest range eigenvalues, which give the largest weights; the
        # covariance form holds those weights to a few n eps
        spec = build_rw(2, 1976, circular=True)
        z = _full_selection(1976, 2371, seed=23)
        reference = oracles.crw2_selection_top_weights(z.values.sum(axis=0), 5)
        _refuse_dense_eigvalsh(monkeypatch)
        w = qf_weights(z, spec, constrained=True)
        kappa = w.weights[-1] / w.weights[0]
        np.testing.assert_allclose(w.weights[-5:], reference, rtol=np.finfo(float).eps * kappa)
        assert w.zero_count == 1

    @pytest.mark.parametrize("case", ["rw1-selection", "crw2-selection", "icar-identity", "rw2-identity"])
    def test_takes_the_banded_route(self, monkeypatch, case):
        if case == "rw1-selection":
            spec, z = build_rw(1, 40), _full_selection(40, 48, seed=9)
        elif case == "crw2-selection":
            spec, z = build_rw(2, 150, circular=True), _full_selection(150, 180, seed=9)
        elif case == "icar-identity":
            spec, z = build_icar(_lattice(8, 50)), DesignMatrix.identity(400)
        else:
            spec, z = build_rw(2, 60), DesignMatrix.identity(60)
        expected = _effect_map_weights(z, spec)
        _refuse_dense_eigvalsh(monkeypatch)
        w = qf_weights(z, spec, constrained=True)
        # both routes are within eps * lambda_max / lambda_min of exact
        kappa = expected[-1] / expected[0]
        np.testing.assert_allclose(w.weights, expected, rtol=2.0 * np.finfo(float).eps * kappa)
        assert w.zero_count == spec.rank_deficiency

    def test_wide_band_keeps_the_dense_route(self):
        # a random graph with many chords has no narrow band after any
        # permutation, so it costs what it did: one dense eigvalsh
        spec = build_icar(_random_graph(80, extra=600, seed=6))
        eigs = np.linalg.eigvalsh(spec.precision.toarray())
        w = qf_weights(DesignMatrix.identity(80), spec, constrained=True)
        np.testing.assert_array_equal(w.weights, np.sort(1.0 / eigs[1:]))

    def test_second_order_line_walk_identity_matches_effect_map(self):
        # null(K) = span{1, t}: 1/(range eigenvalues) from one eigvalsh
        spec = build_rw(2, 40)
        z = DesignMatrix.identity(40)
        w = qf_weights(z, spec, constrained=True)
        np.testing.assert_allclose(w.weights, _effect_map_weights(z, spec), rtol=1e-10)
        assert w.zero_count == 2

    def test_disconnected_icar_identity_matches_effect_map(self):
        adj = np.zeros((45, 45))
        adj[:20, :20] = _random_graph(20, extra=10, seed=3)
        adj[20:, 20:] = _random_graph(25, extra=12, seed=4)
        spec = build_icar(adj)
        assert spec.rank_deficiency == 2
        z = DesignMatrix.identity(45)
        w = qf_weights(z, spec, constrained=True)
        np.testing.assert_allclose(w.weights, _effect_map_weights(z, spec), rtol=1e-12)
        assert w.zero_count == 2

    @pytest.mark.parametrize("case", ["crw2-identity", "icar-identity", "rw1-selection"])
    def test_needs_no_eigenvectors(self, monkeypatch, case):
        _refuse_effect_map(monkeypatch)
        if case == "crw2-identity":
            spec, z = build_rw(2, 50, circular=True), DesignMatrix.identity(50)
        elif case == "icar-identity":
            spec, z = build_icar(_random_graph(30, extra=20, seed=8)), DesignMatrix.identity(30)
        else:
            spec, z = build_rw(1, 40), _full_selection(40, 48, seed=9)
        w = qf_weights(z, spec, constrained=True)
        assert w.weights.size == spec.n_g - 1
        assert w.zero_count == 1

    @pytest.mark.parametrize("case", ["iid", "shifted-icar"])
    def test_equal_row_sums_match_effect_map(self, monkeypatch, case):
        # K's rows all sum to r != 0: 1 is a range eigenvector of K, and the
        # range eigenvalue nearest r is dropped for it
        if case == "iid":
            spec = StructureSpec(np.eye(60), 0)
        else:
            laplacian = build_icar(_random_graph(40, extra=30, seed=2)).precision
            spec = StructureSpec(2.5 * np.eye(40) + laplacian, 0)
        z = DesignMatrix.identity(spec.n_g)
        expected = _effect_map_weights(z, spec)

        _refuse_effect_map(monkeypatch)
        w = qf_weights(z, spec, constrained=False)
        np.testing.assert_allclose(w.weights, expected, rtol=0.0, atol=5e-15)
        assert w.zero_count == 1

    def test_large_iid_weights_are_exactly_one(self, monkeypatch):
        _refuse_effect_map(monkeypatch)
        w = qf_weights(DesignMatrix.identity(2000), StructureSpec(np.eye(2000), 0), False)
        np.testing.assert_array_equal(w.weights, np.ones(1999))
        assert w.zero_count == 1

    @staticmethod
    def _fallback_case(case, tmp_path):
        if case == "unobserved-region":
            # the 36-of-40 design of the pseudo-inverse oracle test
            rng = np.random.default_rng(17)
            regions = np.concatenate([np.arange(36), rng.integers(0, 36, size=12)])
            values = np.zeros((48, 40))
            values[np.arange(48), regions] = 1.0
            return DesignMatrix(values=values, kind="selection"), build_rw(1, 40)
        if case == "rw2-selection":
            return _full_selection(30, 36, seed=5), build_rw(2, 30)
        if case == "iid":
            # K = I has 1 as an eigenvector, but only identity designs use that
            return _full_selection(25, 30, seed=5), StructureSpec(np.eye(25), 0)
        if case == "bspline":
            return build_bspline_basis(np.linspace(-1.0, 1.0, 50), m=20), build_rw(2, 20)
        # a weighted graph Laplacian written to and read back from a file,
        # whose rows sum to rounding residue rather than exactly to 0
        adj = _random_graph(12, extra=10, seed=8)
        weighted = adj * np.random.default_rng(8).uniform(0.1, 1.0, adj.shape)
        weighted = np.triu(weighted, 1) + np.triu(weighted, 1).T
        write_matrix_market(tmp_path / "k.mtx", np.diag(weighted.sum(axis=1)) - weighted)
        k = read_matrix_market(tmp_path / "k.mtx")
        assert np.any(k.sum(axis=1))
        return DesignMatrix.identity(12), StructureSpec(precision=k, rank_deficiency=1)

    @pytest.mark.parametrize(
        "case", ["unobserved-region", "rw2-selection", "iid", "bspline", "float-file"]
    )
    def test_other_designs_keep_the_effect_map_route(self, monkeypatch, tmp_path, case):
        z, spec = self._fallback_case(case, tmp_path)
        calls = []

        def counted(design, spec, _map=structure._effect_map):
            calls.append(spec)
            return _map(design, spec)

        monkeypatch.setattr(structure, "_effect_map", counted)
        w = qf_weights(z, spec, constrained=spec.rank_deficiency > 0)
        assert calls
        np.testing.assert_array_equal(w.weights, np.sort(_effect_map_weights(z, spec)))
        assert w.zero_count == spec.n_g - w.weights.size


class TestDesignMatrix:
    def test_identity_constructor(self):
        dm = DesignMatrix.identity(5)
        assert dm.kind == "identity"
        np.testing.assert_array_equal(dm.values.toarray(), np.eye(5))

    def test_identity_kind_requires_identity_values(self):
        near_one = np.eye(3)
        near_one[1, 1] = np.nextafter(1.0, 2.0)
        subnormal = np.eye(3)
        subnormal[0, 2] = 5e-324
        not_identity = (
            np.ones((3, 3)),
            np.eye(3)[[1, 2, 0]],  # a permutation: n unit entries, off the diagonal
            near_one,
            subnormal,
            np.eye(4)[:, :3],  # I with a row appended
            np.eye(3)[:2],
        )
        for values in not_identity:
            with pytest.raises(ValueError, match="Z = I"):
                DesignMatrix(values=values, kind="identity")

    def test_selection_kind_requires_one_hot_rows(self):
        good = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        DesignMatrix(values=good, kind="selection")
        with pytest.raises(ValueError):
            DesignMatrix(values=np.array([[1.0, 1.0]]), kind="selection")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            DesignMatrix(values=np.eye(2), kind="wavelet")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DesignMatrix(values=np.zeros((0, 2)), kind="basis")

    def test_values_are_a_read_only_copy(self):
        raw = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        dm = DesignMatrix(values=raw, kind="selection")
        raw[0] = (0.0, 1.0)
        np.testing.assert_array_equal(dm.values.toarray()[0], (1.0, 0.0))
        assert not any(b.flags.writeable for b in structure._buffers(dm.values))

    def test_identity_holds_one_copy(self):
        # a dense Z = I of n = 3000 would be 72 MB; Z is sparse, and its
        # checks make no n x n array
        tracemalloc.start()
        try:
            DesignMatrix.identity(3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80e6

    def test_builders_hand_over_without_a_copy(self):
        spec = build_rw(2, 30)
        buffers = structure._buffers(spec.precision)
        assert all(b.flags.owndata and not b.flags.writeable for b in buffers)
        assert StructureSpec(spec.precision, 2).precision is spec.precision
        dm = build_bspline_basis(np.linspace(0.0, 1.0, 20), m=6)
        assert DesignMatrix(values=dm.values, kind="basis").values is dm.values


class TestQfWeightsType:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            QfWeights(weights=np.array([1.0, 0.0]), n_predictor=5, zero_count=0)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            QfWeights(weights=np.array([1.0]), n_predictor=1, zero_count=0)

    def test_rejects_empty_weights(self):
        # the record owns the rule, so gamma_approx, ruben_cdf and sample_v need not
        with pytest.raises(ValueError, match="weights must be non-empty"):
            QfWeights(weights=np.array([]), n_predictor=10, zero_count=9)
