import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import eigsh

from dynten import graphs, spectral
from dynten.graphs import ConvergenceError, laplacian
from dynten.spectral import (DENSE_MAX_N, _extreme_pairs, adjacency_embedding,
                             bottom_k_eigs, effective_resistance,
                             resistance_embedding, top_k_eigs)

from conftest import random_connected_graph


def csr(rows):
    return sp.csr_array(np.asarray(rows, dtype=np.float64))


P3_L = csr([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


class TestTopK:
    def test_identity(self):
        pairs = top_k_eigs(sp.identity(3, format="csr"), 2)
        assert np.allclose(pairs.values, [1, 1])
        G = pairs.vectors.T @ pairs.vectors
        assert np.allclose(G, np.eye(2), atol=1e-8)

    def test_path_two(self):
        pairs = top_k_eigs(csr([[0, 1], [1, 0]]), 2)
        assert np.allclose(pairs.values, [1, -1], atol=1e-10)
        want = np.array([1, 1]) / np.sqrt(2)
        assert min(np.abs(pairs.vectors[:, 0] - want).max(),
                   np.abs(pairs.vectors[:, 0] + want).max()) < 1e-8

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((8, 8))
        M = (M + M.T) / 2
        pairs = top_k_eigs(sp.csr_array(M), 8)
        ref = np.linalg.eigvalsh(M)[::-1]
        assert np.abs(pairs.values - ref).max() < 1e-8

    def test_residual_contract(self):
        rng = np.random.default_rng(12)
        A = random_connected_graph(10, rng, weighted=True)
        tol = 1e-10
        pairs = top_k_eigs(A, 5, tol=tol)
        for lam, v in zip(pairs.values, pairs.vectors.T):
            assert np.linalg.norm(A @ v - lam * v) <= tol * max(1, abs(lam))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            top_k_eigs(csr([[0, 1], [0, 0]]), 1)

    def test_residual_gate_raises_with_the_largest_residual(self):
        """On the dense path no pair can meet a tol below rounding: the
        residual gate raises ConvergenceError naming every pair and carrying
        the largest residual."""
        M = np.random.default_rng(13).standard_normal((6, 6))
        M = csr(M + M.T)
        pairs = top_k_eigs(M, 3)
        residuals = np.linalg.norm(M @ pairs.vectors - pairs.vectors * pairs.values, axis=0)
        assert np.all(residuals > 0)
        with pytest.raises(ConvergenceError, match=r"eigenpairs \[0, 1, 2\] of 3 miss") as info:
            top_k_eigs(M, 3, tol=1e-300)
        assert info.value.residual == pytest.approx(residuals.max(), rel=1e-9, abs=0)

    def test_symmetry_tolerance_scales_with_the_largest_entry(self):
        """Asymmetry up to 1e-12 times max(1, max |M|) passes and beyond it
        raises, both where the two patterns agree and where an entry's
        mirror is not stored."""
        base = np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 3.0], [0.0, 3.0, 1.0]]) * 1e3

        def with_entry(i, j, value):
            M = base.copy()
            M[i, j] = value
            return csr(M)

        # the largest entry is 3e3, so the bound is 3e-9
        for M in (with_entry(0, 1, 1e3 + 1e-9), with_entry(0, 2, 1e-9)):
            assert len(top_k_eigs(M, 1)) == 1
        for M in (with_entry(1, 2, 3e3 + 1e-8), with_entry(0, 2, 1e-8)):
            with pytest.raises(ValueError, match="not symmetric within tolerance"):
                top_k_eigs(M, 1)

    def test_symmetry_check_reads_summed_duplicates(self):
        """Stored as 1 + 2 at (0, 1) and 2 + 1 at (1, 0), the matrix has its
        transpose's pattern, and only the summed entries agree."""
        M = sp.csr_array(([1.0, 2.0, 2.0, 1.0, 5.0], [1, 1, 0, 0, 2], [0, 2, 4, 5]),
                         shape=(3, 3))
        assert not M.has_canonical_format
        assert top_k_eigs(M, 1).values[0] == pytest.approx(5.0)
        with pytest.raises(ValueError, match="not symmetric within tolerance"):
            top_k_eigs(sp.csr_array(([1.0, 2.0, 2.0, 2.0, 5.0], [1, 1, 0, 0, 2], [0, 2, 4, 5]),
                                    shape=(3, 3)), 1)

    def test_degenerate_subspace_projector(self):
        # K3 adjacency: eigenvalues 2, -1, -1; compare projector not vectors
        A = csr(np.ones((3, 3)) - np.eye(3))
        pairs = top_k_eigs(A, 3)
        low = pairs.vectors[:, 1:]
        proj = low @ low.T
        expect = np.eye(3) - np.ones((3, 3)) / 3
        assert np.abs(proj - expect).max() < 1e-8


class TestBottomK:
    def test_connected_kernel_vector(self):
        pairs = bottom_k_eigs(P3_L, 1)
        assert abs(pairs.values[0]) < 1e-10
        want = np.ones(3) / np.sqrt(3)
        v = pairs.vectors[:, 0]
        assert min(np.abs(v - want).max(), np.abs(v + want).max()) < 1e-8

    def test_path_three_spectrum(self):
        pairs = bottom_k_eigs(P3_L, 3)
        assert np.allclose(pairs.values, [0, 1, 3], atol=1e-9)

    def test_two_components_two_zeros(self):
        L = csr([[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1]])
        pairs = bottom_k_eigs(L, 2)
        assert np.abs(pairs.values).max() < 1e-10


class TestSparsePath:
    """n = 600 is above DENSE_MAX_N, so these go through ARPACK; the dense
    LAPACK spectrum is the oracle."""

    n = 600

    def graph(self, seed=21):
        return random_connected_graph(self.n, np.random.default_rng(seed), weighted=True)

    def test_sizes_take_the_sparse_path(self):
        assert DENSE_MAX_N < self.n and 2 * 8 < self.n

    def test_values_match_dense_oracle(self):
        A = self.graph()
        L = laplacian(A)
        top = top_k_eigs(A, 8).values
        bottom = bottom_k_eigs(L, 8).values
        assert np.abs(top - np.linalg.eigvalsh(A.toarray())[::-1][:8]).max() < 1e-8
        assert np.abs(bottom - np.linalg.eigvalsh(L.toarray())[:8]).max() < 1e-8

    def test_repeated_top_eigenvalue(self):
        # 150 disjoint K4: eigenvalue 3 with multiplicity 150
        K4 = np.ones((4, 4)) - np.eye(4)
        A = sp.csr_array(sp.block_diag([K4] * 150))
        pairs = top_k_eigs(A, 6)
        assert np.abs(pairs.values - 3.0).max() < 1e-8
        assert np.abs(pairs.vectors.T @ pairs.vectors - np.eye(6)).max() < 1e-8

    def test_three_components_three_zeros(self):
        rng = np.random.default_rng(22)
        blocks = [random_connected_graph(self.n // 3, rng, weighted=True) for _ in range(3)]
        L = laplacian(sp.csr_array(sp.block_diag(blocks)))
        pairs = bottom_k_eigs(L, 5)
        assert np.abs(pairs.values[:3]).max() < 1e-10
        assert np.abs(pairs.values - np.linalg.eigvalsh(L.toarray())[:5]).max() < 1e-8

    def test_residual_contract(self):
        A = self.graph()
        L = laplacian(A)
        tol = 1e-10
        top = top_k_eigs(A, 8, tol=tol)
        bottom = bottom_k_eigs(L, 8, tol=tol)
        for lam, v in zip(top.values, top.vectors.T):
            assert np.linalg.norm(A @ v - lam * v) <= tol * max(1, abs(lam))
        for lam, v in zip(bottom.values, bottom.vectors.T):
            assert np.linalg.norm(L @ v - lam * v) <= tol

    def test_sign_gauge(self):
        pairs = top_k_eigs(self.graph(), 8)
        peak = np.argmax(np.abs(pairs.vectors), axis=0)
        assert np.all(pairs.vectors[peak, np.arange(8)] > 0)

    def test_same_seed_byte_equal(self):
        A = self.graph()
        first = top_k_eigs(A, 8, seed=5)
        second = top_k_eigs(A, 8, seed=5)
        assert first.values.tobytes() == second.values.tobytes()
        assert first.vectors.tobytes() == second.vectors.tobytes()

    def test_zero_matrix(self):
        pairs = top_k_eigs(sp.csr_array((self.n, self.n)), 3)
        assert np.all(pairs.values == 0.0)
        assert np.abs(pairs.vectors.T @ pairs.vectors - np.eye(3)).max() < 1e-12

    def test_no_convergence_is_convergence_error(self):
        with pytest.raises(ConvergenceError) as info:
            top_k_eigs(self.graph(), 8, max_iter=1)
        assert info.value.residual > 1e-10

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("which", ["LA", "SA", "LM"])
    def test_arpack_stop_meets_the_residual_bound(self, which, tol):
        """ARPACK stops at the caller's tol (||r|| <= tol |lambda|), which
        never leaves a pair above the checked bound tol * max(1, s)."""
        A = self.graph()
        M = laplacian(A) if which == "SA" else A
        pairs = _extreme_pairs(M, 8, which, tol, 5000, 0)
        residuals = np.linalg.norm(M @ pairs.vectors - pairs.vectors * pairs.values, axis=0)
        assert residuals.max() <= tol * max(1.0, abs(M).sum(axis=1).max())
        dense = np.linalg.eigvalsh(M.toarray())
        want = {"LA": dense[::-1], "SA": dense,
                "LM": dense[np.argsort(-np.abs(dense), kind="stable")]}[which][:8]
        assert np.abs(pairs.values - want).max() < 1e-8

    def test_caller_tol_reaches_arpack(self, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["tol"])
            return eigsh(*args, **kwargs)

        # spectral imports eigsh from scipy.sparse.linalg where ARPACK runs
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
        top_k_eigs(self.graph(), 8, tol=1e-9)
        bottom_k_eigs(laplacian(self.graph()), 8, tol=1e-11)
        assert seen == [1e-9, 1e-11]


SCALES = (1e-6, 1.0, 1e6, 1e9)


@pytest.mark.parametrize("n", [300, 600])
@pytest.mark.parametrize("which", ["LA", "SA", "LM"])
def test_eigenpairs_scale_with_the_matrix(n, which):
    """The residual bound grows with the matrix, so c M yields the pairs of M
    with the values times c, on the dense (n = 300) and ARPACK (n = 600)
    branches; with an absolute bound the smallest pairs failed at c = 1e6."""
    A = random_connected_graph(n, np.random.default_rng(41), weighted=True)
    M = laplacian(A) if which == "SA" else A
    base = _extreme_pairs(M, 8, which, 1e-10, 5000, 0)
    for c in SCALES:
        pairs = _extreme_pairs(c * M, 8, which, 1e-10, 5000, 0)
        assert np.abs(pairs.vectors - base.vectors).max() < 1e-8
        assert np.abs(pairs.values / c - base.values).max() < 1e-10 * np.abs(base.values).max()


def test_largest_magnitude_order():
    M = csr(np.diag([1.0, -3.0, 2.0, -0.5]))
    pairs = _extreme_pairs(M, 3, "LM", 1e-10, 5000, 0)
    assert np.array_equal(pairs.values, [-3.0, 2.0, 1.0])
    assert np.array_equal(np.abs(pairs.vectors), np.eye(4)[:, [1, 2, 0]])


@pytest.mark.parametrize("c", SCALES)
def test_embeddings_scale_with_the_matrix(c):
    """Both embeddings of c A are those of A scaled by c (adjacency) and
    1/sqrt(c) (resistance), also where most eigenvalues are zero."""
    rng = np.random.default_rng(43)
    A = random_connected_graph(1000, rng, weighted=True)
    ref = resistance_embedding(laplacian(A), 16)
    emb = resistance_embedding(laplacian(c * A), 16)
    assert np.abs(emb * np.sqrt(c) - ref).max() < 1e-8 * np.abs(ref).max()
    core = sp.coo_array(random_connected_graph(10, rng, weighted=True))
    sparse_core = sp.csr_array((core.data, (core.row, core.col)), shape=(1000, 1000))
    ref = adjacency_embedding(sparse_core, 32)
    emb = adjacency_embedding(c * sparse_core, 32)
    assert np.abs(emb / c - ref).max() < 1e-8 * np.abs(ref).max()


@pytest.mark.parametrize("embed, matrix", [(adjacency_embedding, lambda A: A),
                                           (resistance_embedding, laplacian)])
def test_sparse_embedding_memory_is_linear(embed, matrix):
    """Peak traced memory stays within a constant times the sparse input plus
    the n x d output; an n x n array would be about 900 times that."""
    n, d = 20000, 16
    M = matrix(random_connected_graph(n, np.random.default_rng(7), extra_edges=2 * n))
    tracemalloc.start()
    try:
        embed(M, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (M.nnz + n * d) * 8


class TestAdjacencyEmbedding:
    def test_complete_graph_d1(self):
        A = csr(np.ones((3, 3)) - np.eye(3))
        emb = adjacency_embedding(A, 1)
        want = 2 * np.ones(3) / np.sqrt(3)
        assert min(np.abs(emb[:, 0] - want).max(), np.abs(emb[:, 0] + want).max()) < 1e-8

    def test_empty_graph_zero_embedding(self):
        emb = adjacency_embedding(sp.csr_array((4, 4)), 2)
        assert np.abs(emb).max() < 1e-12

    def test_disjoint_pairs(self):
        A = sp.csr_array(sp.block_diag([np.array([[0, 1], [1, 0]])] * 2).toarray())
        emb = adjacency_embedding(A, 2)
        # two unit eigenvalues; rows of one pair identical, cross pairs differ
        assert np.allclose(emb[0], emb[1], atol=1e-8)
        assert np.allclose(emb[2], emb[3], atol=1e-8)
        assert np.linalg.norm(emb[0] - emb[2]) > 0.5


class TestResistanceEmbedding:
    def test_path_three_endpoints(self):
        emb = resistance_embedding(P3_L, 2)
        assert abs(np.sum((emb[0] - emb[2]) ** 2) - 2.0) < 1e-9

    def test_single_edge(self):
        L = csr([[1, -1], [-1, 1]])
        emb = resistance_embedding(L, 1)
        assert abs(np.sum((emb[0] - emb[1]) ** 2) - 1.0) < 1e-9

    def test_complete_three(self):
        A = np.ones((3, 3)) - np.eye(3)
        L = csr(np.diag(A.sum(axis=1)) - A)
        emb = resistance_embedding(L, 2)
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(np.sum((emb[i] - emb[j]) ** 2) - 2 / 3) < 1e-9

    def test_d_larger_than_rank_rejected(self):
        with pytest.raises(ValueError, match="components"):
            resistance_embedding(P3_L, 3)

    @staticmethod
    def core_with_isolated(n, core, seed):
        """Laplacian of a connected weighted core on ``core`` random nodes of
        n; the other nodes are isolated. Returns (L, core node ids)."""
        rng = np.random.default_rng(seed)
        nodes = np.sort(rng.choice(n, core, replace=False))
        C = sp.coo_array(random_connected_graph(core, rng, weighted=True))
        A = sp.csr_array((C.data, (nodes[C.row], nodes[C.col])), shape=(n, n))
        return laplacian(A), nodes

    @staticmethod
    def assert_rank_d_identity(L, emb, d):
        """||f(i) - f(j)||^2 equals the rank-d pseudoinverse distance taken
        from the dense spectrum."""
        vals, vecs = np.linalg.eigh(L.toarray())
        keep = vals > 1e-9 * vals.max()
        vals, vecs = vals[keep][:d], vecs[:, keep][:, :d]
        S = (vecs / vals) @ vecs.T
        sq = np.einsum("id,id->i", emb, emb)
        dist2 = sq[:, None] + sq[None, :] - 2 * emb @ emb.T
        lhs = np.diag(S)[:, None] + np.diag(S)[None, :] - 2 * S
        assert np.abs(lhs - dist2).max() < 1e-9

    def test_isolated_nodes_sparse_solve(self):
        # 400 isolated nodes add 400 kernel modes; they must not enter the solve
        L, nodes = self.core_with_isolated(1000, 600, seed=31)
        emb = resistance_embedding(L, 16)
        assert np.all(np.delete(emb, nodes, axis=0) == 0.0)
        self.assert_rank_d_identity(L, emb, 16)

    def test_small_components_sparse_solve(self):
        # a 600-node core plus ten light disjoint edges whose modes are among
        # the smallest; one Lanczos solve on the whole Laplacian misses some
        # of the eleven kernel modes
        core = random_connected_graph(600, np.random.default_rng(33), weighted=True)
        edges = [np.array([[0.0, w], [w, 0.0]]) for w in 1e-3 * np.arange(1, 11)]
        L = laplacian(sp.csr_array(sp.block_diag([core] + edges)))
        emb = resistance_embedding(L, 16)
        self.assert_rank_d_identity(L, emb, 16)

    @pytest.fixture
    def no_power_estimate(self, monkeypatch):
        """The kernel cutoff scales with the row-sum bound, not a power
        estimate of the spectral radius."""
        def unreachable(*args, **kwargs):
            raise AssertionError("resistance_embedding must not estimate the spectral radius")

        monkeypatch.setattr(graphs, "spectral_radius", unreachable)
        monkeypatch.setattr(spectral, "spectral_radius", unreachable)

    def test_cutoff_without_spectral_radius(self, no_power_estimate):
        for n in (30, 600):  # the dense and the ARPACK eigensolver path
            L = laplacian(random_connected_graph(n, np.random.default_rng(34), weighted=True))
            self.assert_rank_d_identity(L, resistance_embedding(L, 8), 8)
        L, nodes = self.core_with_isolated(1000, 600, seed=31)
        emb = resistance_embedding(L, 16)
        assert np.all(np.delete(emb, nodes, axis=0) == 0.0)
        self.assert_rank_d_identity(L, emb, 16)

    @pytest.mark.parametrize("n", [40, 600])
    def test_near_disconnected_component_refused(self, n, no_power_estimate):
        """Two halves joined by one link of weight 1e-12 have a second
        eigenvalue far below 1e-9 * s, so the component shows two kernel modes."""
        rng = np.random.default_rng(35)
        halves = [random_connected_graph(n // 2, rng, weighted=True) for _ in range(2)]
        A = sp.lil_array(sp.block_diag(halves))
        A[0, n // 2] = A[n // 2, 0] = 1e-12
        with pytest.raises(ValueError, match="near-disconnected"):
            resistance_embedding(laplacian(sp.csr_array(A)), 4)

    @pytest.mark.parametrize("k", [0, 6, 9, 12])
    def test_light_component_keeps_its_own_cutoff(self, k):
        """A 30-node weighted component plus a 10-node one scaled by 10^-k:
        each component's kernel test reads its own row sums, so the light one
        embeds at full rank d = n - c. Oracle: the pseudoinverse of each
        component's dense block, which does not mix the two weight scales as
        one global cutoff would."""
        rng = np.random.default_rng(36)
        blocks = [random_connected_graph(30, rng, weighted=True),
                  10.0 ** -k * random_connected_graph(10, rng, weighted=True)]
        L = laplacian(sp.csr_array(sp.block_diag(blocks)))
        emb = resistance_embedding(L, L.shape[0] - 2)
        P = sp.block_diag([np.linalg.pinv(laplacian(B).toarray(), hermitian=True)
                           for B in blocks]).toarray()
        p = np.diag(P)
        want = p[:, None] + p[None, :] - 2 * P
        sq = np.einsum("id,id->i", emb, emb)
        got = sq[:, None] + sq[None, :] - 2 * emb @ emb.T
        assert np.all(np.abs(got - want) <= 1e-9 * (p[:, None] + p[None, :]))

    def test_isolated_nodes_full_rank_resistance(self):
        L, nodes = self.core_with_isolated(600, 30, seed=32)
        emb = resistance_embedding(L, 29)
        assert np.all(np.delete(emb, nodes, axis=0) == 0.0)
        for i in nodes[::6]:
            for j in nodes[1::6]:
                r = effective_resistance(L, i, j)
                assert abs(np.sum((emb[i] - emb[j]) ** 2) - r) < 1e-9


class TestEffectiveResistance:
    def test_single_resistor(self):
        assert abs(effective_resistance(csr([[1, -1], [-1, 1]]), 0, 1) - 1.0) < 1e-12

    def test_series_resistors(self):
        assert abs(effective_resistance(P3_L, 0, 2) - 2.0) < 1e-12

    def test_same_node_zero(self):
        assert effective_resistance(P3_L, 1, 1) == 0.0

    @pytest.mark.parametrize("scale", [1e-9, 1e-12])
    def test_each_component_has_its_own_cutoff(self, scale):
        """A 10-node component whose weights are ``scale`` times those of a
        30-node one: within each, the resistance is the component's own
        dense pseudoinverse's, not zero, and the full-rank embedding agrees."""
        rng = np.random.default_rng(7)
        heavy = laplacian(random_connected_graph(30, rng, weighted=True))
        light = scale * laplacian(random_connected_graph(10, rng, weighted=True))
        L = sp.block_diag([heavy, light], format="csr")
        emb = resistance_embedding(L, 38)
        for block, offset in ((heavy, 0), (light, 30)):
            pinv = np.linalg.pinv(block.toarray(), hermitian=True)
            for i, j in ((0, 1), (2, 9), (4, 7)):
                want = pinv[i, i] + pinv[j, j] - 2.0 * pinv[i, j]
                got = effective_resistance(L, offset + i, offset + j)
                assert abs(got - want) <= 1e-9 * want
                assert abs(np.sum((emb[offset + i] - emb[offset + j]) ** 2) - got) <= 1e-8 * got

    def test_size_guard(self):
        big = sp.identity(2001, format="csr")
        with pytest.raises(ValueError, match="2000"):
            effective_resistance(big, 0, 1)


@given(st.integers(0, 10 ** 6), st.integers(3, 15))
@settings(max_examples=20)
def test_resistance_identity_all_ranks(seed, n):
    """Low-rank pseudoinverse identity: S_ii + S_jj - 2 S_ij = ||f(i)-f(j)||^2."""
    rng = np.random.default_rng(seed)
    A = random_connected_graph(n, rng, weighted=True)
    L = laplacian(A)
    pairs = bottom_k_eigs(L, n, tol=1e-11)
    vals, vecs = pairs.values[1:], pairs.vectors[:, 1:]
    for d in (1, n // 2, n - 1):
        d = max(1, min(d, n - 1))
        S = (vecs[:, :d] / vals[:d]) @ vecs[:, :d].T
        emb = resistance_embedding(L, d)
        for i in range(n):
            for j in range(n):
                lhs = S[i, i] + S[j, j] - 2 * S[i, j]
                rhs = np.sum((emb[i] - emb[j]) ** 2)
                assert abs(lhs - rhs) < 1e-9


@given(st.integers(0, 10 ** 6), st.integers(3, 15))
@settings(max_examples=20)
def test_full_rank_embedding_reproduces_resistance(seed, n):
    rng = np.random.default_rng(seed)
    A = random_connected_graph(n, rng, weighted=True)
    L = laplacian(A)
    emb = resistance_embedding(L, n - 1)
    for i in range(0, n, 2):
        for j in range(1, n, 2):
            r = effective_resistance(L, i, j)
            assert abs(np.sum((emb[i] - emb[j]) ** 2) - r) < 1e-9


@given(st.integers(0, 10 ** 6), st.integers(4, 12))
@settings(max_examples=15)
def test_rank_d_operator_norm_optimality(seed, n):
    """||S - L+||_op equals 1/lambda_{d+1} for the rank-d approximant."""
    rng = np.random.default_rng(seed)
    A = random_connected_graph(n, rng, weighted=True)
    L = laplacian(A).toarray()
    vals, vecs = np.linalg.eigh(L)
    nz = vals > 1e-9 * vals.max()
    vals, vecs = vals[nz], vecs[:, nz]
    pinv = (vecs / vals) @ vecs.T
    for d in (1, 2, len(vals) - 1):
        if d < 1 or d >= len(vals):
            continue
        S = (vecs[:, :d] / vals[:d]) @ vecs[:, :d].T
        gap = np.linalg.norm(S - pinv, ord=2)
        assert abs(gap - 1.0 / vals[d]) < 1e-8


@given(st.integers(0, 10 ** 6), st.integers(3, 12))
@settings(max_examples=15)
def test_effective_resistance_is_a_metric(seed, n):
    rng = np.random.default_rng(seed)
    A = random_connected_graph(n, rng, weighted=True)
    L = laplacian(A)
    R = np.array([[effective_resistance(L, i, j) for j in range(n)] for i in range(n)])
    assert np.abs(R - R.T).max() < 1e-10
    assert np.abs(np.diag(R)).max() == 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert R[i, j] <= R[i, k] + R[k, j] + 1e-9
