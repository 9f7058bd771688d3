import gc
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from dynten import graphs
from dynten.embed import make_weights, precondition
from dynten.graphs import (KATZ_MAX_NODES, DynamicNetwork, ReducibleChainError,
                           adjacency_from_edges, degree_matrix, katz_adjacency,
                           katz_omega_bound, laplacian, spectral_radius,
                           stationary_vector, symmetrized_adjacency, transition_matrix)
from dynten.io import load_dynamic_network
from dynten.synth import dynamic_sbm

from conftest import (align_edge_lists, bfs_component_count, entries,
                      random_connected_graph)


def csr(rows):
    return sp.csr_array(np.asarray(rows, dtype=np.float64))


class TestAlign:
    def test_union_of_labels(self):
        net = align_edge_lists([[("a", "b")], [("b", "c")]])
        assert net.labels == ("a", "b", "c")
        assert net.n == 3 and net.tau == 2
        # both slices padded to 3 nodes
        assert all(A.shape == (3, 3) for A in net.snapshots)

    def test_single_empty_snapshot(self):
        net = align_edge_lists([[]], snapshot_labels=[["x", "y"]])
        assert net.n == 2 and net.tau == 1
        assert net.snapshots[0].nnz == 0

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="dup"):
            align_edge_lists([[]], snapshot_labels=[["dup", "dup"]])

    def test_stable_index_map(self):
        net = align_edge_lists([[("b", "a", 2.0)], [("a", "c")]])
        i = {lab: k for k, lab in enumerate(net.labels)}
        A0 = net.adjacency(0).toarray()
        assert A0[i["b"], i["a"]] == 2.0
        A1 = net.adjacency(1).toarray()
        assert A1[i["a"], i["c"]] == 1.0

    def test_duplicate_edges_summed(self):
        net = align_edge_lists([[("a", "b", 1.0), ("a", "b", 2.0)]], directed=True)
        assert net.adjacency(0).toarray()[0, 1] == 3.0


class TestMatrices:
    def test_single_directed_edge(self):
        A = adjacency_from_edges(2, [0], [1], [2.0]).toarray()
        assert A[0, 1] == 2.0 and A.sum() == 2.0

    def test_undirected_edge_symmetric(self):
        A = adjacency_from_edges(2, [0], [1], [1.0], undirected=True).toarray()
        assert A[0, 1] == A[1, 0] == 1.0

    def test_undirected_both_orientations(self):
        with pytest.raises(ValueError, match="conflicting weights"):
            adjacency_from_edges(3, [0, 1], [1, 0], [1.0, 2.0], undirected=True)
        A = adjacency_from_edges(3, [2, 1, 0], [1, 2, 0], [3.0, 3.0, 1.5],
                                 undirected=True)
        assert entries(A) == [(0, 0, 1.5), (1, 2, 3.0), (2, 1, 3.0)]
        # duplicates are summed per orientation before the check
        A = adjacency_from_edges(2, [0, 0, 1], [1, 1, 0], [1.0, 1.0, 2.0],
                                 undirected=True)
        assert entries(A) == [(0, 1, 2.0), (1, 0, 2.0)]

    def test_empty_snapshot(self):
        A = adjacency_from_edges(3, [], [], [])
        assert A.nnz == 0 and A.shape == (3, 3)

    def test_malformed_edges_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            adjacency_from_edges(2, [0], [2], [1.0])
        with pytest.raises(ValueError, match="finite"):
            adjacency_from_edges(2, [0], [1], [np.inf])
        with pytest.raises(ValueError, match="equal length"):
            adjacency_from_edges(3, [0, 1], [1], [1.0])

    def test_network_requires_canonical_slices(self):
        good = adjacency_from_edges(2, [0], [1], [1.0], undirected=True)
        net = DynamicNetwork.from_snapshots(("a", "b"), (good,))
        A = net.adjacency(0)
        assert (A != good).nnz == 0 and np.shares_memory(A.data, net.stack.data)
        unsorted = sp.csr_array((np.array([1.0, 2.0]), np.array([1, 0]),
                                 np.array([0, 2, 2])), shape=(2, 2))
        duplicate = sp.csr_array((np.array([1.0, 2.0]), np.array([1, 1]),
                                  np.array([0, 2, 2])), shape=(2, 2))
        explicit_zero = sp.csr_array((np.array([0.0]), np.array([1]),
                                      np.array([0, 1, 1])), shape=(2, 2))
        for bad in (sp.csr_array((3, 3)), good.astype(np.float32), good.tocoo(),
                    unsorted, duplicate, explicit_zero):
            with pytest.raises(ValueError, match="snapshot 0 is not a canonical"):
                DynamicNetwork.from_snapshots(("a", "b"), (bad,))

    def test_undirected_network_requires_symmetric_slices(self):
        # only A[1, 0] = 1: the writer keeps the upper triangle of an
        # undirected slice, so this link would be dropped on write
        lower = adjacency_from_edges(2, [1], [0], [1.0])
        sym = adjacency_from_edges(2, [0], [1], [1.0], undirected=True)
        with pytest.raises(ValueError, match="snapshot 1 of an undirected network "
                                             "is not symmetric"):
            DynamicNetwork.from_snapshots(("a", "b"), (sym, lower))
        assert DynamicNetwork.from_snapshots(("a", "b"), (sym, lower), directed=True).tau == 2
        # unequal weights on the two orientations are asymmetric too
        skew = adjacency_from_edges(2, [0, 1], [1, 0], [1.0, 2.0])
        with pytest.raises(ValueError, match="not symmetric"):
            DynamicNetwork.from_snapshots(("a", "b"), (skew,))

    def test_every_network_holds_its_slices_as_views_of_its_stack(self, tmp_path):
        """Loaded, synthetic, built from slices or cut as a prefix, a network
        keeps one store: each slice shares memory with its stack, and a
        prefix's stack shares memory with the whole network's."""
        path = tmp_path / "net.edges"
        path.write_text("0 a b\n0 b c\n1 a c\n2 c d\n2 a d\n")
        loaded = load_dynamic_network(path)
        synthetic, _ = dynamic_sbm(20, 3, seed=1)
        built = DynamicNetwork.from_snapshots(loaded.labels, loaded.snapshots)
        for whole in (loaded, synthetic, built):
            for net in (whole, whole.prefix(1), whole.prefix(2), whole.prefix(3)):
                assert net.stack.shape == (net.tau * net.n, net.n)
                assert all(np.shares_memory(A.data, net.stack.data)
                           and np.shares_memory(A.indices, net.stack.indices)
                           for A in net.snapshots)
                assert np.shares_memory(net.stack.data, whole.stack.data)
                assert net.labels is whole.labels and net.directed == whole.directed
            assert all((A != B).nnz == 0 for A, B in zip(built.snapshots, loaded.snapshots))
        with pytest.raises(ValueError, match="prefix length 4"):
            loaded.prefix(4)
        with pytest.raises(ValueError, match="prefix length 0"):
            loaded.prefix(0)

    def test_network_refuses_a_stack_of_another_shape(self):
        good = adjacency_from_edges(2, [0], [1], [1.0], undirected=True)
        for labels, stack in ((("a", "b"), sp.vstack([good, good])[:3]),
                              (("a", "b", "c"), good), ((), sp.csr_array((0, 0))),
                              (("a", "b"), good.tocoo()), (("a", "b"), sp.csr_array((0, 2)))):
            with pytest.raises(ValueError, match="need at least one node, and a stack"):
                DynamicNetwork(labels, stack)
        with pytest.raises(ValueError, match="need at least one snapshot"):
            DynamicNetwork.from_snapshots(("a", "b"), ())

    def test_degree_out(self):
        D = degree_matrix(csr([[0, 2], [0, 0]])).toarray()
        assert np.allclose(np.diag(D), [2, 0])

    def test_degree_in_equals_out_for_symmetric(self):
        A = csr([[0, 1, 2], [1, 0, 0], [2, 0, 0]])
        din = A.toarray().sum(axis=0)
        dout = degree_matrix(A).toarray()
        assert np.allclose(np.diag(din), dout)

    def test_degree_three_cycle(self):
        A = csr([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert np.allclose(np.diag(degree_matrix(A).toarray()), [1, 1, 1])

    def test_laplacian_path(self):
        L = laplacian(csr([[0, 1], [1, 0]])).toarray()
        assert np.allclose(L, [[1, -1], [-1, 1]])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            laplacian(csr([[0, -1], [0, 0]]))

    def test_transition_matrix(self):
        P = transition_matrix(csr([[0, 2], [2, 0]])).toarray()
        assert np.allclose(P, [[0, 1], [1, 0]])

    def test_transition_zero_row_stays_zero(self):
        P = transition_matrix(csr([[0, 1], [0, 0]])).toarray()
        assert np.allclose(P[1], 0)

    def test_transition_weighted_star_row_sums(self):
        A = csr([[0, 1, 2, 3], [1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0]])
        P = transition_matrix(A).toarray()
        assert np.allclose(P.sum(axis=1), 1.0)


class TestStationary:
    def test_undirected_equals_degrees(self):
        rng = np.random.default_rng(0)
        A = random_connected_graph(7, rng, weighted=True)
        P = transition_matrix(A)
        phi = stationary_vector(P, total_weight=float(A.sum()))
        d = np.asarray(A.sum(axis=1)).ravel()
        assert np.allclose(phi, d, rtol=1e-8)

    def test_directed_two_cycle(self):
        P = transition_matrix(csr([[0, 1], [1, 0]]))
        phi = stationary_vector(P, total_weight=2.0)
        assert np.allclose(phi, [1, 1])

    def test_three_cycle(self):
        A = csr([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        phi = stationary_vector(transition_matrix(A), total_weight=3.0)
        assert np.allclose(phi, [1, 1, 1])

    def test_reducible_raises_with_advice(self):
        P = transition_matrix(csr([[0, 1], [0, 0]]))
        with pytest.raises(ReducibleChainError, match="teleport"):
            stationary_vector(P)

    def test_teleport_regularization(self):
        P = transition_matrix(csr([[0, 1], [0, 0]]))
        phi = stationary_vector(P, total_weight=1.0, teleport=1e-3)
        assert phi.min() > 0 and abs(phi.sum() - 1.0) < 1e-9

    def test_residual_and_mass_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            A = random_connected_graph(9, rng, weighted=True)
            P = transition_matrix(A)
            w = float(A.sum())
            phi = stationary_vector(P, total_weight=w)
            assert np.abs(phi @ P - phi).sum() / np.abs(phi).sum() < 1e-10
            assert abs(phi.sum() - w) < 1e-9 * w


def chung_laplacian(A):
    """Chung's directed Laplacian Phi - (Phi P + P^T Phi)/2, built densely,
    with Phi the stationary vector scaled to the total weight."""
    P = transition_matrix(A)
    phi = stationary_vector(P, total_weight=float(A.sum()))
    Pd = P.toarray()
    return np.diag(phi) - 0.5 * (phi[:, None] * Pd + Pd.T * phi[None, :])


def random_strong_digraph(n, rng):
    """A weighted directed cycle through every node (so strongly connected)
    plus random extra directed edges."""
    perm = rng.permutation(n)
    src = list(perm)
    dst = list(np.roll(perm, -1))
    extra = rng.integers(0, n, size=(2, int(rng.integers(0, 2 * n))))
    keep = extra[0] != extra[1]
    src += extra[0][keep].tolist()
    dst += extra[1][keep].tolist()
    return adjacency_from_edges(n, src, dst, rng.uniform(0.5, 2.0, size=len(src)))


class TestDirectedLaplacians:
    """The directed Laplacian of Chung 2005 is the combinatorial Laplacian of
    the stationary-vector symmetrization."""

    def test_undirected_reduces_to_plain(self):
        rng = np.random.default_rng(1)
        A = random_connected_graph(6, rng, weighted=True)
        Lhat = laplacian(symmetrized_adjacency(A)).toarray()
        assert np.allclose(Lhat, laplacian(A).toarray(), atol=1e-9)

    def test_directed_two_cycle(self):
        Lhat = laplacian(symmetrized_adjacency(csr([[0, 1], [1, 0]]))).toarray()
        assert np.allclose(Lhat, [[1, -1], [-1, 1]])

    def test_exact_symmetry(self):
        rng = np.random.default_rng(3)
        base = random_connected_graph(6, rng, weighted=True).toarray()
        A = sp.csr_array(np.triu(base) + 0.3 * np.tril(base))  # strongly connected digraph
        M = laplacian(symmetrized_adjacency(A)).toarray()
        assert np.abs(M - M.T).max() == 0.0

    @given(st.integers(0, 10 ** 6), st.integers(2, 12))
    def test_symmetrized_laplacian_is_chung_laplacian(self, seed, n):
        A = random_strong_digraph(n, np.random.default_rng(seed))
        L = laplacian(symmetrized_adjacency(A)).toarray()
        want = chung_laplacian(A)
        scale = np.abs(want).max()
        assert np.abs(L - want).max() <= 1e-9 * scale
        assert np.array_equal(L, L.T)
        assert np.abs(L.sum(axis=1)).max() <= 1e-12 * scale

    def test_symmetrized_adjacency_identity_on_undirected(self):
        rng = np.random.default_rng(5)
        A = random_connected_graph(6, rng, weighted=True)
        S = symmetrized_adjacency(A).toarray()
        assert np.allclose(S, A.toarray(), atol=1e-9)

    def test_symmetrized_adjacency_two_cycle(self):
        S = symmetrized_adjacency(csr([[0, 1], [1, 0]])).toarray()
        assert np.allclose(S, [[0, 1], [1, 0]])

    def test_symmetrized_adjacency_reducible(self):
        with pytest.raises(ReducibleChainError):
            symmetrized_adjacency(csr([[0, 1], [0, 0]]))
        S = symmetrized_adjacency(csr([[0, 1], [0, 0]]), teleport=1e-3)
        assert np.abs(S.toarray() - S.toarray().T).max() == 0.0


def dia_transition_reference(A):
    """The earlier transition_matrix: a diagonal-matrix product D^-1 A."""
    d = np.asarray(A.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        dinv = np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0)
    return graphs._compact(sp.dia_array((dinv[None, :], [0]), shape=A.shape) @ A)


def two_product_stationary_reference(P, total_weight, teleport):
    """The earlier power loop of the strict chain (``teleport`` None; the
    teleport chain is checked against ``perron_vector``), which takes phi P
    twice per step: once for the next iterate and once more for its residual,
    the documented ||normalize(phi P) - phi||. Returns the scaled vector and
    the number of steps taken."""
    assert teleport is None
    n = P.shape[0]
    phi = np.full(n, 1.0 / n)
    for steps in range(1, graphs.STATIONARY_MAX_ITER + 1):
        nxt = 0.5 * (phi + phi @ P)
        phi = nxt / nxt.sum()
        step = phi @ P
        residual = float(np.abs(step / step.sum() - phi).sum())
        if residual < graphs.STATIONARY_TOL:
            break
    else:
        raise graphs.ConvergenceError(
            f"stationary vector did not converge in {graphs.STATIONARY_MAX_ITER} "
            f"iterations (residual {residual:.3e})", residual)
    return phi * (total_weight / phi.sum()), steps


def dense_teleport_chain(P, teleport):
    """T = (1 - eps) P + eps J / n as a dense array; P itself when ``teleport`` is None."""
    eps = teleport or 0.0
    return (1.0 - eps) * P.toarray() + eps / P.shape[0]


def perron_vector(P, teleport):
    """Dense oracle for the teleport chain: the Perron left eigenvector of T,
    from LAPACK ``eig``, with entries summing to 1. T is positive, so its
    Perron root is simple and has the largest real part; with zero rows in P
    it is below 1, and the vector is the normalized fixed point of phi T."""
    values, vectors = np.linalg.eig(dense_teleport_chain(P, teleport).T)
    v = vectors[:, np.argmax(values.real)].real
    return v / v.sum()


def assert_stationary_steps(P, teleport, steps):
    """stationary_vector takes exactly ``steps`` power steps: it converges
    with that budget and gives up with one step fewer."""
    with mock.patch.object(graphs, "STATIONARY_MAX_ITER", steps):
        stationary_vector(P, teleport=teleport)
    with mock.patch.object(graphs, "STATIONARY_MAX_ITER", steps - 1), \
            pytest.raises(graphs.ConvergenceError):
        stationary_vector(P, teleport=teleport)


def composed_symmetrization_reference(A, teleport):
    """The earlier symmetrized_adjacency: 0.5 (Phi P + P^T Phi) from diagonal
    products, then symmetrized a second time."""
    P = dia_transition_reference(A)
    if teleport is None:
        phi, _ = two_product_stationary_reference(P, float(A.sum()), None)
    else:  # the teleport vector itself is checked against perron_vector
        phi = stationary_vector(P, total_weight=float(A.sum()), teleport=teleport)
    Phi = sp.dia_array((phi[None, :], [0]), shape=P.shape)
    M = graphs._compact(0.5 * (Phi @ P + P.T @ Phi))
    return graphs._compact(0.5 * (M + M.T))


def digraph_with_zero_rows(n, rng):
    """Random weighted directed edges, then every edge out of a random subset
    of at least one node removed, so the chain is reducible."""
    src, dst = rng.integers(0, n, size=(2, 3 * n))
    sink = rng.random(n) < 0.3
    sink[rng.integers(n)] = True
    keep = (src != dst) & ~sink[src]
    return adjacency_from_edges(n, src[keep], dst[keep],
                                rng.uniform(0.5, 2.0, size=int(keep.sum())))


def assert_same_csr(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


class TestOneProductLoops:
    """The row-scaled products and the one-product stationary loop give the
    bits of the diagonal-product constructions they replace; the lazy
    teleport chain, which they do not cover, matches a dense eigensolve."""

    # at step 221 here ||phi P - phi|| reads 9.99999e-13 and the documented
    # ||normalize(phi P) - phi|| 1.00008e-12, either side of the tolerance
    @example(552, 23)
    @given(st.integers(0, 10 ** 6), st.integers(2, 40))
    def test_strongly_connected_without_teleport(self, seed, n):
        A = random_strong_digraph(n, np.random.default_rng(seed))
        P = transition_matrix(A)
        assert_same_csr(P, dia_transition_reference(A))
        want, steps = two_product_stationary_reference(P, 3.5, None)
        assert np.array_equal(stationary_vector(P, total_weight=3.5), want)
        assert_stationary_steps(P, None, steps)
        assert_same_csr(symmetrized_adjacency(A), composed_symmetrization_reference(A, None))

    # a non-lazy teleport iteration exhausted its 20 000 steps on these
    # (periodic closed classes, damped only by 1 - eps per step)
    @example(4, 12)
    @example(5, 5)
    @example(10, 30)
    @given(st.integers(0, 10 ** 6), st.integers(2, 40))
    def test_zero_rows_with_teleport(self, seed, n):
        A = digraph_with_zero_rows(n, np.random.default_rng(seed))
        P = transition_matrix(A)
        assert_same_csr(P, dia_transition_reference(A))
        phi = stationary_vector(P, total_weight=2.0, teleport=1e-3)
        assert np.abs(phi / 2.0 - perron_vector(P, 1e-3)).sum() < 1e-10
        if A.nnz:
            assert_same_csr(symmetrized_adjacency(A, teleport=1e-3),
                            composed_symmetrization_reference(A, 1e-3))

    def test_periodic_closed_class_with_teleport(self):
        """0 -> 1, 1 -> 0, 2 -> 0: the closed class {0, 1} has period 2, on
        which the lazy step still converges, in 40 steps."""
        P = transition_matrix(csr([[0, 1, 0], [1, 0, 0], [1, 0, 0]]))
        phi = stationary_vector(P, teleport=1e-3)
        assert np.abs(phi - perron_vector(P, 1e-3)).sum() < 1e-10
        assert_stationary_steps(P, 1e-3, 40)

    @pytest.mark.parametrize("teleport", [None, 1e-3])
    def test_exhausted_budget_reports_the_final_residual(self, teleport):
        """A chain that has not converged when the budget runs out raises
        with the l1 residual ||normalize(phi T) - phi|| of its last iterate,
        the stop test of both chains; here from five dense lazy steps."""
        rng = np.random.default_rng(3)
        A = random_strong_digraph(30, rng) if teleport is None else digraph_with_zero_rows(30, rng)
        P = transition_matrix(A)
        with mock.patch.object(graphs, "STATIONARY_MAX_ITER", 5), \
                pytest.raises(graphs.ConvergenceError) as got:
            stationary_vector(P, teleport=teleport)
        T = dense_teleport_chain(P, teleport)
        phi = np.full(30, 1.0 / 30)
        for _ in range(5):
            phi = phi + phi @ T
            phi /= phi.sum()
        step = phi @ T
        want = np.abs(step / step.sum() - phi).sum()
        assert want > graphs.STATIONARY_TOL
        assert got.value.residual == pytest.approx(want, rel=1e-9)
        assert str(got.value) == ("stationary vector did not converge in 5 iterations "
                                  f"(residual {got.value.residual:.3e})")

    def test_transition_does_not_touch_its_input(self):
        A = csr([[0, 1e-320, 1e10], [1, 0, 0], [0, 0, 0]])
        arrays = [x.copy() for x in (A.data, A.indices, A.indptr)]
        P = transition_matrix(A)
        assert P.nnz == 2  # 1e-320 / 1e10 underflows to zero and is dropped
        assert all(np.array_equal(x, y) for x, y in zip((A.data, A.indices, A.indptr), arrays))

    @pytest.mark.parametrize("call", [
        transition_matrix, laplacian, degree_matrix, katz_omega_bound,
        lambda A: stationary_vector(A, teleport=1e-3),
        lambda A: symmetrized_adjacency(A, teleport=1e-3)],
        ids=["transition", "laplacian", "degree", "katz_bound", "stationary", "symmetrized"])
    def test_non_canonical_input_is_left_alone(self, call):
        # a duplicate (0, 1) entry and unsorted indices in row 0
        A = sp.csr_array((np.ones(5), np.array([2, 1, 1, 0, 0]), np.array([0, 3, 4, 5])),
                         shape=(3, 3))
        arrays = [x.copy() for x in (A.data, A.indices, A.indptr)]
        call(A)
        assert all(np.array_equal(x, y) for x, y in zip((A.data, A.indices, A.indptr), arrays))

    def test_symmetrized_non_canonical_input_gives_the_canonical_result(self):
        A = sp.csr_array((np.ones(5), np.array([2, 1, 1, 0, 0]), np.array([0, 3, 4, 5])),
                         shape=(3, 3))
        got = symmetrized_adjacency(A, teleport=1e-3)
        want = symmetrized_adjacency(csr([[0, 2, 1], [1, 0, 0], [1, 0, 0]]), teleport=1e-3)
        assert all(np.array_equal(x, y) for x, y in
                   zip((got.data, got.indices, got.indptr), (want.data, want.indices, want.indptr)))


def mixed_stack(seed, n, tau, teleport):
    """tau random n-node digraph slices and their (tau n) x n stack: strongly
    connected ones for the strict chain, and with ``teleport`` a mix of those
    and slices with zero rows."""
    rng = np.random.default_rng(seed)
    slices = [digraph_with_zero_rows(n, rng) if teleport is not None and rng.random() < 0.5
              else random_strong_digraph(n, rng) for _ in range(tau)]
    return slices, sp.vstack(slices, format="csr")


def outcome(call):
    try:
        return call()
    except (graphs.ConvergenceError, ReducibleChainError) as exc:
        return exc


class TestStackedChains:
    """A (tau n) x n stack of slices goes through one stationary loop and one
    symmetrization, and every slice gets the bits it gets on its own."""

    @given(st.integers(0, 10 ** 6), st.integers(2, 30), st.integers(1, 6),
           st.sampled_from([None, 1e-3]))
    def test_rows_are_the_per_slice_vectors(self, seed, n, tau, teleport):
        slices, stack = mixed_stack(seed, n, tau, teleport)
        got = stationary_vector(transition_matrix(stack), total_weight=2.0, teleport=teleport)
        want = [stationary_vector(transition_matrix(A), total_weight=2.0, teleport=teleport)
                for A in slices]
        assert np.array_equal(got, want[0] if tau == 1 else np.array(want))
        got = symmetrized_adjacency(stack, teleport=teleport)
        for t, A in enumerate(slices):
            assert_same_csr(got[t * n:(t + 1) * n], symmetrized_adjacency(A, teleport=teleport))

    @example(seed=3, n=20, budget=5, teleport=None)
    @example(seed=3, n=20, budget=5, teleport=1e-3)
    @given(st.integers(0, 10 ** 6), st.integers(2, 20), st.integers(0, 60),
           st.sampled_from([None, 1e-3]))
    def test_an_exhausted_budget_names_the_first_slice_that_misses_it(
            self, seed, n, budget, teleport):
        """Under any step budget, the stack fails exactly when some slice
        fails on its own, with the first such slice's error and residual."""
        slices, stack = mixed_stack(seed, n, 4, teleport)
        with mock.patch.object(graphs, "STATIONARY_MAX_ITER", budget):
            got = outcome(lambda: stationary_vector(transition_matrix(stack),
                                                    teleport=teleport))
            alone = [outcome(lambda: stationary_vector(transition_matrix(A),
                                                       teleport=teleport))
                     for A in slices]
        failed = [t for t, r in enumerate(alone) if isinstance(r, Exception)]
        if not failed:
            assert np.array_equal(got, np.array(alone))
            return
        t = failed[0]
        assert type(got) is type(alone[t]) is graphs.ConvergenceError
        assert got.residual == alone[t].residual > graphs.STATIONARY_TOL
        assert str(got) == str(alone[t]).replace("vector", f"vector of slice {t}", 1)

    @example(seed=0, n=5, t=2, empty=True)
    @given(st.integers(0, 10 ** 6), st.integers(2, 20), st.integers(0, 3), st.booleans())
    def test_a_reducible_slice_in_a_strict_stack_is_named(self, seed, n, t, empty):
        """A slice with zero rows, or with no link at all, is refused before
        the loop; its chain still steps through the shared product, whose
        residual is never read, so no warning is raised."""
        slices, _ = mixed_stack(seed, n, 4, None)
        slices[t] = sp.csr_array((n, n)) if empty else \
            digraph_with_zero_rows(n, np.random.default_rng(seed))
        stack = sp.vstack(slices, format="csr")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ReducibleChainError, match=f"of slice {t} is reducible"):
                stationary_vector(transition_matrix(stack))
            with pytest.raises(ReducibleChainError, match=f"of slice {t} is reducible"):
                symmetrized_adjacency(stack)

    @given(st.integers(0, 10 ** 6), st.integers(2, 12), st.integers(1, 4),
           st.sampled_from([None, 1e-3]))
    def test_a_non_canonical_stack_is_read_as_its_canonical_form(self, seed, n, tau, teleport):
        """A stack of strongly connected slices whose every entry is stored
        as two parts, columns in descending order, is left as it is and
        gives the arrays of its canonical form, the parts summed."""
        rng = np.random.default_rng(seed)
        _, canon = mixed_stack(seed, n, tau, None)
        row = np.repeat(np.arange(tau * n), np.diff(canon.indptr))
        part = rng.uniform(0.2, 0.8, canon.nnz) * canon.data
        row, col, val = (np.concatenate(a) for a in ((row, row), (canon.indices, canon.indices),
                                                      (part, canon.data - part)))
        order = np.lexsort((-col, row))
        A = sp.csr_array((val[order], col[order], 2 * canon.indptr), shape=canon.shape)
        arrays = [a.copy() for a in (A.data, A.indices, A.indptr)]
        assert not A.has_canonical_format
        summed = A.copy()
        summed.sum_duplicates()
        assert_same_csr(symmetrized_adjacency(A, teleport=teleport),
                        symmetrized_adjacency(summed, teleport=teleport))
        for kept, now in zip(arrays, (A.data, A.indices, A.indptr)):
            assert kept.tobytes() == now.tobytes()

    def test_shapes_and_signs(self):
        with pytest.raises(ValueError, match="stack of n x n slices"):
            stationary_vector(sp.csr_array((5, 2)))
        with pytest.raises(ValueError, match="empty chain"):
            stationary_vector(sp.csr_array((0, 0)))
        with pytest.raises(ValueError, match="nonnegative"):
            stationary_vector(csr([[0, -1], [1, 0]]), teleport=1e-3)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_weighted_slice_sums_match_the_dense_sums(seed):
    """An m x tau weight matrix gives its m sums sum_t w[k, t] S_t stacked
    (m n) x n, canonical with no stored zero, each within 1e-13 of the sum
    of its terms' magnitudes of the dense sum; row k of the matrix, as a
    vector, gives the bits of block k. Weights may be zero, slices empty,
    and the stack's indices int32 or int64; a sum with entries keeps the
    stack's index dtype."""
    rng = np.random.default_rng(seed)
    n, tau, m = int(rng.integers(1, 9)), int(rng.integers(1, 6)), int(rng.integers(1, 5))
    dense = np.where(rng.random((tau, n, n)) < rng.choice([0.0, 0.3, 0.8], (tau, 1, 1)),
                     rng.choice([-1.0, 1.0, 2.0], (tau, n, n)) * rng.random((tau, n, n)), 0.0)
    stack = sp.csr_array(dense.reshape(tau * n, n))
    if rng.random() < 0.5:
        stack = sp.csr_array((stack.data, stack.indices.astype(np.int64),
                              stack.indptr.astype(np.int64)), shape=stack.shape)
    w = rng.choice([0.0, 1.0, 0.5], (m, tau)) * rng.random((m, tau))
    got = graphs._weighted_slice_sum(stack, w)
    assert got.shape == (m * n, n) and got.has_canonical_format and np.all(got.data != 0)
    if got.nnz:
        assert got.indices.dtype == got.indptr.dtype == stack.indices.dtype
    want = np.einsum("kt,tij->kij", w, dense).reshape(m * n, n)
    scale = np.einsum("kt,tij->kij", np.abs(w), np.abs(dense)).reshape(m * n, n)
    assert np.all(np.abs(got.toarray() - want) <= 1e-13 * scale)
    for k in range(m):
        row, block = graphs._weighted_slice_sum(stack, w[k]), graphs._row_block(got, k * n, (k + 1) * n)
        assert row.data.tobytes() == block.data.tobytes()
        assert row.indices.tobytes() == block.indices.tobytes()
        assert np.array_equal(row.indptr, block.indptr)
        one = graphs._weighted_slice_sum(stack, w[k:k + 1])
        for name in ("data", "indices", "indptr"):
            assert getattr(row, name).tobytes() == getattr(one, name).tobytes()


class TestKatz:
    def test_omega_zero_returns_adjacency(self):
        A = csr([[0, 2], [1, 0]])
        K = katz_adjacency(A, 0.0)
        assert np.allclose(K.toarray(), A.toarray())

    def test_kernel_and_bound_do_not_touch_their_input(self):
        """A stored zero and a duplicate that sums to 1: both functions
        canonicalize a copy, so the bound sees the 2-cycle, whose radius is 1,
        and the caller's arrays keep their bytes."""
        A = sp.csr_array((np.array([0.0, 0.5, 0.5, 1.0]), np.array([0, 1, 1, 0]),
                          np.array([0, 3, 4])), shape=(2, 2))
        arrays = [x.copy() for x in (A.data, A.indices, A.indptr)]
        assert katz_omega_bound(A) == pytest.approx(0.99, rel=1e-12)
        assert np.allclose(katz_adjacency(A, 0.5).toarray(), [[2 / 3, 4 / 3], [4 / 3, 2 / 3]])
        assert all(np.array_equal(x, y) for x, y in zip((A.data, A.indices, A.indptr), arrays))

    def test_path_closed_form(self):
        K = katz_adjacency(csr([[0, 1], [1, 0]]), 0.5).toarray()
        assert abs(K[0, 1] - 4 / 3) < 1e-12
        assert abs(K[0, 0] - 2 / 3) < 1e-12

    def test_dense_kernel_refused_above_node_limit(self, monkeypatch):
        n = KATZ_MAX_NODES + 1
        A = adjacency_from_edges(n, [0, 1, 2, 5], [1, 2, 3, 9], np.ones(4),
                                 undirected=True)

        def unreachable(*args, **kwargs):
            raise AssertionError("the node limit must be checked first")

        monkeypatch.setattr(graphs, "spectral_radius", unreachable)
        with pytest.raises(ValueError, match=f"n={n} .* limit of {KATZ_MAX_NODES}"):
            katz_adjacency(A, 0.1)
        assert katz_adjacency(A, 0.0).nnz == A.nnz

    @staticmethod
    def weighted_digraph():
        rng = np.random.default_rng(6)
        n = 12
        # a directed cycle plus random weighted chords: strongly connected, aperiodic
        src = np.concatenate([np.arange(n), rng.integers(n, size=20)])
        dst = np.concatenate([(np.arange(n) + 1) % n, rng.integers(n, size=20)])
        return adjacency_from_edges(n, src, dst, rng.uniform(0.5, 2.0, src.size))

    def test_weighted_digraph_matches_series_and_stays_asymmetric(self):
        A = self.weighted_digraph()
        omega = 0.5 * katz_omega_bound(A)
        dense = A.toarray()
        assert omega * np.abs(np.linalg.eigvals(dense)).max() < 0.6
        term = dense.copy()
        series = dense.copy()
        for _ in range(100):
            term = omega * (dense @ term)
            series += term
        K = katz_adjacency(A, omega).toarray()
        assert np.abs(K - series).max() <= 1e-12 * np.abs(series).max()
        assert np.abs(K - K.T).max() > 1e-3

    def test_tiny_weights_leave_a_digraph_kernel_asymmetric(self):
        """Only A == A^T symmetrizes the kernel: the same digraph in a unit
        1e13 times larger, with omega scaled to match, keeps its asymmetry."""
        A = self.weighted_digraph()
        K = katz_adjacency(1e-13 * A, 1e13 * 0.5 * katz_omega_bound(A)).toarray()
        assert np.abs(K - K.T).max() > 1e-3 * np.abs(K).max()

    def test_disconnected_components_stay_blocks(self):
        rng = np.random.default_rng(8)
        sizes = (6, 4)
        blocks = [random_connected_graph(s, rng, weighted=True) for s in sizes]
        A = sp.csr_array(sp.block_diag(blocks + [sp.csr_array((1, 1))]))
        K = katz_adjacency(A, 0.5 * katz_omega_bound(A))
        # every pair within a component is joined by some walk, no pair across
        assert K.nnz == sum(s * s for s in sizes)

    def test_bound_rejection_reports_bound(self):
        A = csr([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="bound"):
            katz_adjacency(A, 1.5)

    def test_feeder_digraph_is_refused_above_its_bound(self):
        """a -> c, b -> c, c -> d, d -> c: rho = 1 (the 2-cycle c <-> d), and
        lambda_max of the symmetric part 1.22 puts the bound near 0.81. At
        omega = 1.5 the series diverges, and the solve alone would return a
        kernel of negative entries."""
        A = adjacency_from_edges(4, [0, 1, 2, 3], [2, 2, 3, 2], np.ones(4))
        bound = katz_omega_bound(A)
        assert bound < 0.99
        with pytest.raises(ValueError, match=f"admissible Katz bound {bound:.6g}"):
            katz_adjacency(A, 1.5)

    def test_unweighted_bound_is_safe(self):
        rng = np.random.default_rng(7)
        A = random_connected_graph(10, rng)
        # the bound must not exceed 1/rho
        rho = np.abs(np.linalg.eigvalsh(A.toarray())).max()
        assert katz_omega_bound(A) <= 1.0 / rho + 1e-9


@given(st.integers(0, 10 ** 6), st.integers(1, 15), st.booleans(),
       st.sampled_from([1.0, 0.1, 5e-324]))
def test_symmetric_part_matches_the_sparse_sum(seed, n, mirrored, scale):
    """The in-place symmetric part gives the bytes of the sparse sum, with
    a pattern that is mirrored or (almost always) not. Integer values make
    entries of M + M^T cancel to exactly 0, and at the smallest subnormal
    halving rounds sums to 0 as well; both must be dropped."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < rng.uniform(0.1, 0.9)
    if mirrored:
        mask |= mask.T
    M = sp.csr_array(np.where(mask, scale * rng.choice([-3, -2, -1, 1, 2, 3], (n, n)), 0.0))
    assert M.has_canonical_format
    if mirrored:
        assert graphs._mirror_data(M) is not None
    want = graphs._compact(0.5 * (M + M.T))
    got = graphs._symmetric_part(M.copy())
    for name in ("indptr", "indices", "data"):
        ref = getattr(want, name)
        assert getattr(got, name).dtype == ref.dtype
        assert getattr(got, name).tobytes() == ref.tobytes()


def test_mirror_data_transposes_only_when_the_counts_agree(monkeypatch):
    """A digraph whose column counts differ from its row counts has no
    mirrored pattern, and ``_mirror_data`` says so without a transposed copy
    (``tocsc``); equal counts with another pattern (a directed 3-cycle) still
    need one."""
    calls = []
    tocsc = sp.csr_array.tocsc

    def spy(self, *args, **kwargs):
        calls.append(self.shape)
        return tocsc(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_array, "tocsc", spy)
    star = adjacency_from_edges(4, [0, 0, 0], [1, 2, 3], np.ones(3))
    assert graphs._mirror_data(star) is None and calls == []
    cycle = adjacency_from_edges(3, [0, 1, 2], [1, 2, 0], np.ones(3))
    assert graphs._mirror_data(cycle) is None and len(calls) == 1
    path = adjacency_from_edges(3, [0, 1], [1, 2], [1.0, 2.0], undirected=True)
    assert np.array_equal(graphs._mirror_data(path), path.data) and len(calls) == 2


@given(st.integers(0, 10 ** 6), st.integers(2, 12))
def test_laplacian_psd_and_zero_row_sums(seed, n):
    A = random_connected_graph(n, np.random.default_rng(seed), weighted=True)
    L = laplacian(A).toarray()
    assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)
    assert np.linalg.eigvalsh(L).min() >= -1e-10


class TestConnectedComponents:
    @settings(max_examples=300)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                       st.sampled_from([0.0, 1.0, -2.5])), max_size=2 * n))))
    @example((1, []))
    @example((4, []))
    @example((1, [(0, 0, 1.0)]))
    @example((3, [(0, 2, 0.0)]))
    def test_matches_csgraph(self, draw):
        """Count and labels equal csgraph's weak components on any stored
        pattern: asymmetric, with self-loops, stored zeros and isolated
        nodes, and with no entry at all."""
        from scipy.sparse.csgraph import connected_components as oracle

        n, links = draw
        rows, cols, vals = (list(x) for x in zip(*links)) if links else ([], [], [])
        A = sp.csr_array((vals, (rows, cols)), shape=(n, n))
        count, labels = graphs.connected_components(A)
        want, want_labels = oracle(A, directed=False)
        assert count == want
        assert np.array_equal(labels, want_labels)

    @pytest.mark.parametrize("shape", ["path", "binary tree"])
    def test_rounds_grow_with_log_n(self, shape):
        """A path and a binary tree on n = 10^5 shuffled nodes end in at most
        2 ceil(log2 n) hooking rounds; a version that only passes the
        smallest label to neighbours takes O(n) rounds on the path."""
        n = 10 ** 5
        order = np.random.default_rng(5).permutation(n)
        k = np.arange(1, n)
        parent = k - 1 if shape == "path" else (k - 1) // 2
        root, rounds = graphs._component_roots(n, order[k], order[parent])
        assert rounds <= 2 * math.ceil(math.log2(n))
        assert np.all(root == 0)

    def test_refuses_a_rectangular_matrix(self):
        with pytest.raises(ValueError, match="square"):
            graphs.connected_components(sp.csr_array((2, 3)))


@given(st.integers(0, 10 ** 6), st.integers(2, 20), st.integers(1, 4))
def test_kernel_multiplicity_counts_components(seed, n, parts):
    rng = np.random.default_rng(seed)
    # union of disjoint connected blocks
    sizes = [max(1, n // parts)] * parts
    blocks = [random_connected_graph(s, rng, weighted=True).toarray() if s > 1
              else np.zeros((1, 1)) for s in sizes]
    A = sp.csr_array(sp.block_diag(blocks).toarray())
    L = laplacian(A).toarray()
    vals = np.linalg.eigvalsh(L)
    near_zero = int((vals < 1e-9 * max(vals.max(), 1.0)).sum())
    assert near_zero == bfs_component_count(A)


@given(st.integers(0, 10 ** 6),
       st.one_of(st.tuples(st.integers(2, 14), st.integers(2, 14)), st.integers(3, 60)))
def test_katz_bound_is_certified_on_digraphs(seed, size):
    """On any digraph, omega at the bound keeps omega rho(A) <= KATZ_SAFETY,
    with rho from the dense eigenvalues: the bound rests on an upper bound of
    the radius, never on an estimate that can fall short of it. The inputs are
    two groups of the given sizes with links, at density 0.5, only across
    the groups, and 0/1 digraphs on n nodes at density 0.4."""
    rng = np.random.default_rng(seed)
    if isinstance(size, tuple):
        group = np.repeat([0, 1], size)
        mask = (rng.random((group.size, group.size)) < 0.5) & (group[:, None] != group[None, :])
    else:
        mask = rng.random((size, size)) < 0.4
    dense = mask.astype(np.float64)
    rho = np.abs(np.linalg.eigvals(dense)).max()
    # an empty draw has rho = 0 and bound inf: every omega is admissible
    assert rho == 0.0 or katz_omega_bound(sp.csr_array(dense)) * rho <= \
        graphs.KATZ_SAFETY * (1 + 1e-9)


@given(st.integers(0, 10 ** 6), st.integers(2, 30), st.booleans())
def test_radius_of_symmetric_input_is_exact(seed, n, signed):
    """On symmetric input, unsigned or signed (its Laplacian), the radius is
    the largest |lambda| of the matrix itself."""
    A = random_connected_graph(n, np.random.default_rng(seed), weighted=True)
    M = laplacian(A) if signed else A
    rho = np.abs(np.linalg.eigvalsh(M.toarray())).max()
    assert abs(spectral_radius(M) - rho) <= 1e-10 * rho


@given(st.integers(0, 10 ** 6), st.integers(2, 10))
def test_katz_nonnegative_and_symmetric(seed, n):
    A = random_connected_graph(n, np.random.default_rng(seed), weighted=True)
    omega = 0.3 / max(spectral_radius(A), 1e-9)
    K = katz_adjacency(A, omega)
    assert K.nnz == 0 or K.data.min() >= -1e-12
    assert abs(K - K.T).max() <= 1e-12


def edge_arrays(edges):
    return tuple(np.array([e[k] for e in edges], dtype=float if k == 2 else int)
                 for k in range(3))


def undirected_reference(n, edges):
    """Per-pair loop over the canonical directed edges: the first weight of an
    unordered pair is kept, a differing one raises, off-diagonal pairs are
    mirrored."""
    pair = {}
    for i, j, w in entries(adjacency_from_edges(n, *edge_arrays(edges))):
        if pair.setdefault((min(i, j), max(i, j)), w) != w:
            raise ValueError("conflicting weights for undirected edge")
    return sorted([(a, b, w) for (a, b), w in pair.items()]
                  + [(b, a, w) for (a, b), w in pair.items() if a != b])


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                          st.sampled_from([1.0, 2.0, -1.0, 0.5])), max_size=12))
def test_undirected_edges_match_loop_reference(edges):
    try:
        want = undirected_reference(5, edges)
    except ValueError:
        with pytest.raises(ValueError, match="conflicting weights"):
            adjacency_from_edges(5, *edge_arrays(edges), undirected=True)
        return
    got = adjacency_from_edges(5, *edge_arrays(edges), undirected=True)
    assert entries(got) == want
    assert got.indices.dtype == got.indptr.dtype == np.int32 and got.dtype == np.float64
    assert got.has_canonical_format


def directed_preconditioned_stack(n, tau=8):
    """A directed n-node, tau-slice network (10 out-links per node, each
    kept from one slice to the next with probability 0.9), preconditioned
    with exponential weights (alpha = 1)."""
    rng = np.random.default_rng(12)
    src, dst = np.repeat(np.arange(n), 10), rng.integers(n, size=10 * n)
    slices = []
    for _ in range(tau):
        slices.append(adjacency_from_edges(n, src[src != dst], dst[src != dst],
                                           np.ones(int((src != dst).sum()))))
        moved = rng.random(src.size) > 0.9
        dst = np.where(moved, rng.integers(n, size=src.size), dst)
    net = DynamicNetwork.from_snapshots(tuple(range(n)), slices, directed=True)
    return precondition(net.stack, make_weights("exponential", tau, alpha=1.0))


def traced_peak(call):
    """call()'s result and the peak bytes tracemalloc saw while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def stored_bytes(M):
    return sum(a.nbytes for a in (M.data, M.indices, M.indptr))


def test_symmetrized_stack_peaks_within_five_of_its_input():
    """On directed_preconditioned_stack(1 000), symmetrized_adjacency's
    traced peak with teleport 1e-3 stays within 5 times the bytes of its
    input (4.04 here). It is reached while M + M^T is formed next to Phi P:
    P is scaled in its own arrays, the block-diagonal form reuses them, and
    the sum is halved in place. Scaling a copy of P and halving a copy of
    the sum peaked at 6.33."""
    pre = directed_preconditioned_stack(1000)
    out, peak = traced_peak(lambda: symmetrized_adjacency(pre, teleport=1e-3))
    assert out.shape == pre.shape and out.nnz > pre.nnz
    assert peak <= 5 * stored_bytes(pre)


def test_stationary_stack_peaks_within_two_of_its_input():
    """On the transition stack P of directed_preconditioned_stack(1 000),
    stationary_vector's traced peak with teleport 1e-3 stays within 2 times
    the bytes of P (1.37 here): its one operator holds a scaled copy
    of P's data and new column indices, and shares P's row pointers, which
    it must leave as they are. Copying P, then the running chains' rows of
    that copy, peaked at 2.41."""
    P = transition_matrix(directed_preconditioned_stack(1000))
    arrays = [a.copy() for a in (P.data, P.indices, P.indptr)]
    phi, peak = traced_peak(lambda: stationary_vector(P, teleport=1e-3))
    assert phi.shape == (8, 1000) and np.all(phi > 0)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, (P.data, P.indices, P.indptr)))
    assert peak <= 2 * stored_bytes(P)
