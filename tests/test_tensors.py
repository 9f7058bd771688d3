import logging
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import subspace_angles
from hypothesis import given, settings, strategies as st

from dynten import graphs, tensors
from dynten.embed import (DynEmbedConfig, TemporalWeights, dynamic_embedding, make_weights,
                          precondition)
from dynten.linkpred import evaluate_link_prediction, holdout_split
from dynten.spectral import DENSE_MAX_N
from dynten.synth import dynamic_sbm
from dynten.tensors import (_FIT_FLOOR, AlsConfig, SparseTensor3, cp_als, initial_factors,
                            max_rank, mttkrp, ocp_als)


def dense_rank_k(n1, n2, n3, lambdas, seed, orthogonal=True):
    rng = np.random.default_rng(seed)
    r = len(lambdas)
    A = np.linalg.qr(rng.standard_normal((n1, r)))[0] if orthogonal else \
        rng.standard_normal((n1, r))
    B = np.linalg.qr(rng.standard_normal((n2, r)))[0] if orthogonal else \
        rng.standard_normal((n2, r))
    C = rng.standard_normal((n3, r))
    C /= np.linalg.norm(C, axis=0)
    return np.einsum("r,ir,jr,tr->ijt", np.asarray(lambdas, float), A, B, C)


def sparse_random_tensor(dims, density, seed):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random(dims) < density, rng.standard_normal(dims), 0.0)
    return SparseTensor3.from_dense(dense), dense


def to_dense(Z):
    """The n x n x tau array of a tensor, read off its stacked slices."""
    n, _, tau = Z.dims
    return Z.stacked.toarray().reshape(tau, n, n).transpose(1, 2, 0)


class TestTensorType:
    def test_from_slices_constant(self):
        A = sp.csr_array(np.array([[0.0, 2], [2, 0]]))
        Z = SparseTensor3.from_slices([A] * 3)
        assert Z.dims == (2, 2, 3)
        assert np.allclose(to_dense(Z)[:, :, 1], A.toarray())

    def test_empty_slices(self):
        Z = SparseTensor3.from_slices([sp.csr_array((3, 3))] * 2)
        assert Z.nnz == 0 and Z.dims == (3, 3, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SparseTensor3.from_slices([sp.csr_array((2, 2)), sp.csr_array((3, 3))])

    @pytest.mark.parametrize("shapes", [[(3, 2), (1, 2)], [(3, 3), (6, 3)], [(2, 4), (2, 4)]])
    def test_non_square_slices_refused(self, shapes):
        """Stacked, these slices have a row count that is a multiple of their
        column count, which the stacked shape check alone would accept."""
        with pytest.raises(ValueError, match="slice shape"):
            SparseTensor3.from_slices([sp.csr_array(shape) for shape in shapes])

    def test_int64_slices_give_int32_tensor(self):
        rng = np.random.default_rng(44)
        slices = [sp.csr_array(sp.random(6, 6, density=0.4, random_state=rng)) for _ in range(3)]
        wide = []
        for S in slices:
            W = S.copy()
            W.indices, W.indptr = S.indices.astype(np.int64), S.indptr.astype(np.int64)
            wide.append(W)
        got = SparseTensor3.from_slices(wide).stacked
        want = SparseTensor3.from_slices(slices).stacked
        assert got.indices.dtype == got.indptr.dtype == np.int32
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_duplicates_summed_zeros_dropped(self):
        # slice 0 stores (0, 1) twice, slice 1 stores an explicit zero at (1, 0)
        dup = sp.csr_array(([1.0, 2.0], [1, 1], [0, 2, 2]), shape=(2, 2))
        zero = sp.csr_array(([0.0], [0], [0, 0, 1]), shape=(2, 2))
        Z = SparseTensor3.from_slices([dup, zero])
        assert Z.nnz == 1 and Z.stacked.has_canonical_format
        assert to_dense(Z)[0, 1, 0] == 3.0

    def test_non_square_shapes_refused(self):
        for shape in [(3, 4, 2), (3, 3), (2, 2, 2, 2)]:
            with pytest.raises(ValueError, match="n x n x tau"):
                SparseTensor3.from_dense(np.ones(shape))
        for shape in [(5, 3), (2, 3), (0, 0), (0, 3)]:
            with pytest.raises(ValueError, match=r"\(tau n\) x n"):
                SparseTensor3(sp.csr_array(shape))
        assert SparseTensor3(sp.csr_array((6, 3))).dims == (3, 3, 2)

    @pytest.mark.parametrize("entries, message", [
        (([1.0, 2.0], [1, 1], [0, 2, 2, 2, 2]), "duplicate entries"),
        (([1.0, 0.0], [0, 1], [0, 1, 1, 2, 2]), "explicit zero"),
        (([1.0, 2.0], [1, 0], [0, 2, 2, 2, 2]), "unsorted"),
        (([1.0, np.inf], [0, 1], [0, 1, 2, 2, 2]), "finite"),
        (([np.nan], [0], [0, 0, 0, 1, 1]), "finite"),
    ], ids=["duplicates", "stored-zero", "unsorted", "inf", "nan"])
    def test_constructor_refuses_a_non_canonical_stack(self, entries, message):
        """Each broken invariant of the stacked matrix is refused with its
        own message, and the caller's matrix is left as it was."""
        M = sp.csr_array(entries, shape=(4, 2))
        before = [getattr(M, name).copy() for name in ("data", "indices", "indptr")]
        with pytest.raises(ValueError, match=message):
            SparseTensor3(M)
        for name, was in zip(("data", "indices", "indptr"), before):
            assert getattr(M, name).tobytes() == was.tobytes()

    def test_constructor_narrows_a_wide_stack_and_holds_an_int32_one(self):
        """A fitting int64 stack is held as a new int32 matrix over the same
        data, and the caller's arrays stay int64; an int32 stack is held as
        it is."""
        M = sparse_random_tensor((6, 6, 3), 0.4, 47)[0].stacked
        assert M.indices.dtype == M.indptr.dtype == np.int32
        assert SparseTensor3(M).stacked is M
        W = M.copy()
        W.indices, W.indptr = M.indices.astype(np.int64), M.indptr.astype(np.int64)
        got = SparseTensor3(W).stacked
        assert got is not W and np.shares_memory(got.data, W.data)
        assert got.indices.dtype == got.indptr.dtype == np.int32
        assert W.indices.dtype == W.indptr.dtype == np.int64
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(M, name).tobytes()

    def test_from_dense_matches_the_stacked_slices(self):
        rng = np.random.default_rng(46)
        dense = np.where(rng.random((5, 5, 3)) < 0.4, rng.standard_normal((5, 5, 3)), 0.0)
        Z = SparseTensor3.from_dense(dense)
        ref = SparseTensor3.from_slices([sp.csr_array(dense[:, :, t]) for t in range(3)])
        for name in ("indptr", "indices", "data"):
            got, want = getattr(Z.stacked, name), getattr(ref.stacked, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(to_dense(Z), dense)


class TestMttkrp:
    @pytest.mark.parametrize("dims", [(4, 4, 3)], ids=["4x4x3"])
    def test_matches_dense_oracle(self, dims):
        Z, dense = sparse_random_tensor(dims, 0.5, 0)
        rng = np.random.default_rng(1)
        A, B, C = (rng.standard_normal((n, 3)) for n in dims)
        o1 = np.einsum("ijt,jr,tr->ir", dense, B, C)
        o2 = np.einsum("ijt,ir,tr->jr", dense, A, C)
        o3 = np.einsum("ijt,ir,jr->tr", dense, A, B)
        assert np.abs(mttkrp(Z, (A, B, C), 1) - o1).max() < 1e-12
        assert np.abs(mttkrp(Z, (A, B, C), 2) - o2).max() < 1e-12
        assert np.abs(mttkrp(Z, (A, B, C), 3) - o3).max() < 1e-12

    def test_int32_layout_is_bitwise_equal_to_int64(self):
        """int64 index arrays, which a stack above 2^31 entries keeps, give
        the bits of int32 ones. The constructor narrows a stack that fits,
        so the wide one is set on a constructed tensor."""
        Z, _ = sparse_random_tensor((40, 40, 5), 0.1, 42)
        M = Z.stacked
        assert M.indices.dtype == np.int32 and M.indptr.dtype == np.int32
        W = M.copy()
        W.indices, W.indptr = M.indices.astype(np.int64), M.indptr.astype(np.int64)
        wide = SparseTensor3(M)
        object.__setattr__(wide, "stacked", W)
        rng = np.random.default_rng(43)
        F = tuple(rng.standard_normal((n, 6)) for n in Z.dims)
        for mode in (1, 2, 3):
            assert mttkrp(Z, F, mode).tobytes() == mttkrp(wide, F, mode).tobytes()
        assert wide.stacked.indices.dtype == np.int64

    def test_zero_tensor(self):
        Z = SparseTensor3.from_dense(np.zeros((3, 3, 2)))
        rng = np.random.default_rng(2)
        F = (rng.standard_normal((3, 2)), rng.standard_normal((3, 2)),
             rng.standard_normal((2, 2)))
        assert np.abs(mttkrp(Z, F, 1)).max() == 0.0

    def test_rank_one_structure(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        c = rng.standard_normal(3)
        dense = 2.0 * np.einsum("i,j,t->ijt", a, b, c)
        Z = SparseTensor3.from_dense(dense)
        F = (a[:, None], b[:, None], c[:, None])
        out = mttkrp(Z, F, 1)
        expect = 2.0 * a[:, None] * (b @ b) * (c @ c)
        assert np.abs(out - expect).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 30), tau=st.integers(1, 9), r=st.integers(1, 12),
           order=st.sampled_from("CF"), blocked=st.booleans(), seed=st.integers(0, 2**16))
    def test_column_blocks_match_the_one_product_formulas(self, n, tau, r, order, blocked, seed):
        """The blocks partition the columns in order into b = min(max(1,
        tau n r // max(_ONE_BLOCK, 2 n r)), max(1, r // 2)) near-equal parts:
        one whenever tau n r <= _ONE_BLOCK, and none narrower than two
        columns unless r = 1. With ``blocked`` (``_ONE_BLOCK`` = 0) most
        shapes split, so rank < tau, uneven widths, tau = 1 and F-ordered
        factors all run blocked. Every split gives the one-product MTTKRP:
        mode 2 bitwise (the CSC kernel sums each output in the same order),
        modes 1 and 3 within (tau + n) eps times the same formulas on |Z|,
        |A|, |B|, |C| (einsum's summation order over t or i depends on the
        operands' layout, and a cancelling sum has no relative bound)."""
        rng = np.random.default_rng(seed)
        Z = SparseTensor3.from_slices(
            [sp.random(n, n, density=0.3, random_state=rng, format="csr",
                       data_rvs=rng.standard_normal) for _ in range(tau)])
        A, B, C = (np.asarray(rng.standard_normal((m, r)), order=order) for m in (n, n, tau))

        def one(Z, A, B, C):
            ZB = (Z @ B).reshape(tau, n, r)
            return {1: np.einsum("tir,tr->ir", ZB, C),
                    2: Z.T @ (C[:, None, :] * A[None, :, :]).reshape(tau * n, r),
                    3: np.einsum("tir,ir->tr", ZB, A)}

        exact, size = one(Z.stacked, A, B, C), one(abs(Z.stacked), *map(np.abs, (A, B, C)))
        one_block = 0 if blocked else tensors._ONE_BLOCK
        with mock.patch.object(tensors, "_ONE_BLOCK", one_block):
            blocks = tensors._column_blocks(n, tau, r)
            got = {mode: mttkrp(Z, (A, B, C), mode) for mode in (1, 2, 3)}
        widths = [s.stop - s.start for s in blocks]
        assert [i for s in blocks for i in range(r)[s]] == list(range(r))
        b = min(max(1, tau * n * r // max(one_block, 2 * n * r)), max(1, r // 2))
        assert len(blocks) == b and max(widths) - min(widths) <= 1
        assert len(blocks) == 1 or tau * n * r > one_block
        assert min(widths) >= 2 or r == 1
        assert got[2].tobytes() == exact[2].tobytes()
        for mode in (1, 3):
            bound = (tau + n) * np.finfo(float).eps * size[mode]
            assert np.all(np.abs(got[mode] - exact[mode]) <= bound), mode

    @pytest.mark.parametrize("n, tau, r, widths", [
        (100, 7, 16, [16]), (500, 7, 32, [32]), (1000, 7, 32, [10, 11, 11]),
        (10000, 7, 32, [10, 11, 11]), (10000, 8, 32, [8] * 4)])
    def test_column_block_widths(self, n, tau, r, widths):
        """The 7-slice training tensor of a linkpred run on 8 slices splits in
        three at the tensor benchmark's n = 1 000, not into 10/10/10/2, and
        stays one block at the small benchmark's n = 100."""
        assert [s.stop - s.start for s in tensors._column_blocks(n, tau, r)] == widths

    def test_scratch_is_linear_in_n_rank(self):
        """Each mode's traced peak above entry stays within 4 n rank doubles,
        on 7 slices (three blocks of 10-11 columns) and 8 (four of 8); the
        one-product kernel's (tau n) x rank operand alone is 7-8 of them."""
        n, r = 2000, 32
        rng = np.random.default_rng(47)
        for tau in (7, 8):
            Z = SparseTensor3.from_slices(
                [sp.random(n, n, density=10 / n, random_state=rng, format="csr")
                 for _ in range(tau)])
            # A F-ordered, as the ALS factor solve returns it
            F = (np.asfortranarray(rng.standard_normal((n, r))), rng.standard_normal((n, r)),
                 rng.standard_normal((tau, r)))
            for mode in (1, 2, 3):
                tracemalloc.start()
                try:
                    entry = tracemalloc.get_traced_memory()[0]
                    mttkrp(Z, F, mode)
                    peak = tracemalloc.get_traced_memory()[1] - entry
                finally:
                    tracemalloc.stop()
                assert peak <= 4 * n * r * 8, f"tau {tau}, mode {mode}: {peak} bytes"

    def test_shape_mismatch(self):
        Z, _ = sparse_random_tensor((4, 4, 3), 0.5, 4)
        bad = (np.zeros((4, 2)), np.zeros((5, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            mttkrp(Z, bad, 1)
        good = (np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="mode must be"):
            mttkrp(Z, good, 4)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_blended_tensor_matches_the_preconditioned_one(seed):
    """The stack of the raw slices blended by pre weights w, S x_3 W with W
    never formed, gives the MTTKRP of every mode, the norm and the start's
    summed slice of the built preconditioned tensor within 1e-13 relative:
    of the sum of the terms' magnitudes (the same formulas on |S| and the
    factors' absolute values) entry by entry, and of the norm. The weights
    include zeros, and slices may be empty."""
    rng = np.random.default_rng(seed)
    n, tau, r = int(rng.integers(2, 8)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
    slices = tuple(sp.csr_array(np.where(rng.random((n, n)) < rng.choice([0.0, 0.3, 0.8]),
                                         rng.standard_normal((n, n)), 0.0))
                   for _ in range(tau))
    vals = rng.choice([0.0, 1.0, 0.5], size=tau)
    vals[vals == 0.5] = rng.random(np.count_nonzero(vals == 0.5))
    vals[rng.integers(tau)] = 1.0
    w = TemporalWeights(vals)
    stack = sp.vstack(slices, format="csr")
    built = SparseTensor3(precondition(stack, w))
    blended = SparseTensor3(stack, w.values)
    magnitude = SparseTensor3(abs(stack), w.values)
    F = tuple(rng.standard_normal((m, r)) for m in built.dims)
    for mode in (1, 2, 3):
        err = np.abs(mttkrp(blended, F, mode) - mttkrp(built, F, mode))
        assert np.all(err <= 1e-13 * mttkrp(magnitude, tuple(map(np.abs, F)), mode))
    assert abs(blended.norm() - built.norm()) <= 1e-13 * built.norm()

    def start_slice(Z):
        seen, solve = [], tensors._extreme_pairs
        with mock.patch.object(tensors, "_extreme_pairs",
                               lambda M, *a, **kw: seen.append(M.toarray()) or solve(M, *a, **kw)):
            initial_factors(Z, AlsConfig(rank=1))
        return seen[0]

    err = np.abs(start_slice(blended) - start_slice(built))
    assert np.all(err <= 1e-13 * start_slice(magnitude))


class TestCpAls:
    def test_exact_rank_two(self):
        dense = dense_rank_k(6, 6, 4, [3.0, 1.0], seed=5)
        model = cp_als(SparseTensor3.from_dense(dense), AlsConfig(rank=2, max_sweeps=500))
        assert model.fit < 1e-6
        assert np.allclose(model.lambdas, [3.0, 1.0], atol=1e-5)

    def test_monotone_fit_history(self):
        Z, _ = sparse_random_tensor((8, 8, 5), 0.4, 6)
        model = cp_als(Z, AlsConfig(rank=4))
        h = model.fit_history
        assert all(h[k + 1] <= h[k] + 1e-12 for k in range(len(h) - 1))

    def test_unit_columns_and_sorted_lambdas(self):
        Z, _ = sparse_random_tensor((7, 7, 4), 0.4, 7)
        model = cp_als(Z, AlsConfig(rank=3))
        for F in (model.factor_a, model.factor_b, model.factor_c):
            live = model.lambdas > 0
            assert np.abs(np.linalg.norm(F[:, live], axis=0) - 1.0).max() < 1e-10
        assert np.all(np.diff(model.lambdas) <= 1e-12)
        assert model.lambdas.min() >= 0.0

    def test_constant_slice_limit(self):
        n, tau = 6, 5
        rng = np.random.default_rng(8)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        mu = np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
        A = Q @ np.diag(mu) @ Q.T
        Z = SparseTensor3.from_dense(np.repeat(A[:, :, None], tau, axis=2))
        model = cp_als(Z, AlsConfig(rank=n))
        assert np.abs(model.lambdas - np.sqrt(tau) * mu).max() < 1e-6 * np.sqrt(tau) * mu.max()
        assert np.abs(np.abs(model.factor_c) - 1 / np.sqrt(tau)).max() < 1e-6

    def test_zero_tensor_convention(self):
        Z = SparseTensor3.from_dense(np.zeros((3, 3, 2)))
        model = cp_als(Z, AlsConfig(rank=1))
        assert model.fit == 0.0
        assert model.stop_reason == "zero" and model.b_angle == 0.0
        assert model.lambdas[0] == 0.0
        assert abs(np.linalg.norm(model.factor_a[:, 0]) - 1.0) < 1e-10

    def test_rank_cap(self):
        Z, _ = sparse_random_tensor((3, 3, 2), 0.5, 9)
        with pytest.raises(ValueError, match="cap"):
            cp_als(Z, AlsConfig(rank=100))


class TestOcpAls:
    def test_two_vector_tensor_reconstructed(self):
        rng = np.random.default_rng(10)
        Q = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        a, b = Q[:, 0], Q[:, 1]
        Z1 = (4 * np.einsum("i,j,t->ijt", a, b, b)
              + 3 * np.einsum("i,j,t->ijt", b, b, b)
              + np.einsum("i,j,t->ijt", a, a, a))
        model = ocp_als(SparseTensor3.from_dense(Z1),
                        AlsConfig(rank=3, max_sweeps=500))
        assert model.fit < 1e-6
        G = model.factor_b.T @ model.factor_b
        assert np.abs(G - np.eye(3)).max() < 1e-8

    def test_constant_slice_eigenvectors(self):
        n, tau = 5, 4
        rng = np.random.default_rng(11)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        mu = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        A = Q @ np.diag(mu) @ Q.T
        Z = SparseTensor3.from_dense(np.repeat(A[:, :, None], tau, axis=2))
        model = ocp_als(Z, AlsConfig(rank=n))
        for k in range(n):
            col = model.factor_b[:, k]
            ref = Q[:, k]
            assert min(np.abs(col - ref).max(), np.abs(col + ref).max()) < 1e-6

    def test_rank_one_exact(self):
        dense = dense_rank_k(5, 5, 3, [2.0], seed=12)
        model = ocp_als(SparseTensor3.from_dense(dense),
                        AlsConfig(rank=1))
        assert model.fit < 1e-8

    def test_orthogonality_and_monotone_on_random(self):
        for seed in range(6):
            Z, _ = sparse_random_tensor((10, 10, 6), 0.3, 100 + seed)
            model = ocp_als(Z, AlsConfig(rank=5, seed=seed))
            G = model.factor_b.T @ model.factor_b
            assert np.abs(G - np.eye(5)).max() < 1e-8
            h = model.fit_history
            assert all(h[k + 1] <= h[k] + 1e-12 for k in range(len(h) - 1))

    def test_summand_frobenius_orthogonality(self):
        Z, _ = sparse_random_tensor((8, 8, 4), 0.4, 13)
        m = ocp_als(Z, AlsConfig(rank=4))
        for i in range(4):
            for j in range(i + 1, 4):
                inner = (m.factor_a[:, i] @ m.factor_a[:, j]) \
                    * (m.factor_b[:, i] @ m.factor_b[:, j]) \
                    * (m.factor_c[:, i] @ m.factor_c[:, j])
                assert abs(inner) < 1e-8

    def test_rank_above_n_rejected(self):
        Z, _ = sparse_random_tensor((3, 3, 2), 0.5, 14)
        with pytest.raises(ValueError):
            ocp_als(Z, AlsConfig(rank=4))

    @pytest.mark.parametrize("accepted", [1, 2, 3, 4])
    def test_damped_retry_outcomes(self, accepted, monkeypatch):
        """A sweep that raises the fit gets no damped retry. Doubling the C
        update of sweep ``accepted + 1`` overshoots, and it ends cp_als and
        ocp_als alike with "rejected" at a model bitwise equal to that of a
        run with a budget of ``accepted`` sweeps."""
        Z, _ = sparse_random_tensor((6, 6, 4), 0.5, 15)
        cfg = AlsConfig(rank=3, max_sweeps=accepted + 3, rel_tol=1e-300)
        real = tensors._sweep
        for solver in (cp_als, ocp_als):
            calls = []

            def overshoot(*args):
                calls.append(args)
                A, B, C, inner = real(*args)
                if len(calls) == accepted + 1:
                    return A, B, 2 * C, 2 * inner
                return A, B, C, inner

            monkeypatch.setattr(tensors, "_sweep", overshoot)
            model = solver(Z, cfg)
            monkeypatch.setattr(tensors, "_sweep", real)
            ref = solver(Z, replace(cfg, max_sweeps=accepted))
            assert len(calls) == accepted + 1
            assert model.stop_reason == "rejected" and ref.stop_reason == "budget"
            assert model.sweeps == accepted and model.fit_history == ref.fit_history
            for F, G in zip((model.lambdas, model.factor_a, model.factor_b, model.factor_c),
                            (ref.lambdas, ref.factor_a, ref.factor_b, ref.factor_c)):
                assert np.array_equal(F, G)
            assert model.b_angle == ref.b_angle


def planted_slices(n, seed):
    """Two sparse non-symmetric slices whose symmetrized sum has the planted
    eigenvalues -9, 8, -7, 6.5, -6, 5.5, -5, 4.5 (eigenvectors spread over
    2 % of the nodes) on top of a weak sparse background: the dominant
    eigenvalue is negative, so the largest-magnitude order differs from the
    algebraic one."""
    rng = np.random.default_rng(seed)
    support = rng.choice(n, max(16, n // 50), replace=False)
    V = np.linalg.qr(rng.standard_normal((support.size, 8)))[0]
    block = sp.coo_array((V * [-9, 8, -7, 6.5, -6, 5.5, -5, 4.5]) @ V.T)
    planted = sp.csr_array((block.data, (support[block.row], support[block.col])),
                           shape=(n, n))
    noise = sp.random(n, n, density=3 / n, random_state=rng, format="csr")
    M = planted + 0.1 * (noise + noise.T)
    return [sp.triu(M, format="csr"), sp.tril(M, -1, format="csr")], M


def assert_leading_eigenvectors(F, M, k):
    """The first k columns of F are the k largest-|lambda| eigenvectors of the
    dense symmetric M, up to sign."""
    vals, vecs = np.linalg.eigh(M)
    lead = vecs[:, np.argsort(-np.abs(vals), kind="stable")[:k]]
    sign = np.sign(np.sum(F[:, :k] * lead, axis=0))
    assert np.abs(F[:, :k] - lead * sign).max() < 1e-8


class TestInitAndRankRules:
    @pytest.mark.parametrize("n", [300, 600])
    def test_square_start_is_top_magnitude_eigenvectors(self, n):
        # n = 300 takes the dense branch of the eigensolver, n = 600 ARPACK
        slices, _ = planted_slices(n, seed=n)
        Z = SparseTensor3.from_slices(slices + [slices[0]])
        A, B, C = initial_factors(Z, AlsConfig(rank=8, seed=1))
        assert (n <= DENSE_MAX_N) == (n == 300)
        assert np.array_equal(A, B)
        dense = to_dense(Z).sum(axis=2)
        assert_leading_eigenvectors(A, 0.5 * (dense + dense.T), 8)
        assert np.array_equal(C, np.full((3, 8), 1 / np.sqrt(3)))

    def test_start_above_old_dense_cap_is_spectral(self, caplog):
        n = 4097
        slices, M = planted_slices(n, seed=5)
        Z = SparseTensor3.from_slices(slices)
        caplog.set_level(logging.INFO, logger="dynten")
        A, B, C = initial_factors(Z, AlsConfig(rank=4, seed=3))
        assert caplog.records == []
        assert np.array_equal(A, B)
        rayleigh = np.einsum("ir,ir->r", A, M @ A)
        assert np.allclose(rayleigh, [-9, 8, -7, 6.5], atol=0.05)
        assert np.abs(M @ A - A * rayleigh).max() < 1e-8
        assert np.abs(A.T @ A - np.eye(4)).max() < 1e-10

    def test_start_fills_beyond_the_node_count(self):
        Z, _ = sparse_random_tensor((3, 3, 4), 0.8, 32)
        A, B, _ = initial_factors(Z, AlsConfig(rank=5, seed=4))
        assert np.array_equal(A, B) and A.shape == (3, 5)
        dense = to_dense(Z).sum(axis=2)
        assert_leading_eigenvectors(A, 0.5 * (dense + dense.T), 3)
        assert np.allclose(np.linalg.norm(A, axis=0), 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_slice_sum_matches_time_ordered_loop(self, seed):
        """The summing-operator product gives the bytes of a running sum of the
        slices in time order, with int32 indices. Every other seed adds a
        slice that cancels an earlier one exactly, so the sum has entries
        that reach exactly 0 and must be dropped."""
        rng = np.random.default_rng(300 + seed)
        n, tau = int(rng.integers(5, 40)), int(rng.integers(1, 7))
        slices = [sp.random(n, n, density=rng.uniform(0.05, 0.9), random_state=rng,
                            format="csr", data_rvs=rng.standard_normal)
                  for _ in range(tau)]
        if seed % 2:
            slices += [-slices[0]]
        Z = SparseTensor3.from_slices(slices)
        want = Z.stacked[:n]
        for t in range(1, Z.dims[2]):
            want = want + Z.stacked[t * n:(t + 1) * n]
        got = graphs._weighted_slice_sum(Z.stacked, np.ones(Z.dims[2]))
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.indices.dtype == got.indptr.dtype == np.int32
        assert got.has_canonical_format and np.all(got.data != 0)
        if seed % 2:  # entries stored in slice 0 alone cancel to exactly 0
            others = sum((S.toarray() != 0 for S in slices[1:-1]), np.zeros((n, n), bool))
            lone = (slices[0].toarray() != 0) & ~others
            assert lone.any() and not np.any(got.toarray()[lone])

    @pytest.mark.parametrize("mirrored", [True, False], ids=["same-pattern", "other-pattern"])
    def test_start_slice_is_the_sparse_symmetric_part(self, mirrored, monkeypatch):
        """The eigensolver gets the bytes of the sparse 0.5 (S + S^T). Integer
        values make many entries of S + S^T cancel to exactly 0; those must be
        dropped when S^T has S's pattern and the values are averaged in place.
        All slices share one pattern and slice 0 outweighs the other two, so
        no entry of S itself cancels."""
        rng = np.random.default_rng(48)
        n, tau = 30, 3
        mask = rng.random((n, n)) < 0.15
        if mirrored:
            mask |= mask.T
        slices = [np.where(mask, 8.0 * rng.choice([-3, -2, -1, 1, 2, 3], (n, n)), 0.0)]
        slices += [np.where(mask, rng.integers(1, 4, (n, n)), 0.0) for _ in range(tau - 1)]
        Z = SparseTensor3.from_slices([sp.csr_array(D) for D in slices])
        S = graphs._weighted_slice_sum(Z.stacked, np.ones(tau))
        want = 0.5 * (S + S.T)
        assert (graphs._mirror_data(S) is not None) == mirrored
        assert want.nnz < S.nnz if mirrored else want.nnz > S.nnz
        seen, real = [], tensors._extreme_pairs

        def spy(M, *args, **kwargs):
            seen.append(M)
            return real(M, *args, **kwargs)

        monkeypatch.setattr(tensors, "_extreme_pairs", spy)
        initial_factors(Z, AlsConfig(rank=3))
        for name in ("indptr", "indices", "data"):
            got, ref = getattr(seen[0], name), getattr(want, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_start_memory_is_linear(self):
        """Peak traced memory of the start at n = 10 000 stays within a
        constant times the nonzeros plus the n x rank factors; a dense n x n
        summed slice alone would be about six times that bound."""
        n, tau, rank = 10000, 8, 32
        rng = np.random.default_rng(24)
        Z = SparseTensor3.from_slices(
            [sp.random(n, n, density=10 / n, random_state=rng, format="csr")
             for _ in range(tau)])
        tracemalloc.start()
        try:
            initial_factors(Z, AlsConfig(rank=rank))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * (Z.nnz + n * rank) * 8

    def test_start_slice_uses_int32_indices(self, monkeypatch):
        Z, _ = sparse_random_tensor((30, 30, 4), 0.2, 41)
        seen, real = [], tensors._extreme_pairs

        def spy(M, *args, **kwargs):
            seen.append(M)
            return real(M, *args, **kwargs)

        monkeypatch.setattr(tensors, "_extreme_pairs", spy)
        initial_factors(Z, AlsConfig(rank=3))
        assert seen[0].indices.dtype == np.int32 and seen[0].indptr.dtype == np.int32

    def test_orthogonality_is_chosen_by_the_solver_not_the_config(self):
        with pytest.raises(TypeError):
            AlsConfig(rank=2, orthogonality="node_factor")

    def test_max_rank(self):
        assert max_rank(5, 3) == 15
        assert max_rank(5, 8) == 25
        assert max_rank(5, 3, orthogonal_b=True) == 5
        assert max_rank(1, 4, orthogonal_b=True) == 1
        Z, _ = sparse_random_tensor((3, 3, 2), 0.5, 32)
        with pytest.raises(ValueError, match="cap 6 "):
            cp_als(Z, AlsConfig(rank=7))


class TestReconstructError:
    def test_exact_model_zero_error(self):
        """The dense reconstruction of an exact rank-2 fit matches the tensor,
        and the reported fit is that relative error."""
        dense = dense_rank_k(5, 5, 3, [2.0, 1.0], seed=15)
        model = cp_als(SparseTensor3.from_dense(dense), AlsConfig(rank=2, max_sweeps=500))
        approx = np.einsum("r,ir,jr,tr->ijt", model.lambdas, model.factor_a,
                           model.factor_b, model.factor_c)
        err = np.linalg.norm(dense - approx) / np.linalg.norm(dense)
        assert err < 1e-6 and abs(model.fit - err) < 1e-8


class TestStopRule:
    def test_sbm_stops_on_tol_with_the_full_budget_auc(self):
        """On a seeded n = 1 000 drifting SBM the sparse spectral start already
        holds the answer: the default relative rule stops within 10 sweeps,
        and the held-out AUC matches a 200-sweep run to within 1e-3."""
        net, _ = dynamic_sbm(1000, 8, 2, 0.02, 0.002, 0.05, seed=17)
        train, target, n_links = holdout_split(net)
        pre = make_weights("exponential", train.tau, alpha=1.0)
        models, aucs = [], []
        for als in (AlsConfig(rank=32), AlsConfig(rank=32, rel_tol=1e-300)):
            res = dynamic_embedding(train, DynEmbedConfig(d=16, pre_weights=pre,
                                                          post_weights=pre, als=als))
            models.append(res.model)
            aucs.append([evaluate_link_prediction(net, target, res.embedding, metric,
                                                  min(1000, n_links), seed=0)["AUC"]
                         for metric in ("l2", "hadamard")])
        stopped, full = models
        assert stopped.stop_reason == "tol" and stopped.sweeps <= 10
        assert full.stop_reason == "budget" and full.sweeps == 200
        assert np.abs(np.subtract(*aucs)).max() <= 1e-3

    @pytest.mark.parametrize("solver", [cp_als, ocp_als])
    def test_exact_low_rank_runs_down_to_the_floor(self, solver):
        """Exact rank-2/3 tensors converge linearly, so the relative decrease
        stays large and ALS follows the tail down. A "tol" stop only comes
        once the fit has stagnated inside the cancellation noise of the
        norm-difference fit formula, a few times 1e-8, never inside the
        tail; the converged runs recover the factors. (A run can still stall
        in a swamp, a near-flat stretch before a saddle is escaped, as under
        any stagnation test; none of these trials does.)"""
        rng = np.random.default_rng(108)
        hits = 0
        for trial in range(20):
            r = 2 + trial % 2
            n, tau = int(rng.integers(6, 12)), int(rng.integers(3, 7))
            A, C = (rng.standard_normal((m, r)) for m in (n, tau))
            B = np.linalg.qr(rng.standard_normal((n, r)))[0] if solver is ocp_als \
                else rng.standard_normal((n, r))
            A, B, C = (F / np.linalg.norm(F, axis=0) for F in (A, B, C))
            lam = np.sort(rng.uniform(1.0, 3.0, r))[::-1]
            Z = SparseTensor3.from_dense(np.einsum("r,ir,jr,tr->ijt", lam, A, B, C))
            model = solver(Z, AlsConfig(rank=r, seed=trial))
            assert model.stop_reason != "tol" or model.fit <= 1e-7
            assert (model.stop_reason == "floor") == (model.fit <= _FIT_FLOOR)
            if model.fit > 1e-6:
                continue
            hits += 1
            assert np.abs(model.lambdas - lam).max() < 1e-6
            for F, G in ((model.factor_a, A), (model.factor_b, B), (model.factor_c, C)):
                assert np.abs(F.T @ G).max(axis=0).min() > 1 - 1e-10
        assert hits >= 18, f"only {hits}/20 trials converged"


@given(st.integers(0, 10 ** 6), st.sampled_from([1e-1, 1e-3, 1e-6]),
       st.integers(1, 25), st.booleans())
@settings(max_examples=40)
def test_stop_reason_property(seed, tol, budget, orthogonal):
    """"tol": the last relative fit decrease is <= tol and every earlier one
    is > tol. "budget": the budget is used up with no decrease <= tol.
    "floor": the fit reached _FIT_FLOOR. "rejected": a sweep of either
    solver was refused before the budget ran out."""
    rng = np.random.default_rng(seed)
    n, tau = int(rng.integers(3, 8)), int(rng.integers(2, 5))
    dense = np.where(rng.random((n, n, tau)) < 0.5, rng.standard_normal((n, n, tau)), 0.0)
    Z = SparseTensor3.from_dense(dense)
    if Z.nnz == 0:
        return
    rank = int(rng.integers(1, max_rank(n, tau, orthogonal) + 1))
    solver = ocp_als if orthogonal else cp_als
    model = solver(Z, AlsConfig(rank=min(rank, 4), max_sweeps=budget, rel_tol=tol, seed=seed))
    h = model.fit_history
    assert model.sweeps == len(h) <= budget
    small = [abs(h[k - 1] - h[k]) <= tol * h[k] for k in range(1, len(h))]
    assert min(h[:-1], default=np.inf) > _FIT_FLOOR
    if model.stop_reason == "tol":
        assert small and small[-1] and not any(small[:-1]) and h[-1] > _FIT_FLOOR
    elif model.stop_reason == "budget":
        assert model.sweeps == budget and not any(small) and h[-1] > _FIT_FLOOR
    elif model.stop_reason == "floor":
        assert h[-1] <= _FIT_FLOOR and not any(small[:-1])
    else:
        assert model.stop_reason == "rejected"
        assert model.sweeps < budget and not any(small)
    assert 0.0 <= model.b_angle <= np.pi / 2


class TestPrincipalAngle:
    """``tensors._largest_principal_angle``, which ``b_angle`` records: the
    largest of SciPy's ``subspace_angles``, which serves as the oracle."""

    @pytest.mark.parametrize("theta", [1e-9, 1e-5, 0.3, 1.2, np.pi / 2])
    def test_rotation_oracle(self, theta):
        """One column of a 4-dimensional subspace turned by theta out of it.
        At theta = 1e-9 the cosine rounds to exactly 1, so an arccos would
        report 0; the sine keeps full relative accuracy."""
        angle = tensors._largest_principal_angle
        rng = np.random.default_rng(44)
        Q = np.linalg.qr(rng.standard_normal((30, 5)))[0]
        F0, F1 = Q[:, :4], Q[:, :4].copy()
        F1[:, 2] = np.cos(theta) * Q[:, 2] + np.sin(theta) * Q[:, 4]
        assert abs(angle(F0, F1) - theta) <= 1e-6 * theta
        # any basis of the same two spaces: unit-norm, non-orthogonal columns
        mix = F0 @ rng.standard_normal((4, 4))
        mix /= np.linalg.norm(mix, axis=0)
        assert abs(angle(mix, F1[:, ::-1]) - theta) <= 1e-4 * theta

    @pytest.mark.parametrize("theta", [1e-9, 1e-5, 0.3, 1.2, np.pi / 2])
    def test_second_space_larger(self, theta):
        """A 3-dimensional space against a 4-dimensional one that holds two of
        its basis vectors and the third turned by theta: the largest angle
        is theta, either way round, so the sines come from the first space
        (the smaller) as well as from the second."""
        angle = tensors._largest_principal_angle
        Q = np.linalg.qr(np.random.default_rng(46).standard_normal((30, 6)))[0]
        F0 = Q[:, :3]
        F1 = np.column_stack([Q[:, :2], np.cos(theta) * Q[:, 2] + np.sin(theta) * Q[:, 4],
                              Q[:, 5]])
        assert abs(angle(F0, F1) - theta) <= 1e-6 * theta
        assert abs(angle(F1, F0) - theta) <= 1e-6 * theta

    def test_same_span_and_rank_deficient_start(self):
        angle = tensors._largest_principal_angle
        rng = np.random.default_rng(45)
        F = rng.standard_normal((20, 3))
        assert angle(F, F @ rng.standard_normal((3, 3))) < 1e-14
        # more columns than rows, as when the start fills beyond n: full span
        assert angle(rng.standard_normal((3, 5)), F[:3, :2]) < 1e-14

    @pytest.mark.parametrize("m, k0, k1", [(1, 1, 1), (3, 5, 2), (2, 1, 4), (30, 4, 4),
                                           (30, 2, 6), (30, 6, 2), (200, 8, 12)])
    @pytest.mark.parametrize("seed", range(3))
    def test_subspace_angles_oracle(self, m, k0, k1, seed):
        """Random pairs, close and far, full rank and rank deficient, either
        space the larger, against ``subspace_angles``."""
        rng = np.random.default_rng([m, k0, k1, seed])
        F0, F1 = rng.standard_normal((m, k0)), rng.standard_normal((m, k1))
        shared = min(k0, k1, m)
        F1[:, :shared] = F0[:, :shared] + 10.0 ** -(3 * seed) * F1[:, :shared]
        if seed == 2:
            F0[:, -1] = F0[:, 0]  # a repeated column: the rank rule drops it
        got = tensors._largest_principal_angle(F0, F1)
        assert abs(got - subspace_angles(F0, F1).max()) < 1e-12

    def test_model_records_how_far_b_moved(self):
        n, tau = 6, 5
        rng = np.random.default_rng(8)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = Q[:, :3] @ np.diag([6.0, 4.0, 2.0]) @ Q[:, :3].T
        # identical slices: the spectral start is already the exact node factor
        Z = SparseTensor3.from_dense(np.repeat(A[:, :, None], tau, axis=2))
        assert cp_als(Z, AlsConfig(rank=3)).b_angle < 1e-8
        Z, _ = sparse_random_tensor((8, 8, 5), 0.4, 6)
        cfg = AlsConfig(rank=4)
        model = cp_als(Z, cfg)
        _, B0, _ = initial_factors(Z, cfg)
        assert abs(model.b_angle - subspace_angles(B0, model.factor_b).max()) < 1e-12
        assert model.b_angle > 1e-3


def reference_dense_als(dense, cfg):
    """Independent dense re-implementation of the sweep (same update order,
    same proximal/normalization scheme, exact dense fits)."""
    Z = SparseTensor3.from_dense(dense)
    A, B, C = initial_factors(Z, cfg)
    lam = np.ones(cfg.rank)
    norm_z = np.linalg.norm(dense)
    fits = []

    def solve(G, rhs, prev):
        r = G.shape[0]
        rho = tensors._PROX * np.trace(G) / r
        G = G + rho * np.eye(r)
        rhs = rhs + rho * prev
        if not np.isfinite(np.linalg.cond(G)) or np.linalg.cond(G) > 1e12:
            G = G + (1e-10 * np.trace(G) / r + 1e-300) * np.eye(r)
        return np.linalg.solve(G, rhs.T).T

    for _ in range(cfg.max_sweeps):
        A = solve((B.T @ B) * (C.T @ C), np.einsum("ijt,jr,tr->ir", dense, B, C),
                  A * lam[None, :])
        B = solve((A.T @ A) * (C.T @ C), np.einsum("ijt,ir,tr->jr", dense, A, C), B)
        C = solve((A.T @ A) * (B.T @ B), np.einsum("ijt,ir,jr->tr", dense, A, B), C)
        na, nb, nc = (np.linalg.norm(F, axis=0) for F in (A, B, C))
        A, B, C = A / na, B / nb, C / nc
        lam = na * nb * nc
        approx = np.einsum("r,ir,jr,tr->ijt", lam, A, B, C)
        fits.append(np.linalg.norm(dense - approx) / norm_z)
    return fits


def test_dense_oracle_trajectory_equivalence():
    for seed in range(4):
        rng = np.random.default_rng(200 + seed)
        dense = np.where(rng.random((5, 5, 4)) < 0.6,
                         rng.standard_normal((5, 5, 4)), 0.0)
        cfg = AlsConfig(rank=3, max_sweeps=12, rel_tol=1e-300, seed=seed)
        model = cp_als(SparseTensor3.from_dense(dense), cfg)
        ref = reference_dense_als(dense, cfg)
        got = model.fit_history[:len(ref)]
        assert np.abs(np.array(got) - np.array(ref[:len(got)])).max() < 1e-8


def test_dead_columns_take_the_fallback_with_zero_norm():
    """A column whose norm is below the smallest normal float, here one of
    zeros and one of subnormals, is replaced by the fallback's column and
    keeps norm 0, so its component weight is 0; live columns are scaled to
    unit norm, and the input is not written."""
    F = np.array([[3.0, 0.0, 1e-310], [4.0, 0.0, -1e-310]])
    out, norms = tensors._normalize_columns(F, np.arange(6.0).reshape(2, 3))
    assert norms.tolist() == [5.0, 0.0, 0.0]
    assert out.tolist() == [[0.6, 1.0, 2.0], [0.8, 4.0, 5.0]]
    assert F.tolist() == [[3.0, 0.0, 1e-310], [4.0, 0.0, -1e-310]]


def test_gram_solve_zero_gram_takes_the_ridge():
    rng = np.random.default_rng(9)
    rhs, prev = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    got = tensors._gram_solve(np.zeros((3, 3)), rhs, prev)
    assert np.array_equal(got, np.linalg.solve(1e-300 * np.eye(3), rhs.T).T)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gram_solve_non_finite_gram_gives_non_finite_factor(bad):
    rng = np.random.default_rng(9)
    rhs, prev = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    G = np.full((3, 3), bad)
    with np.errstate(all="ignore"):
        assert not np.all(np.isfinite(tensors._gram_solve(G, rhs, prev)))


def _badly_scaled(scale):
    rng = np.random.default_rng(0)
    dense = np.where(rng.random((5, 5, 4)) < 0.6, rng.standard_normal((5, 5, 4)), 0.0)
    return SparseTensor3.from_dense(dense * scale)


@pytest.mark.parametrize("solver", [cp_als, ocp_als])
@pytest.mark.parametrize("scale", [1e155, 1e-160])
def test_overflowing_gram_ends_in_decomposition_error(scale, solver):
    """Gram matrices that overflow or underflow leave non-finite factors (or
    a node-factor SVD that LAPACK cannot converge), which ALS reports as
    DecompositionError naming the sweep."""
    with np.errstate(all="ignore"), pytest.raises(
            tensors.DecompositionError,
            match=r"(non-finite factor entries|SVD did not converge) at sweep \d+;"):
        solver(_badly_scaled(scale), AlsConfig(rank=3))


@pytest.mark.parametrize("solver", [cp_als, ocp_als])
@pytest.mark.parametrize("scale", [1e-200, 1e-300])
def test_underflowing_norm_ends_in_decomposition_error(scale, solver):
    """A nonzero tensor whose norm underflows to 0 is refused up front, not
    decomposed as the all-zero tensor; the all-zero tensor keeps its model."""
    Z = _badly_scaled(scale)
    assert Z.nnz > 0 and Z.norm() == 0.0
    with pytest.raises(tensors.DecompositionError, match="underflows to 0"):
        solver(Z, AlsConfig(rank=3))
    zero = solver(SparseTensor3.from_dense(np.zeros((5, 5, 4))), AlsConfig(rank=3))
    assert zero.stop_reason == "zero" and zero.fit == 0.0


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15)
def test_als_normalization_property(seed):
    rng = np.random.default_rng(seed)
    n, tau = int(rng.integers(2, 7)), int(rng.integers(2, 5))
    dense = np.where(rng.random((n, n, tau)) < 0.5, rng.standard_normal((n, n, tau)), 0.0)
    Z = SparseTensor3.from_dense(dense)
    if Z.nnz == 0:
        return
    rank = int(rng.integers(1, min(4, max_rank(n, tau) + 1)))
    model = cp_als(Z, AlsConfig(rank=rank, max_sweeps=30, seed=seed))
    live = model.lambdas > 0
    for F in (model.factor_a, model.factor_b, model.factor_c):
        if live.any():
            assert np.abs(np.linalg.norm(F[:, live], axis=0) - 1.0).max() < 1e-10


@pytest.mark.parametrize("solver", [cp_als, ocp_als])
def test_als_memory_is_linear(solver):
    """Peak traced memory of a few ALS sweeps stays within a constant times
    the nonzeros plus the n x tau x rank MTTKRP scratch; an n^2 x rank
    Khatri-Rao operand alone would be about 300 times that sum."""
    n, tau, rank = 2000, 4, 8
    rng = np.random.default_rng(23)
    Z = SparseTensor3.from_slices(
        [sp.random(n, n, density=5 / n, random_state=rng, format="csr")
         for _ in range(tau)])
    cfg = AlsConfig(rank=rank, max_sweeps=3)
    tracemalloc.start()
    try:
        solver(Z, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (Z.nnz + n * tau * rank) * 8
