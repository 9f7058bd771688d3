import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dynten import embed, graphs, io
from dynten.embed import (DynEmbedConfig, TemporalWeights, adj_last_embedding,
                          adj_wt_embedding, convolve_snapshots, default_rank,
                          dynamic_embedding, make_weights, mode_orientations,
                          precondition, res_last_embedding, res_wt_embedding,
                          weighted_modes)
from dynten.graphs import DynamicNetwork, laplacian
from dynten.linkpred import holdout_split
from dynten.spectral import adjacency_embedding, resistance_embedding
from dynten.synth import dynamic_sbm
from dynten.tensors import AlsConfig, SparseTensor3


def net_from_matrices(mats, directed=False):
    snaps = tuple(sp.csr_array(np.asarray(M, float)) for M in mats)
    labels = tuple(f"n{i}" for i in range(snaps[0].shape[0]))
    return DynamicNetwork.from_snapshots(labels, snaps, directed)


def slices(stack):
    """The n x n slices of the (tau n) x n CSR matrix ``stack``."""
    return graphs._slices_of(stack, stack.shape[0] // stack.shape[1])


def config(net, d, *, pre=None, post=None, als=None, orthogonal=False):
    """The configuration ``dynten embed`` resolves when only these are given:
    uniform pre weights, post weights equal to them, rank min(2 d, cap), seed 0."""
    pre = pre or make_weights("uniform", net.tau)
    return DynEmbedConfig(d=d, pre_weights=pre, post_weights=post or pre,
                          als=als or AlsConfig(rank=default_rank(net, d, orthogonal)),
                          orthogonal=orthogonal)


class TestWeights:
    def test_gaussian_formula(self):
        w = make_weights("gaussian", 9, sigma=8.0)
        t = np.arange(1, 10)
        assert np.allclose(w.values, np.exp(-((9 - t) ** 2) / 128.0))
        assert w.values[-1] == 1.0

    def test_exponential_ln2(self):
        w = make_weights("exponential", 3, alpha=np.log(2.0))
        assert np.allclose(w.values, [0.25, 0.5, 1.0])

    def test_uniform_all_ones(self):
        assert np.all(make_weights("uniform", 5).values == 1.0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            make_weights("exponential", 3, alpha=0.0)
        with pytest.raises(ValueError):
            make_weights("gaussian", 3, sigma=-1.0)
        with pytest.raises(ValueError, match="unknown weight scheme"):
            make_weights("explicit", 3)
        with pytest.raises(ValueError):
            TemporalWeights(np.array([0.5, 0.2]))  # sup-norm != 1
        with pytest.raises(ValueError):
            TemporalWeights(np.array([1.0, -0.1]))


class TestPrecondition:
    def test_all_ones_identity(self):
        net, _ = dynamic_sbm(20, 4, seed=0)
        out = precondition(net.stack, make_weights("uniform", 4))
        for A, B in zip(net.snapshots, slices(out), strict=True):
            assert np.array_equal(A.indptr, B.indptr)
            assert np.array_equal(A.indices, B.indices)
            assert np.allclose(A.data, B.data)

    def test_scale_preservation_for_persistent_links(self):
        # a link weight present in every slice from t on survives unchanged
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 0] = 5.0
        net = net_from_matrices([A, A, A])
        out = precondition(net.stack, TemporalWeights([0.3, 0.7, 1.0]))
        for M in slices(out):
            assert abs(M.toarray()[0, 1] - 5.0) < 1e-12

    def test_hand_recurrence(self):
        A1 = np.zeros((2, 2))
        A2 = np.zeros((2, 2))
        A2[0, 1] = A2[1, 0] = 4.0
        net = net_from_matrices([A1, A2])
        out = precondition(net.stack, TemporalWeights([0.5, 1.0]))
        M = slices(out)[0].toarray()
        assert abs(M[0, 1] - 2.0) < 1e-12

    def test_linear_in_link_weights(self):
        rng = np.random.default_rng(0)
        G = np.triu(rng.random((4, 4)), 1)
        H = np.triu(rng.random((4, 4)), 1)
        G, H = G + G.T, H + H.T
        w = TemporalWeights([0.4, 1.0])
        a, b = 2.0, 3.0
        mix = [a * G + b * H, a * H + b * G]
        out_mix, out_g, out_h = (slices(precondition(net_from_matrices(mats).stack, w))
                                 for mats in (mix, [G, H], [H, G]))
        for t in range(2):
            lhs = out_mix[t].toarray()
            rhs = a * out_g[t].toarray() + b * out_h[t].toarray()
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_length_mismatch(self):
        net, _ = dynamic_sbm(10, 3, seed=1)
        with pytest.raises(ValueError):
            precondition(net.stack, make_weights("uniform", 2))


class TestConvolve:
    def test_single_nonzero_weight_picks_slice(self):
        net, _ = dynamic_sbm(15, 3, seed=2)
        M = convolve_snapshots(net.stack, TemporalWeights([0.0, 0.0, 1.0]))
        assert np.abs(M.toarray() - net.adjacency(2).toarray()).max() < 1e-12

    def test_uniform_identical_slices(self):
        A = np.zeros((3, 3))
        A[0, 2] = A[2, 0] = 1.5
        net = net_from_matrices([A, A])
        M = convolve_snapshots(net.stack, make_weights("uniform", 2))
        assert np.abs(M.toarray() - A).max() < 1e-12

    def test_disjoint_average(self):
        A = np.zeros((4, 4)); A[0, 1] = A[1, 0] = 1.0
        B = np.zeros((4, 4)); B[2, 3] = B[3, 2] = 1.0
        net = net_from_matrices([A, B])
        M = convolve_snapshots(net.stack, make_weights("uniform", 2)).toarray()
        assert abs(M[0, 1] - 0.5) < 1e-12 and abs(M[2, 3] - 0.5) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_time_ordered_loop(self, seed):
        """Bitwise the running sum the average was once taken by: the slices
        added in time order, zero-weight slices skipped, then divided by the
        weight sum. Integer values make partial sums cancel to exactly 0, and
        those entries must be dropped."""
        rng = np.random.default_rng(700 + seed)
        n, tau = int(rng.integers(4, 30)), int(rng.integers(1, 7))
        slices = tuple(sp.csr_array(np.where(rng.random((n, n)) < rng.uniform(0.1, 0.8),
                                             rng.integers(-3, 4, (n, n)), 0.0))
                       for _ in range(tau))
        vals = rng.choice([0.0, 0.25, 0.5, 1.0], tau)
        vals[rng.integers(tau)] = 1.0
        w = TemporalWeights(vals)
        acc = w.values[0] * slices[0]
        for t in range(1, tau):
            if w.values[t] != 0.0:
                acc = acc + w.values[t] * slices[t]
        want = sp.csr_array(acc / float(w.values.sum()))
        got = convolve_snapshots(sp.vstack(slices, format="csr"), w)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()
        assert got.has_canonical_format and np.all(got.data != 0)

    def test_zero_weights_rejected(self):
        # all-zero weights cannot even be constructed (sup-norm must be 1)
        with pytest.raises(ValueError):
            TemporalWeights(np.array([0.0, 0.0]))


def three_pair_matrix():
    """Three disjoint weighted edges; spectrum is exactly {3,2,1,-1,-2,-3}."""
    A = np.zeros((6, 6))
    for k, w in enumerate((3.0, 2.0, 1.0)):
        A[2 * k, 2 * k + 1] = A[2 * k + 1, 2 * k] = w
    return A


def match_up_to_sign(u, v, tol):
    return min(np.abs(u - v).max(), np.abs(u + v).max()) < tol


class TestDynamicEmbedding:
    def test_constant_slices_match_static_embedding(self):
        A = three_pair_matrix()
        tau = 4
        net = net_from_matrices([A] * tau)
        cfg = config(net, 3, als=AlsConfig(rank=6, max_sweeps=300))
        emb = dynamic_embedding(net, cfg).embedding
        static = adjacency_embedding(sp.csr_array(A), 3)
        mu = np.array([3.0, 2.0, 1.0])
        sigma = np.sqrt(np.sqrt(tau) * mu) * np.sqrt(tau)
        for k in range(3):
            assert abs(np.linalg.norm(emb[:, k]) - sigma[k]) < 1e-6
            assert match_up_to_sign(emb[:, k] / sigma[k],
                                    static[:, k] / mu[k], 1e-6)

    def test_tau_one_single_slice(self):
        A = three_pair_matrix()
        net = net_from_matrices([A])
        emb = dynamic_embedding(net, config(net, 2)).embedding
        static = adjacency_embedding(sp.csr_array(A), 2)
        for k in range(2):
            u = emb[:, k] / np.linalg.norm(emb[:, k])
            v = static[:, k] / np.linalg.norm(static[:, k])
            assert match_up_to_sign(u, v, 1e-6)

    def test_sbm_blocks_separate(self):
        net, members = dynamic_sbm(60, 6, 2, 0.25, 0.01, 0.03, seed=5)
        emb = dynamic_embedding(net, config(
            net, 8, pre=make_weights("exponential", 6, alpha=1.0))).embedding
        truth = members[-1]
        within, cross = [], []
        for i in range(0, 60, 3):
            for j in range(i + 1, 60, 3):
                d = np.linalg.norm(emb[i] - emb[j])
                (within if truth[i] == truth[j] else cross).append(d)
        assert np.mean(within) < np.mean(cross)

    def test_column_norms_equal_sigma(self):
        net, _ = dynamic_sbm(30, 5, seed=6)
        res = dynamic_embedding(net, config(net, 6))
        norms = np.linalg.norm(res.embedding, axis=0)
        assert np.abs(norms - np.abs(res.sigmas[res.selected])).max() < 1e-9

    def test_last_slice_indicator_weights(self):
        net, _ = dynamic_sbm(25, 5, seed=7)
        post = TemporalWeights([0, 0, 0, 0, 1.0])
        res = dynamic_embedding(net, config(net, 4, post=post))
        m = res.model
        recomputed = np.sqrt(m.lambdas) * m.factor_c[-1, :]
        assert np.abs(weighted_modes(m, post) - recomputed).max() < 1e-12

    def test_ocpd_gram_is_diagonal(self):
        net, _ = dynamic_sbm(30, 5, seed=8)
        res = dynamic_embedding(net, config(net, 6, orthogonal=True))
        G = res.embedding.T @ res.embedding
        assert np.abs(G - np.diag(res.sigmas[res.selected] ** 2)).max() < 1e-8

    def test_selecting_full_rank_keeps_error(self):
        net, _ = dynamic_sbm(20, 4, seed=9)
        rank = 6
        res = dynamic_embedding(net, config(net, rank, als=AlsConfig(rank=rank)))
        dense = np.stack([A.toarray() for A in
                          slices(precondition(net.stack, make_weights("uniform", 4)))], axis=2)

        def error(m, keep):
            approx = np.einsum("r,ir,jr,tr->ijt", m.lambdas[keep], m.factor_a[:, keep],
                               m.factor_b[:, keep], m.factor_c[:, keep])
            return np.linalg.norm(dense - approx) / np.linalg.norm(dense)

        full_err = error(res.model, slice(None))
        sel_err = error(res.model, sorted(res.selected))
        assert abs(full_err - sel_err) < 1e-12

    def test_d_above_rank_rejected(self):
        net, _ = dynamic_sbm(10, 3, seed=10)
        with pytest.raises(ValueError, match="rank 4 is below d=5"):
            config(net, 5, als=AlsConfig(rank=4))

    def test_orientation_gauge_invariance(self):
        net, _ = dynamic_sbm(20, 4, seed=11)
        res = dynamic_embedding(net, config(net, 4))
        m = res.model
        flipped = type(m)(lambdas=m.lambdas, factor_a=-m.factor_a,
                          factor_b=m.factor_b, factor_c=-m.factor_c, fit=m.fit)
        w = make_weights("uniform", 4)
        s1 = weighted_modes(m, w) * mode_orientations(m)
        s2 = weighted_modes(flipped, w) * mode_orientations(flipped)
        assert np.abs(s1 - s2).max() < 1e-12


class TestBaselines:
    def test_adj_last_on_static_tail(self):
        A = three_pair_matrix()
        net = net_from_matrices([np.zeros_like(A), A])
        emb = adj_last_embedding(net, 2)
        static = adjacency_embedding(sp.csr_array(A), 2)
        assert np.abs(np.abs(emb) - np.abs(static)).max() < 1e-8

    def test_adj_wt_single_weight_is_adj_last(self):
        net, _ = dynamic_sbm(20, 3, seed=12)
        from dynten.embed import adj_wt_embedding
        a = adj_wt_embedding(net, TemporalWeights([0, 0, 1.0]), 3)
        b = adj_last_embedding(net, 3)
        assert np.abs(np.abs(a) - np.abs(b)).max() < 1e-7

    def test_res_wt_embeds_the_average_of_slice_laplacians(self):
        # L = D - A is linear, so the Laplacian of the averaged slices is the
        # average sum_t w_t L(A_t) / sum_t w_t of the slice Laplacians
        net, _ = dynamic_sbm(30, 4, seed=5)
        w = make_weights("exponential", 4, alpha=1.0)
        L = sum(wt * laplacian(A) for wt, A in zip(w.values, net.snapshots)) / w.values.sum()
        want = resistance_embedding(L, 3)
        assert np.abs(res_wt_embedding(net, w, 3) - want).max() < 1e-10

    @pytest.mark.parametrize("reciprocal", [False, True])
    @pytest.mark.parametrize("seed", range(2))
    def test_directed_baselines_embed_the_symmetric_part(self, seed, reciprocal):
        """On a directed network every baseline reads (A + A^T)/2 of each
        slice: it writes the bytes it writes on the undirected network of
        those parts, formed densely, and leaves the network's arrays as they
        were. The random slices hold self-loops and reciprocal links of
        unequal weight, and one-way links too unless ``reciprocal``: with
        every link reciprocal the symmetric part is summed in place, on the
        stored values."""
        rng = np.random.default_rng(900 + seed)
        n, tau = 40, 4
        mats = []
        for _ in range(tau):
            linked = rng.random((n, n)) < 0.15
            if reciprocal:
                linked |= linked.T
            mats.append(np.where(linked, rng.uniform(0.5, 2.0, (n, n)), 0.0))
        directed = net_from_matrices(mats, directed=True)
        undirected = net_from_matrices([(M + M.T) / 2 for M in mats])
        arrays = [(A.data.copy(), A.indices.copy(), A.indptr.copy())
                  for A in directed.snapshots]
        w = make_weights("exponential", tau, alpha=1.0)
        for method in (adj_last_embedding, res_last_embedding,
                       lambda g, d: adj_wt_embedding(g, w, d),
                       lambda g, d: res_wt_embedding(g, w, d)):
            assert method(directed, 4).tobytes() == method(undirected, 4).tobytes()
            for A, saved in zip(directed.snapshots, arrays, strict=True):
                for got, want in zip((A.data, A.indices, A.indptr), saved):
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [60, 600])
    def test_embeddings_do_not_depend_on_the_index_width(self, n):
        """A network's slices hold int32 index arrays, and so do the tensor
        and the convolution built from them. An int64-widened copy of the
        same network gives byte-identical embeddings for all six methods, on
        the dense (n = 60) and ARPACK (n = 600) eigensolver paths."""
        net, _ = dynamic_sbm(n, 4, p_in=0.05, seed=13)
        w = make_weights("exponential", 4, alpha=1.0)
        S = net.stack
        wide = DynamicNetwork(net.labels, sp.csr_array(
            (S.data, S.indices.astype(np.int64), S.indptr.astype(np.int64)), shape=S.shape))
        for A, B in zip(net.snapshots, wide.snapshots):
            assert A.indices.dtype == A.indptr.dtype == np.int32
            assert B.indices.dtype == B.indptr.dtype == np.int64
        for M in (SparseTensor3.from_slices(net.snapshots).stacked,
                  convolve_snapshots(net.stack, w)):
            assert M.indices.dtype == M.indptr.dtype == np.int32

        def embeddings(g):
            return [dynamic_embedding(g, config(g, 4, pre=w)).embedding,
                    dynamic_embedding(g, config(g, 4, pre=w, orthogonal=True)).embedding,
                    adj_last_embedding(g, 4), res_last_embedding(g, 4),
                    adj_wt_embedding(g, w, 4), res_wt_embedding(g, w, 4)]

        for a, b in zip(embeddings(net), embeddings(wide)):
            assert a.tobytes() == b.tobytes()


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20)
def test_precondition_keeps_nonnegativity_and_support(seed):
    rng = np.random.default_rng(seed)
    tau = int(rng.integers(1, 5))
    n = int(rng.integers(2, 8))
    mats = []
    for _ in range(tau):
        M = np.triu(np.where(rng.random((n, n)) < 0.4, rng.uniform(0.5, 2, (n, n)), 0), 1)
        mats.append(M + M.T)
    net = net_from_matrices(mats)
    vals = rng.uniform(0, 1, tau)
    vals[rng.integers(tau)] = 1.0
    out = precondition(net.stack, TemporalWeights(vals))
    for A in slices(out):
        assert A.data.min() >= 0 if A.nnz else True


def test_precondition_peaks_near_the_stack_it_returns():
    """The blended stack is one product written into one output buffer, so
    precondition's traced peak stays within 1.75 times the bytes it
    returns on an n = 1 000, tau = 8 network (1.035 here). Blending slice
    by slice, compacting each and stacking them again peaked at 2.53."""
    net, _ = dynamic_sbm(1000, 8, seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        out = precondition(net.stack, make_weights("exponential", 8, alpha=1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == net.stack.shape and out.has_canonical_format
    assert peak <= 1.75 * sum(a.nbytes for a in (out.data, out.indices, out.indptr))


def test_dynamic_embedding_memory_is_linear():
    """Peak traced memory of a whole dynacpd embedding at n = 10 000 (one
    stack of the raw slices, spectral start, three ALS sweeps and selection)
    stays within a small constant times the preconditioned tensor's nonzeros
    plus the n x tau x rank MTTKRP scratch. These slices share no links, so
    that tensor holds 4.5 times the raw nonzeros. The peak measured here is
    28.0 MB, 0.569 times (nnz + n tau rank) * 8 bytes and 0.228 of the
    123 MB bound, reached inside ``SparseTensor3.norm``'s slice-at-a-time
    recurrence (the ratio was 1.838 while the preconditioned tensor was
    built, with four 8-column MTTKRP blocks; 2.03 before MTTKRP ran in
    column blocks). Building that tensor again, or a CSR copy of it, would
    add about 0.9; ``test_raw_tensor_is_the_network_stack`` checks that
    neither is made."""
    n, tau, rank = 10000, 8, 32
    rng = np.random.default_rng(25)
    snaps = []
    for _ in range(tau):
        S = sp.random(n, n, density=5 / n, random_state=rng, format="csr")
        snaps.append(sp.csr_array(S + S.T))
    net = DynamicNetwork.from_snapshots(tuple(range(n)), snaps)
    pre = make_weights("exponential", tau, alpha=1.0)
    nnz = precondition(net.stack, pre).nnz
    cfg = DynEmbedConfig(d=16, pre_weights=pre, post_weights=pre,
                         als=AlsConfig(rank=rank, max_sweeps=3))
    tracemalloc.start()
    try:
        res = dynamic_embedding(net, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.model.sweeps <= 3 and res.embedding.shape == (n, 16)
    assert peak <= 2.5 * (nnz + n * tau * rank) * 8


def test_conditioned_slices_are_freed_before_als(monkeypatch):
    """The symmetrized variant's tensor is built from the preconditioned
    stack, so it is not alive when ALS starts: kept alive, it would add a
    second copy of the tensor to the working set of every sweep."""
    net, _ = dynamic_sbm(60, 4, seed=3)
    refs, alive = [], []
    real_precondition, real_als = embed.precondition, embed.cp_als

    def precondition_spy(*args):
        out = real_precondition(*args)
        refs.append(weakref.ref(out))
        return out

    def als_spy(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        return real_als(*args)

    monkeypatch.setattr(embed, "precondition", precondition_spy)
    monkeypatch.setattr(embed, "cp_als", als_spy)
    dynamic_embedding(net, replace(config(net, 4), adjacency_variant="symmetrized"))
    assert len(refs) == 1 and alive == [0]


def test_raw_tensor_is_the_network_stack(tmp_path, monkeypatch):
    """On the raw variant ALS runs on the training prefix of the loaded
    network's own stack, blended by the pre weights: nothing is
    preconditioned or stacked again, and the tensor shares the slices'
    arrays, as it does for a synthetic network's stack."""
    path = tmp_path / "net.edges"
    path.write_text("".join(f"{t} {i} {(i + t + 1) % 9} {1.0 + t}\n"
                            for t in range(4) for i in range(9)))
    calls, tensors_seen = [], []
    real_als = embed.cp_als
    monkeypatch.setattr(embed, "precondition", lambda *a: calls.append("precondition"))
    monkeypatch.setattr(SparseTensor3, "from_slices",
                        classmethod(lambda cls, *a: calls.append("from_slices")))
    monkeypatch.setattr(embed, "cp_als", lambda Z, cfg: tensors_seen.append(Z) or real_als(Z, cfg))
    net = io.load_dynamic_network(path)
    train, _, _ = holdout_split(net)
    w = make_weights("exponential", train.tau, alpha=1.0)
    dynamic_embedding(train, config(train, 2, pre=w))
    synthetic, _ = dynamic_sbm(30, 3, seed=4)
    dynamic_embedding(synthetic, config(synthetic, 2))
    assert calls == []
    loaded, stacked = tensors_seen
    assert loaded.dims == (9, 9, 3) and loaded.blend is w.values
    assert np.shares_memory(loaded.stacked.data, net.snapshots[0].data)
    assert np.shares_memory(loaded.stacked.indices, net.snapshots[0].indices)
    assert stacked.nnz == sum(A.nnz for A in synthetic.snapshots)
    assert np.shares_memory(stacked.stacked.data, synthetic.snapshots[0].data)


def test_weights_that_zero_every_slice_give_the_zero_model():
    """Weights that zero every nonempty training slice leave an all-zero
    preconditioned tensor, decomposed as the zero model, not refused as a
    tensor whose norm underflows."""
    link = [[0.0, 1.0], [1.0, 0.0]]
    net = net_from_matrices([link, link, np.zeros((2, 2))])
    res = dynamic_embedding(net, config(net, 1, pre=TemporalWeights([0.0, 0.0, 1.0])))
    assert res.model.stop_reason == "zero" and res.model.fit == 0.0
    assert not res.embedding.any()


def backward_blend(w, mu):
    """p = W mu by the recurrence p_tau = w_tau mu_tau, p_t = w_t mu_t +
    (1 - w_t) p_{t+1}, applied to each column of the tau x m array mu."""
    p = np.empty_like(mu)
    p[-1] = w[-1] * mu[-1]
    for t in range(len(w) - 2, -1, -1):
        p[t] = w[t] * mu[t] + (1.0 - w[t]) * p[t + 1]
    return p


@given(ratios=st.lists(st.floats(1.15, 1.3), min_size=8, max_size=8),
       scheme=st.sampled_from(["uniform", "exponential"]), orthogonal=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=16, deadline=None)
def test_exact_low_rank_slices_are_recovered(ratios, scheme, orthogonal, seed):
    """Slices A_t = U diag(mu_t) U^T with orthonormal U (n x m) blend into the
    tensor sum_r u_r o u_r o p_r with p = W mu, whose rank-m CP is unique for
    generic positive mu (Kruskal). So the weighted modes are sigma_r =
    <w, p_r> / sqrt(||p_r||), and the embedding's columns are +-sigma_r u_r
    for the d largest.

    Each mu_r is a random positive profile scaled to a drawn sigma_r, and
    consecutive sigma_r lie 15-30 % apart, so the eigenvalues of the summed
    slices, about sigma_r^2 apart, give the spectral start U itself. ALS
    stops once its fit reads below 1e-8, near the fit's resolution, so the
    bounds are set from the stop, not from rounding: over 3 000 draws the
    worst errors were 2.3e-10 sigma_max on the embedding and 2.7e-7 sigma_max
    on the sigmas (medians 5.6e-16 and 3.9e-9).

    The same draws also run dynacpd at rank 2m, above the tensor's rank:
    its m largest sigmas and its embedding must meet the same bounds, and
    the other m components must carry next to nothing. Over 6 000 draws
    (1 000 with every ratio at 1.15 or 1.3) the worst errors there were
    1.3e-10 sigma_max on the embedding and 2.8e-7 sigma_max on the sigmas,
    and the other components' |sigma| reached 2.5e-5 sigma_max (median
    1.3e-7), hence the bound of 1e-4 sigma_max."""
    n, tau, m, d = 60, 6, 8, 4
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, m)))[0]
    w = make_weights(scheme, tau, alpha=1.0)
    want = rng.permutation(np.cumprod(ratios))
    profile = rng.uniform(0.8, 1.25, (tau, m))
    q = backward_blend(w.values, profile)
    mu = profile * (want * np.sqrt(np.linalg.norm(q, axis=0)) / (w.values @ q)) ** 2
    net = net_from_matrices([(A + A.T) / 2 for A in ((U * mu_t) @ U.T for mu_t in mu)])
    p = backward_blend(w.values, mu)
    sigma = (w.values @ p) / np.sqrt(np.linalg.norm(p, axis=0))
    for cfg in (config(net, d, pre=w, orthogonal=orthogonal),
                config(net, d, pre=w, als=AlsConfig(rank=2 * m))):
        res = dynamic_embedding(net, cfg)
        got = np.sort(res.sigmas)[::-1]
        assert np.abs(got[:m] - np.sort(sigma)[::-1]).max() <= 1e-6 * sigma.max()
        assert np.abs(got[m:]).max(initial=0.0) <= 1e-4 * sigma.max()
        for column, r in zip(res.embedding.T, np.argsort(-sigma)[:d], strict=True):
            assert match_up_to_sign(column, sigma[r] * U[:, r], 1e-8 * sigma.max())
