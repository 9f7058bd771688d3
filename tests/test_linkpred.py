import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import expit

from dynten import graphs, linkpred
from dynten.cli import main
from dynten.graphs import ConvergenceError, DynamicNetwork, adjacency_from_edges
from dynten.linkpred import (EdgeSample, auc_roc, average_precision,
                             cross_validated_scores, holdout_split,
                             sample_training_set, separation_values)
from dynten.seeding import derived_rng
from dynten.synth import dynamic_sbm

from conftest import align_edge_lists


def hadamard_separation(emb, i, j):
    """Scalar oracle: the inner product <v_i, v_j>."""
    return float(emb[i] @ emb[j])


def l2_separation(emb, i, j):
    """Scalar oracle: the Euclidean distance ||v_i - v_j||."""
    return float(np.linalg.norm(emb[i] - emb[j]))


def loss_value(w, c, x, y):
    """The classifier's objective |w| + 10 sum log(1 + exp(-y (x w + c)))."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return abs(w) + 10.0 * float(np.logaddexp(0.0, -y * (x * w + c)).sum())


class TestSeparations:
    def test_equal_vectors(self):
        emb = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert hadamard_separation(emb, 0, 1) == pytest.approx(5.0)
        assert l2_separation(emb, 0, 1) == 0.0

    def test_orthogonal_unit_vectors(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert hadamard_separation(emb, 0, 1) == 0.0
        assert l2_separation(emb, 0, 1) == pytest.approx(np.sqrt(2))

    def test_unit_vectors_chord_formula(self):
        for theta in (0.3, 1.1, 2.5):
            emb = np.array([[1.0, 0.0], [np.cos(theta), np.sin(theta)]])
            assert l2_separation(emb, 0, 1) == pytest.approx(2 * np.sin(theta / 2))

    @given(st.integers(0, 10 ** 6))
    def test_polarization_identity(self, seed):
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((6, 4))
        for i in range(6):
            for j in range(6):
                d = l2_separation(emb, i, j)
                s = hadamard_separation(emb, i, j)
                ni = emb[i] @ emb[i]
                nj = emb[j] @ emb[j]
                assert abs(d ** 2 - (ni + nj - 2 * s)) < 1e-12


def scalar_edge_set(net, t):
    """Links of slice t as a set of pair tuples: no self-loops, unordered
    pairs unless directed."""
    A = net.adjacency(t).tocoo()
    return {(i, j) if net.directed else (min(i, j), max(i, j))
            for i, j in zip(A.row.tolist(), A.col.tolist()) if i != j}


def scalar_sampler(net, target_slice, n_pos, seed):
    """Reference sampler: rejects one (i, j) attempt at a time in Python."""
    n = net.n
    edges = sorted(scalar_edge_set(net, target_slice))
    rng = derived_rng(seed, "sampler")
    pos_idx = rng.choice(len(edges), size=n_pos, replace=False)
    positives = [edges[k] for k in sorted(pos_idx)]
    edge_set = set(edges)
    negatives = []
    seen = set()
    while len(negatives) < n_pos:
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if i == j:
            continue
        key = (i, j) if net.directed else (min(i, j), max(i, j))
        if key in edge_set or key in seen:
            continue
        seen.add(key)
        negatives.append(key)
    pairs = np.asarray(positives + negatives, dtype=np.int64)
    labels = np.concatenate([np.ones(n_pos), -np.ones(n_pos)]).astype(np.int64)
    shuffle = rng.permutation(len(labels))
    return EdgeSample(pairs=pairs[shuffle], labels=labels[shuffle])


def assert_same_sample(a, b):
    assert a.pairs.dtype == b.pairs.dtype and a.labels.dtype == b.labels.dtype
    assert np.array_equal(a.pairs, b.pairs)
    assert np.array_equal(a.labels, b.labels)


def random_slice(n, rng, density, directed, self_loops):
    """Canonical adjacency of a random slice; reciprocal links are likely
    when directed."""
    src, dst = np.nonzero(rng.random((n, n)) < density)
    if not self_loops:
        src, dst = src[src != dst], dst[src != dst]
    return adjacency_from_edges(n, src, dst, np.ones(src.size), undirected=not directed)


def toy_network():
    # 5 nodes; final slice has edges (0,1), (1,2), (3,4)
    return align_edge_lists([
        [("a", "b"), ("c", "d")],
        [("a", "b"), ("b", "c"), ("d", "e")],
    ])


class TestHoldoutSplit:
    def reciprocal_network(self, directed):
        # final slice: a reciprocal pair a<->b, one link b->c and a self-loop
        # c-c; d and e leave room for non-links
        return align_edge_lists([
            [("a", "b"), ("d", "e")],
            [("a", "b"), ("b", "a"), ("b", "c"), ("c", "c")],
        ], directed=directed)

    def test_undirected_counts_reciprocal_pair_once(self):
        net = self.reciprocal_network(directed=False)
        train, target, n_links = holdout_split(net)
        assert (target, n_links) == (1, 2)
        assert type(n_links) is int  # it goes into report.json
        assert train.tau == 1 and train.directed is False
        assert train.labels == net.labels
        assert (train.stack != net.snapshots[0]).nnz == 0

    def test_directed_counts_reciprocal_pair_twice(self):
        train, target, n_links = holdout_split(self.reciprocal_network(directed=True))
        assert (target, n_links) == (1, 3)
        assert train.directed is True

    def test_count_is_what_the_sampler_accepts(self):
        for directed in (False, True):
            net = self.reciprocal_network(directed)
            _, target, n_links = holdout_split(net)
            sample_training_set(net, target, n_links, seed=0)
            with pytest.raises(ValueError, match="links < n_pos"):
                sample_training_set(net, target, n_links + 1, seed=0)

    @given(st.integers(2, 12), st.floats(0.05, 0.9), st.booleans(), st.booleans(),
           st.integers(0, 10 ** 6))
    def test_count_matches_set_of_pairs(self, n, density, directed, self_loops, seed):
        A = random_slice(n, np.random.default_rng(seed), density, directed, self_loops)
        net = DynamicNetwork.from_snapshots(tuple(range(n)), (A, A), directed)
        pairs = sorted(scalar_edge_set(net, 1))
        want = len(pairs)
        keys = linkpred._edge_keys(net, 1)  # the keys the sampler draws from
        assert keys.dtype == np.int64
        np.testing.assert_array_equal(keys, np.array([i * n + j for i, j in pairs],
                                                     dtype=np.int64).reshape(-1))
        if want == 0:
            with pytest.raises(ValueError, match="no links"):
                holdout_split(net)
        else:
            assert holdout_split(net)[2] == want

    @pytest.mark.parametrize("directed", [False, True])
    def test_train_shares_the_checked_slices(self, directed):
        """The training network's stack is a view of the input's and runs
        none of the per-slice checks again, yet equals the network those
        checks build."""
        rng = np.random.default_rng(5)
        snaps = tuple(random_slice(30, rng, 0.2, directed, self_loops=True) for _ in range(5))
        net = DynamicNetwork.from_snapshots(tuple(range(30)), snaps, directed)
        with mock.patch.object(graphs, "_exactly_symmetric",
                               wraps=graphs._exactly_symmetric) as spy:
            train, target, _ = holdout_split(net)
            assert spy.call_count == 0
            checked = DynamicNetwork.from_snapshots(net.labels, net.snapshots[:-1], directed)
            assert spy.call_count == (0 if directed else 4)  # the spy does see the checks
        assert target == 4 and (train.stack != checked.stack).nnz == 0
        assert np.shares_memory(train.stack.data, net.stack.data)
        assert all((a != b).nnz == 0 and np.shares_memory(a.indices, net.stack.indices)
                   for a, b in zip(train.snapshots, snaps[:4], strict=True))
        assert train.labels is net.labels and train.directed is directed

    def test_linkpred_command_builds_the_keys_once(self, tmp_path):
        path = tmp_path / "s.edges"
        assert main(["synth", "--n", "30", "--tau", "3", "--seed", "1", "--out", str(path)]) == 0
        with mock.patch.object(linkpred, "_edge_keys", wraps=linkpred._edge_keys) as spy:
            assert main(["linkpred", "--data", str(path), "--method", "adj_last", "--d", "2",
                         "--out", str(tmp_path / "o")]) == 0
        assert spy.call_count == 1

    def test_single_slice_rejected(self):
        with pytest.raises(ValueError, match="tau >= 2"):
            holdout_split(align_edge_lists([[("a", "b")]]))

    def test_self_loops_only_rejected(self):
        net = align_edge_lists([[("a", "b")], [("a", "a"), ("b", "b")]])
        with pytest.raises(ValueError, match="held-out slice 1 has no links"):
            holdout_split(net)


class TestSampler:
    def test_balanced_and_verified(self):
        s = sample_training_set(toy_network(), 1, 3, seed=5)
        assert len(s) == 6
        assert (s.labels == 1).sum() == 3 and (s.labels == -1).sum() == 3
        edges = {(0, 1), (1, 2), (3, 4)}
        for (i, j), y in zip(s.pairs, s.labels):
            key = (min(i, j), max(i, j))
            assert (key in edges) == (y == 1)

    def test_deterministic_given_seed(self):
        net = toy_network()
        a = sample_training_set(net, 1, 2, seed=9)
        b = sample_training_set(net, 1, 2, seed=9)
        assert np.array_equal(a.pairs, b.pairs)
        assert np.array_equal(a.labels, b.labels)

    def test_saturated_graph_rejected(self):
        net = align_edge_lists([[("a", "b"), ("b", "c"), ("a", "c")]])
        with pytest.raises(ValueError, match="non-links"):
            sample_training_set(net, 0, 3, seed=0)

    def test_too_few_edges_rejected(self):
        net = toy_network()
        with pytest.raises(ValueError, match="links"):
            sample_training_set(net, 0, 4, seed=0)

    def test_single_positive_enumeration(self):
        net = align_edge_lists([[("a", "b")]], snapshot_labels=[["a", "b", "c"]])
        s = sample_training_set(net, 0, 1, seed=3)
        pos = s.pairs[s.labels == 1][0]
        neg = s.pairs[s.labels == -1][0]
        assert tuple(sorted(pos)) == (0, 1)
        assert tuple(sorted(neg)) in {(0, 2), (1, 2)}

    @given(st.data())
    @settings(max_examples=150)
    def test_matches_scalar_sampler(self, data):
        """Same pairs and labels as the one-attempt-at-a-time loop; the
        shuffle comes last, so this also checks that the generator ends in
        the same state."""
        n = data.draw(st.integers(2, 12), label="n")
        directed = data.draw(st.booleans(), label="directed")
        rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6), label="graph"))
        A = random_slice(n, rng, data.draw(st.floats(0.05, 0.95), label="density"),
                         directed, data.draw(st.booleans(), label="self_loops"))
        net = DynamicNetwork.from_snapshots(tuple(range(n)), (A,), directed)
        n_links = len(scalar_edge_set(net, 0))
        n_non = (n * (n - 1) if directed else n * (n - 1) // 2) - n_links
        assume(min(n_links, n_non) >= 1)
        n_pos = data.draw(st.integers(1, min(n_links, n_non)), label="n_pos")
        seed = data.draw(st.integers(0, 2 ** 63), label="seed")
        assert_same_sample(sample_training_set(net, 0, n_pos, seed),
                           scalar_sampler(net, 0, n_pos, seed))

    @pytest.mark.parametrize("directed", [False, True])
    def test_saturated_sample_returns_every_non_link_once(self, directed):
        """n_pos equal to the number of non-links at n = 200: the draws must
        collect every non-link, which takes O(log) batches."""
        n = 200
        A = random_slice(n, np.random.default_rng(31), 0.6, directed, self_loops=True)
        net = DynamicNetwork.from_snapshots(tuple(range(n)), (A,), directed)
        links = scalar_edge_set(net, 0)
        non_links = {(i, j) for i in range(n) for j in range(n)
                     if i != j and (directed or i < j)} - links
        assert len(links) >= len(non_links)
        t0 = time.perf_counter()
        s = sample_training_set(net, 0, len(non_links), seed=8)
        assert time.perf_counter() - t0 < 5.0
        negatives = [tuple(p) for p in s.pairs[s.labels == -1].tolist()]
        assert len(negatives) == len(set(negatives)) and set(negatives) == non_links
        assert_same_sample(s, scalar_sampler(net, 0, len(non_links), seed=8))


class TestLogistic:
    def test_separable_sample_perfect_cv(self):
        x = np.array([0.1, 0.2, 0.15, 0.9, 1.0, 0.8, 0.12, 0.95] * 3)
        y = np.array([1, 1, 1, -1, -1, -1, 1, -1] * 3)
        assert cross_validated_scores(x, y, 5)[0] == pytest.approx(1.0)
        slope, intercept = linkpred._fit_wc(x, y)
        probs = expit(np.array([0.1, 1.0]) * slope + intercept)
        assert probs[0] > probs[1]

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(4)
        aucs = []
        for _ in range(30):
            x = rng.standard_normal(40)
            y = np.repeat([1, -1], 20)
            rng.shuffle(y)
            aucs.append(cross_validated_scores(x, y, 5)[0])
        assert abs(np.mean(aucs) - 0.5) < 0.1

    def test_constant_feature_majority_logit(self):
        x = np.zeros(12)
        y = np.array([1] * 9 + [-1] * 3)
        slope, intercept = linkpred._fit_wc(x, y)
        assert abs(slope) < 1e-6
        assert intercept == pytest.approx(np.log(3.0), abs=1e-4)

    def test_never_worse_than_trivial(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(30)
            y = np.where(rng.random(30) < 0.5, 1, -1)
            if len(np.unique(y)) < 2:
                continue
            slope, intercept = linkpred._fit_wc(x, y)
            assert loss_value(slope, intercept, x, y) \
                <= loss_value(0.0, 0.0, x, y) + 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="class"):
            cross_validated_scores(np.ones(4), np.ones(4, dtype=int), 5)


def brent_fit_reference(x, y):
    """The classifier's earlier solver: a bounded Brent search over w, each
    step of which runs a bounded Brent search over c, plus a w = 0 candidate."""
    def data_loss(w, c):
        return 10.0 * float(np.logaddexp(0.0, -y * (x * w + c)).sum())

    def best_c(w):
        return float(minimize_scalar(lambda c: data_loss(w, c), bounds=(-60.0, 60.0),
                                     method="bounded", options={"xatol": 1e-12}).x)

    scale = float(np.abs(x - np.median(x)).max())
    w_bound = 1e3 if scale == 0.0 else min(1e9, 600.0 / scale)
    res = minimize_scalar(lambda w: abs(w) + data_loss(w, best_c(w)),
                          bounds=(-w_bound, w_bound), method="bounded",
                          options={"xatol": 1e-10})
    fits = [(w, best_c(w)) for w in (0.0, float(res.x))]
    return min(fits, key=lambda wc: loss_value(wc[0], wc[1], x, y))


def kkt_violation(w, c, x, y):
    """How far (w, c) is from the optimality conditions of
    |w| + 10 sum log(1 + exp(-y (x w + c))), each relative to the summed
    magnitude of its gradient terms."""
    p = expit(-y * (x * w + c))
    g_w, g_c = -10.0 * float((y * p) @ x), -10.0 * float((y * p).sum())
    size_w, size_c = 10.0 * float(np.abs(x) @ p), 10.0 * float(p.sum())
    if w == 0.0:
        slope = max(0.0, abs(g_w) - 1.0) / (1.0 + size_w)
    else:
        slope = abs(g_w + np.sign(w)) / (1.0 + size_w)
    return slope, abs(g_c) / size_c


def classifier_data(seed, kind, scale, n_pos, n_neg):
    rng = np.random.default_rng(seed)
    y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    rng.shuffle(y)
    if kind == "constant":
        x = np.full(y.size, rng.standard_normal())
    elif kind == "separable":
        x = rng.uniform(0.1, 1.0, y.size) * y + rng.standard_normal()
    else:
        x = rng.standard_normal(y.size) + rng.uniform(-2.0, 2.0) * (y > 0)
    return x * scale, y


def two_branch_softplus_reference(z, e):
    """The earlier line-search term: both softplus values over every sample,
    then the |e| < 1 entries overwritten by the log1p form. Its logistic is
    the package's, so ``==`` compares the two-branch structure, not the last
    bit of one logistic against another's."""
    out = np.logaddexp(0.0, z + e) - np.logaddexp(0.0, z)
    small = np.abs(e) < 1.0
    out[small] = np.log1p(linkpred._logistic(z)[0][small] * np.expm1(e[small]))
    return float(out.sum())


def ulps_apart(a, b):
    """How many doubles lie between a and b, elementwise (same-sign inputs)."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


@given(z=st.lists(st.one_of(st.floats(-800.0, 800.0), st.sampled_from([-1e300, 1e300])),
                  min_size=1, max_size=60))
def test_logistic_pair_matches_scipy(z):
    """(sigma(z), sigma(-z)) from one exp agrees with SciPy's ``expit`` within
    4 ulp wherever SciPy's value is a normal double, sums to 1 within 2 ulp,
    and overflows nowhere. Where SciPy's value is subnormal (z below about
    -708) it flushes to 0 once exp(-z) overflows; there both are below the
    smallest normal double."""
    z = np.array(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        p, p_minus = linkpred._logistic(z)
    tiny = np.finfo(np.float64).tiny
    for got, ref in ((p, expit(z)), (p_minus, expit(-z))):
        normal = ref >= tiny
        assert ulps_apart(got[normal], ref[normal]).max(initial=0) <= 4
        assert (got[~normal] < tiny).all()
    assert np.abs(p + p_minus - 1.0).max() <= 2 * np.spacing(1.0)


@given(z=st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=60),
       e=st.lists(st.one_of(st.sampled_from([-1.0, 1.0, -0.0, 0.0]),
                            st.floats(-3.0, 3.0), st.floats(-1e3, 1e3)),
                  min_size=60, max_size=60))
def test_softplus_change_matches_two_branch_reference(z, e):
    z = np.array(z)
    e = np.array(e[:z.size])
    p = linkpred._logistic(z)[0]
    assert linkpred._softplus_change(z, p, e) == two_branch_softplus_reference(z, e)


class TestNewtonFit:
    @given(seed=st.integers(0, 10 ** 6),
           kind=st.sampled_from(["overlapping", "separable", "constant"]),
           scale=st.sampled_from([1e-6, 1.0, 1e6]),
           n_pos=st.integers(1, 60), n_neg=st.integers(1, 400))
    def test_kkt_conditions(self, seed, kind, scale, n_pos, n_neg):
        x, y = classifier_data(seed, kind, scale, n_pos, n_neg)
        w, c = linkpred._fit_wc(x, y)
        slope, intercept = kkt_violation(w, c, x, y)
        # the fit stops on the Newton decrement, a bound on the loss gap; on
        # the flat loss of separable data that leaves gradients near 1e-8
        assert slope <= 1e-6 and intercept <= 1e-6

    @given(seed=st.integers(0, 10 ** 6),
           kind=st.sampled_from(["overlapping", "separable"]),
           scale=st.sampled_from([1e-3, 1.0, 1e3]),
           n_pos=st.integers(2, 40), n_neg=st.integers(2, 120))
    @settings(max_examples=25)
    def test_no_worse_than_nested_brent(self, seed, kind, scale, n_pos, n_neg):
        x, y = classifier_data(seed, kind, scale, n_pos, n_neg)
        w, c = linkpred._fit_wc(x, y)
        ref = loss_value(*brent_fit_reference(x, y), x, y)
        assert loss_value(w, c, x, y) <= ref * (1.0 + 1e-9)

    @pytest.mark.parametrize("value", [0.0, 2.5, -1e6])
    @pytest.mark.parametrize("n_pos,n_neg", [(9, 3), (1, 50), (20, 20)])
    def test_constant_feature_closed_form(self, value, n_pos, n_neg):
        y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
        w, c = linkpred._fit_wc(np.full(y.size, value), y)
        assert w == 0.0
        assert c == np.log(n_pos / n_neg)

    def test_iteration_cap_raises(self, monkeypatch):
        x, y = classifier_data(3, "overlapping", 1.0, 30, 30)
        assert linkpred._fit_wc(x, y)[0] != 0.0  # the Newton path runs
        monkeypatch.setattr(linkpred, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="gradient norm") as err:
            linkpred._fit_wc(x, y)
        assert err.value.residual > 0.0


def brute_auc(scores, labels):
    pos = np.flatnonzero(np.asarray(labels) > 0)
    neg = np.flatnonzero(np.asarray(labels) <= 0)
    total = 0.0
    for i in pos:
        for j in neg:
            if scores[i] > scores[j]:
                total += 1.0
            elif scores[i] == scores[j]:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_ap(scores, labels):
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    thresholds = sorted(set(scores), reverse=True)
    p_total = int((labels > 0).sum())
    ap, prev_recall = 0.0, 0.0
    for th in thresholds:
        kept = scores >= th
        tp = int(((labels > 0) & kept).sum())
        precision = tp / int(kept.sum())
        recall = tp / p_total
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


class TestMetrics:
    def test_perfect_and_reversed(self):
        labels = np.array([1, -1, 1, -1])
        assert auc_roc(np.array([0.9, 0.1, 0.8, 0.2]), labels) == 1.0
        assert average_precision(np.array([0.9, 0.1, 0.8, 0.2]), labels) == 1.0
        assert auc_roc(np.array([0.1, 0.9, 0.2, 0.8]), labels) == 0.0

    def test_worked_example(self):
        scores = np.array([0.9, 0.8, 0.3])
        labels = np.array([1, -1, 1])
        assert auc_roc(scores, labels) == pytest.approx(0.5)
        assert average_precision(scores, labels) == pytest.approx(5 / 6)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            m = int(rng.integers(4, 60))
            scores = rng.choice(np.round(rng.standard_normal(8), 2), size=m)
            labels = np.where(rng.random(m) < 0.5, 1, -1)
            if len(np.unique(labels)) < 2:
                continue
            assert auc_roc(scores, labels) == brute_auc(scores, labels)
            assert abs(average_precision(scores, labels) - brute_ap(scores, labels)) < 1e-12

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25)
    def test_auc_monotone_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 40))
        scores = rng.standard_normal(m)
        labels = np.where(rng.random(m) < 0.5, 1, -1)
        if len(np.unique(labels)) < 2:
            return
        base = auc_roc(scores, labels)
        assert auc_roc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc_roc(3 * scores - 7, labels) == pytest.approx(base, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_roc(np.array([0.1, 0.2]), np.array([1, 1]))


def test_cross_validated_scores_align_with_sample():
    net, _ = dynamic_sbm(40, 4, seed=20)
    emb = np.random.default_rng(7).standard_normal((40, 4))
    s = sample_training_set(net, 3, 20, seed=1)
    cv_auc, pooled = cross_validated_scores(separation_values(emb, s.pairs, "l2"), s.labels,
                                            folds=5)
    assert pooled.shape == (40,)
    assert np.all((pooled >= 0) & (pooled <= 1))
    assert np.isfinite(cv_auc)
    with pytest.raises(ValueError, match="align"):
        cross_validated_scores(np.ones(39), s.labels)


def test_separation_values_matches_scalar_functions():
    emb = np.random.default_rng(8).standard_normal((7, 3))
    pairs = [(0, 1), (2, 5), (6, 3)]
    l2 = separation_values(emb, pairs, "l2")
    had = separation_values(emb, pairs, "hadamard")
    for k, (i, j) in enumerate(pairs):
        assert l2[k] == pytest.approx(l2_separation(emb, i, j))
        assert had[k] == pytest.approx(hadamard_separation(emb, i, j))


@given(seed=st.integers(0, 10 ** 6), metric=st.sampled_from(["l2", "hadamard"]),
       noise=st.sampled_from([0.3, 1.0, 3.0]))
@settings(max_examples=20, deadline=None)
def test_scores_do_not_depend_on_the_embedding_scale(seed, metric, noise):
    """AP, AUC and cv_auc of an embedding multiplied by 10^k, k = -6..6, are
    those of the embedding itself, to within one discordant pair."""
    net, membership = dynamic_sbm(60, 4, seed=21)
    rng = np.random.default_rng(seed)
    emb = np.eye(2)[membership[-1]] + noise * rng.standard_normal((net.n, 2))
    n_pos = 40
    scores = [(rep["AP"], rep["AUC"], rep["cv_auc"]) for rep in
              (linkpred.evaluate_link_prediction(net, 3, emb * 10.0 ** k, metric, n_pos, seed)
               for k in range(-6, 7))]
    assert np.ptp(scores, axis=0).max() <= 1.0 / (n_pos * n_pos)
