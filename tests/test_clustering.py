import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynten.clustering import (ClusterState, anomaly_scores, assign_clusters,
                               classify_anomalies, kmeans, streaming_update,
                               suggest_threshold)


def lloyd_objective(state, points):
    """Oracle: the summed squared distance of each point to its nearest centroid."""
    d2 = ((points[:, None, :] - state.centroids[None, :, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).sum())


class TestKmeans:
    def test_two_separated_clouds(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.2, size=(30, 2))
        b = rng.normal(8.0, 0.2, size=(30, 2))
        state = kmeans(np.vstack([a, b]), 2, seed=1)
        lo = state.centroids[np.argsort(state.centroids[:, 0])]
        assert np.all(np.abs(lo[0]) < 1.0)
        assert np.all(np.abs(lo[1] - 8.0) < 1.0)

    def test_k_equals_n(self):
        pts = np.array([[0.0], [1.0], [5.0]])
        state = kmeans(pts, 3, seed=0)
        assert sorted(state.centroids.ravel().tolist()) == [0.0, 1.0, 5.0]

    def test_identical_points_k1(self):
        pts = np.ones((5, 3)) * 2.5
        state = kmeans(pts, 1, seed=0)
        assert np.allclose(state.centroids[0], 2.5)

    def test_k_above_distinct_rejected(self):
        pts = np.ones((5, 2))
        with pytest.raises(ValueError, match="distinct"):
            kmeans(pts, 2, seed=0)

    def test_no_iteration_budget_rejected(self):
        with pytest.raises(ValueError, match="max_iter"):
            kmeans(np.array([[0.0], [1.0]]), 2, max_iter=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_underflowing_distances_seed_distinct_points_and_reseed(self, seed):
        """Two distinct points 1e-200 apart: their squared distance underflows
        to 0, so the second centroid is seeded on the other distinct point
        rather than drawn with zero probabilities. Lloyd's first assignment,
        tied at 0, puts both points in cluster 0, and the emptied cluster 1
        takes the farthest point, the first of the tie, which keeps it on the
        next, again tied, assignment: no cluster is left empty."""
        state = kmeans(np.array([[0.0], [1e-200]]), 2, seed=seed)
        assert state.counts.tolist() == [1.0, 1.0]
        assert state.centroids.ravel().tolist() == [1e-200, 0.0]

    @given(st.integers(0, 10 ** 6), st.integers(2, 12), st.integers(1, 4),
           st.integers(1, 5), st.sampled_from([1.0, 1e-160, 1e-200, 1e-300]))
    def test_no_cluster_is_empty(self, seed, n, k, max_iter, scale):
        """Whatever the budget, and where squared distances underflow, every
        returned cluster holds a point, and the counts add up to n."""
        rng = np.random.default_rng(seed)
        pts = scale * rng.integers(0, 3, size=(n, 2)).astype(float)
        k = min(k, np.unique(pts, axis=0).shape[0])
        state = kmeans(pts, k, max_iter=max_iter, seed=seed)
        assert np.all(state.counts >= 1)
        assert state.counts.sum() == n

    def test_lloyd_objective_nonincreasing(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((60, 3))
        objs = [lloyd_objective(kmeans(pts, 4, max_iter=m, seed=3), pts)
                for m in range(1, 8)]
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))


class TestStreamingUpdate:
    def test_worked_example(self):
        state = ClusterState(centroids=np.array([[0.0]]), counts=np.array([2.0]),
                             alpha=0.5)
        out = streaming_update(state, 0, [[3.0]])
        assert out.centroids[0, 0] == 1.5
        assert out.counts[0] == 2.0

    def test_alpha_one_is_running_mean(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((10, 2))
        state = ClusterState(centroids=pts[:4].mean(axis=0, keepdims=True),
                             counts=np.array([4.0]), alpha=1.0)
        out = streaming_update(state, 0, pts[4:])
        assert np.abs(out.centroids[0] - pts.mean(axis=0)).max() < 1e-12
        assert out.counts[0] == 10.0

    def test_alpha_zero_keeps_only_new(self):
        state = ClusterState(centroids=np.array([[100.0, -5.0]]),
                             counts=np.array([7.0]), alpha=0.0)
        new = np.array([[1.0, 1.0], [3.0, 3.0]])
        out = streaming_update(state, 0, new)
        assert np.allclose(out.centroids[0], [2.0, 2.0])

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((8, 3))
        state = ClusterState(centroids=np.zeros((1, 3)), counts=np.array([3.0]),
                             alpha=0.5)
        a = streaming_update(state, 0, pts)
        b = streaming_update(state, 0, pts[::-1])
        assert np.abs(a.centroids - b.centroids).max() < 1e-12

    def test_original_state_untouched(self):
        state = ClusterState(centroids=np.zeros((2, 2)), counts=np.array([1.0, 1.0]))
        streaming_update(state, 1, np.ones((3, 2)))
        assert np.all(state.centroids == 0.0)
        assert np.all(state.counts == 1.0)

    def test_invalid_cluster(self):
        state = ClusterState(centroids=np.zeros((1, 2)), counts=np.array([1.0]))
        with pytest.raises(ValueError):
            streaming_update(state, 3, np.ones((1, 2)))


class TestAnomaly:
    def test_point_on_centroid(self):
        state = ClusterState(centroids=np.array([[0.0], [10.0]]),
                             counts=np.array([1.0, 1.0]))
        scores = anomaly_scores(state, np.array([[0.0]]))
        assert scores[0] == 0.0
        assert not classify_anomalies(scores, 0.5)[0]

    def test_min_distance(self):
        state = ClusterState(centroids=np.array([[0.0], [10.0]]),
                             counts=np.array([1.0, 1.0]))
        assert anomaly_scores(state, np.array([[4.0]]))[0] == pytest.approx(4.0)

    def test_threshold_zero_flags_positives(self):
        state = ClusterState(centroids=np.array([[0.0]]), counts=np.array([1.0]))
        scores = anomaly_scores(state, np.array([[0.0], [0.1], [2.0]]))
        flags = classify_anomalies(scores, 0.0)
        assert flags.tolist() == [False, True, True]

    def test_suggest_threshold_percentile(self):
        scores = np.arange(101, dtype=float)
        assert suggest_threshold(scores, 95.0) == pytest.approx(95.0)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25)
    def test_scores_nonnegative_and_lipschitz(self, seed):
        rng = np.random.default_rng(seed)
        k, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        state = ClusterState(centroids=rng.standard_normal((k, d)),
                             counts=np.ones(k))
        p = rng.standard_normal((1, d))
        q = p + rng.standard_normal((1, d)) * 0.1
        sp_, sq = anomaly_scores(state, p)[0], anomaly_scores(state, q)[0]
        assert sp_ >= 0.0 and sq >= 0.0
        assert abs(sp_ - sq) <= np.linalg.norm(p - q) + 1e-12

    def test_assignment_matches_nearest(self):
        state = ClusterState(centroids=np.array([[0.0], [10.0]]),
                             counts=np.array([1.0, 1.0]))
        lab = assign_clusters(state, np.array([[1.0], [9.0], [4.9]]))
        assert lab.tolist() == [0, 1, 0]


def test_injected_outlier_ranks_top():
    rng = np.random.default_rng(6)
    train = rng.normal(0, 0.5, size=(40, 4))
    state = kmeans(train, 2, seed=0)
    cutoff = suggest_threshold(anomaly_scores(state, train), 95.0)
    newcomer = np.full((1, 4), 25.0)  # off-structure arrival
    assert anomaly_scores(state, newcomer)[0] > cutoff


def test_k_one_scores_are_global_centroid_distances():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((25, 3))
    state = kmeans(pts, 1, seed=0)
    assert np.allclose(state.centroids[0], pts.mean(axis=0))
    scores = anomaly_scores(state, pts)
    want = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
    assert np.abs(scores - want).max() < 1e-12
