"""Batch k-means, decayed streaming centroid updates, and anomaly scoring."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .seeding import derived_rng


@dataclass(frozen=True)
class ClusterState:
    """k centroids with decayed member masses; a value object, updates return
    new states."""

    centroids: np.ndarray  # (k, d)
    counts: np.ndarray     # (k,) decayed real-valued masses
    alpha: float = 0.5

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float64)
        m = np.asarray(self.counts, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 1:
            raise ValueError("need at least one centroid")
        if m.shape != (c.shape[0],) or np.any(m < 0):
            raise ValueError("counts must be nonnegative, one per centroid")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("decay alpha must be in [0, 1]")
        if not np.all(np.isfinite(c)):
            raise ValueError("centroids must be finite")
        object.__setattr__(self, "centroids", c)
        object.__setattr__(self, "counts", m)

    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])


def _pairwise_sq(points, centroids):
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def assign_clusters(state: ClusterState, points) -> np.ndarray:
    """Nearest-centroid assignment (Euclidean)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return np.argmin(_pairwise_sq(points, state.centroids), axis=1)


def kmeans(points, k: int, max_iter: int = 100, seed: int = 0) -> ClusterState:
    """Lloyd iteration from k-means++ style seeding.

    Stops when the assignment stabilizes or the iteration budget runs out.
    A point leaves its cluster only for a strictly nearer centroid, and an
    emptied cluster takes the point farthest from its centroid among the
    clusters of two or more, so every returned cluster holds a point, even
    where squared distances underflow to ties.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    distinct = np.unique(points, axis=0).shape[0]
    if k < 1 or k > distinct:
        raise ValueError(f"k must be in [1, {distinct}] (distinct points)")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    rng = derived_rng(seed, "kmeans")
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    for c in range(1, k):
        d2 = _pairwise_sq(points, centroids[:c]).min(axis=1)
        total = d2.sum()
        if total == 0:
            # remaining centroids must land on distinct points
            pool = np.unique(points, axis=0)
            mask = ~(pool[:, None, :] == centroids[None, :c, :]).all(axis=2).any(axis=1)
            centroids[c] = pool[mask][0]
        else:
            centroids[c] = points[rng.choice(n, p=d2 / total)]

    labels, rows = None, np.arange(n)
    for _ in range(max_iter):
        d2 = _pairwise_sq(points, centroids)
        new_labels = np.argmin(d2, axis=1)
        if labels is not None:
            # on a tie a point keeps its cluster, so a reseeded point stays
            new_labels = np.where(d2[rows, labels] <= d2[rows, new_labels], labels, new_labels)
            if np.array_equal(new_labels, labels):
                break
        labels = new_labels
        sizes = np.bincount(labels, minlength=k)
        for c in np.flatnonzero(sizes == 0):
            # while a cluster is empty, one holds two or more points (n >= k)
            far = np.argmax(np.where(sizes[labels] > 1, d2[rows, labels], -1.0))
            sizes[labels[far]] -= 1
            sizes[c] = 1
            labels[far] = c
        for c in range(k):
            centroids[c] = points[labels == c].mean(axis=0)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    return ClusterState(centroids=centroids, counts=counts)


def streaming_update(state: ClusterState, cluster_id: int, new_points) -> ClusterState:
    """Absorb new points into one cluster with decayed history:

        c = (alpha c0 m0 + sum v') / (alpha m0 + m')

    alpha = 1 is the ordinary running mean, alpha = 0 keeps only the new
    points. The stored mass becomes alpha m0 + m' so that repeated alpha = 1
    updates agree with the batch mean exactly.
    """
    if not 0 <= cluster_id < state.k:
        raise ValueError(f"cluster_id must be in [0, {state.k})")
    pts = np.atleast_2d(np.asarray(new_points, dtype=np.float64))
    if pts.shape[1] != state.centroids.shape[1]:
        raise ValueError("point dimension does not match centroids")
    m_new = pts.shape[0]
    if m_new < 1:
        raise ValueError("need at least one new point")
    m0 = float(state.counts[cluster_id])
    denom = state.alpha * m0 + m_new
    if denom == 0:
        raise ValueError("decayed mass is zero; centroid undefined")
    c0 = state.centroids[cluster_id]
    centroid = (state.alpha * c0 * m0 + pts.sum(axis=0)) / denom
    centroids = state.centroids.copy()
    counts = state.counts.copy()
    centroids[cluster_id] = centroid
    counts[cluster_id] = denom
    return replace(state, centroids=centroids, counts=counts)


def anomaly_scores(state: ClusterState, points) -> np.ndarray:
    """Distance from each point to its nearest cluster center."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return np.sqrt(_pairwise_sq(points, state.centroids).min(axis=1))


def classify_anomalies(scores, threshold: float) -> np.ndarray:
    """A point is anomalous iff its score exceeds the threshold."""
    return np.asarray(scores, dtype=np.float64) > threshold


def suggest_threshold(scores, percentile: float = 95.0) -> float:
    """Reproducible default cutoff: a percentile of the training scores."""
    return float(np.percentile(np.asarray(scores, dtype=np.float64), percentile))
