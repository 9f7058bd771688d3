"""Separation metrics, balanced edge sampling, a 1-D l1 logistic classifier,
and ranking metrics for temporal link prediction.

The classifier has a single scalar feature (the separation of a node pair in
the embedding), so the regularized loss

    |w| + 10 * sum_e log(1 + exp(-y_e (x_e w + c)))

is minimized exactly by nested 1-D convex searches rather than gradient
descent: a bounded scalar minimization over w with the optimal intercept
computed for every candidate slope, plus an explicit w = 0 candidate for the
l1 kink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import expit
from scipy.stats import rankdata

from .graphs import DynamicNetwork
from .seeding import derived_rng

_LOSS_WEIGHT = 10.0  # multiplier on the data term, kept verbatim
_C_BOUND = 60.0      # logits beyond this saturate in float64


@dataclass(frozen=True)
class EdgeSample:
    """Balanced labelled node pairs with their separation values."""

    pairs: np.ndarray        # (m, 2) int
    labels: np.ndarray       # (m,) in {-1, +1}
    separations: np.ndarray  # (m,) float

    def __post_init__(self):
        if not (len(self.pairs) == len(self.labels) == len(self.separations)):
            raise ValueError("pairs, labels and separations must align")
        if len(self.pairs) and np.any(self.pairs[:, 0] == self.pairs[:, 1]):
            raise ValueError("self-pairs are not allowed")

    def __len__(self):
        return int(len(self.labels))


@dataclass(frozen=True)
class LogisticModel:
    slope: float
    intercept: float
    cv_auc: float


def hadamard_separation(emb, i: int, j: int) -> float:
    """Inner product <v_i, v_j> of the embedded nodes."""
    emb = np.asarray(emb)
    return float(emb[i] @ emb[j])


def l2_separation(emb, i: int, j: int) -> float:
    """Euclidean distance ||v_i - v_j||."""
    emb = np.asarray(emb)
    return float(np.linalg.norm(emb[i] - emb[j]))


def separation_values(emb, pairs, metric: str) -> np.ndarray:
    emb = np.asarray(emb)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    vi, vj = emb[pairs[:, 0]], emb[pairs[:, 1]]
    if metric == "hadamard":
        return np.einsum("md,md->m", vi, vj)
    if metric == "l2":
        return np.linalg.norm(vi - vj, axis=1)
    raise ValueError(f"unknown separation metric {metric!r}")


def _pair_key(i: int, j: int, directed: bool):
    return (i, j) if directed else (min(i, j), max(i, j))


def _edge_key_set(net: DynamicNetwork, t: int):
    """Links of slice t as the sampler sees them: no self-loops, unordered
    pairs unless the network is directed."""
    snap = net.snapshots[t]
    return {_pair_key(int(i), int(j), net.directed)
            for i, j in zip(snap.src, snap.dst) if i != j}


def holdout_split(net: DynamicNetwork):
    """Hold out the final slice: ``(train, target_slice, n_links)``, with
    ``train`` the slices 1..tau-1 and ``n_links`` counted as the sampler does."""
    if net.tau < 2:
        raise ValueError("link prediction needs tau >= 2 (one slice is held out)")
    target = net.tau - 1
    n_links = len(_edge_key_set(net, target))
    if n_links == 0:
        raise ValueError(f"held-out slice {target} has no links (self-loops do not count)")
    train = DynamicNetwork(labels=net.labels, snapshots=net.snapshots[:-1],
                           directed=net.directed)
    return train, target, n_links


def sample_training_set(net: DynamicNetwork, target_slice: int, emb,
                        metric: str, n_pos: int, seed: int) -> EdgeSample:
    """n_pos existing links (+1) and n_pos uniform non-links (-1) of one slice.

    Self-pairs are excluded; pairs are unordered for undirected networks.
    Non-links are drawn by rejection sampling without duplicates, and the
    separations come from the supplied embedding.
    """
    if n_pos < 1:
        raise ValueError("n_pos must be >= 1")
    n = net.n
    edges = sorted(_edge_key_set(net, target_slice))
    total_pairs = n * (n - 1) if net.directed else n * (n - 1) // 2
    n_neg_avail = total_pairs - len(edges)
    if len(edges) < n_pos:
        raise ValueError(f"slice {target_slice} has {len(edges)} links < n_pos={n_pos}")
    if n_neg_avail < n_pos:
        raise ValueError(f"slice {target_slice} has {n_neg_avail} non-links < n_pos={n_pos}")

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
        key = _pair_key(i, j, net.directed)
        if key in edge_set or key in seen:
            continue
        seen.add(key)
        negatives.append(key)

    pairs = np.asarray(positives + negatives, dtype=np.int64)
    labels = np.concatenate([np.ones(n_pos), -np.ones(n_pos)]).astype(np.int64)
    shuffle = rng.permutation(len(labels))  # no class-order artifacts downstream
    pairs, labels = pairs[shuffle], labels[shuffle]
    seps = separation_values(emb, pairs, metric)
    return EdgeSample(pairs=pairs, labels=labels, separations=seps)


# ---------------------------------------------------------------------------
# classifier


def _data_loss(margins):
    # log(1 + exp(-m)) evaluated stably
    return float(np.logaddexp(0.0, -margins).sum())


def loss_value(w: float, c: float, x, y) -> float:
    """The regularized objective at (w, c)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return abs(w) + _LOSS_WEIGHT * _data_loss(y * (x * w + c))


def _best_intercept(w, x, y):
    res = minimize_scalar(lambda c: _LOSS_WEIGHT * _data_loss(y * (x * w + c)),
                          bounds=(-_C_BOUND, _C_BOUND), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.x)


def _fit_wc(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    scale = float(np.abs(x - np.median(x)).max())
    w_bound = 1e3 if scale == 0.0 else min(1e9, 10.0 * _C_BOUND / scale)

    def profiled(w):
        return abs(w) + _LOSS_WEIGHT * _data_loss(y * (x * w + _best_intercept(w, x, y)))

    res = minimize_scalar(profiled, bounds=(-w_bound, w_bound), method="bounded",
                          options={"xatol": 1e-10})
    candidates = [0.0, float(res.x)]
    best_w, best_val, best_c = None, np.inf, 0.0
    for w in candidates:
        c = _best_intercept(w, x, y)
        val = loss_value(w, c, x, y)
        if val < best_val - 1e-15 or best_w is None:
            best_w, best_val, best_c = w, val, c
    return best_w, best_c


def _stratified_folds(labels, folds):
    """Round-robin fold assignment within each class (sample order is already
    randomized by the sampler)."""
    assign = np.zeros(len(labels), dtype=np.int64)
    for cls in (1, -1):
        idx = np.flatnonzero(labels == cls)
        assign[idx] = np.arange(idx.size) % folds
    return assign


def fit_logistic_l1(sample: EdgeSample, folds: int = 5) -> LogisticModel:
    """Exact minimizer of the scalar-feature l1 logistic loss, with the mean
    held-out ROC-AUC over stratified folds attached."""
    model, _ = cross_validated_scores(sample, folds)
    return model


def cross_validated_scores(sample: EdgeSample, folds: int = 5):
    """Stratified CV: per-fold held-out probabilities plus the final model
    refit on the full sample. Returns (model, pooled_heldout_probs)."""
    y = np.asarray(sample.labels, dtype=np.float64)
    x = np.asarray(sample.separations, dtype=np.float64)
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("sample must contain both classes")
    n_min = min(int((y > 0).sum()), int((y < 0).sum()))
    folds_eff = min(folds, n_min)
    if folds_eff < 2:
        raise ValueError("need at least 2 examples per class for cross-validation")

    assign = _stratified_folds(sample.labels, folds_eff)
    pooled = np.zeros(len(y))
    fold_aucs = []
    for f in range(folds_eff):
        hold = assign == f
        w, c = _fit_wc(x[~hold], y[~hold])
        pooled[hold] = expit(x[hold] * w + c)
        fold_aucs.append(auc_roc(pooled[hold], y[hold]))

    w, c = _fit_wc(x, y)
    model = LogisticModel(slope=w, intercept=c, cv_auc=float(np.mean(fold_aucs)))
    return model, pooled


def predict_scores(model: LogisticModel, separations) -> np.ndarray:
    """Link probabilities: logistic of (x w + c)."""
    x = np.asarray(separations, dtype=np.float64)
    return expit(x * model.slope + model.intercept)


# ---------------------------------------------------------------------------
# ranking metrics


def _check_two_class(labels):
    y = np.asarray(labels)
    pos = y > 0
    if not pos.any() or pos.all():
        raise ValueError("metrics need both classes present")
    return pos


def auc_roc(scores, labels) -> float:
    """Area under the ROC curve: concordant-pair fraction with half credit
    for ties (Mann-Whitney form via midranks)."""
    pos = _check_two_class(labels)
    s = np.asarray(scores, dtype=np.float64)
    if s.size != pos.size:
        raise ValueError("scores and labels must align")
    ranks = rankdata(s, method="average")
    p = int(pos.sum())
    q = int(pos.size - p)
    return float((ranks[pos].sum() - p * (p + 1) / 2.0) / (p * q))


def average_precision(scores, labels) -> float:
    """Area under the precision-recall curve by the step-interpolation sum
    AP = sum_k (R_k - R_{k-1}) P_k over score thresholds.

    One threshold per distinct score: tied items enter together, so the value
    does not depend on the input order.
    """
    pos = _check_two_class(labels)
    s = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    hits = pos[order].astype(np.float64)
    # threshold boundaries: last index of every run of equal scores
    last_in_group = np.flatnonzero(np.diff(s_sorted) != 0.0)
    bounds = np.concatenate([last_in_group, [s_sorted.size - 1]])
    tp = np.cumsum(hits)[bounds]
    totals = bounds + 1.0
    precision = tp / totals
    recall = tp / pos.sum()
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * precision).sum())


def evaluate_link_prediction(net: DynamicNetwork, target_slice: int, emb,
                             metric: str, n_pos: int, seed: int,
                             folds: int = 5) -> dict:
    """Sample a balanced set on the target slice, cross-validate the scalar
    classifier, and report pooled held-out AP / AUC."""
    sample = sample_training_set(net, target_slice, emb, metric, n_pos, seed)
    model, pooled = cross_validated_scores(sample, folds)
    return {
        "metric": metric,
        "AP": average_precision(pooled, sample.labels),
        "AUC": auc_roc(pooled, sample.labels),
        "cv_auc": model.cv_auc,
        "model": model,
        "sample": sample,
        "probabilities": pooled,
    }
