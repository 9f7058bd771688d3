"""Separation metrics, balanced edge sampling, a 1-D l1 logistic classifier,
and ranking metrics for temporal link prediction.

The classifier has a single scalar feature (the separation of a node pair in
the embedding), so the regularized loss

    |w| + D(w, c),   D = 10 * sum_e log(1 + exp(-y_e (x_e w + c)))

is minimized exactly. At w = 0 the best intercept has the closed form
c = log(n_pos / n_neg); when the subgradient condition |dD/dw| <= 1 holds
there, (0, c) is the optimum. Otherwise the optimum lies in the orthant
sign(w) = -sign(dD/dw), where |w| is linear, and Newton's method with Armijo
backtracking reaches it in a few O(N) steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import ConvergenceError, DynamicNetwork, _stored_pairs
from .seeding import derived_rng

_LOSS_WEIGHT = 10.0    # multiplier on the data term, kept verbatim
_NEWTON_MAX_ITER = 50  # caps Newton steps and the halvings of each line search
_DECREMENT_TOL = 1e-24  # Newton stops when g^T H^-1 g <= this times the sample size
_ARMIJO = 1e-4         # sufficient-decrease fraction of the line search


@dataclass(frozen=True)
class EdgeSample:
    """Balanced labelled node pairs of one slice; any method scores them."""

    pairs: np.ndarray   # (m, 2) int
    labels: np.ndarray  # (m,) in {-1, +1}

    def __post_init__(self):
        if len(self.pairs) != len(self.labels):
            raise ValueError("pairs and labels must align")
        if len(self.pairs) and np.any(self.pairs[:, 0] == self.pairs[:, 1]):
            raise ValueError("self-pairs are not allowed")

    def __len__(self):
        return int(len(self.labels))


def separation_values(emb, pairs, metric: str) -> np.ndarray:
    """Separation of each node pair (i, j): the inner product <v_i, v_j>
    (``"hadamard"``) or the Euclidean distance ||v_i - v_j|| (``"l2"``)."""
    emb = np.asarray(emb)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    vi, vj = emb[pairs[:, 0]], emb[pairs[:, 1]]
    if metric == "hadamard":
        return np.einsum("md,md->m", vi, vj)
    if metric == "l2":
        return np.linalg.norm(vi - vj, axis=1)
    raise ValueError(f"unknown separation metric {metric!r}")


def _pair_keys(i, j, n: int, directed: bool) -> np.ndarray:
    """int64 keys ``i * n + j`` of node pairs, with ``i < j`` when undirected."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    if not directed:
        i, j = np.minimum(i, j), np.maximum(i, j)
    return i * n + j


def _links(net: DynamicNetwork, t: int):
    """Stored (row, col, value) of slice t's links: no loops, undirected pairs once, i < j."""
    return _stored_pairs(net.adjacency(t), upper=not net.directed, loops=False)


def _edge_keys(net: DynamicNetwork, t: int) -> np.ndarray:
    """The int64 keys ``i * n + j`` of :func:`_links`, the pairs the sampler
    draws from: sorted and unique, as a canonical slice stores them."""
    row, col, _ = _links(net, t)
    return row.astype(np.int64) * net.n + col


def holdout_split(net: DynamicNetwork):
    """Hold out the final slice: ``(train, target_slice, n_links)``, with
    ``train`` the slices 1..tau-1 (``net.prefix(tau - 1)``, a view of the
    input's stack, not checked again) and ``n_links`` the number of its
    :func:`_links`, the pairs the sampler draws from."""
    if net.tau < 2:
        raise ValueError("link prediction needs tau >= 2 (one slice is held out)")
    target = net.tau - 1
    n_links = _links(net, target)[0].size
    if n_links == 0:
        raise ValueError(f"held-out slice {target} has no links (self-loops do not count)")
    return net.prefix(target), target, n_links


def sample_training_set(net: DynamicNetwork, target_slice: int, n_pos: int, seed: int) -> EdgeSample:
    """n_pos existing links (+1) and n_pos uniform non-links (-1) of one slice,
    shuffled. No embedding is read, so one sample serves every method.

    Self-pairs are excluded; pairs are unordered for undirected networks.
    The ``"sampler"`` stream of ``seed`` first picks the links, n_pos of the
    sorted link keys without replacement. Non-links then come from attempts
    of two ``integers(n)`` draws each, (i, j): an attempt is rejected when
    i == j or the pair is a link, and only the first occurrence of a pair
    counts. Candidates are drawn in doubling batches, and the generator is
    then moved to exactly where a loop drawing one attempt at a time would
    stop, so the final shuffle, and thus the whole sample, is the one that
    loop gives.
    """
    if n_pos < 1:
        raise ValueError("n_pos must be >= 1")
    n = net.n
    edges = _edge_keys(net, target_slice)
    total_pairs = n * (n - 1) if net.directed else n * (n - 1) // 2
    n_neg_avail = total_pairs - edges.size
    if edges.size < n_pos:
        raise ValueError(f"slice {target_slice} has {edges.size} links < n_pos={n_pos}")
    if n_neg_avail < n_pos:
        raise ValueError(f"slice {target_slice} has {n_neg_avail} non-links < n_pos={n_pos}")

    rng = derived_rng(seed, "sampler")
    positives = edges[np.sort(rng.choice(edges.size, size=n_pos, replace=False))]

    start = rng.bit_generator.state
    draws = np.empty(0, dtype=np.int64)
    batch = n_pos
    while True:  # O(log) rounds: the drawn attempts double each round
        draws = np.concatenate([draws, rng.integers(n, size=2 * batch)])
        i, j = draws[0::2], draws[1::2]
        keys = _pair_keys(i, j, n, net.directed)
        linked = edges[np.minimum(np.searchsorted(edges, keys), edges.size - 1)] == keys
        candidates = np.flatnonzero((i != j) & ~linked)
        _, first = np.unique(keys[candidates], return_index=True)
        if first.size >= n_pos:
            break
        batch *= 2
    accepted = np.sort(candidates[first])[:n_pos]  # attempt indices in draw order
    negatives = keys[accepted]
    rng.bit_generator.state = start
    rng.integers(n, size=2 * (int(accepted[-1]) + 1))  # the draws the loop would make

    chosen = np.concatenate([positives, negatives])
    pairs = np.column_stack([chosen // n, chosen % n])
    labels = np.concatenate([np.ones(n_pos), -np.ones(n_pos)]).astype(np.int64)
    shuffle = rng.permutation(len(labels))  # no class-order artifacts downstream
    return EdgeSample(pairs=pairs[shuffle], labels=labels[shuffle])


# ---------------------------------------------------------------------------
# classifier


def _logistic(z):
    """The pair (sigma(z), sigma(-z)) of the logistic sigma(z) = 1 / (1 + exp(-z)),
    from one exp of -|z|, which never overflows."""
    e = np.exp(-np.abs(z))
    hi = 1.0 / (1.0 + e)  # sigma(|z|)
    lo = e * hi           # sigma(-|z|)
    pos = z >= 0
    return np.where(pos, hi, lo), np.where(pos, lo, hi)


def _softplus_change(z, p, e) -> float:
    """sum_e log(1 + exp(z + e)) - log(1 + exp(z)), given p = sigma(z), each
    term computed once: as log1p(p expm1(e)) where |e| < 1, which tiny e
    survives, else directly."""
    out = np.empty_like(e)
    small = np.abs(e) < 1.0
    out[small] = np.log1p(p[small] * np.expm1(e[small]))
    z, e = z[~small], e[~small]
    out[~small] = np.logaddexp(0.0, z + e) - np.logaddexp(0.0, z)
    return float(out.sum())


def _fit_wc(x, y):
    """Exact (w, c) minimizing |w| + 10 sum log(1 + exp(-y (x w + c))).

    The fit starts at w = 0 with the closed-form intercept log(n_pos / n_neg)
    and returns it when the slope's KKT condition |dD/dw| <= 1 holds there
    (a constant feature always does). Otherwise it runs Newton's method with
    Armijo backtracking on |w| replaced by sign(w) w for the orthant the
    gradient points into; the objective is convex and every iterate stays in
    the starting level set, which lies in that orthant. It stops when the
    Newton decrement is below 1e-24 per sample, and raises
    ``ConvergenceError`` with the gradient norm if it has not by step
    ``_NEWTON_MAX_ITER``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    n_pos = int((y > 0).sum())
    c = float(np.log(n_pos / (n - n_pos)))
    # at (0, c) every positive has sigma(-margin) = n_neg/n, every negative n_pos/n
    q = np.where(y > 0, (n - n_pos) / n, -n_pos / n)
    grad_w = -_LOSS_WEIGHT * float(q @ x)
    if abs(grad_w) <= 1.0:
        return 0.0, c
    sign = -1.0 if grad_w > 0 else 1.0
    w = 0.0
    for _ in range(_NEWTON_MAX_ITER):
        z = -y * (x * w + c)  # the loss of each sample is log(1 + exp(z))
        p, p_minus = _logistic(z)
        q = y * p
        h = _LOSS_WEIGHT * p * p_minus
        g_w = sign - _LOSS_WEIGHT * float(q @ x)
        g_c = -_LOSS_WEIGHT * float(q.sum())
        # Newton step in the coordinates (w, c + x_bar w), where the Hessian is
        # diagonal: no cancellation when x has a large offset
        h_sum = float(h.sum())
        x_bar = float(h @ x) / h_sum
        xc = x - x_bar
        d_w = -(g_w - x_bar * g_c) / float(h @ (xc * xc))
        d_c = -g_c / h_sum - x_bar * d_w
        decrement = -(g_w * d_w + g_c * d_c)
        if decrement <= _DECREMENT_TOL * n:
            return w, c
        d_z = -y * (x * d_w + d_c)
        t = 1.0
        for _ in range(_NEWTON_MAX_ITER):
            change = sign * t * d_w + _LOSS_WEIGHT * _softplus_change(z, p, t * d_z)
            if change <= -_ARMIJO * t * decrement:
                break
            t *= 0.5
        else:
            break  # no decrease along the Newton direction
        w += t * d_w
        c += t * d_c
    g_norm = float(np.hypot(g_w, g_c))
    raise ConvergenceError(
        f"l1 logistic fit did not converge within {_NEWTON_MAX_ITER} Newton steps of at "
        f"most {_NEWTON_MAX_ITER} halvings each (gradient norm {g_norm:.3g})", g_norm)


def _stratified_folds(labels, folds):
    """Round-robin fold assignment within each class (sample order is already
    randomized by the sampler)."""
    assign = np.zeros(len(labels), dtype=np.int64)
    for cls in (1, -1):
        idx = np.flatnonzero(labels == cls)
        assign[idx] = np.arange(idx.size) % folds
    return assign


def cross_validated_scores(separations, labels, folds: int = 5):
    """Stratified CV of the classifier on each pair's separation and label.
    Returns ``(cv_auc, pooled)``: the mean of the fold AUCs and each pair's
    probability under the model fitted without its fold.

    Each fold's model is fitted on the training separations standardized by
    their own mean and standard deviation (a zero spread divides by 1), and
    the held-out fold is mapped the same way, so the scores do not depend on
    the embedding's scale: the fixed loss weight would otherwise make the
    l1 penalty win on small separations and read every pair as chance."""
    y = np.asarray(labels, dtype=np.float64)
    x = np.asarray(separations, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("separations and labels must align")
    n_pos, n_neg = int((y > 0).sum()), int((y < 0).sum())
    if not (n_pos and n_neg):
        raise ValueError("sample must contain both classes")
    folds_eff = min(folds, n_pos, n_neg)
    if folds_eff < 2:
        raise ValueError("need at least 2 examples per class for cross-validation")

    assign = _stratified_folds(y, folds_eff)
    pooled = np.zeros(len(y))
    fold_aucs = []
    for f in range(folds_eff):
        hold = assign == f
        train = x[~hold]
        mean, spread = train.mean(), train.std() or 1.0
        w, c = _fit_wc((train - mean) / spread, y[~hold])
        pooled[hold] = _logistic((x[hold] - mean) / spread * w + c)[0]
        fold_aucs.append(auc_roc(pooled[hold], y[hold]))
    return float(np.mean(fold_aucs)), pooled


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
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True,
                                 equal_nan=False)
    ends = np.cumsum(counts)
    ranks = (0.5 * (ends - counts + ends + 1))[group]  # 1-based midranks
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
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True,
                                 equal_nan=False)
    # one threshold per distinct score, highest first
    tp = np.cumsum(np.bincount(group, weights=pos)[::-1])
    precision = tp / np.cumsum(counts[::-1])
    recall = tp / pos.sum()
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * precision).sum())


def link_prediction_report(sample: EdgeSample, emb, metric: str, folds: int = 5) -> dict:
    """Score the sample's pairs by their separation in ``emb``, cross-validate
    the scalar classifier on them, and report pooled held-out AP / AUC."""
    seps = separation_values(emb, sample.pairs, metric)
    cv_auc, pooled = cross_validated_scores(seps, sample.labels, folds)
    return {"metric": metric, "AP": average_precision(pooled, sample.labels),
            "AUC": auc_roc(pooled, sample.labels), "cv_auc": cv_auc, "sample": sample,
            "separations": seps, "probabilities": pooled}


def evaluate_link_prediction(net: DynamicNetwork, target_slice: int, emb, metric: str,
                             n_pos: int, seed: int, folds: int = 5) -> dict:
    """:func:`link_prediction_report` of a balanced sample of the target slice."""
    sample = sample_training_set(net, target_slice, n_pos, seed)
    return link_prediction_report(sample, emb, metric, folds)
