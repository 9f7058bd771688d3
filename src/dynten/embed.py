"""Temporal conditioning and the dynamic tensor embeddings.

Pipeline: precondition the snapshot sequence with a backward linear
recurrence, build per-slice (possibly symmetrized or Katz-kernel) adjacency
matrices, stack them into a sparse 3-tensor, run CP or orthogonal-CP ALS at a
rank above the target dimension, then post-condition: score every component
by sigma_i = sqrt(lambda_i) <w_hat, c_i>, keep the d strongest, and emit the
node factor columns scaled by sigma. Static one-matrix baselines (last slice
or weighted convolution of slices) live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .graphs import (DynamicNetwork, _compact, katz_adjacency, laplacian,
                     symmetrized_adjacency)
from .spectral import adjacency_embedding, resistance_embedding
from .tensors import AlsConfig, CPModel, SparseTensor3, cp_als, max_rank, ocp_als


@dataclass(frozen=True)
class TemporalWeights:
    """Per-slice weights in [0, 1] with max exactly 1."""

    scheme: str
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).ravel()
        if v.size < 1:
            raise ValueError("need at least one weight")
        if not np.all(np.isfinite(v)) or v.min() < 0:
            raise ValueError("weights must be finite and nonnegative")
        if abs(v.max() - 1.0) > 1e-12:
            raise ValueError("weights must be sup-normalized to 1")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return int(self.values.size)


def make_weights(scheme: str, tau: int, *, alpha: float | None = None,
                 sigma: float | None = None, values=None) -> TemporalWeights:
    """Build a temporal weight vector for slices t = 1..tau.

    uniform        all ones
    exponential    e^{-alpha |tau - t|}  (alpha > 0; large alpha degenerates
                   to the last-slice indicator)
    gaussian       e^{-(tau - t)^2 / (2 sigma^2)}  (sigma > 0)
    explicit       given vector, rescaled to sup-norm 1

    Both decay laws give weight exactly 1 at the final slice.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    gap = np.arange(tau - 1, -1, -1, dtype=np.float64)  # tau - t for t = 1..tau
    if scheme == "uniform":
        vals = np.ones(tau)
    elif scheme == "exponential":
        if alpha is None or alpha <= 0:
            raise ValueError("exponential weights need alpha > 0")
        vals = np.exp(-alpha * gap)
    elif scheme == "gaussian":
        if sigma is None or sigma <= 0:
            raise ValueError("gaussian weights need sigma > 0")
        vals = np.exp(-(gap ** 2) / (2.0 * sigma ** 2))
    elif scheme == "explicit":
        if values is None:
            raise ValueError("explicit weights need a vector")
        vals = np.asarray(values, dtype=np.float64).ravel()
        if vals.size != tau:
            raise ValueError(f"need {tau} weights, got {vals.size}")
        if not np.all(np.isfinite(vals)) or vals.min() < 0 or vals.max() <= 0:
            raise ValueError("explicit weights must be nonnegative with a positive max")
        vals = vals / vals.max()
    else:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    return TemporalWeights(scheme=scheme, values=vals)


def precondition(net: DynamicNetwork, w: TemporalWeights) -> DynamicNetwork:
    """Backward-in-time blend of link weights.

    G'_tau = w_tau G_tau and G'_t = w_t G_t + (1 - w_t) G'_{t+1}; all-ones
    weights leave the network unchanged, and a link weight present in every
    slice from t on is preserved in G'_t regardless of the weights.
    """
    if len(w) != net.tau:
        raise ValueError(f"need {net.tau} weights, got {len(w)}")
    mats = net.snapshots
    out = [None] * net.tau
    out[-1] = w.values[-1] * mats[-1]
    for t in range(net.tau - 2, -1, -1):
        out[t] = w.values[t] * mats[t] + (1.0 - w.values[t]) * out[t + 1]
    return DynamicNetwork(labels=net.labels, snapshots=tuple(_compact(M) for M in out),
                          directed=net.directed)


def convolve_snapshots(net: DynamicNetwork, w: TemporalWeights,
                       kind: str = "adjacency") -> sparse.csr_array:
    """Normalized weighted average sum_t w_t M_t / sum_t w_t of the per-slice
    adjacency or Laplacian matrices."""
    if len(w) != net.tau:
        raise ValueError(f"need {net.tau} weights, got {len(w)}")
    total = float(w.values.sum())
    if total <= 0:
        raise ValueError("weights sum to zero")
    if kind == "adjacency":
        mats = net.snapshots
    elif kind == "laplacian":
        mats = [laplacian(A) for A in net.snapshots]
    else:
        raise ValueError(f"unknown convolution kind {kind!r}")
    acc = w.values[0] * mats[0]
    for t in range(1, net.tau):
        if w.values[t] != 0.0:
            acc = acc + w.values[t] * mats[t]
    return sparse.csr_array(acc / total)


@dataclass(frozen=True)
class DynEmbedConfig:
    """Settings for the DynACPD / DynAOCPD pipeline."""

    d: int
    pre_weights: TemporalWeights | None = None   # None = uniform
    post_weights: TemporalWeights | None = None  # None = same as pre
    decomposition: str = "cpd"                   # cpd | ocpd
    adjacency_variant: str = "raw"               # raw | symmetrized | katz
    katz_omega: float = 0.0
    teleport: float | None = 1e-3
    als: AlsConfig | None = None                 # None = rank default_rank()
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.decomposition not in ("cpd", "ocpd"):
            raise ValueError(f"unknown decomposition {self.decomposition!r}")
        if self.adjacency_variant not in ("raw", "symmetrized", "katz"):
            raise ValueError(f"unknown adjacency variant {self.adjacency_variant!r}")


@dataclass(frozen=True)
class DynEmbedResult:
    """Embedding plus the decomposition evidence behind it."""

    embedding: np.ndarray
    model: CPModel
    sigmas: np.ndarray          # weighted mode of every component
    selected: np.ndarray        # component indices kept, strongest first


def weighted_modes(model: CPModel, w: TemporalWeights) -> np.ndarray:
    """sigma_i = sqrt(lambda_i) <w, c_i> for every component."""
    if len(w) != model.factor_c.shape[0]:
        raise ValueError("weight length does not match the time factor")
    return np.sqrt(model.lambdas) * (w.values @ model.factor_c)


def mode_orientations(model: CPModel) -> np.ndarray:
    """Gauge-invariant orientation of each component on near-symmetric data.

    With nonnegative component weights, a negative-eigenvalue slice mode
    surfaces as anti-aligned node factors (a_i ~ -b_i); sign(a_i . b_i) times
    the sign of the temporal contraction is invariant under the paired sign
    flips of the factors and separates proximity modes (+1) from
    anti-proximity modes (-1).
    """
    dots = np.einsum("ir,ir->r", model.factor_a, model.factor_b)
    signs = np.sign(dots)
    signs[signs == 0] = 1.0
    return signs


def _variant_slices(net: DynamicNetwork, cfg: DynEmbedConfig):
    mats = net.snapshots
    if cfg.adjacency_variant == "raw":
        return mats
    if cfg.adjacency_variant == "symmetrized":
        return [symmetrized_adjacency(A, teleport=cfg.teleport) for A in mats]
    return [katz_adjacency(A, cfg.katz_omega) for A in mats]


def default_rank(net: DynamicNetwork, d: int, decomposition: str = "cpd") -> int:
    """Decomposition rank used when none is given: min(2 d, cap), with the cap
    the largest rank the ALS accepts (n for ocpd, min(n tau, n^2) for cpd)."""
    dims = (net.n, net.n, net.tau)
    return min(2 * d, max_rank(dims, orthogonal_b=decomposition == "ocpd"))


def dynamic_embedding(net: DynamicNetwork, cfg: DynEmbedConfig) -> DynEmbedResult:
    """Run the full pipeline and keep the decomposition diagnostics."""
    tau = net.tau
    pre = cfg.pre_weights or make_weights("uniform", tau)
    post = cfg.post_weights or pre
    if len(pre) != tau or len(post) != tau:
        raise ValueError("temporal weight length must equal the snapshot count")

    # the tensor copies every slice, so the conditioned ones die here, before ALS
    Z = SparseTensor3.from_slices(_variant_slices(precondition(net, pre), cfg))

    als = cfg.als or AlsConfig(rank=default_rank(net, cfg.d, cfg.decomposition),
                               seed=cfg.seed)
    if als.rank < cfg.d:
        raise ValueError(f"decomposition rank {als.rank} is below d={cfg.d}")
    model = ocp_als(Z, als) if cfg.decomposition == "ocpd" else cp_als(Z, als)

    # orient each weighted mode so anti-proximity components rank negative,
    # mirroring the algebraically-largest rule of the static adjacency
    # embedding; |sigma| alone cannot tell the two apart under the
    # nonnegative-weight gauge
    sigmas = weighted_modes(model, post) * mode_orientations(model)
    order = np.argsort(-sigmas, kind="stable")
    selected = order[:cfg.d]
    emb = model.factor_b[:, selected] * sigmas[selected][None, :]
    return DynEmbedResult(embedding=emb, model=model, sigmas=sigmas, selected=selected)


def dynacpd_embed(net: DynamicNetwork, cfg: DynEmbedConfig) -> np.ndarray:
    """DynACPD embedding: free CP decomposition of the conditioned tensor."""
    return dynamic_embedding(net, replace(cfg, decomposition="cpd")).embedding


def dynaocpd_embed(net: DynamicNetwork, cfg: DynEmbedConfig) -> np.ndarray:
    """DynAOCPD embedding: node factor constrained to orthonormal columns."""
    return dynamic_embedding(net, replace(cfg, decomposition="ocpd")).embedding


# ---------------------------------------------------------------------------
# static baselines


def _as_undirected(net: DynamicNetwork) -> DynamicNetwork:
    """Plain (A + A^T)/2 symmetrization of every slice; identity when the
    network is already undirected. The spectral baselines need symmetric
    matrices, and a Laplacian built from an unsymmetrized digraph slice is
    not positive semi-definite."""
    if not net.directed:
        return net
    snaps = tuple(_compact(0.5 * (A + A.T)) for A in net.snapshots)
    return DynamicNetwork(labels=net.labels, snapshots=snaps, directed=False)


def adj_last_embedding(net: DynamicNetwork, d: int, seed: int = 0) -> np.ndarray:
    """Spectral adjacency embedding of the final snapshot."""
    A = _as_undirected(net).adjacency(net.tau - 1)
    return adjacency_embedding(A, d, seed=seed)


def res_last_embedding(net: DynamicNetwork, d: int, seed: int = 0) -> np.ndarray:
    """Resistance embedding of the final snapshot's Laplacian."""
    L = laplacian(_as_undirected(net).adjacency(net.tau - 1))
    return resistance_embedding(L, d, seed=seed)


def adj_wt_embedding(net: DynamicNetwork, w: TemporalWeights, d: int,
                     seed: int = 0) -> np.ndarray:
    """Spectral adjacency embedding of the weighted snapshot convolution."""
    M = convolve_snapshots(_as_undirected(net), w, kind="adjacency")
    return adjacency_embedding(M, d, seed=seed)


def res_wt_embedding(net: DynamicNetwork, w: TemporalWeights, d: int,
                     seed: int = 0) -> np.ndarray:
    """Resistance embedding of the weighted Laplacian convolution."""
    M = convolve_snapshots(_as_undirected(net), w, kind="laplacian")
    return resistance_embedding(M, d, seed=seed)
