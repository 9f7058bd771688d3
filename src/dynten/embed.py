"""Temporal conditioning and the dynamic tensor embeddings.

Pipeline: precondition the snapshot sequence with a backward linear
recurrence, form per-slice (possibly symmetrized or Katz-kernel) adjacency
matrices as a sparse 3-tensor, run CP or orthogonal-CP ALS at a rank above
the target dimension, then post-condition: score every component
by sigma_i = sqrt(lambda_i) <w_hat, c_i>, keep the d strongest, and emit the
node factor columns scaled by sigma. Slices pass between the steps as one
(tau n) x n stack, a network's own store. Raw slices enter the recurrence
linearly, so their preconditioned tensor is the network's stack blended
along time, and nothing is preconditioned or copied; the symmetrized and
Katz variants transform the preconditioned stack and build their tensor.
Static one-matrix baselines (last slice or weighted convolution of slices)
live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .graphs import (DynamicNetwork, _blend_matrix, _slices_of, _symmetric_slices,
                     _weighted_slice_sum, katz_adjacency, laplacian, symmetrized_adjacency)
from .spectral import adjacency_embedding, resistance_embedding
from .tensors import AlsConfig, CPModel, SparseTensor3, cp_als, max_rank, ocp_als


@dataclass(frozen=True)
class TemporalWeights:
    """Per-slice weights in [0, 1] with max exactly 1."""

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
                 sigma: float | None = None) -> TemporalWeights:
    """Build a temporal weight vector for slices t = 1..tau.

    uniform        all ones
    exponential    e^{-alpha |tau - t|}  (alpha > 0; large alpha degenerates
                   to the last-slice indicator)
    gaussian       e^{-(tau - t)^2 / (2 sigma^2)}  (sigma > 0)

    Both decay laws give weight exactly 1 at the final slice. Any other
    vector is ``TemporalWeights(values)`` directly.
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
    else:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    return TemporalWeights(vals)


def precondition(stack, w: TemporalWeights) -> sparse.csr_array:
    """Backward-in-time blend of link weights, on the slices G_1, ..., G_tau
    stacked as a (tau n) x n CSR matrix (a network's ``stack``); returns
    the blended slices G'_1, ..., G'_tau, canonical and stacked the same way.

    G'_tau = w_tau G_tau and G'_t = w_t G_t + (1 - w_t) G'_{t+1}, that is
    G'_t = sum_s W[t, s] G_s with W = ``SparseTensor3.mix``: one product
    (W (x) I_n) @ stack. All-ones weights leave the slices unchanged, and a
    link weight in every slice from t on is kept in G'_t if some w_s = 1, s >= t.
    """
    if len(w) * stack.shape[1] != stack.shape[0]:
        raise ValueError(f"need one weight per slice of a {stack.shape} stack, got {len(w)}")
    return _weighted_slice_sum(stack, _blend_matrix(w.values))


def convolve_snapshots(stack, w: TemporalWeights) -> sparse.csr_array:
    """Normalized weighted average sum_t w_t A_t / sum_t w_t of the slices
    A_1, ..., A_tau stacked as a (tau n) x n CSR matrix (a network's
    ``stack``). L = D - A is linear in A, so the Laplacian of this average
    is the same average of the slice Laplacians."""
    if len(w) * stack.shape[1] != stack.shape[0]:
        raise ValueError(f"need one weight per slice of a {stack.shape} stack, got {len(w)}")
    return _weighted_slice_sum(stack, w.values) / float(w.values.sum())


@dataclass(frozen=True)
class DynEmbedConfig:
    """Settings for the DynACPD (``orthogonal=False``) / DynAOCPD pipeline."""

    d: int
    pre_weights: TemporalWeights
    post_weights: TemporalWeights
    als: AlsConfig
    orthogonal: bool = False
    adjacency_variant: str = "raw"               # raw | symmetrized | katz
    katz_omega: float = 0.0
    teleport: float | None = 1e-3

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.als.rank < self.d:
            raise ValueError(f"decomposition rank {self.als.rank} is below d={self.d}")
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


def _conditioned_tensor(net: DynamicNetwork, cfg: DynEmbedConfig) -> SparseTensor3:
    """The preconditioned tensor of the configured slice variant. Raw slices
    enter linearly, so their tensor is the network's own stack blended by
    the pre weights, shared, not copied. The symmetrized and Katz variants
    transform the preconditioned stack, so theirs is built, and the
    preconditioned stack dies on return, before ALS."""
    if cfg.adjacency_variant == "raw":
        return SparseTensor3(net.stack, cfg.pre_weights.values)
    pre = precondition(net.stack, cfg.pre_weights)
    if cfg.adjacency_variant == "symmetrized":
        return SparseTensor3(symmetrized_adjacency(pre, teleport=cfg.teleport))
    return SparseTensor3.from_slices([katz_adjacency(A, cfg.katz_omega)
                                      for A in _slices_of(pre, net.tau)])


def default_rank(net: DynamicNetwork, d: int, orthogonal: bool) -> int:
    """Decomposition rank used when none is given: min(2 d, cap), with the cap
    the largest rank the ALS accepts (n when orthogonal, else min(n tau, n^2))."""
    return min(2 * d, max_rank(net.n, net.tau, orthogonal))


def dynamic_embedding(net: DynamicNetwork, cfg: DynEmbedConfig) -> DynEmbedResult:
    """Run the full pipeline and keep the decomposition diagnostics."""
    for name, w in (("pre", cfg.pre_weights), ("post", cfg.post_weights)):
        if len(w) != net.tau:  # checked here, not after ALS
            raise ValueError(f"need {net.tau} {name} weights, got {len(w)}")
    model = (ocp_als if cfg.orthogonal else cp_als)(_conditioned_tensor(net, cfg), cfg.als)

    # orient each weighted mode so anti-proximity components rank negative,
    # mirroring the algebraically-largest rule of the static adjacency
    # embedding; |sigma| alone cannot tell the two apart under the
    # nonnegative-weight gauge
    sigmas = weighted_modes(model, cfg.post_weights) * mode_orientations(model)
    order = np.argsort(-sigmas, kind="stable")
    selected = order[:cfg.d]
    emb = model.factor_b[:, selected] * sigmas[selected][None, :]
    return DynEmbedResult(embedding=emb, model=model, sigmas=sigmas, selected=selected)


# ---------------------------------------------------------------------------
# static baselines


def _as_undirected(stack, directed: bool) -> sparse.csr_array:
    """Plain (A + A^T)/2 of every slice A of a directed network's stack, or
    of one slice, taken on a copy; the matrix itself when undirected. The
    spectral baselines need symmetric matrices, and a Laplacian built from
    an unsymmetrized digraph slice is not positive semi-definite."""
    return _symmetric_slices(stack.copy()) if directed else stack


def adj_last_embedding(net: DynamicNetwork, d: int, seed: int = 0) -> np.ndarray:
    """Spectral adjacency embedding of the final snapshot."""
    A = _as_undirected(net.snapshots[-1], net.directed)
    return adjacency_embedding(A, d, seed=seed)


def res_last_embedding(net: DynamicNetwork, d: int, seed: int = 0) -> np.ndarray:
    """Resistance embedding of the final snapshot's Laplacian."""
    A = _as_undirected(net.snapshots[-1], net.directed)
    return resistance_embedding(laplacian(A), d, seed=seed)


def adj_wt_embedding(net: DynamicNetwork, w: TemporalWeights, d: int,
                     seed: int = 0) -> np.ndarray:
    """Spectral adjacency embedding of the weighted snapshot convolution."""
    M = convolve_snapshots(_as_undirected(net.stack, net.directed), w)
    return adjacency_embedding(M, d, seed=seed)


def res_wt_embedding(net: DynamicNetwork, w: TemporalWeights, d: int,
                     seed: int = 0) -> np.ndarray:
    """Resistance embedding of the weighted Laplacian convolution."""
    M = convolve_snapshots(_as_undirected(net.stack, net.directed), w)
    return resistance_embedding(laplacian(M), d, seed=seed)
