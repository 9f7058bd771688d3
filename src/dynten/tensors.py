"""Sparse 3-tensors and CP / orthogonality-constrained CP decomposition by ALS.

The tensor is stored in coordinate form plus one cached layout: its frontal
slices stacked as a sparse (n3 n1) x n2 matrix, and their transposes as
(n3 n2) x n1. The ALS inner kernel, a matricized-tensor-times-Khatri-Rao
product (MTTKRP), is one sparse-times-dense product on that layout plus one
small contraction: O(nnz rank + n tau rank) time and O(n tau rank) scratch,
with no n^2 operand. The orthogonal variant replaces the node-factor
least-squares update with the orthogonal Procrustes solution (polar factor of
the MTTKRP matrix), which keeps that factor's columns exactly orthonormal
while every accepted sweep still decreases the residual.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import sparse

from .seeding import derived_rng
from .spectral import _extreme_pairs


class DecompositionError(RuntimeError):
    """ALS aborted (non-finite factors or an unusable configuration)."""


@dataclass(frozen=True)
class SparseTensor3:
    """Coordinate-format sparse 3-tensor with canonical entries.

    Duplicates are summed, explicit zeros dropped, coordinates sorted.
    """

    dims: tuple
    i: np.ndarray = field(repr=False)
    j: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)

    @classmethod
    def from_entries(cls, dims, i, j, t, vals) -> "SparseTensor3":
        n1, n2, n3 = (int(d) for d in dims)
        i = np.asarray(i, dtype=np.int64).ravel()
        j = np.asarray(j, dtype=np.int64).ravel()
        t = np.asarray(t, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not (i.size == j.size == t.size == vals.size):
            raise ValueError("coordinate arrays must have equal length")
        if vals.size:
            if i.min() < 0 or j.min() < 0 or t.min() < 0 or \
                    i.max() >= n1 or j.max() >= n2 or t.max() >= n3:
                raise ValueError("tensor coordinate out of range")
            if not np.all(np.isfinite(vals)):
                raise ValueError("tensor values must be finite")
        flat = (i * n2 + j) * n3 + t
        uniq, inverse = np.unique(flat, return_inverse=True)
        summed = np.zeros(uniq.size)
        np.add.at(summed, inverse, vals)
        keep = summed != 0.0
        uniq, summed = uniq[keep], summed[keep]
        return cls(dims=(n1, n2, n3), i=uniq // (n2 * n3),
                   j=(uniq // n3) % n2, t=uniq % n3, vals=summed)

    @classmethod
    def from_slices(cls, slices: Sequence) -> "SparseTensor3":
        """Stack square sparse matrices as the frontal slices Z[:, :, t]."""
        if len(slices) == 0:
            raise ValueError("need at least one slice")
        mats = [sparse.coo_array(S) for S in slices]
        n = mats[0].shape[0]
        for S in mats:
            if S.shape != (n, n):
                raise ValueError(f"slice shape {S.shape} != ({n}, {n})")
        i = np.concatenate([S.row for S in mats]) if mats else np.zeros(0, np.int64)
        j = np.concatenate([S.col for S in mats])
        t = np.concatenate([np.full(S.nnz, k, dtype=np.int64) for k, S in enumerate(mats)])
        v = np.concatenate([S.data for S in mats])
        return cls.from_entries((n, n, len(mats)), i, j, t, v)

    @classmethod
    def from_dense(cls, array) -> "SparseTensor3":
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 3:
            raise ValueError("expected a 3-way array")
        idx = np.nonzero(array)
        return cls.from_entries(array.shape, *idx, array[idx])

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dims)
        out[self.i, self.j, self.t] = self.vals
        return out

    def norm(self) -> float:
        return float(np.linalg.norm(self.vals))

    @cached_property
    def _stacked_slices(self):
        """Frontal slices Z[:, :, t] stacked as (n3 n1) x n2 CSR, and their
        transposes stacked as (n3 n2) x n1, with int32 indices when they fit."""
        n1, n2, n3 = self.dims
        rows = _csr(self.vals, self.t * n1 + self.i, self.j, (n3 * n1, n2))
        cols = _csr(self.vals, self.t * n2 + self.j, self.i, (n3 * n2, n1))
        return rows, cols


def _csr(vals, row, col, shape) -> sparse.csr_array:
    """CSR array of the given coordinates, with int32 index arrays whenever
    the shape and the entry count fit (12 instead of 16 bytes per nonzero)."""
    fits = max(*shape, vals.size) <= np.iinfo(np.int32).max
    idx = np.int32 if fits else np.int64
    return sparse.csr_array((vals, (row.astype(idx), col.astype(idx))), shape=shape)


def mttkrp(Z: SparseTensor3, factors: Sequence[np.ndarray], mode: int) -> np.ndarray:
    """Matricized-tensor-times-Khatri-Rao product for one mode (1, 2 or 3).

    ``factors`` is the triple (A, B, C); the factor of the requested mode is
    ignored. Each mode multiplies the stacked slices by one node factor and
    contracts the (n3, n, rank) result with the other factor:
    O(nnz rank + n3 n rank) time and O(n3 n rank) scratch.
    """
    if mode not in (1, 2, 3):
        raise ValueError("mode must be 1, 2 or 3")
    A, B, C = factors
    n1, n2, n3 = Z.dims
    r = {1: B, 2: A, 3: A}[mode].shape[1]
    for M, n in ((A, n1), (B, n2), (C, n3)):
        if M.shape != (n, r):
            raise ValueError(f"factor shape {M.shape} inconsistent with dims {Z.dims} rank {r}")
    rows, cols = Z._stacked_slices
    if mode == 1:
        return np.einsum("tir,tr->ir", (rows @ B).reshape(n3, n1, r), C)
    if mode == 2:
        return np.einsum("tjr,tr->jr", (cols @ A).reshape(n3, n2, r), C)
    return np.einsum("tir,ir->tr", (rows @ B).reshape(n3, n1, r), A)


@dataclass(frozen=True)
class AlsConfig:
    """Settings for the alternating least-squares decomposition.

    ALS stops once a sweep changes the relative error ``fit`` by at most
    ``rel_tol`` times its current value (the fit-stagnation test of the Tensor
    Toolbox ``cp_als``), once the fit reaches ``_FIT_FLOOR``, or after
    ``max_sweeps`` sweeps. The rule is scale-free: a linearly converging
    exact decomposition keeps a large relative decrease and runs to the
    floor, while a fit that only drifts along gauge directions stops.

    ``prox`` is the relative weight of a proximal term that pulls each factor
    update toward its previous value. It leaves exact decompositions as fixed
    points and barely slows well-posed problems, but pins the gauge drift of
    weakly identifiable tensors (near-parallel time profiles), where plain
    ALS wanders along flat directions and inflates paired components.
    """

    rank: int
    max_sweeps: int = 200
    rel_tol: float = 1e-6
    seed: int = 0
    prox: float = 1e-3

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.rel_tol <= 0 or self.max_sweeps < 1:
            raise ValueError("tolerances and sweep budget must be positive")
        if self.prox < 0:
            raise ValueError("proximal weight must be >= 0")


@dataclass(frozen=True)
class CPModel:
    """Rank-r decomposition sum_r lambda_r a_r x b_r x c_r.

    Factor columns are unit vectors, the nonnegative weights are sorted in
    non-increasing order, and ``fit`` is the final relative reconstruction
    error (0 by convention for an all-zero tensor).

    ``stop_reason`` says why ALS ended: ``"tol"`` (the relative fit change
    fell to ``rel_tol``), ``"floor"`` (the fit reached ``_FIT_FLOOR``),
    ``"budget"`` (``max_sweeps`` ran out), ``"rejected"`` (an orthogonal-CP
    sweep still raised the fit after every damped retry) or ``"zero"`` (an
    all-zero tensor). ``b_angle`` is the largest principal angle, in radians,
    between the column spaces of the node factor B at the start and at the
    end, i.e. how far ALS moved the embedding's subspace.
    """

    lambdas: np.ndarray
    factor_a: np.ndarray
    factor_b: np.ndarray
    factor_c: np.ndarray
    fit: float
    sweeps: int = 0
    fit_history: tuple = ()
    stop_reason: str = ""
    b_angle: float = float("nan")

    @property
    def rank(self) -> int:
        return int(self.lambdas.size)

    @property
    def dims(self) -> tuple:
        return (self.factor_a.shape[0], self.factor_b.shape[0], self.factor_c.shape[0])

    def to_dense(self) -> np.ndarray:
        return np.einsum("r,ir,jr,tr->ijt", self.lambdas,
                         self.factor_a, self.factor_b, self.factor_c)


def submodel(model: CPModel, indices) -> CPModel:
    """Restrict a model to the given components (fit becomes undefined)."""
    idx = np.asarray(indices, dtype=np.int64)
    return CPModel(lambdas=model.lambdas[idx],
                   factor_a=model.factor_a[:, idx],
                   factor_b=model.factor_b[:, idx],
                   factor_c=model.factor_c[:, idx],
                   fit=float("nan"))


# ---------------------------------------------------------------------------
# ALS internals


def initial_factors(Z: SparseTensor3, cfg: AlsConfig, *, orthogonal_b: bool = False):
    """Warm-start factors.

    Square slices: both node factors start from the ``rank`` largest-magnitude
    eigenvectors of the sparse symmetrized time-summed slice 0.5 (S + S^T),
    S = sum_t Z[:, :, t], and the time factor is constant 1/sqrt(n3) per
    column (exact in the identical-slices limit); seeded random unit columns
    fill beyond the node count. Other shapes start from seeded random unit
    columns, with B orthonormalized when ``orthogonal_b``. The eigenpairs come
    from the shared residual-checked eigensolver, so the start costs
    O(nnz + n rank) memory and no n x n array.
    """
    n1, n2, n3 = Z.dims
    r = cfg.rank
    rng = derived_rng(cfg.seed, "als-init")
    if n1 == n2:
        C = np.full((n3, r), 1.0 / np.sqrt(n3))
        S = _csr(Z.vals, Z.i, Z.j, (n1, n2))
        S = 0.5 * (S + S.T)
        k = min(r, n1)
        lead = _extreme_pairs(S, k, "LM", tol=1e-10, max_iter=5000, seed=cfg.seed).vectors
        if r > k:
            extra = rng.uniform(-1.0, 1.0, size=(n1, r - k))
            extra /= np.maximum(np.linalg.norm(extra, axis=0), 1e-300)
            lead = np.column_stack([lead, extra])
        A = lead.copy()
        B = lead.copy()
    else:
        A = rng.uniform(-1.0, 1.0, size=(n1, r))
        B = rng.uniform(-1.0, 1.0, size=(n2, r))
        A /= np.maximum(np.linalg.norm(A, axis=0), 1e-300)
        B /= np.maximum(np.linalg.norm(B, axis=0), 1e-300)
        if orthogonal_b:
            B = np.linalg.qr(B)[0]
            if B.shape[1] < r:
                raise DecompositionError("cannot orthonormalize node factor: rank > n")
        C = rng.uniform(-1.0, 1.0, size=(n3, r))
        C /= np.maximum(np.linalg.norm(C, axis=0), 1e-300)
    return A, B, C


def _gram_solve(G, rhs, prox=0.0, prev=None):
    """Least-squares factor update from its Gram system, optionally proximal.

    Solves (G + rho I) X^T = (rhs + rho prev)^T with rho = prox tr(G)/r, plus
    the documented ridge fallback when G is numerically rank-deficient.
    """
    r = G.shape[0]
    if prox > 0.0 and prev is not None:
        rho = prox * np.trace(G) / r
        G = G + rho * np.eye(r)
        rhs = rhs + rho * prev
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > 1e12:
        G = G + (1e-10 * np.trace(G) / r + 1e-300) * np.eye(r)
    try:
        return np.linalg.solve(G, rhs.T).T
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(G, rhs.T, rcond=None)[0].T


def _polar(M):
    U, _, Vt = np.linalg.svd(M, full_matrices=False)
    return U @ Vt


def _model_norm_sq(lambdas, A, B, C):
    G = (A.T @ A) * (B.T @ B) * (C.T @ C)
    return float(lambdas @ G @ lambdas)


def _relative_error(norm_z, inner, lambdas, A, B, C):
    """||Z - M|| / ||Z|| from ||Z||, <Z, M> and the factors of M (absolute
    error when ||Z|| = 0)."""
    err2 = norm_z ** 2 - 2.0 * inner + _model_norm_sq(lambdas, A, B, C)
    err = np.sqrt(max(err2, 0.0))
    return err / norm_z if norm_z > 0 else err


def _normalize_columns(F, fallback):
    norms = np.linalg.norm(F, axis=0)
    dead = norms < np.finfo(float).tiny
    out = F.copy()
    if dead.any():
        out[:, dead] = fallback[:, dead]
        norms = np.where(dead, 0.0, norms)
    live = ~dead
    out[:, live] = out[:, live] / norms[live]
    return out, norms


def _orth(F):
    """Orthonormal basis of the column space of F (SVD, numerical rank)."""
    U, s, _ = np.linalg.svd(F, full_matrices=False)
    return U[:, s > s[0] * max(F.shape) * np.finfo(float).eps]


def principal_angle(F0, F1) -> float:
    """Largest principal angle between the column spaces of F0 and F1.

    Taken from its sine, sigma_max((I - Q0 Q0^T) Q1) with orthonormal bases
    Q0 and Q1, which keeps full relative accuracy for small angles where the
    arccos of the cosine loses every digit.
    """
    Q0, Q1 = _orth(F0), _orth(F1)
    sine = np.linalg.norm(Q1 - Q0 @ (Q0.T @ Q1), 2)
    return float(np.arcsin(min(sine, 1.0)))


def max_rank(dims, orthogonal_b: bool = False) -> int:
    """Largest rank ALS accepts: min(n1 n3, n1 n2), and at most n2 with an
    orthonormal node factor."""
    n1, n2, n3 = dims
    return min(n1 * n3, n2 if orthogonal_b else n1 * n2)


# fit values at this scale are dominated by cancellation noise in the
# norm-difference formula; sweeping further cannot improve anything real
_FIT_FLOOR = 1e-8


def _als(Z: SparseTensor3, cfg: AlsConfig, orthogonal_b: bool) -> CPModel:
    r = cfg.rank
    cap = max_rank(Z.dims, orthogonal_b)
    if r > cap:
        raise ValueError(f"rank {r} above the cap {cap} for a {Z.dims} tensor")

    A, B, C = initial_factors(Z, cfg, orthogonal_b=orthogonal_b)
    norm_z = Z.norm()
    if norm_z == 0.0:
        lam = np.zeros(r)
        return CPModel(lam, A, B, C, fit=0.0, sweeps=0, fit_history=(0.0,),
                       stop_reason="zero", b_angle=0.0)
    B_start = B

    def step(units, lam):
        *raw, inner = _sweep(Z, *units, lam, orthogonal_b, cfg.prox)
        (A, na), (B, nb), (C, nc) = map(_normalize_columns, raw, units)
        lam = na * nb * nc
        return (A, B, C), lam, _relative_error(norm_z, inner, lam, A, B, C)

    fits = []
    prev_fit = np.inf
    units = (A, B, C)
    lam_prev = np.ones(r)
    for sweep in range(cfg.max_sweeps):
        new, lam, fit = step(units, lam_prev)
        if not all(np.all(np.isfinite(x)) for x in (*new, lam)):
            raise DecompositionError(
                f"non-finite factor entries at sweep {sweep + 1}; "
                "input scaling or rank is pathological")
        if orthogonal_b and fit > prev_fit + 1e-12:
            # retraction overshoot: reject the sweep, retry damped
            A, B, C = new
            A0, B0, C0 = units
            for blend in (0.5, 0.25, 0.125):
                damped = (_normalize_columns(A0 + blend * (A - A0), A0)[0],
                          _polar(B0 + blend * (B - B0)),
                          _normalize_columns(C0 + blend * (C - C0), C0)[0])
                new, lam, fit = step(damped, lam_prev)
                if fit <= prev_fit + 1e-12:
                    break
            else:
                stop_reason = "rejected"  # keep the last accepted state
                break

        units, lam_prev = new, lam
        fits.append(fit)
        if fit <= _FIT_FLOOR:
            stop_reason = "floor"
            break
        if abs(prev_fit - fit) <= cfg.rel_tol * fit:
            stop_reason = "tol"
            break
        prev_fit = fit
    else:
        stop_reason = "budget"

    # the first sweep is never rejected (prev_fit is inf), so one was accepted
    lam, (A, B, C) = lam_prev, units

    order = np.argsort(-lam, kind="stable")
    model = CPModel(lambdas=lam[order], factor_a=A[:, order], factor_b=B[:, order],
                    factor_c=C[:, order], fit=fits[-1], sweeps=len(fits),
                    fit_history=tuple(fits), stop_reason=stop_reason,
                    b_angle=principal_angle(B_start, B))
    return model


def _sweep(Z, A, B, C, lam, orthogonal_b, prox):
    """One ALS sweep; also returns <Z, [[A, B, C]]>, read off the mode-3
    product that the C update computes."""
    # the first solve re-absorbs the component scale, so its proximal anchor
    # is the scaled previous factor; the later solves stay near unit norm
    A = _gram_solve((B.T @ B) * (C.T @ C), mttkrp(Z, (A, B, C), 1),
                    prox, A * lam[None, :])
    if orthogonal_b:
        M = mttkrp(Z, (A, B, C), 2)
        if prox > 0.0:
            M = M + (prox * np.linalg.norm(M) / np.sqrt(M.shape[1])) * B
        B = _polar(M)
    else:
        B = _gram_solve((A.T @ A) * (C.T @ C), mttkrp(Z, (A, B, C), 2), prox, B)
    M3 = mttkrp(Z, (A, B, C), 3)
    C = _gram_solve((A.T @ A) * (B.T @ B), M3, prox, C)
    return A, B, C, float(np.sum(M3 * C))


def cp_als(Z: SparseTensor3, cfg: AlsConfig) -> CPModel:
    """Rank-``cfg.rank`` CP approximation by alternating least squares.

    The relative fit is non-increasing sweep to sweep (up to 1e-12 rounding
    slack); iteration stops once a sweep changes the fit by at most
    ``cfg.rel_tol`` times the fit (default 1e-6, relative), when the fit
    reaches ``_FIT_FLOOR``, or when the sweep budget runs out, and
    ``stop_reason`` records which. Factor columns are renormalized after every
    sweep with the scales absorbed into the component weights, and components
    are emitted sorted by weight.
    """
    return _als(Z, cfg, orthogonal_b=False)


def ocp_als(Z: SparseTensor3, cfg: AlsConfig) -> CPModel:
    """CP approximation with an orthonormal second (node) factor.

    Same contract as :func:`cp_als` except the node-factor update is the
    orthogonal Procrustes solution, so ``factor_b.T @ factor_b`` is the
    identity to machine precision; a sweep that increases the residual is
    rejected and retried with damping, and when every damped retry still
    increases it ALS stops at the last accepted state (``stop_reason``
    ``"rejected"``).
    """
    return _als(Z, cfg, orthogonal_b=True)


def reconstruct_error(Z: SparseTensor3, model: CPModel,
                      weights: Sequence[float] | None = None) -> float:
    """Relative Frobenius reconstruction error, optionally slice-weighted.

    With ``weights`` (positive, one per frontal slice), slice t of both the
    tensor and the reconstruction is scaled by sqrt(weights[t]) first, the
    diagonal specialization of a weighted Frobenius inner product in the time
    domain. For an all-zero tensor the absolute error is returned and a
    RuntimeWarning flags the switch.
    """
    n1, n2, n3 = Z.dims
    if model.dims != (n1, n2, n3):
        raise ValueError(f"model dims {model.dims} do not match tensor {Z.dims}")
    lam, A, B = model.lambdas, model.factor_a, model.factor_b
    w = np.ones(n3)
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64).ravel()
        if w.size != n3:
            raise ValueError(f"need {n3} slice weights, got {w.size}")
        if np.any(w <= 0):
            raise ValueError("slice weights must be positive")
    root = np.sqrt(w)
    C = model.factor_c * root[:, None]
    norm_z = float(np.linalg.norm(Z.vals * root[Z.t]))
    M3 = mttkrp(Z, (A, B, model.factor_c), 3)
    inner = float(np.sum(lam * w[:, None] * model.factor_c * M3))
    err = float(_relative_error(norm_z, inner, lam, A, B, C))
    if norm_z == 0.0:
        warnings.warn("zero tensor: returning absolute reconstruction error",
                      RuntimeWarning, stacklevel=2)
    return err
