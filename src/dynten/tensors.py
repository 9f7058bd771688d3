"""Sparse n x n x tau tensors and CP / orthogonality-constrained CP by ALS.

The tensor is stored once, as one canonical CSR matrix: frontal slices
S[:, :, t], one n x n adjacency matrix per time step, stacked as a (tau n) x n
matrix, the transpose of the mode-2 unfolding. That matrix may be shared, a
network's own stack, and the tensor may blend its slices along time by a
backward recurrence, Z = S x_3 W with an upper-triangular tau x tau W, which
is never formed: every ALS quantity reads S and W (Kolda & Bader 2009). The
ALS inner kernel, a matricized-tensor-times-Khatri-Rao product (MTTKRP), is a
sparse-times-dense product on that matrix (modes 1 and 3) or on its
transpose, a CSC view of the same arrays (mode 2), plus one small
contraction, run on blocks of factor columns (``_column_blocks``):
O(nnz rank + n tau rank) time and O(n rank) scratch, with no n^2 operand and
no second copy of the tensor. The orthogonal variant replaces the
node-factor least-squares update with the orthogonal Procrustes solution
(polar factor of the MTTKRP matrix), which keeps that factor's columns
exactly orthonormal. Every block update of either solver is an exact
proximal minimizer, so no sweep can raise the fit beyond rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import sparse

from .graphs import (_backward_blend, _blend_matrix, _compact, _csr_of, _slices_of,
                     _symmetric_part, _weighted_slice_sum)
from .seeding import derived_rng
from .spectral import _extreme_pairs


class DecompositionError(RuntimeError):
    """ALS aborted (non-finite factors, a failed factor solve, a norm that
    underflows, or an unusable configuration)."""


@dataclass(frozen=True)
class SparseTensor3:
    """Sparse n x n x tau tensor held as one canonical CSR matrix, optionally
    blended along time.

    ``stacked`` is the (tau n) x n matrix whose row t n + i is S[i, :, t].
    The constructor is the one way in, and it refuses any other shape, an
    unsorted row, a duplicate entry, a stored zero and a non-finite value
    (``from_slices`` and ``from_dense`` compact their input first). It holds
    int32 index arrays whenever the shape and nnz fit (12 instead of 16
    bytes per nonzero): an int32 matrix, such as a network's own stack, is
    held as it is, and a wider one is narrowed in a new matrix over the same
    data, so the caller's matrix is never written. The tensor is the mode-3
    product Z = S x_3 W with the upper-triangular tau x tau matrix W
    (``mix``), which is never formed: ``nnz`` counts the entries of S, the
    only ones stored. Without ``blend`` W is the identity and Z is S. With
    per-slice weights ``blend`` = w, Z is the backward recurrence
    Z_t = w_t S_t + (1 - w_t) Z_{t+1} from Z_tau = w_tau S_tau.
    """

    stacked: sparse.csr_array = field(repr=False)
    blend: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        S = self.stacked
        rows, n = S.shape
        if n < 1 or rows < n or rows % n:
            raise ValueError(f"stacked shape {S.shape} is not (tau n) x n")
        if self.blend is not None and np.shape(self.blend) != (rows // n,):
            raise ValueError(f"need {rows // n} blend weights, got shape {np.shape(self.blend)}")
        if not S.has_canonical_format:
            raise ValueError("stacked column indices are unsorted" if not S.has_sorted_indices
                             else "stacked matrix holds duplicate entries")
        if not np.all(np.isfinite(S.data)):
            raise ValueError("tensor values must be finite")
        if not np.all(S.data):
            raise ValueError("stacked matrix stores an explicit zero")
        if (S.indices.dtype, S.indptr.dtype) != (np.int32, np.int32) and \
                max(rows, S.nnz) <= np.iinfo(np.int32).max:
            object.__setattr__(self, "stacked", _csr_of(
                S.data, *(a.astype(np.int32, copy=False) for a in (S.indices, S.indptr)), S.shape))

    @classmethod
    def from_slices(cls, slices: Sequence) -> "SparseTensor3":
        """Stack square sparse matrices as the frontal slices Z[:, :, t]."""
        if len(slices) == 0:
            raise ValueError("need at least one slice")
        mats = [sparse.csr_array(S) for S in slices]
        n = mats[0].shape[0]
        for S in mats:
            if S.shape != (n, n):
                raise ValueError(f"slice shape {S.shape} != ({n}, {n})")
        return cls(_compact(sparse.vstack(mats, format="csr")))

    @classmethod
    def from_dense(cls, array) -> "SparseTensor3":
        """Wrap a dense n x n x tau array."""
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 3 or array.shape[0] != array.shape[1]:
            raise ValueError(f"expected an n x n x tau array, got shape {array.shape}")
        n, _, tau = array.shape
        return cls(sparse.csr_array(array.transpose(2, 0, 1).reshape(tau * n, n)))

    @property
    def dims(self) -> tuple:
        rows, n = self.stacked.shape
        return (n, n, rows // n)

    @property
    def nnz(self) -> int:
        return int(self.stacked.nnz)

    @cached_property
    def mix(self) -> np.ndarray:
        """W with Z = S x_3 W: the recurrence run on the identity's rows,
        or, without a blend, the tau x tau identity itself."""
        return np.eye(self.dims[2]) if self.blend is None else _blend_matrix(self.blend)

    def _parts(self):
        """Sparse matrices that hold Z's entries between them, one at a
        time: the stack itself, or, with a blend, the slices Z_tau, ...,
        Z_1, each formed from the one before (one slice of scratch)."""
        if self.blend is None:
            yield self.stacked
        else:
            yield from _backward_blend(_slices_of(self.stacked, self.dims[2]), self.blend)

    def norm(self) -> float:
        # einsum, not a BLAS dot: its sum does not depend on the thread count
        return float(np.sqrt(sum(np.einsum("i,i->", P.data, P.data) for P in self._parts())))


# an MTTKRP operand of at most this many entries runs as one column block:
# below it the per-block calls cost more time than the scratch is worth
_ONE_BLOCK = 1 << 16


def _column_blocks(n: int, tau: int, r: int) -> list:
    """b near-equal slices of the r factor columns in order, b = min(max(1,
    tau n r // max(_ONE_BLOCK, 2 n r)), max(1, r // 2)): one block for
    operands of at most _ONE_BLOCK entries, at most tau / 2 blocks of about
    2 n r operand entries each otherwise, and no block narrower than two
    columns unless r = 1."""
    b = min(max(1, tau * n * r // max(_ONE_BLOCK, 2 * n * r)), max(1, r // 2))
    return [slice(k * r // b, (k + 1) * r // b) for k in range(b)]


def mttkrp(Z: SparseTensor3, factors: Sequence[np.ndarray], mode: int) -> np.ndarray:
    """Matricized-tensor-times-Khatri-Rao product for one mode (1, 2 or 3).

    ``factors`` is the triple (A, B, C) of shapes n x r, n x r and tau x r;
    the factor of the requested mode is ignored. The tensor S x_3 W, with
    W = ``Z.mix``, runs the product of S, with W^T C in place of C in modes
    1 and 2 and W times S's product in mode 3 (exact, up to the sign of a
    zero, when W is the identity). The product runs on the column blocks
    of ``_column_blocks``, after Bader & Kolda's column-wise MTTKRP. Modes
    1 and 3 multiply the stacked slices by the block of B and contract the
    (tau, n, w) result with the other factor; mode 2 multiplies their
    transpose by the (tau n, w) Khatri-Rao rows C[t, s] * A[i, s]. Each
    costs O(nnz r + tau n r) time and O(n r) scratch. Every output entry
    sums the same terms in the same order whatever the block width, so
    mode 2 is bitwise independent of it.
    """
    if mode not in (1, 2, 3):
        raise ValueError("mode must be 1, 2 or 3")
    A, B, C = factors
    n, _, tau = Z.dims
    r = {1: B, 2: A, 3: A}[mode].shape[1]
    for M, m in ((A, n), (B, n), (C, tau)):
        if M.shape != (m, r):
            raise ValueError(f"factor shape {M.shape} inconsistent with n {n}, tau {tau}, rank {r}")
    if mode != 3:
        C = Z.mix.T @ C
    out = np.empty((tau if mode == 3 else n, r))
    for s in _column_blocks(n, tau, r):
        # each block's operand is a temporary of its statement, so only one
        # block's scratch is alive at a time
        if mode == 2:
            out[:, s] = Z.stacked.T @ np.multiply(
                C[:, None, s], A[None, :, s], order="C").reshape(tau * n, -1)
        elif mode == 1:
            out[:, s] = np.einsum("tir,tr->ir", (Z.stacked @ B[:, s]).reshape(tau, n, -1), C[:, s])
        else:
            out[:, s] = np.einsum("tir,ir->tr", (Z.stacked @ B[:, s]).reshape(tau, n, -1), A[:, s])
    return Z.mix @ out if mode == 3 else out


@dataclass(frozen=True)
class AlsConfig:
    """Settings for the alternating least-squares decomposition.

    ALS stops once a sweep changes the relative error ``fit`` by at most
    ``rel_tol`` times its current value (the fit-stagnation test of the Tensor
    Toolbox ``cp_als``), once the fit reaches ``_FIT_FLOOR``, or after
    ``max_sweeps`` sweeps. The rule is scale-free: a linearly converging
    exact decomposition keeps a large relative decrease and runs to the
    floor, while a fit that only drifts along gauge directions stops.
    """

    rank: int
    max_sweeps: int = 200
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.rel_tol <= 0 or self.max_sweeps < 1:
            raise ValueError("tolerances and sweep budget must be positive")


@dataclass(frozen=True)
class CPModel:
    """Rank-r decomposition sum_r lambda_r a_r x b_r x c_r.

    Factor columns are unit vectors, the nonnegative weights are sorted in
    non-increasing order, and ``fit`` is the final relative reconstruction
    error (0 by convention for an all-zero tensor).

    ``stop_reason`` says why ALS ended: ``"tol"`` (the relative fit change
    fell to ``rel_tol``), ``"floor"`` (the fit reached ``_FIT_FLOOR``),
    ``"budget"`` (``max_sweeps`` ran out), ``"rejected"`` (a sweep raised the
    fit by more than 1e-12, which only rounding error can do, so ALS kept the
    state before it) or ``"zero"`` (an all-zero tensor). ``b_angle`` is the
    largest principal angle, in radians, between the column spaces of the
    node factor B at the start and at the end, i.e. how far ALS moved the
    embedding's subspace (``_largest_principal_angle``, SciPy's
    ``subspace_angles`` algorithm on NumPy's LAPACK).
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


# ---------------------------------------------------------------------------
# ALS internals


def initial_factors(Z: SparseTensor3, cfg: AlsConfig):
    """Warm-start factors.

    Both node factors start from the ``rank`` largest-magnitude eigenvectors
    of the sparse symmetrized time-summed slice 0.5 (M + M^T),
    M = sum_t Z[:, :, t], and the time factor is constant 1/sqrt(tau) per
    column (exact in the identical-slices limit); seeded random unit columns
    fill beyond the node count n. M = sum_s (sum_t W[t, s]) S[:, :, s] for
    Z = S x_3 W, and its symmetric part, come from the shared sparse
    helpers, which average M with M^T in place when they have one pattern.
    The eigenpairs come from the shared residual-checked eigensolver, so
    the start costs O(nnz + n rank) memory and no n x n array.
    """
    n, _, tau = Z.dims
    r = cfg.rank
    C = np.full((tau, r), 1.0 / np.sqrt(tau))
    M = _symmetric_part(_weighted_slice_sum(Z.stacked, Z.mix.sum(axis=0)))
    k = min(r, n)
    lead = _extreme_pairs(M, k, "LM", tol=1e-10, max_iter=5000, seed=cfg.seed).vectors
    if r > k:
        extra = derived_rng(cfg.seed, "als-init").uniform(-1.0, 1.0, size=(n, r - k))
        extra /= np.maximum(np.linalg.norm(extra, axis=0), 1e-300)
        lead = np.column_stack([lead, extra])
    return lead.copy(), lead.copy(), C


# relative weight of the proximal term that pulls each factor update toward
# its previous value. It leaves exact decompositions as fixed points and barely
# slows well-posed problems, but pins the gauge drift of weakly identifiable
# tensors (near-parallel time profiles), where plain ALS wanders along flat
# directions and inflates paired components.
_PROX = 1e-3


def _gram_solve(G, rhs, prev):
    """Proximal least-squares factor update from its Gram system.

    Solves (G + rho I) X^T = (rhs + rho prev)^T with rho = _PROX tr(G)/r. G, a
    Hadamard product of Gram matrices, is PSD, so cond(G + rho I) <= 1 + r/_PROX;
    only a zero or non-finite trace takes the tiny-ridge fallback.
    """
    r = G.shape[0]
    rho = _PROX * np.trace(G) / r
    G = G + rho * np.eye(r)
    rhs = rhs + rho * prev
    if not rho > 0:
        G = G + (1e-10 * np.trace(G) / r + 1e-300) * np.eye(r)
    try:
        return np.linalg.solve(G, rhs.T).T
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(G, rhs.T, rcond=None)[0].T


def _polar(M):
    U, _, Vt = np.linalg.svd(M, full_matrices=False)
    return U @ Vt


def _relative_error(norm_z, inner, lambdas, A, B, C):
    """||Z - M|| / ||Z|| from ||Z|| > 0, <Z, M> and the factors of M."""
    G = (A.T @ A) * (B.T @ B) * (C.T @ C)
    err2 = norm_z ** 2 - 2.0 * inner + float(lambdas @ G @ lambdas)
    return np.sqrt(max(err2, 0.0)) / norm_z


def _normalize_columns(F, fallback):
    norms = np.linalg.norm(F, axis=0)
    dead = norms < np.finfo(float).tiny
    out = F.copy()
    if dead.any():
        out[:, dead] = fallback[:, dead]
    live = ~dead
    out[:, live] = out[:, live] / norms[live]
    return out, norms


def max_rank(n: int, tau: int, orthogonal_b: bool = False) -> int:
    """Largest rank ALS accepts on an n x n x tau tensor: min(n tau, n^2), and
    at most n with an orthonormal node factor."""
    return min(n * tau, n if orthogonal_b else n * n)


# fit values at this scale are dominated by cancellation noise in the
# norm-difference formula; sweeping further cannot improve anything real
_FIT_FLOOR = 1e-8


def _als(Z: SparseTensor3, cfg: AlsConfig, orthogonal_b: bool) -> CPModel:
    r = cfg.rank
    cap = max_rank(Z.dims[0], Z.dims[2], orthogonal_b)
    if r > cap:
        raise ValueError(f"rank {r} above the cap {cap} for a {Z.dims} tensor")

    norm_z = Z.norm()
    if norm_z == 0.0 and (nonzero := sum(P.count_nonzero() for P in Z._parts())):
        raise DecompositionError(
            f"the norm of a tensor with {nonzero} nonzero entries underflows to 0; "
            "input scaling is pathological")
    A, B, C = initial_factors(Z, cfg)
    if norm_z == 0.0:
        lam = np.zeros(r)
        return CPModel(lam, A, B, C, fit=0.0, sweeps=0, fit_history=(0.0,),
                       stop_reason="zero", b_angle=0.0)
    B_start = B

    fits = []
    prev_fit = np.inf
    lam = np.ones(r)
    for sweep in range(cfg.max_sweeps):
        try:
            *raw, inner = _sweep(Z, A, B, C, lam, orthogonal_b)
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(
                f"{exc} at sweep {sweep + 1}; input scaling or rank is pathological") from exc
        (A1, na), (B1, nb), (C1, nc) = map(_normalize_columns, raw, (A, B, C))
        del raw  # normalized copies: the raw factors would outlive the next sweep
        lam1 = na * nb * nc
        fit = _relative_error(norm_z, inner, lam1, A1, B1, C1)
        if not all(np.all(np.isfinite(x)) for x in (A1, B1, C1, lam1)):
            raise DecompositionError(
                f"non-finite factor entries at sweep {sweep + 1}; "
                "input scaling or rank is pathological")
        if fit > prev_fit + 1e-12:
            # every block update is an exact proximal minimizer, so a rise is
            # rounding error: keep the last accepted state
            stop_reason = "rejected"
            break
        A, B, C, lam = A1, B1, C1, lam1
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

    # the first sweep is never rejected (prev_fit is inf), so one was accepted;
    # the angle's SVD scratch comes before the sorted copies of the factors
    b_angle = _largest_principal_angle(B_start, B)
    order = np.argsort(-lam, kind="stable")
    return CPModel(lambdas=lam[order], factor_a=A[:, order], factor_b=B[:, order],
                   factor_c=C[:, order], fit=fits[-1], sweeps=len(fits),
                   fit_history=tuple(fits), stop_reason=stop_reason, b_angle=b_angle)


def _orth(F):
    """An orthonormal basis of the column space of F, Fortran-ordered, from
    the SVD with the rank rule of SciPy's ``orth``: singular values above
    max(m, n) eps s_max count."""
    u, s, vh = np.linalg.svd(F, full_matrices=False)
    tol = np.amax(s, initial=0.0) * (np.finfo(s.dtype).eps * max(u.shape[0], vh.shape[1]))
    return np.asfortranarray(u)[:, :np.sum(s > tol, dtype=int)]


def _largest_principal_angle(F0, F1) -> float:
    """The largest principal angle, in radians, between the column spaces
    of F0 and F1: the largest of SciPy's ``subspace_angles(F0, F1)``, by the
    same steps (Knyazev & Argentati 2002). The cosines are the singular
    values of Q0^T Q1 for orthonormal bases Q0, Q1; an angle whose cosine
    has cos^2 >= 1/2 is read off the sines instead, the singular values of
    the smaller basis less its projection on the larger one, which keep full
    relative accuracy near 0. The bases are Fortran-ordered, as SciPy's are,
    so each product hands BLAS the same layout: where NumPy's LAPACK build
    and SciPy's agree, so does the angle, bit for bit."""
    Q0, Q1 = _orth(F0), _orth(F1)
    cross = Q0.T @ Q1
    cos = np.linalg.svd(cross, compute_uv=False)
    mask = cos ** 2 >= 0.5
    if mask.any():
        rest = Q1 - Q0 @ cross if Q0.shape[1] >= Q1.shape[1] else Q0 - Q1 @ cross.T
        sin = np.arcsin(np.clip(np.linalg.svd(rest, compute_uv=False), -1.0, 1.0))
    else:
        sin = 0.0
    return float(np.where(mask, sin, np.arccos(np.clip(cos[::-1], -1.0, 1.0))).max())


def _sweep(Z, A, B, C, lam, orthogonal_b):
    """One ALS sweep; also returns <Z, [[A, B, C]]>, read off the mode-3
    product that the C update computes."""
    # the first solve re-absorbs the component scale, so its proximal anchor
    # is the scaled previous factor; the later solves stay near unit norm
    A = _gram_solve((B.T @ B) * (C.T @ C), mttkrp(Z, (A, B, C), 1), A * lam[None, :])
    if orthogonal_b:
        M = mttkrp(Z, (A, B, C), 2)
        # ||M|| by einsum, as in SparseTensor3.norm: np.linalg.norm is a BLAS dot
        norm_m = np.sqrt(np.einsum("ij,ij->", M, M))
        B = _polar(M + (_PROX * norm_m / np.sqrt(M.shape[1])) * B)
    else:
        B = _gram_solve((A.T @ A) * (C.T @ C), mttkrp(Z, (A, B, C), 2), B)
    M3 = mttkrp(Z, (A, B, C), 3)
    C = _gram_solve((A.T @ A) * (B.T @ B), M3, C)
    return A, B, C, float(np.sum(M3 * C))


def cp_als(Z: SparseTensor3, cfg: AlsConfig) -> CPModel:
    """Rank-``cfg.rank`` CP approximation by alternating least squares.

    Every block update is an exact proximal least-squares minimizer, so the
    relative fit is non-increasing sweep to sweep: a sweep that raises it by
    more than 1e-12 rounding slack is discarded and ALS ends at the state
    before it (``stop_reason`` ``"rejected"``). Otherwise iteration stops once a sweep changes the fit by at most
    ``cfg.rel_tol`` times the fit (default 1e-6, relative), when the fit
    reaches ``_FIT_FLOOR``, or when the sweep budget runs out, and
    ``stop_reason`` records which. Factor columns are renormalized after every
    sweep with the scales absorbed into the component weights, and components
    are emitted sorted by weight.
    """
    return _als(Z, cfg, orthogonal_b=False)


def ocp_als(Z: SparseTensor3, cfg: AlsConfig) -> CPModel:
    """CP approximation with an orthonormal second (node) factor.

    Same contract as :func:`cp_als`, including the monotone fit, except the
    node-factor update is the proximal orthogonal Procrustes solution, so
    ``factor_b.T @ factor_b`` is the identity to machine precision.
    """
    return _als(Z, cfg, orthogonal_b=True)

