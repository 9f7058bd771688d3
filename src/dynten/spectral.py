"""Symmetric eigensolvers and the static spectral embeddings.

The k algebraically largest, algebraically smallest or largest-magnitude
eigenpairs come from one of two library routines, chosen by size: LAPACK's
dense ``eigh`` for small matrices (and whenever k is at least half of n, where
ARPACK's Lanczos basis would be as large as the dense matrix), and ARPACK's
implicitly restarted Lanczos (``eigsh``) on the sparse matrix otherwise,
started from a seeded vector so the result is reproducible. ARPACK stops on
its own test at the caller's tol, ||r|| <= tol * |lambda| (ARPACK Users'
Guide, Lehoucq, Sorensen & Yang 1998, section 4.6), which is never looser than
the check that follows. Whichever routine ran, that check is the gate: every
returned pair must meet the residual bound tol * max(1, s), where the largest
absolute row sum s bounds every |lambda| and, like a backward-stable solver's
residual, scales with the matrix. The check cannot see a missed copy of a
repeated eigenvalue: Lanczos from one start vector can skip copies that sit
in disconnected blocks, which is why ``resistance_embedding`` solves each
connected component separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .graphs import ConvergenceError, _mirror_data, connected_components
# spectral_radius is not used here, but perfbench/tracing.py wraps it under this module
from .graphs import spectral_radius  # noqa: F401
from .seeding import derived_rng

# Largest n solved densely. At n = 1000 the dense solve is slower than ARPACK
# and needs an n x n array, a third more peak memory on the spectral baselines.
DENSE_MAX_N = 400


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues with matching unit eigenvectors as matrix columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __len__(self):
        return len(self.values)


def _check_symmetric(M, atol=1e-12):
    if M.nnz:
        scale = max(1.0, abs(M.data).max())
        mirror = _mirror_data(M)
        if mirror is not None:  # compare the values in place, no difference matrix
            gap = np.abs(np.subtract(M.data, mirror, out=mirror), out=mirror)
        else:
            gap = abs(M - M.T).data
        if gap.size and gap.max() > atol * scale:
            raise ValueError("matrix is not symmetric within tolerance")


def _row_sum_bound(M) -> float:
    """The largest absolute row sum of M, a Gershgorin bound on every |lambda|."""
    return float(abs(M).sum(axis=1).max())


def _extreme_pairs(M, k, which, tol, max_iter, seed) -> EigenPairs:
    """The k largest (``which="LA"``, descending), smallest (``"SA"``,
    ascending) or largest-magnitude (``"LM"``, by descending |lambda|)
    eigenpairs of a symmetric matrix, residual-checked against
    tol * max(1, largest absolute row sum) and in the sign gauge."""
    M = sparse.csr_array(M, dtype=np.float64)
    n = M.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    _check_symmetric(M)
    if n <= DENSE_MAX_N or 2 * k >= n:
        values, vectors = np.linalg.eigh(M.toarray())
        keep = {"LA": slice(n - k, n), "SA": slice(0, k),
                "LM": np.argsort(-np.abs(values), kind="stable")[:k]}[which]
        values, vectors = values[keep], vectors[:, keep]
    elif not M.count_nonzero():
        # ARPACK cannot start on the zero operator; any basis is an eigenbasis
        values, vectors = np.zeros(k), np.eye(n, k)
    else:
        # ARPACK is imported only where it runs: with it come scipy.sparse.linalg
        # and scipy.linalg, which no dense solve needs
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh

        v0 = derived_rng(seed, "eigs").standard_normal(n)
        try:
            values, vectors = eigsh(M, k, which=which, v0=v0, tol=tol, maxiter=max_iter)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"ARPACK converged {len(exc.eigenvalues)} of {k} eigenpairs in "
                f"{max_iter} restarts", float("inf")) from exc
    key = {"LA": -values, "SA": values, "LM": -np.abs(values)}[which]
    order = np.argsort(key, kind="stable")
    values, vectors = values[order], vectors[:, order]
    residuals = np.linalg.norm(M @ vectors - vectors * values[None, :], axis=0)
    bound = tol * max(1.0, _row_sum_bound(M))
    bad = np.flatnonzero(residuals > bound)
    if bad.size:
        raise ConvergenceError(
            f"eigenpairs {bad.tolist()} of {k} miss the residual bound {bound:g} "
            f"(residuals {residuals[bad]})", float(residuals[bad].max()))
    # deterministic gauge: each column's largest-magnitude entry is positive
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(k)]
    vectors = np.multiply(vectors, np.where(lead < 0, -1.0, 1.0), order="C")
    return EigenPairs(values=values, vectors=vectors)


def top_k_eigs(M, k: int, tol: float = 1e-10, max_iter: int = 5000,
               seed: int = 0) -> EigenPairs:
    """The k algebraically largest eigenpairs of a symmetric sparse matrix,
    in descending order.

    Dense LAPACK ``eigh`` for n <= DENSE_MAX_N or 2k >= n, ARPACK ``eigsh``
    (at most ``max_iter`` restarts, start vector drawn from ``seed``)
    otherwise. ARPACK stops on its own test ||r|| <= tol * |lambda|; the
    residual check stays the gate: each returned pair satisfies
    ||M v - lambda v|| <= tol * max(1, s), where s is the largest absolute
    row sum of M (an upper bound on every |lambda|, so the bound scales with
    M), and its largest-magnitude entry is positive; ConvergenceError is
    raised otherwise.
    """
    return _extreme_pairs(M, k, "LA", tol, max_iter, seed)


def bottom_k_eigs(M, k: int, tol: float = 1e-10, max_iter: int = 5000,
                  seed: int = 0) -> EigenPairs:
    """The k algebraically smallest eigenpairs of a symmetric matrix, in
    ascending order.

    Same solver choice, ARPACK stop at tol, residual bound
    ||M v - lambda v|| <= tol * max(1, s) as the gate, and sign gauge as
    ``top_k_eigs``; ConvergenceError is raised when a pair misses the bound.
    """
    return _extreme_pairs(M, k, "SA", tol, max_iter, seed)


def adjacency_embedding(A, d: int, seed: int = 0) -> np.ndarray:
    """Spectral adjacency embedding: row i = (mu_j v_j[i]) over the d
    algebraically largest eigenpairs of the symmetric adjacency A, from
    ``top_k_eigs`` at its default tolerance and restart cap."""
    A = sparse.csr_array(A, dtype=np.float64)
    if not 1 <= d <= A.shape[0]:
        raise ValueError("d must be in [1, n]")
    pairs = top_k_eigs(A, d, seed=seed)
    return pairs.vectors * pairs.values[None, :]


def resistance_embedding(L, d: int, seed: int = 0) -> np.ndarray:
    """Resistance embedding: row j = (v_i[j] / sqrt(lambda_i)) over the d
    smallest nonzero Laplacian eigenpairs, from ``bottom_k_eigs`` at its
    default tolerance and restart cap.

    L is block diagonal over its connected components, so each component is
    solved on its own and the d smallest nonzero eigenvalues are taken from
    the union. A component has exactly one kernel mode (eigenvalue at most
    1e-9 * s, with s the largest absolute row sum of the component's own
    block, for which lambda_max <= s <= 2 lambda_max on a Laplacian, so the
    test does not depend on the weights of other components), so d can be at
    most n - c. An isolated node has no other mode and gets a zero row. One
    Lanczos solve on the whole matrix would see a single direction of the
    c-fold kernel and could return fewer kernel modes than there are
    components.
    """
    L = sparse.csr_array(L, dtype=np.float64)
    n = L.shape[0]
    c, labels = connected_components(L)  # reads only the pattern
    if d < 1 or d > n - c:
        raise ValueError(f"d must be in [1, n - c] with {c} detected components")
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    modes = []  # (eigenvalue, component nodes, eigenvector on those nodes)
    for nodes in members:
        if nodes.size == 1:
            continue
        block = L[nodes][:, nodes]
        pairs = bottom_k_eigs(block, min(d + 1, nodes.size), seed=seed)
        kernel = int((pairs.values <= 1e-9 * max(1e-300, _row_sum_bound(block))).sum())
        if kernel != 1:
            raise ValueError(f"kernel multiplicity {kernel} in a connected component; "
                             "graph is near-disconnected")
        modes += [(lam, nodes, v) for lam, v in zip(pairs.values[1:], pairs.vectors[:, 1:].T)]
    modes.sort(key=lambda mode: mode[0])
    emb = np.zeros((n, d))
    for col, (lam, nodes, v) in enumerate(modes[:d]):
        emb[nodes, col] = v / np.sqrt(lam)
    return emb


def effective_resistance(L, x: int, y: int) -> float:
    """Effective resistance between nodes x and y via the dense Laplacian
    pseudoinverse L+ (test oracle; guarded to n <= 2000).

    L+ is block diagonal over the connected components, so each block is
    its own component's pseudoinverse (NumPy's ``pinv`` of the symmetric
    part), which drops eigenvalues at most 1e-9 times that component's
    largest: a component whose weights are far below another's is not read
    as all kernel. Between components the off-diagonal block is zero, and
    the value is L+[x, x] + L+[y, y].
    """
    L = sparse.csr_array(L, dtype=np.float64)
    n = L.shape[0]
    if n > 2000:
        raise ValueError("dense pseudoinverse oracle is limited to n <= 2000")
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError("node index out of range")
    if x == y:
        return 0.0
    _, comp = connected_components(L)  # reads only the pattern
    blocks = {}  # component -> (its nodes, ascending; its block of L+)
    for c in (comp[x], comp[y]):
        if c not in blocks:
            nodes = np.flatnonzero(comp == c)
            dense = L[nodes][:, nodes].toarray()
            blocks[c] = nodes, np.linalg.pinv(0.5 * (dense + dense.T), rcond=1e-9,
                                              hermitian=True)

    def pinv(i, j):
        if comp[i] != comp[j]:
            return 0.0
        nodes, block = blocks[comp[i]]
        return block[np.searchsorted(nodes, i), np.searchsorted(nodes, j)]

    return float(pinv(x, x) + pinv(y, y) - 2.0 * pinv(x, y))
