"""Dynamic-network data model and generalized adjacency/Laplacian constructions.

A dynamic network is an ordered sequence of snapshots over a shared,
label-aligned node set, each its weighted n x n adjacency matrix in
canonical form (float64, duplicates summed, no explicit zeros, sorted
indices) with A[i, j] the weight of the link i -> j. An undirected snapshot
stores both orientations of every link with equal weight. The tau snapshots
are stored once, stacked as the rows of one (tau n) x n CSR matrix, and
each is a ``scipy.sparse.csr_array`` view of it. :func:`stacked_adjacency`
builds a stack from index arrays, and every matrix builder here returns the
same canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np
from scipy import sparse

# katz_adjacency's output is dense whenever the graph is connected, so it is
# refused above this many nodes instead of filling every slice with n^2 entries
KATZ_MAX_NODES = 2048
KATZ_SAFETY = 0.99           # admissible Katz damping is this fraction of 1 / spectral_radius(A)
STATIONARY_TOL = 1e-12       # l1 residual that ends stationary_vector
STATIONARY_MAX_ITER = 20000  # power steps before stationary_vector gives up


class ConvergenceError(RuntimeError):
    """Iteration failed to reach tolerance; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ReducibleChainError(ValueError):
    """Transition matrix is not irreducible, so no unique positive stationary
    vector exists. Regularize first (``teleport=...``) or densify the graph
    (e.g. Katz preprocessing)."""


def stacked_adjacency(node_count: int, ends, row, col, weight,
                      undirected: bool = False) -> sparse.csr_array:
    """Canonical ``node_count`` x ``node_count`` adjacency of each of
    ``len(ends)`` slices, stacked as one (len(ends) * node_count) x
    node_count CSR matrix, whose index arrays are int32 whenever its shape
    and nnz fit. Slice t holds the edges ``ends[t - 1]`` (0 for t = 0) up to
    ``ends[t]``: edge k runs from node ``row[k]`` to ``col[k]`` with weight
    ``weight[k]``, or 1.0 when ``weight`` is None. :func:`_slices_of` cuts
    the stack into slices.

    Per slice, duplicate pairs are summed in input order and zero sums are
    dropped. With ``undirected=True`` every off-diagonal edge is mirrored so
    both orientations carry the weight; duplicates are summed per orientation
    first, and a pair listed in both orientations must agree in weight.

    The slices are built one at a time, each from its sorted keys
    row * n + col (int32 whenever n^2 fits), straight into stacked arrays
    sized for every edge and its mirror, so the scratch is one slice's
    worth. Only a slice where some key repeats is summed entry by entry.
    """
    n, tau = node_count, len(ends)
    row, col = (np.asarray(ids).ravel() for ids in (row, col))
    row, col = (ids if ids.dtype.kind in "iu" else ids.astype(np.int64) for ids in (row, col))
    wgt = None if weight is None else np.asarray(weight, dtype=np.float64).ravel()
    if not row.size == col.size == (row.size if wgt is None else wgt.size):
        raise ValueError("src, dst and weight must have equal length")
    if tau < 1 or ends[-1] != row.size or np.any(np.diff(ends, prepend=0) < 0):
        raise ValueError("slice ends must rise to the number of edges")
    if row.size and (min(row.min(), col.min()) < 0 or max(row.max(), col.max()) >= n):
        raise ValueError(f"edge endpoint out of range [0, {n})")
    if wgt is not None and not np.isfinite(wgt).all():
        raise ValueError("edge weights must be finite")
    size = row.size + (int(np.count_nonzero(row != col)) if undirected else 0)
    index = np.int32 if max(tau * n, size) <= np.iinfo(np.int32).max else np.int64
    key_type = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    data, indices = np.empty(size), np.empty(size, dtype=index)
    indptr = np.zeros(tau * n + 1, dtype=index)
    row_ends = np.arange(1, n + 1, dtype=key_type) * n  # the key that ends each row
    lo = stop = 0
    for t, hi in enumerate(ends):
        key, value = _slice_entries(n, key_type, row[lo:hi], col[lo:hi],
                                    None if wgt is None else wgt[lo:hi], undirected)
        start, stop = stop, stop + key.size
        np.remainder(key, n, out=indices[start:stop], casting="unsafe")
        data[start:stop] = value
        ptr = indptr[t * n + 1:(t + 1) * n + 1]
        ptr[:] = key.searchsorted(row_ends)
        ptr += start
        lo = hi
    data.resize(stop, refcheck=False)  # repeated keys and zero sums leave room over
    indices.resize(stop, refcheck=False)
    return sparse.csr_array((data, indices, indptr), shape=(tau * n, n))


def _slice_entries(n, key_type, row, col, wgt, undirected):
    """The stored entries of one slice's canonical adjacency, under the rules
    of :func:`stacked_adjacency`: their sorted keys row * n + col, of
    ``key_type``, and their values (1.0 for all when ``wgt`` is None)."""
    listed = row.astype(key_type)
    listed *= n
    listed += col
    if undirected:
        off = row != col
        key = np.concatenate([listed, col[off].astype(key_type) * n + row[off]])
        value = None if wgt is None else np.concatenate([wgt, wgt[off]])
        del off
    else:
        key, value = listed.copy(), wgt
    if value is None:
        key.sort()
    else:
        order = key.argsort()
        key = key[order]
        value = value[order]
        del order
    if np.any(key[1:] == key[:-1]):  # a key repeats: sum in input order
        del key, value
        listed, value = _sum_in_order(listed, np.ones(listed.size) if wgt is None else wgt)
        if undirected:
            listed, value = _one_weight_per_pair(n, listed, value)
        return _slice_entries(n, key_type, *np.divmod(listed, n), value, undirected)
    if value is None:
        return key, 1.0
    nonzero = value != 0.0
    if not nonzero.all():
        key, value = key[nonzero], value[nonzero]
    return key, value


def _csr_of(data, indices, indptr, shape) -> sparse.csr_array:
    """The CSR matrix of these consistent arrays, sharing them even when they
    are views: it is made empty and then handed the arrays, because scipy's
    constructor copies any view under half its base array (``prune``)."""
    M = sparse.csr_array(shape)
    M.data, M.indices, M.indptr = data, indices, indptr
    return M


def _row_block(stack, start: int, stop: int) -> sparse.csr_array:
    """Rows start..stop-1 of the CSR matrix ``stack`` as a CSR matrix that
    shares its data and indices; only the rebased row pointers are new."""
    ptr = stack.indptr[start:stop + 1]
    at = slice(ptr[0], ptr[-1])  # the entries of these rows
    return _csr_of(stack.data[at], stack.indices[at], ptr - ptr[0], (stop - start, stack.shape[1]))


def _slices_of(stack, slice_count: int) -> tuple:
    """The n x n slices of the (slice_count n) x n CSR ``stack``, as row-block views."""
    n = stack.shape[1]
    return tuple(_row_block(stack, t * n, (t + 1) * n) for t in range(slice_count))


def _stored_pairs(A, upper: bool = False, loops: bool = True):
    """The (row, col, value) of the CSR matrix A's stored entries, rows in its
    index dtype, in stored order (row * n + col ascends when A is canonical);
    with ``upper`` only those on or above the diagonal, without ``loops`` none on it."""
    row = np.repeat(np.arange(A.shape[0], dtype=A.indices.dtype), np.diff(A.indptr))
    if upper or not loops:
        keep = (A.indices >= row if loops else A.indices > row) if upper else A.indices != row
        return row[keep], A.indices[keep], A.data[keep]
    return row, A.indices, A.data


def _block_offsets(M, n: int) -> np.ndarray:
    """For a CSR matrix whose rows come in blocks of n, the first column of
    each stored entry's diagonal n x n block, in M's index dtype."""
    return np.repeat(np.arange(0, M.shape[0], n, dtype=M.indices.dtype), np.diff(M.indptr[::n]))


def _sum_in_order(key, wgt):
    """The distinct keys, sorted, and the weights of each summed in input
    order from 0.0; zero sums are dropped."""
    key, group = np.unique(key, return_inverse=True)
    summed = np.bincount(group, weights=wgt)
    keep = summed != 0.0
    return key[keep], summed[keep]


def _one_weight_per_pair(n, key, wgt):
    """Each unordered pair among the distinct directed edges ``key``
    (row * n + col) once, keyed by its upper-triangle orientation, with the
    weight of its orientations, which must agree when both are present."""
    row, col = np.divmod(key, n)
    pair = np.minimum(row, col) * n + np.maximum(row, col)
    del row, col
    order = np.argsort(pair, kind="stable")
    pair, wgt = pair[order], wgt[order]
    del order
    both = np.flatnonzero(pair[1:] == pair[:-1])  # the first of the two orientations
    if np.any(wgt[both] != wgt[both + 1]):
        raise ValueError("conflicting weights for undirected edge")
    keep = np.ones(pair.size, dtype=bool)
    keep[both + 1] = False
    return pair[keep], wgt[keep]


def adjacency_from_edges(node_count: int, src, dst, weight,
                         undirected: bool = False) -> sparse.csr_array:
    """Canonical ``node_count`` x ``node_count`` adjacency of the edges
    src[k] -> dst[k] with weight[k]: :func:`stacked_adjacency` of one slice,
    under the same summing rules."""
    if node_count < 0:
        raise ValueError("node_count must be >= 0")
    return stacked_adjacency(node_count, [np.size(src)], src, dst, weight, undirected)


def _mirror_data(M):
    """For a canonical CSR matrix whose transpose has the same sparsity
    pattern, the values of M^T in M's storage order (a new array); None for
    any other matrix. Costs one transposed copy of M, made only once every
    column holds as many entries as the row of the same index (a necessary
    condition read off the indices alone)."""
    if not M.has_canonical_format or not np.array_equal(
            np.bincount(M.indices, minlength=M.shape[0]), np.diff(M.indptr)):
        return None
    T = M.tocsc()
    if np.array_equal(M.indptr, T.indptr) and np.array_equal(M.indices, T.indices):
        return T.data
    return None


def _exactly_symmetric(A: sparse.csr_array) -> bool:
    """A == A^T entry for entry, for a canonical CSR matrix: the mirrored
    values exist and equal the stored ones."""
    mirror = _mirror_data(A)
    return mirror is not None and np.array_equal(A.data, mirror)


def _check_slice(A, n: int, directed: bool, name: str) -> None:
    """Raise ValueError, naming ``name``, unless A is a canonical n x n
    float64 ``csr_array`` (duplicates summed, no explicit zeros, sorted
    indices) that, unless ``directed``, equals its transpose exactly."""
    if not (_float_csr(A, n) and A.has_canonical_format and np.all(A.data != 0.0)):
        raise ValueError(
            f"{name} is not a canonical {n} x {n} float64 csr_array "
            "(duplicates summed, no explicit zeros, sorted indices)")
    if not directed and not _exactly_symmetric(A):
        raise ValueError(
            f"{name} of an undirected network is not symmetric: "
            "store both orientations of every link with equal weight, "
            "or pass directed=True")


def _float_csr(A, n: int) -> bool:
    """A is an n x n float64 ``csr_array``."""
    return isinstance(A, sparse.csr_array) and A.shape == (n, n) and A.dtype == np.float64


@dataclass(frozen=True, eq=False)
class DynamicNetwork:
    """Aligned snapshot sequence over a common labeled node set.

    ``stack``, the network's one store, is the (tau n) x n CSR matrix of its
    canonical slices (see the module docstring), the transpose of the mode-2
    unfolding of the n x n x tau tensor; ``snapshots[t]`` is a view of its
    rows t n to (t + 1) n - 1. The arrays are shared, not copied, so callers
    must not modify them in place. With ``directed=False`` every slice must
    equal its transpose exactly. A network equals only itself.
    """

    labels: tuple
    stack: sparse.csr_array = field(repr=False)
    directed: bool = False

    def __post_init__(self):
        n, S = len(self.labels), self.stack
        if len(set(self.labels)) != n:
            raise ValueError("node labels must be unique")
        if not (n and isinstance(S, sparse.csr_array) and S.shape[1] == n
                and S.shape[0] >= n and S.shape[0] % n == 0):
            raise ValueError(f"need at least one node, and a stack of shape (tau {n}) x {n} "
                             "with tau >= 1 as a csr_array")
        for t, A in enumerate(self.snapshots):
            _check_slice(A, n, self.directed, f"snapshot {t}")

    @classmethod
    def from_snapshots(cls, labels: tuple, snapshots: Sequence,
                       directed: bool = False) -> DynamicNetwork:
        """The network of the separate n x n slices ``snapshots``, stacked
        once into a new matrix and checked there by the constructor."""
        if len(snapshots) < 1:
            raise ValueError("need at least one snapshot")
        for t, A in enumerate(snapshots):
            if not _float_csr(A, len(labels)):  # stacking would convert it
                _check_slice(A, len(labels), directed, f"snapshot {t}")
        return cls(labels, sparse.vstack(snapshots, format="csr"), directed)

    @cached_property
    def snapshots(self) -> tuple:
        return _slices_of(self.stack, self.tau)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def tau(self) -> int:
        return self.stack.shape[0] // self.n

    def adjacency(self, t: int) -> sparse.csr_array:
        return self.snapshots[t]

    def prefix(self, k: int) -> DynamicNetwork:
        """The network of the first k slices, 1 <= k <= tau, whose stack is a
        :func:`_row_block` of this one's. It shares the labels, the arrays
        and the slices, which are not checked again."""
        if not 1 <= k <= self.tau:
            raise ValueError(f"prefix length {k} is not in [1, {self.tau}]")
        net = object.__new__(DynamicNetwork)  # the fields __init__ sets, unchecked
        net.__dict__.update(labels=self.labels, stack=_row_block(self.stack, 0, k * self.n),
                            directed=self.directed, snapshots=self.snapshots[:k])
        return net


def align_snapshots(snapshot_edges: Sequence[Sequence], *,
                    snapshot_labels: Sequence[Sequence] | None = None,
                    directed: bool = False) -> DynamicNetwork:
    """Align labelled edge columns onto the union node set.

    ``snapshot_edges[t]`` is a ``(src_labels, dst_labels, weights)`` triple of
    equal-length sequences for slice t. ``snapshot_labels[t]``, when given,
    declares nodes present at t even if isolated; a label repeated within one
    slice's declaration is rejected. Every slice is padded with isolated nodes
    to the full union label set, as :func:`aligned_network` builds it.
    """
    if len(snapshot_edges) == 0:
        raise ValueError("need at least one snapshot")
    if snapshot_labels is not None and len(snapshot_labels) != len(snapshot_edges):
        raise ValueError("snapshot_labels length must match snapshot_edges")

    weights = []
    for src, dst, wgt in snapshot_edges:
        weights.append(np.asarray(wgt, dtype=np.float64).ravel())
        if not len(src) == len(dst) == weights[-1].size:
            raise ValueError("src, dst and weight must have equal length")
    sizes = [w.size for w in weights]
    index: dict = {}  # label -> its number, in order of first appearance

    def indexed(k):
        column = chain.from_iterable(edges[k] for edges in snapshot_edges)
        return np.fromiter((index.setdefault(lab, len(index)) for lab in column),
                           dtype=np.int32, count=sum(sizes))

    src, dst = indexed(0), indexed(1)
    return aligned_network(list(index), np.cumsum(sizes), src, dst, np.concatenate(weights),
                           () if snapshot_labels is None else snapshot_labels, directed)


def aligned_network(labels, ends, src, dst, weight, declared: Sequence[Sequence],
                    directed: bool) -> DynamicNetwork:
    """The network of the edges src[k] -> dst[k], int32 indices into
    ``labels``, with ``weight[k]`` (1.0 when ``weight`` is None), over the
    union node set; slice t, one per entry of ``ends``, holds the edges
    ``ends[t - 1]`` (0 for t = 0) up to ``ends[t]``.

    ``declared[t]``, if given, declares labels present at t even if
    isolated; a label repeated within one declaration is rejected. The
    union of the declared labels and ``labels``, sorted by ``str``, is the
    node order of every slice; ``src`` and ``dst`` are rewritten in place,
    a slice at a time, to index it. :func:`stacked_adjacency` builds the
    slices, and ``DynamicNetwork`` checks them one at a time.
    """
    if not len(ends):
        raise ValueError("need at least one snapshot")
    union: set = set()
    for t, labels_t in enumerate(declared):
        seen: set = set()
        for lab in labels_t:
            if lab in seen:
                raise ValueError(f"duplicate label {lab!r} in snapshot {t}")
            seen.add(lab)
        union |= seen
    union.update(labels)
    order = tuple(sorted(union, key=str))
    index = {lab: i for i, lab in enumerate(order)}
    remap = np.fromiter(map(index.__getitem__, labels), dtype=np.int32, count=len(labels))
    del union, index
    lo = 0
    for hi in ends:
        for ids in (src, dst):
            ids[lo:hi] = remap[ids[lo:hi]]
        lo = hi
    return DynamicNetwork(order, stacked_adjacency(len(order), ends, src, dst, weight,
                                                   undirected=not directed), directed)


# ---------------------------------------------------------------------------
# matrix constructions


def _compact(M) -> sparse.csr_array:
    M = sparse.csr_array(M)
    M.sum_duplicates()
    M.eliminate_zeros()
    return M


def _symmetric_part(M) -> sparse.csr_array:
    """0.5 (M + M^T), exactly as ``_compact(0.5 * (M + M.T))`` gives it; built
    in M's own arrays, which it consumes, when M^T has M's pattern, and
    otherwise by halving the one sum M + M^T in place, which is exact."""
    mirror = _mirror_data(M)
    if mirror is None:
        S = M + M.T
        S.data *= 0.5
        return _compact(S)
    M.data += mirror
    del mirror
    M.data *= 0.5
    M.eliminate_zeros()
    return M


def _symmetric_slices(stack) -> sparse.csr_array:
    """The stack of 0.5 (S_t + S_t^T) for the n x n slices S_t of the (tau n)
    x n CSR matrix ``stack``, all taken at once on their block-diagonal
    form. It consumes the stack's arrays: the block offsets are added to
    its column indices in place, :func:`_symmetric_part` takes that form,
    and the offsets are taken off the result's indices in place."""
    m, n = stack.shape
    stack.indices += _block_offsets(stack, n)
    M = _symmetric_part(_csr_of(stack.data, stack.indices, stack.indptr, (m, m)))
    M.indices -= _block_offsets(M, n)
    return sparse.csr_array((M.data, M.indices, M.indptr), shape=(m, n))


def _weighted_slice_sum(stacked, w) -> sparse.csr_array:
    """sum_t w[t] S_t of the n x n slices S_t stacked as the (tau n) x n CSR
    matrix ``stacked``, canonical; for an m x tau w, its m sums stacked
    (m n) x n. P @ stacked with P = w (x) I_n over w's nonzeros adds each
    entry's weighted slices in time order and drops exact-zero sums, as a
    running sum of the slices does, in one output buffer. P takes the index
    dtype of ``stacked``, so int32 slices give an int32 sum."""
    W = np.atleast_2d(np.asarray(w, dtype=np.float64))
    n, (m, tau), idx = stacked.shape[1], W.shape, stacked.indices.dtype
    keep = np.broadcast_to((W != 0)[:, None, :], (m, n, tau))  # P[k n + i, t n + i] = W[k, t]
    cols = np.arange(0, tau * n, n, dtype=idx) + np.arange(n, dtype=idx)[:, None]
    indptr = np.insert(np.cumsum(np.repeat(np.count_nonzero(W, axis=1), n), dtype=idx), 0, 0)
    P = sparse.csr_array((np.broadcast_to(W[:, None, :], keep.shape)[keep],
                          np.broadcast_to(cols, keep.shape)[keep], indptr), shape=(m * n, tau * n))
    S = P @ stacked
    S.sort_indices()
    return S


def _backward_blend(slices, w):
    """The slices G'_t = w_t G_t + (1 - w_t) G'_{t+1} of the backward
    recurrence from G'_tau = w_tau G_tau, yielded from the last to the
    first, each as it is formed from the one before; none is compacted."""
    blended = None
    for t in range(len(slices) - 1, -1, -1):
        blended = w[t] * slices[t] if blended is None else \
            w[t] * slices[t] + (1.0 - w[t]) * blended
        yield blended


def _blend_matrix(w) -> np.ndarray:
    """The W with G'_t = sum_s W[t, s] G_s: :func:`_backward_blend` on the identity's rows."""
    return np.array(list(_backward_blend(np.eye(len(w)), w))[::-1])


def degree_matrix(A) -> sparse.csr_array:
    """Diagonal weighted out-degree matrix: the row sums of A."""
    A = sparse.csr_array(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("adjacency must be square")
    d = np.asarray(A.sum(axis=1)).ravel()
    return _compact(sparse.dia_array((d[None, :], [0]), shape=A.shape))


def _check_nonnegative(A):
    if A.nnz and A.data.min() < 0:
        raise ValueError("adjacency weights must be nonnegative")


def laplacian(A) -> sparse.csr_array:
    """Combinatorial Laplacian L = D - A with out-degree D."""
    A = sparse.csr_array(A)
    _check_nonnegative(A)
    return _compact(degree_matrix(A) - A)


def connected_components(A) -> tuple[int, np.ndarray]:
    """The weak components of the stored pattern of the square matrix A: their
    count c and each node's label in [0, c), numbered in order of their
    smallest node, as ``scipy.sparse.csgraph.connected_components(A,
    directed=False)`` numbers them. Every stored entry links its row and its
    column, whatever its value."""
    A = sparse.csr_array(A)
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("adjacency must be square")
    root, _ = _component_roots(n, *_stored_pairs(A)[:2])
    is_root = root == np.arange(n)
    return int(is_root.sum()), (np.cumsum(is_root, dtype=np.int32) - 1)[root]


def _component_roots(n: int, u, v):
    """The smallest node of each node's weak component over the links
    u[k] - v[k], and the number of rounds that took.

    FastSV (Zhang, Azad & Hu 2020, after Shiloach & Vishkin 1982): each node
    keeps a parent f, starting at itself, and each round is O(n + links)
    array work. With gf = f[f] the grandparents, the parent of every node
    hooks to the smallest grandparent among that node's neighbours
    (stochastic hooking), the node itself does too (aggressive hooking), and
    every node moves up to its grandparent (shortcutting). Parents only
    fall and stay within the component, so a round that leaves gf unchanged
    has made every tree a star rooted at its component's smallest node; that
    takes O(log n) rounds."""
    f = np.arange(n)
    gf = f.copy()
    rounds = 0
    while True:
        rounds += 1
        low = gf.copy()  # the smallest grandparent next to each node, or its own
        np.minimum.at(low, u, gf[v])
        np.minimum.at(low, v, gf[u])
        hooked = f.copy()
        np.minimum.at(hooked, f, low)
        np.minimum(hooked, low, out=hooked)
        np.minimum(hooked, gf, out=hooked)
        f, grand = hooked, hooked[hooked]
        if np.array_equal(grand, gf):
            return f, rounds
        gf = grand


def transition_matrix(A) -> sparse.csr_array:
    """Row-stochastic P with P[i, j] = w_ij / sum_k w_ik; zero rows stay zero."""
    A = sparse.csr_array(A)
    _check_nonnegative(A)
    d = np.asarray(A.sum(axis=1)).ravel()
    dinv = np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0)  # divides by no zero
    return _scale_rows(A, dinv)


def _scale_rows(A, factor) -> sparse.csr_array:
    """diag(factor) @ A for a CSR matrix A, one product per stored entry."""
    data = A.data * np.repeat(factor, np.diff(A.indptr))
    return _compact(sparse.csr_array((data, A.indices.copy(), A.indptr.copy()), shape=A.shape))


def _slice_count(P) -> int:
    """The number tau of n x n slices in P: 1 for an n x n matrix, tau for
    a (tau n) x n stack of slices."""
    m, n = P.shape
    tau = m // n if n else 0
    if tau * n != m:
        raise ValueError("P must be n x n or a (tau n) x n stack of n x n slices")
    if tau == 0:
        raise ValueError("empty chain")
    return tau


def stationary_vector(P, total_weight=1.0, *,
                      teleport: float | None = None) -> np.ndarray:
    """Positive left fixed vector of P, scaled so its entries sum to ``total_weight``.

    P is one n x n transition matrix, or tau of them stacked as a
    (tau n) x n matrix. For a stack, row t of the returned (tau, n) array
    is the vector of slice t, scaled to ``total_weight[t]`` when one weight
    per slice is given, with the bits that slice t alone gives.

    Each vector comes from power iteration on the lazy chain (I + T)/2,
    which has the same fixed vectors as T but no periodicity, with
    T = (1 - eps) P + eps J / n and eps = ``teleport`` (0 without it). A
    chain stops once the l1 residual ||normalize(phi T) - phi|| falls below
    ``STATIONARY_TOL``; ``ConvergenceError``, carrying that residual, is
    raised after ``STATIONARY_MAX_ITER`` steps. Each step takes one
    product, phi P, for both the residual of phi and the next iterate. All
    chains step together through one operator, built once: the CSC
    transpose of the block-diagonal form of (1 - eps) P, which shares P's
    row pointers. A chain that stops, or is refused before the loop, keeps
    stepping through it; its vector is the iterate at which it stopped.
    P must be irreducible (strongly connected with no zero rows); otherwise pass
    ``teleport=eps`` to iterate on the regularized chain T instead, which is a
    documented deviation from the strict fixed-vector contract. With zero rows
    T loses mass, and its normalized Perron left vector is returned. Where
    several slices fail, the error is the one the first of them raises on
    its own, and it names that slice.
    """
    P = sparse.csr_array(P, dtype=np.float64)
    tau, n = _slice_count(P), P.shape[1]
    if P.nnz and P.data.min() < 0:
        raise ValueError("transition probabilities must be nonnegative")
    weight = np.broadcast_to(np.asarray(total_weight, dtype=np.float64), (tau,))
    if teleport is not None and not 0.0 < teleport < 1.0:
        raise ValueError("teleport must be in (0, 1)")
    eps = teleport or 0.0
    # block t of Q.T @ x.ravel() is x[t] @ ((1 - eps) P_t), bit for bit, as the
    # block reads only its own entries; x T is that plus eps / n where x sums
    # to 1, and exactly x P when eps = 0. The offsets become the column indices
    columns = _block_offsets(P, n)
    columns += P.indices
    Q = _csr_of((1.0 - eps) * P.data, columns, P.indptr, (tau * n, tau * n))

    def of(t):
        return f" of slice {t}" if tau > 1 else ""

    faults = {}  # slice -> the error that slice raises on its own
    if teleport is None:
        # strong components need scipy.sparse.csgraph, imported only here, so
        # no other path loads it
        from scipy.sparse.csgraph import connected_components as components

        rows = np.asarray(P.sum(axis=1)).reshape(tau, n)
        _, comp = components(Q, directed=True, connection="strong")
        comp = comp.reshape(tau, n)
        for t in np.flatnonzero(np.any(rows <= STATIONARY_TOL, axis=1)
                                | np.any(comp != comp[:, :1], axis=1)):
            faults[t] = ReducibleChainError(
                f"transition matrix{of(t)} is reducible; no unique positive stationary "
                "vector. Pass teleport=1e-3 or preprocess with a Katz kernel.")

    Qt = Q.T
    x = np.full((tau, n), 1.0 / n)
    phi = x.copy()
    live = np.array([t for t in range(tau) if t not in faults], dtype=np.intp)
    step = (Qt @ x.ravel()).reshape(tau, n) + eps / n
    residual = np.full(live.size, np.inf)
    for _ in range(STATIONARY_MAX_ITER):
        if not live.size:
            break
        nxt = 0.5 * (x + step)
        x = nxt / nxt.sum(axis=1, keepdims=True)
        step = (Qt @ x.ravel()).reshape(tau, n) + eps / n
        running = step[live]  # a refused chain's step can sum to 0: it is never read
        residual = np.abs(running / running.sum(axis=1, keepdims=True) - x[live]).sum(axis=1)
        done = residual < STATIONARY_TOL
        if done.any():
            phi[live[done]] = x[live[done]]
            live, residual = live[~done], residual[~done]
    for t, r in zip(live, residual):
        faults[t] = ConvergenceError(
            f"stationary vector{of(t)} did not converge in {STATIONARY_MAX_ITER} "
            f"iterations (residual {r:.3e})", float(r))
    for t in np.flatnonzero(phi.min(axis=1) <= 0):
        faults.setdefault(t, ReducibleChainError(
            f"stationary vector{of(t)} has non-positive entries; chain is effectively "
            "reducible. Pass teleport=1e-3 or preprocess with a Katz kernel."))
    if faults:
        raise faults[min(faults)]
    phi *= (weight / phi.sum(axis=1))[:, None]
    return phi if tau > 1 else phi[0]


def symmetrized_adjacency(A, *, teleport: float | None = None) -> sparse.csr_array:
    """Generalized symmetric adjacency (Phi P + P^T Phi)/2 of a weighted
    digraph, with P its transition matrix and Phi the stationary vector
    scaled to the total weight; equals A when A is symmetric. Its Laplacian
    ``laplacian(symmetrized_adjacency(A))`` is Chung's directed Laplacian
    Phi - (Phi P + P^T Phi)/2 on an irreducible chain. Entry (i, j) is
    0.5 (S[i, j] + S[j, i]) with S = Phi P, so M == M.T holds exactly.

    A is one n x n adjacency, or tau slices stacked as a (tau n) x n
    matrix; the result has A's shape, and its slice t has the bits that
    slice t alone gives. A is never written: only a non-canonical A is
    copied, to be summed, so it gives the bits of its canonical form. One
    ``stationary_vector`` call serves every slice, and the symmetric parts
    are taken together on the block-diagonal form.
    """
    A = sparse.csr_array(A, dtype=np.float64)
    if not A.has_canonical_format:  # sum_duplicates works in place
        A = A.copy()
        A.sum_duplicates()
    tau, n = _slice_count(A), A.shape[1]
    P = transition_matrix(A)  # refuses negative weights; a fresh matrix
    totals = [float(S.data.sum()) for S in _slices_of(A, tau)]
    phi = stationary_vector(P, total_weight=totals, teleport=teleport)
    P.data *= np.repeat(phi.ravel(), np.diff(P.indptr))  # Phi P in P's own arrays
    P.eliminate_zeros()
    return _symmetric_slices(P)


def spectral_radius(A) -> float:
    """rho(A) for symmetric A; a certified upper bound on it for any other A.

    Symmetric A (entry for entry) gives its largest |lambda|, which is exact.
    Any other A gives lambda_max((|A| + |A|^T) / 2) >= rho(|A|) >= rho(A): the
    Rayleigh quotient at |A|'s nonnegative Perron vector, and Perron-Frobenius.
    Both come from the residual-checked ``spectral._extreme_pairs``, with
    duplicate entries summed first.
    """
    from .spectral import _extreme_pairs  # spectral imports this module

    A = _compact(sparse.csr_array(A, dtype=np.float64, copy=True))
    if A.shape[0] == 0:
        return 0.0
    if not _exactly_symmetric(A):
        A = _symmetric_part(abs(A))
    pairs = _extreme_pairs(A, 1, "LM", tol=1e-10, max_iter=5000, seed=0)
    return float(abs(pairs.values[0]))


def katz_omega_bound(A) -> float:
    """Largest admissible Katz damping, ``KATZ_SAFETY / spectral_radius(A)``
    (inf when that is 0): exact on symmetric input and, since the radius of
    any other A is an upper bound, certified below 1 / rho(A) on digraphs."""
    rho = spectral_radius(A)
    return np.inf if rho == 0.0 else KATZ_SAFETY / rho


def katz_adjacency(A, omega: float) -> sparse.csr_array:
    """Katz path-counting kernel A_w = sum_{l>=1} w^{l-1} A^l = (I - w A)^{-1} A.

    Requires omega below the admissible bound (see :func:`katz_omega_bound`).
    The kernel is one dense LAPACK solve of (I - w A) X = A, symmetrized
    exactly when A == A^T, with no tolerance that the weights' unit could
    meet. omega = 0 returns A itself. The kernel of a connected graph is
    dense, so omega > 0 is refused above ``KATZ_MAX_NODES`` nodes.
    """
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    n = np.shape(A)[0]
    if omega > 0.0 and n > KATZ_MAX_NODES:
        raise ValueError(
            f"Katz kernel on n={n} nodes exceeds the limit of {KATZ_MAX_NODES}: "
            "its output is dense, with up to n^2 nonzeros per slice")
    A = _compact(sparse.csr_array(A, dtype=np.float64, copy=True))
    if omega == 0.0:
        return A.copy()
    bound = katz_omega_bound(A)
    if omega >= bound:
        raise ValueError(
            f"omega={omega} is not below the admissible Katz bound {bound:.6g} "
            "(safety-margined inverse of the radius or, on a digraph, of its upper bound)")
    D = A.toarray()
    K = np.linalg.solve(np.eye(n) - omega * D, D)
    if _exactly_symmetric(A):
        K = 0.5 * (K + K.T)
    return _compact(sparse.csr_array(K))
