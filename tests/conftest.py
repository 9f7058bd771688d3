import numpy as np
import scipy.sparse as sp
from hypothesis import settings

from dynten.graphs import align_snapshots

settings.register_profile("suite", max_examples=40, deadline=None)
settings.load_profile("suite")


def random_connected_graph(n, rng, extra_edges=None, weighted=False):
    """Random spanning tree plus extra edges; returns a symmetric csr adjacency."""
    rows, cols, vals = [], [], []

    def add(i, j, w):
        rows.extend([i, j])
        cols.extend([j, i])
        vals.extend([w, w])

    perm = rng.permutation(n)
    for k in range(1, n):
        i = perm[k]
        j = perm[rng.integers(k)]
        add(int(i), int(j), rng.uniform(0.5, 2.0) if weighted else 1.0)
    m = rng.integers(0, n) if extra_edges is None else extra_edges
    for _ in range(m):
        i, j = rng.integers(n), rng.integers(n)
        if i != j:
            add(int(i), int(j), rng.uniform(0.5, 2.0) if weighted else 1.0)
    A = sp.csr_array((vals, (rows, cols)), shape=(n, n))
    A.sum_duplicates()
    # duplicate accumulation may double weights; clip unweighted back to 1
    if not weighted:
        A.data[:] = 1.0
    return A


def graph_laplacian_dense(A):
    D = np.diag(np.asarray(A.sum(axis=1)).ravel())
    return D - A.toarray()


def bfs_component_count(A):
    """Independent connected-component oracle (plain BFS on the pattern)."""
    n = A.shape[0]
    dense = (abs(A.toarray()) + abs(A.toarray()).T) > 0
    seen = np.zeros(n, dtype=bool)
    comps = 0
    for s in range(n):
        if seen[s]:
            continue
        comps += 1
        stack = [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(dense[u]):
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
    return comps


def align_edge_lists(edge_lists, **kwargs):
    """:func:`align_snapshots` on per-slice lists of (src, dst[, weight]) tuples."""
    columns = [([e[0] for e in edges], [e[1] for e in edges],
                [float(e[2]) if len(e) > 2 else 1.0 for e in edges])
               for edges in edge_lists]
    return align_snapshots(columns, **kwargs)


def entries(A):
    """Stored (row, col, value) triples of a sparse matrix in row-major order."""
    C = sp.coo_array(A)
    return list(zip(C.row.tolist(), C.col.tolist(), C.data.tolist()))
