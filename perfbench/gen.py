"""Seeded drifting two-block SBM edge lists, independent of ``dynten.synth``.

Every slice is marginally a two-block SBM for the current memberships. Per
slice, each node switches block with probability ``drift``; a dyad is redrawn
when either endpoint switched or, at the same rate, by spontaneous churn, and
persists otherwise. The expected (out-)degree is ``degree`` with a within to
cross-block probability ratio of ``ratio``.

Output is the combined edge-list format ``t src dst`` with a ``# nodes:``
directive, so isolated nodes survive loading. The generator uses numpy only,
so changes to ``dynten.synth`` cannot move the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np


def block_probabilities(n: int, degree: float, ratio: float):
    """(p_in, p_out) giving expected degree ``degree`` with two balanced blocks."""
    half = n // 2
    p_out = degree / (ratio * (half - 1) + (n - half))
    return min(1.0, ratio * p_out), min(1.0, p_out)


def drifting_sbm(n: int, tau: int, seed, *, degree: float = 10.0, ratio: float = 9.0,
                 drift: float = 0.05, directed: bool = False):
    """Yield (slice index, src array, dst array) for each of ``tau`` slices."""
    rng = np.random.default_rng(seed)
    if directed:
        src, dst = np.nonzero(~np.eye(n, dtype=bool))
    else:
        src, dst = np.triu_indices(n, k=1)
    p_in, p_out = block_probabilities(n, degree, ratio)
    membership = (np.arange(n) * 2) // n
    present = None
    for t in range(tau):
        if t == 0:
            redraw = np.ones(src.size, dtype=bool)
        else:
            moved = rng.random(n) < drift
            membership = np.where(moved, 1 - membership, membership)
            redraw = moved[src] | moved[dst] | (rng.random(src.size) < drift)
        p = np.where(membership[src] == membership[dst], p_in, p_out)
        fresh = rng.random(src.size) < p
        present = fresh if present is None else np.where(redraw, fresh, present)
        yield t, src[present], dst[present]


def labels(n: int):
    return [f"v{i:04d}" for i in range(n)]


def write_edges(path, n: int, tau: int, seed, **kwargs) -> str:
    """Write one network; returns the sha256 hex digest of the file."""
    names = labels(n)
    lines = ["# nodes: " + " ".join(names)]
    for t, s, d in drifting_sbm(n, tau, seed, **kwargs):
        lines.extend(f"{t} {names[i]} {names[j]}" for i, j in zip(s.tolist(), d.tolist()))
    data = ("\n".join(lines) + "\n").encode()
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()
