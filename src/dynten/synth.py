"""Seeded synthetic dynamic graphs: drifting stochastic block model and an
Erdos-Renyi control with no persistent structure."""

from __future__ import annotations

import numpy as np

from .graphs import DynamicNetwork, stacked_adjacency
from .seeding import derived_rng


def _network(n, iu, ju, picks) -> DynamicNetwork:
    """The undirected network whose slice t links iu[k] and ju[k], with
    weight 1.0, for each k in ``picks[t]``, over the labels v0000, v0001, ..."""
    width = max(4, len(str(n - 1)))
    pick = np.concatenate(picks)
    stack = stacked_adjacency(n, np.cumsum([p.size for p in picks]), iu[pick], ju[pick],
                              None, undirected=True)
    return DynamicNetwork(tuple(f"v{i:0{width}d}" for i in range(n)), stack)


def dynamic_sbm(n: int, tau: int, blocks: int = 2, p_in: float = 0.2,
                p_out: float = 0.01, drift: float = 0.05, seed: int = 0):
    """Drifting stochastic block model with persistent dyads.

    Nodes start in contiguous balanced blocks. Per slice, every node
    independently switches to a uniformly random other block with probability
    ``drift``; a dyad is redrawn (same-block probability p_in, cross-block
    p_out) when either endpoint switched or, at the same ``drift`` rate, by
    spontaneous churn. All other dyads persist from the previous slice, so
    every slice is marginally an SBM for the current memberships. The
    sequence's temporal signal is that dyad persistence. Block switches are
    memoryless, so no method that reads only the history can foresee them,
    nor the links they redraw at the held-out slice.
    Returns the aligned network and the per-slice membership arrays for
    ground-truth checks.
    """
    if n < 2 or tau < 1 or blocks < 1:
        raise ValueError("need n >= 2, tau >= 1, blocks >= 1")
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must be a probability, got {p}")
    if not 0.0 <= drift <= 1.0:
        raise ValueError("drift must be a probability")

    rng = derived_rng(seed, "synth-sbm")
    iu, ju = np.triu_indices(n, k=1)
    membership = (np.arange(n) * blocks) // n
    edges = None
    picks, members = [], []
    for t in range(tau):
        if t == 0:
            redraw = np.ones(iu.size, dtype=bool)
        else:
            moved = np.zeros(n, dtype=bool)
            if drift > 0 and blocks > 1:
                moved = rng.random(n) < drift
                shift = rng.integers(1, blocks, size=n)
                membership = np.where(moved, (membership + shift) % blocks, membership)
            redraw = moved[iu] | moved[ju] | (rng.random(iu.size) < drift)
        same = membership[iu] == membership[ju]
        p = np.where(same, p_in, p_out)
        fresh = rng.random(iu.size) < p
        edges = fresh if edges is None else np.where(redraw, fresh, edges)
        picks.append(np.flatnonzero(edges))
        members.append(membership.copy())
    return _network(n, iu, ju, picks), members


def dynamic_er(n: int, tau: int, p: float, seed: int = 0) -> DynamicNetwork:
    """Erdos-Renyi slices resampled independently every step (no structure)."""
    if n < 2 or tau < 1:
        raise ValueError("need n >= 2 and tau >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    rng = derived_rng(seed, "synth-er")
    iu, ju = np.triu_indices(n, k=1)
    return _network(n, iu, ju, [np.flatnonzero(rng.random(iu.size) < p) for _ in range(tau)])


def sbm_matched_er(n: int, tau: int, blocks: int, p_in: float, p_out: float,
                   seed: int = 0) -> DynamicNetwork:
    """ER control with edge density matched to the block model's expectation."""
    intra = sum((np.arange(n) * blocks // n == b).sum() ** 2 for b in range(blocks))
    intra = (intra - n) / 2.0
    total = n * (n - 1) / 2.0
    p = (p_in * intra + p_out * (total - intra)) / total
    return dynamic_er(n, tau, float(p), seed=seed)
