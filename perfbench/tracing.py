"""Spans around the public functions of each dynten module, installed from outside.

Each wrapped function is replaced at the name its callers look up (for
example ``dynten.tensors.mttkrp``, which ``_sweep`` resolves as a module
global). A span records (name, start, end, parent id, error type); spans are
kept in memory and written out when the run ends. A span's self time is its
duration minus the time its direct children cover. Calls are single-threaded,
so children never overlap.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int
    start: float
    end: float = 0.0
    error: str = ""


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.count: dict[str, float] = {}
        self.eigs: list = []           # (matrix, EigenPairs) kept for the residual check
        self._patched: list = []

    def add(self, key: str, amount: float = 1.0) -> None:
        self.count[key] = self.count.get(key, 0.0) + amount

    def _wrap(self, fn, name, after):
        tracer = self

        def traced(*args, **kwargs):
            span = Span(len(tracer.spans), name,
                        tracer.stack[-1] if tracer.stack else -1, time.perf_counter())
            tracer.spans.append(span)
            tracer.stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` (a module function or a classmethod) by a traced one."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            bound = getattr(owner, attr)
            setattr(owner, attr, staticmethod(self._wrap(bound, name, after)))
        else:
            setattr(owner, attr, self._wrap(original, name, after))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, covered):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - c)
        return out

    def total_times(self) -> dict[str, float]:
        """Summed inclusive time per span name (spans of one name never nest)."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
        return out

    def dump(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [{"id": s.id, "name": s.name, "parent": s.parent,
                 "start": s.start - t0, "end": s.end - t0, "error": s.error}
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": self.count}, fh)


# ---------------------------------------------------------------------------
# what is traced, and the counts taken at each boundary


def _after_from_slices(tr, args, kwargs, Z):
    tr.add("tensors.nnz", Z.nnz)


def _after_mttkrp(tr, args, kwargs, result):
    Z, factors = args[0], args[1]
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    tr.add("tensors.mttkrp_calls")
    tr.add("tensors.mttkrp_nnz_rank", Z.nnz * factors[0].shape[1])
    if mode == 3:
        span = tr.spans[-1]  # mttkrp has no child spans, so its own is the latest
        tr.add("tensors.mttkrp_mode3_s", span.end - span.start)


def _after_als(tr, args, kwargs, model):
    tr.add("tensors.als_calls")
    tr.add("tensors.sweeps", model.sweeps)
    tr.add("tensors.fit_sum", model.fit)


def _after_eigs(tr, args, kwargs, pairs):
    tr.eigs.append((args[0], pairs))


def _after_sample(tr, args, kwargs, sample):
    tr.add("linkpred.pairs", len(sample))


def _after_stationary(tr, args, kwargs, result):
    tr.add("graphs.stationary_calls")


def _after_radius(tr, args, kwargs, result):
    tr.add("graphs.spectral_radius_calls")


def _after_load(tr, args, kwargs, result):
    tr.add("io.load_calls")


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the imported ``dynten`` package."""
    from dynten import cli, clustering, embed, graphs, io, linkpred, spectral, tensors

    p = tracer.patch
    p(cli, "main", "cli.main")
    p(io, "load_dynamic_network", "io.load", _after_load)
    p(io, "load_embedding_csv", "io.load")
    p(io, "write_embedding_csv", "io.write")
    p(io, "align_snapshots", "graphs.align")
    p(graphs, "stationary_vector", "graphs.stationary", _after_stationary)
    p(embed, "symmetrized_adjacency", "graphs.symmetrized")
    p(graphs, "spectral_radius", "graphs.spectral_radius", _after_radius)
    p(spectral, "spectral_radius", "graphs.spectral_radius", _after_radius)
    for name in ("dynamic_embedding", "adj_last_embedding", "res_last_embedding",
                 "adj_wt_embedding", "res_wt_embedding"):
        p(embed, name, "embed.entry")
    p(embed, "precondition", "embed.precondition")
    p(embed, "convolve_snapshots", "embed.convolve")
    p(tensors.SparseTensor3, "from_slices", "tensors.build", _after_from_slices)
    p(tensors, "initial_factors", "tensors.init")
    p(embed, "cp_als", "tensors.als", _after_als)
    p(embed, "ocp_als", "tensors.als", _after_als)
    p(tensors, "mttkrp", "tensors.mttkrp", _after_mttkrp)
    p(embed, "adjacency_embedding", "spectral.embedding")
    p(embed, "resistance_embedding", "spectral.embedding")
    p(spectral, "top_k_eigs", "spectral.top_k", _after_eigs)
    p(spectral, "bottom_k_eigs", "spectral.bottom_k", _after_eigs)
    p(linkpred, "evaluate_link_prediction", "linkpred.evaluate")
    p(linkpred, "sample_training_set", "linkpred.sample", _after_sample)
    p(linkpred, "cross_validated_scores", "linkpred.cv")
    p(clustering, "kmeans", "clustering.kmeans")
    p(clustering, "assign_clusters", "clustering.kmeans")
    for name in ("anomaly_scores", "suggest_threshold", "classify_anomalies"):
        p(clustering, name, "clustering.anomaly")


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of recording one span, from wrapped against plain no-op calls."""
    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "noop", None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


def check_eigenpairs(tracer: Tracer) -> float:
    """Largest ||M v - lambda v|| / max(1, |lambda|) over the pairs returned
    since the last call; the stored matrices are released."""
    import numpy as np
    from scipy import sparse

    worst = 0.0
    for M, pairs in tracer.eigs:
        M = sparse.csr_array(M, dtype=np.float64)
        R = M @ pairs.vectors - pairs.vectors * pairs.values[None, :]
        rel = np.linalg.norm(R, axis=0) / np.maximum(1.0, np.abs(pairs.values))
        worst = max(worst, float(rel.max()))
    tracer.eigs.clear()
    return worst


# self-time span names behind each per-layer time metric; together they
# partition the time inside ``cli.main``
SELF_METRICS = {
    "cli.self_s": ["cli.main"],
    "io.load_s": ["io.load"],
    "io.write_s": ["io.write"],
    "graphs.align_s": ["graphs.align"],
    "graphs.stationary_s": ["graphs.stationary"],
    "graphs.symmetrized_s": ["graphs.symmetrized"],
    "graphs.spectral_radius_s": ["graphs.spectral_radius"],
    "embed.precondition_s": ["embed.precondition"],
    "embed.convolve_s": ["embed.convolve"],
    "embed.self_s": ["embed.entry"],
    "tensors.build_s": ["tensors.build"],
    "tensors.init_s": ["tensors.init"],
    "tensors.mttkrp_s": ["tensors.mttkrp"],
    "tensors.als_self_s": ["tensors.als"],
    "spectral.top_k_s": ["spectral.top_k"],
    "spectral.bottom_k_s": ["spectral.bottom_k"],
    "spectral.embedding_self_s": ["spectral.embedding"],
    "linkpred.sample_s": ["linkpred.sample"],
    "linkpred.cv_s": ["linkpred.cv"],
    "linkpred.self_s": ["linkpred.evaluate"],
    "clustering.kmeans_s": ["clustering.kmeans"],
    "clustering.anomaly_s": ["clustering.anomaly"],
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values (without the unit) from the spans and counts."""
    self_t = tracer.self_times()
    total_t = tracer.total_times()
    c = tracer.count
    out = {k: sum(self_t.get(n, 0.0) for n in names) for k, names in SELF_METRICS.items()}
    als_calls = c.get("tensors.als_calls", 0.0)
    sweeps = c.get("tensors.sweeps", 0.0)
    nnz_rank = c.get("tensors.mttkrp_nnz_rank", 0.0)
    out.update({
        "io.load_calls": c.get("io.load_calls", 0.0),
        "graphs.stationary_calls": c.get("graphs.stationary_calls", 0.0),
        "graphs.spectral_radius_calls": c.get("graphs.spectral_radius_calls", 0.0),
        "tensors.nnz": c.get("tensors.nnz", 0.0),
        "tensors.als_s": total_t.get("tensors.als", 0.0),
        "tensors.sweeps": sweeps,
        "tensors.sweep_s": total_t.get("tensors.als", 0.0) / sweeps if sweeps else 0.0,
        "tensors.mttkrp_calls": c.get("tensors.mttkrp_calls", 0.0),
        "tensors.mttkrp_mode3_s": c.get("tensors.mttkrp_mode3_s", 0.0),
        "tensors.mttkrp_ns_per_nnz_rank":
            1e9 * self_t.get("tensors.mttkrp", 0.0) / nnz_rank if nnz_rank else 0.0,
        "tensors.fit": c.get("tensors.fit_sum", 0.0) / als_calls if als_calls else 0.0,
        "spectral.calls": float(sum(1 for s in tracer.spans
                                    if s.name in ("spectral.top_k", "spectral.bottom_k"))),
        "spectral.failures": float(sum(1 for s in tracer.spans
                                       if s.name in ("spectral.top_k", "spectral.bottom_k")
                                       and s.error == "ConvergenceError")),
        "linkpred.pairs": c.get("linkpred.pairs", 0.0),
    })
    return out


# unit, direction, and the end-to-end metric and workload each per-layer
# metric should move
PER_LAYER = {
    "cli.self_s": ("s", "lower", "wall_s on small"),
    "cli.commands": ("count", "higher", "none: commands attempted"),
    "cli.failures": ("count", "lower", "auc_mean and ap_mean on spectral (failed commands)"),
    "io.load_s": ("s", "lower", "wall_s on small"),
    "io.load_calls": ("count", "lower", "wall_s on small"),
    "io.write_s": ("s", "lower", "wall_s on small"),
    "graphs.align_s": ("s", "lower", "wall_s on small"),
    "graphs.stationary_s": ("s", "lower", "wall_s on small (directed case)"),
    "graphs.stationary_calls": ("count", "lower", "wall_s on small (directed case)"),
    "graphs.symmetrized_s": ("s", "lower", "wall_s on small (directed case)"),
    "graphs.spectral_radius_s": ("s", "lower", "wall_s on spectral"),
    "graphs.spectral_radius_calls": ("count", "lower", "wall_s on spectral"),
    "embed.precondition_s": ("s", "lower", "wall_s on tensor and spectral, a small share"),
    "embed.convolve_s": ("s", "lower", "wall_s on spectral, a small share"),
    "embed.self_s": ("s", "lower", "wall_s on tensor and spectral, a small share"),
    "tensors.build_s": ("s", "lower", "wall_s on tensor"),
    "tensors.nnz": ("count", "lower", "wall_s on tensor (work size, fixed by the input)"),
    "tensors.init_s": ("s", "lower", "wall_s on tensor"),
    "tensors.als_s": ("s", "lower", "wall_s on tensor and small"),
    "tensors.sweeps": ("count", "lower", "wall_s on tensor and small"),
    "tensors.sweep_s": ("s", "lower", "wall_s on tensor and small"),
    "tensors.mttkrp_s": ("s", "lower", "wall_s and peak_rss_mb on tensor; nothing on spectral"),
    "tensors.mttkrp_calls": ("count", "lower", "wall_s on tensor"),
    "tensors.mttkrp_mode3_s": ("s", "lower", "wall_s and peak_rss_mb on tensor"),
    "tensors.mttkrp_ns_per_nnz_rank": ("ns", "lower", "wall_s on tensor"),
    "tensors.als_self_s": ("s", "lower", "wall_s on small and tensor"),
    "tensors.fit": ("1", "lower", "auc_mean and ap_mean (a result change shows here)"),
    "spectral.top_k_s": ("s", "lower", "wall_s on spectral; zero on tensor"),
    "spectral.bottom_k_s": ("s", "lower", "wall_s and ok_frac on spectral; zero on tensor"),
    "spectral.embedding_self_s": ("s", "lower", "wall_s on spectral"),
    "spectral.calls": ("count", "lower", "wall_s on spectral; zero on tensor"),
    "spectral.failures": ("count", "lower", "ok_frac and auc_mean on spectral; zero on tensor"),
    "spectral.max_rel_residual": ("1", "lower", "none: eigenpair contract check"),
    "linkpred.sample_s": ("s", "lower", "wall_s on small"),
    "linkpred.cv_s": ("s", "lower", "wall_s on small"),
    "linkpred.self_s": ("s", "lower", "wall_s on small"),
    "linkpred.pairs": ("count", "higher", "wall_s on small (work size, fixed by the input)"),
    "clustering.kmeans_s": ("s", "lower", "wall_s on small"),
    "clustering.anomaly_s": ("s", "lower", "wall_s on small"),
    "trace.wall_s": ("s", "lower", "traced wall_s"),
    "trace.self_share": ("ratio", "higher", "none: sum of layer self times over traced wall"),
    "trace.overhead_s": ("s", "lower", "none: measured span cost times spans, per pass"),
}
