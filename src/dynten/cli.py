"""Command-line pipeline: synth, embed, linkpred, cluster, anomaly.

Options resolve in three layers: built-in defaults, then a flat ``key = value``
config file (``--config``), then explicit command-line flags. Every run writes
a manifest echoing the fully resolved configuration except the output
directory; with a fixed seed the CSV/JSON outputs are byte-identical across
runs, into the same or another ``--out``, except for the measured
``timing_ms`` field of link-prediction reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .graphs import DynamicNetwork

log = logging.getLogger("dynten")

METHODS = ("dynacpd", "dynaocpd", "adj_last", "res_last", "adj_wt", "res_wt")

_EMBED_OPTS = [
    ("data", str, None, "dataset file or directory of per-snapshot files"),
    ("directed", bool, False, "treat edges as directed"),
    ("method", str, "dynacpd", f"one of {', '.join(METHODS)}"),
    ("d", int, 32, "embedding dimension"),
    ("rank", int, 0, "decomposition rank (0 = min(2 d, cap): n for dynaocpd, n*tau for dynacpd)"),
    ("pre", str, "uniform", "pre-conditioning weights: uniform|exponential|gaussian"),
    ("alpha", float, 1.0, "exponential decay rate"),
    ("sigma", float, 8.0, "gaussian width"),
    ("post", str, "", "post-conditioning weight scheme (default: same as pre)"),
    ("post_alpha", float, 0.0, "exponential rate for post weights (default: alpha)"),
    ("post_sigma", float, 0.0, "gaussian width for post weights (default: sigma)"),
    # variant .. tol default as in DynEmbedConfig and AlsConfig, written out so
    # that parsing a command line loads no NumPy or SciPy (a test pins them)
    ("variant", str, "raw",
     "per-slice adjacency variant of dynacpd / dynaocpd: "
     "raw|symmetrized|katz (the baselines take raw only)"),
    ("omega", float, 0.0, "katz damping (checked against the spectral bound)"),
    ("teleport", float, 1e-3, "teleport epsilon for the symmetrized variant"),
    ("sweeps", int, 200, "ALS sweep budget"),
    ("tol", float, 1e-6, "ALS stops once a sweep changes the relative error by at "
                         "most tol times its value (relative fit-stagnation rule)"),
    ("normalize", bool, False, "scale embedding rows to unit norm"),
    ("seed", int, 0, "master seed for all derived random streams"),
    ("out", str, "out", "output directory"),
]


def _load_net(cfg) -> DynamicNetwork:
    if not cfg.get("data"):
        raise ValueError("--data is required")
    from . import io

    return io.load_dynamic_network(cfg["data"], directed=cfg["directed"])


def compute_embedding(net: DynamicNetwork, cfg: dict):
    """Run the configured method; returns (embedding, diagnostics dict)."""
    import numpy as np

    from . import embed
    from .tensors import AlsConfig

    pre = embed.make_weights(cfg["pre"], net.tau, alpha=cfg["alpha"], sigma=cfg["sigma"])
    post = embed.make_weights(cfg["post"] or cfg["pre"], net.tau,
                              alpha=cfg["post_alpha"] or cfg["alpha"],
                              sigma=cfg["post_sigma"] or cfg["sigma"])
    method = cfg["method"]
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    tensor_method = method in ("dynacpd", "dynaocpd")
    if not tensor_method and cfg["variant"] != "raw":
        raise ValueError(f"{method} reads the plain symmetrization (A + A^T)/2 of each "
                         f"slice and accepts only --variant raw, not {cfg['variant']!r}")
    diag = {"method": method, "pre_weights": [repr(float(x)) for x in pre.values],
            "post_weights": [repr(float(x)) for x in post.values]}
    if tensor_method:
        orthogonal = method == "dynaocpd"
        als = AlsConfig(rank=cfg["rank"] or embed.default_rank(net, cfg["d"], orthogonal),
                        max_sweeps=cfg["sweeps"], rel_tol=cfg["tol"], seed=cfg["seed"])
        dcfg = embed.DynEmbedConfig(
            d=cfg["d"], pre_weights=pre, post_weights=post, als=als,
            orthogonal=orthogonal, adjacency_variant=cfg["variant"],
            katz_omega=cfg["omega"], teleport=cfg["teleport"])
        res = embed.dynamic_embedding(net, dcfg)
        matrix = res.embedding
        diag.update(rank=res.model.rank, fit=repr(float(res.model.fit)),
                    sweeps=res.model.sweeps, stop_reason=res.model.stop_reason,
                    b_angle=repr(res.model.b_angle),
                    sigmas=[repr(float(x)) for x in res.sigmas],
                    selected=[int(k) for k in res.selected])
    elif method == "adj_last":
        matrix = embed.adj_last_embedding(net, cfg["d"], seed=cfg["seed"])
    elif method == "res_last":
        matrix = embed.res_last_embedding(net, cfg["d"], seed=cfg["seed"])
    elif method == "adj_wt":
        matrix = embed.adj_wt_embedding(net, pre, cfg["d"], seed=cfg["seed"])
    else:
        matrix = embed.res_wt_embedding(net, pre, cfg["d"], seed=cfg["seed"])
    if cfg["normalize"]:
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        matrix = matrix / np.where(norms > 0, norms, 1.0)
    return matrix, diag


def _echoed_config(cfg: dict) -> dict:
    """The resolved configuration a manifest records: everything but ``out``,
    so where a run writes does not change what it writes."""
    return {k: v for k, v in sorted(cfg.items()) if k != "out"}


def _write_manifest(outdir: Path, command: str, cfg: dict, net, diag) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": _echoed_config(cfg),
        "n": net.n,
        "tau": net.tau,
        "diagnostics": diag,
    }
    _write_json(outdir / "manifest.json", manifest)


def _write_json(path: Path, obj) -> None:
    """Sorted, indented JSON; a NaN or infinity, which JSON lacks, raises."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def cmd_embed(cfg) -> int:
    net = _load_net(cfg)
    from . import io

    matrix, diag = compute_embedding(net, cfg)
    outdir = Path(cfg["out"])
    os.makedirs(outdir, exist_ok=True)
    io.write_embedding_csv(outdir / "embedding.csv", net.labels, matrix)
    _write_manifest(outdir, "embed", cfg, net, diag)
    log.info("wrote %s", outdir / "embedding.csv")
    return 0


def cmd_linkpred(cfg) -> int:
    # refused before the data is loaded, so no embedding runs for nothing
    if cfg["metric"] not in ("l2", "hadamard"):
        raise ValueError(f"--metric must be l2 or hadamard, not {cfg['metric']!r}")
    if cfg["n_pos"] < 0:
        raise ValueError(f"--n-pos must be >= 0 (0 = every held-out link), not {cfg['n_pos']}")
    if cfg["folds"] < 2:
        raise ValueError(f"--folds must be >= 2, not {cfg['folds']}")
    net = _load_net(cfg)
    from . import io, linkpred

    train, target, n_links = linkpred.holdout_split(net)
    t0 = time.perf_counter()
    matrix, diag = compute_embedding(train, cfg)
    n_pos = min(cfg["n_pos"], n_links) if cfg["n_pos"] else n_links
    report = linkpred.evaluate_link_prediction(
        net, target, matrix, cfg["metric"], n_pos, cfg["seed"], folds=cfg["folds"])
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    outdir = Path(cfg["out"])
    os.makedirs(outdir, exist_ok=True)
    io.write_embedding_csv(outdir / "embedding.csv", net.labels, matrix)
    _write_manifest(outdir, "linkpred", cfg, net, diag)
    payload = {
        "method": cfg["method"],
        "metric": cfg["metric"],
        "normalize": cfg["normalize"],
        "d": cfg["d"],
        "AP": report["AP"],
        "AUC": report["AUC"],
        "cv_auc": report["cv_auc"],
        "n_pos": n_pos,
        "seed": cfg["seed"],
        "timing_ms": elapsed_ms,
    }
    _write_json(outdir / "report.json", payload)
    if cfg["dump_scores"]:
        sample, probs = report["sample"], report["probabilities"]
        lines = ["i,j,separation,probability,label"]
        for (i, j), x, p, y in zip(sample.pairs, report["separations"], probs, sample.labels):
            lines.append(f"{int(i)},{int(j)},{float(x)!r},{float(p)!r},{int(y)}")
        (outdir / "scores.csv").write_text("\n".join(lines) + "\n")
    print(f"{cfg['method']} {cfg['metric']} d={cfg['d']}: "
          f"AP={report['AP']:.4f} AUC={report['AUC']:.4f}")
    return 0


def _cluster_common(cfg):
    if cfg["k"] < 1:
        raise ValueError(f"--k must be >= 1, not {cfg['k']}")
    if cfg.get("embedding"):
        from . import io

        labels, matrix = io.load_embedding_csv(cfg["embedding"])
        diag = None
    else:
        net = _load_net(cfg)
        matrix, diag = compute_embedding(net, cfg)
        labels = [str(l) for l in net.labels]
    from . import clustering

    state = clustering.kmeans(matrix, cfg["k"], seed=cfg["seed"])
    assignments = clustering.assign_clusters(state, matrix)
    scores = clustering.anomaly_scores(state, matrix)
    threshold = cfg["threshold"] if cfg["threshold"] >= 0 else \
        clustering.suggest_threshold(scores)
    flags = clustering.classify_anomalies(scores, threshold)
    return labels, assignments, scores, flags, threshold, diag


def cmd_cluster(cfg, name="clusters.csv") -> int:
    labels, assignments, scores, flags, threshold, diag = _cluster_common(cfg)
    from . import io

    outdir = Path(cfg["out"])
    os.makedirs(outdir, exist_ok=True)
    lines = ["node,cluster,score,anomalous"]
    for lab, c, s, f in zip(labels, assignments, scores, flags):
        lines.append(f"{io.csv_field(str(lab))},{int(c)},{float(s)!r},{str(bool(f)).lower()}")
    (outdir / name).write_text("\n".join(lines) + "\n")
    meta = {"command": name.split(".")[0], "k": cfg["k"], "threshold": repr(float(threshold)),
            "seed": cfg["seed"], "version": __version__,
            "config": _echoed_config(cfg)}
    if diag is not None:
        meta["diagnostics"] = diag
    _write_json(outdir / "manifest.json", meta)
    print(f"k={cfg['k']} threshold={threshold:.6g} anomalous={int(flags.sum())}")
    return 0


def cmd_synth(cfg) -> int:
    from . import io, synth

    if cfg["kind"] == "sbm":
        net, _ = synth.dynamic_sbm(cfg["n"], cfg["tau"], cfg["blocks"],
                                   cfg["p_in"], cfg["p_out"], cfg["drift"],
                                   seed=cfg["seed"])
    elif cfg["kind"] == "er":
        net = synth.dynamic_er(cfg["n"], cfg["tau"], cfg["p"], seed=cfg["seed"])
    else:
        raise ValueError(f"unknown synthetic kind {cfg['kind']!r}")
    io.write_dynamic_network(cfg["out"], net)
    print(f"wrote {cfg['out']}: n={net.n} tau={net.tau}")
    return 0


def read_config_file(path) -> dict:
    """Flat ``key = value`` pairs, # comments, later keys win."""
    values = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _coerce(value, typ):
    if isinstance(value, typ):
        return value
    if typ is bool:
        if str(value).lower() in ("1", "true", "yes", "on"):
            return True
        if str(value).lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {value!r}")
    return typ(value)


def _add_opts(parser, opts):
    for name, typ, default, help_text in opts:
        flag = "--" + name.replace("_", "-")
        if typ is bool:
            parser.add_argument(flag, action="store_true", default=argparse.SUPPRESS,
                                help=help_text)
        else:
            parser.add_argument(flag, type=typ, default=argparse.SUPPRESS,
                                help=f"{help_text} (default: {default})")


def resolve_config(values, opts=_EMBED_OPTS) -> dict:
    """Full run configuration from a plain ``{key: value}`` mapping: defaults
    fill missing keys, unknown keys raise, values are coerced to each
    option's type, and a float option must be finite. ``opts`` defaults to
    the options every embedding run has."""
    cfg = {name: default for name, _typ, default, _h in opts}
    types = {name: typ for name, typ, _d, _h in opts}
    for key, val in values.items():
        if key not in cfg:
            raise ValueError(f"unknown config key {key!r}")
        cfg[key] = _coerce(val, types[key])
    for key, typ in types.items():
        if typ is float and not math.isfinite(cfg[key]):
            raise ValueError(f"{key} must be finite, not {cfg[key]!r}")
    return cfg


def _resolve(args, opts) -> dict:
    """Resolve the config file's values, overridden by the command-line flags."""
    values = read_config_file(args.config) if args.config else {}
    names = {name for name, _typ, _d, _h in opts}
    values.update((key, val) for key, val in vars(args).items() if key in names)
    return resolve_config(values, opts)


_LINKPRED_OPTS = _EMBED_OPTS + [
    ("metric", str, "l2", "separation metric: l2|hadamard"),
    ("n_pos", int, 0, "positives per class (0 = all edges of the held-out slice)"),
    ("folds", int, 5, "stratified cross-validation folds"),
    ("dump_scores", bool, False, "also write scores.csv with per-pair decisions"),
]

_CLUSTER_OPTS = _EMBED_OPTS + [
    ("embedding", str, "", "use an existing embedding.csv instead of embedding"),
    ("k", int, 2, "number of clusters"),
    ("threshold", float, -1.0, "anomaly threshold (-1 = 95th percentile of the scores)"),
]

_SYNTH_OPTS = [
    ("kind", str, "sbm", "generator: sbm|er"),
    ("n", int, 100, "nodes"),
    ("tau", int, 8, "snapshots"),
    ("blocks", int, 2, "SBM blocks"),
    ("p_in", float, 0.2, "within-block link probability"),
    ("p_out", float, 0.01, "cross-block link probability"),
    ("drift", float, 0.05, "per-slice membership switch / dyad churn rate"),
    ("p", float, 0.1, "ER link probability"),
    ("seed", int, 0, "generator seed"),
    ("out", str, "synthetic.edges", "output edge-list file"),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynten",
        description="dynamic-network embeddings via sparse tensor decompositions")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, opts, fn in (("embed", _EMBED_OPTS, cmd_embed),
                           ("linkpred", _LINKPRED_OPTS, cmd_linkpred),
                           ("cluster", _CLUSTER_OPTS, cmd_cluster),
                           ("anomaly", _CLUSTER_OPTS,
                            functools.partial(cmd_cluster, name="anomalies.csv")),
                           ("synth", _SYNTH_OPTS, cmd_synth)):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="flat key = value config file; flags override it")
        _add_opts(p, opts)
        p.set_defaults(_opts=opts, _fn=fn)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """This process's parser, built on first use: parsing leaves no state in it
    (every option defaults to SUPPRESS and each parse fills a new namespace)."""
    return build_parser()


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("DYNTEN_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve(args, args._opts)
        return args._fn(cfg)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        if isinstance(exc, RuntimeError) and not isinstance(exc, _solver_errors()):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _solver_errors() -> tuple:
    """The solver failures ``main`` reports as errors. Only a command that ran
    the solvers raises one, so their modules are loaded by then."""
    from .graphs import ConvergenceError
    from .tensors import DecompositionError

    return ConvergenceError, DecompositionError


if __name__ == "__main__":
    sys.exit(main())
