#!/usr/bin/env python3
"""Held-out link prediction of the embedding methods: one AP / AUC row per
network, method, dimension and separation metric.

Given a combined edge-list file (lines ``t src dst [weight]``) it scores that
network; otherwise a drifting block model (``synth.dynamic_sbm``) and its
density-matched resampled-ER control (``synth.sbm_matched_er`` at seed + 1,
dynacpd only), which should read near chance. The last slice is held out, the
others are embedded by the CLI's ``compute_embedding`` with the ``dynten``
default for every option not set here, and a row's seconds are the
embedding's. ``--json PATH`` also writes the rows with the input, the
software and BLAS setting and the peak RSS. Examples:

    python scripts/bench.py --n 1000 --p-in 0.02 --p-out 0.002 --json BENCH_sbm-n1000.json
    python scripts/bench.py data/school.edges --dims 8 16 32 64 128 --pre gaussian \\
        --metrics l2 --methods dynacpd dynaocpd adj_last res_last
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from dynten.cli import METHODS, compute_embedding, resolve_config
from dynten.io import load_dynamic_network
from dynten.linkpred import holdout_split, link_prediction_report, sample_training_set
from dynten.synth import dynamic_sbm, sbm_matched_er

METRICS = ("l2", "hadamard")
TENSOR_DIAGNOSTICS = ("sweeps", "stop_reason", "fit", "b_angle")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROW = "{:12s} {:9s} {:>4} {:8s} {:>7} {:>7} {:>7}"


def evaluate(name, net, methods, args):
    """The rows of one network, each printed as soon as it is scored, all of one sample."""
    train, target, n_links = holdout_split(net)
    n_pos = min(args.n_pos, n_links) if args.n_pos else n_links
    sample = sample_training_set(net, target, n_pos, args.seed)
    rows = []
    for method in methods:
        for d in args.dims:
            cfg = resolve_config({"method": method, "d": d, "pre": args.pre, "alpha": args.alpha,
                                  "sigma": args.sigma, "seed": args.seed})
            t0 = time.perf_counter()
            emb, diag = compute_embedding(train, cfg)
            seconds = time.perf_counter() - t0
            for metric in args.metrics:
                rep = link_prediction_report(sample, emb, metric)
                rows.append({"network": name, "method": method, "d": d, "metric": metric,
                             "AP": rep["AP"], "AUC": rep["AUC"], "seconds": seconds,
                             "n_pos": n_pos, "protocol": {"metric": metric, "normalize": False,
                                                         "negatives": "uniform"},
                             **{k: diag[k] for k in TENSOR_DIAGNOSTICS if k in diag}})
                print(ROW.format(name, method, d, metric, f"{rep['AP']:.4f}",
                                 f"{rep['AUC']:.4f}", f"{seconds:.2f}"), flush=True)
    return rows


def link_count(text):
    """An ``--n-pos`` value: a count of links, 0 for every held-out link."""
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (0 = every held-out link), not {count}")
    return count


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # NumPy before 1.26 only prints its configuration
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "cpu_count": os.cpu_count()}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("data", nargs="?", help="combined edge-list file (default: a block model)")
    ap.add_argument("--directed", action="store_true", help="read the data file as directed")
    ap.add_argument("--methods", nargs="+", choices=METHODS, default=list(METHODS))
    ap.add_argument("--dims", nargs="+", type=int, default=[16])
    ap.add_argument("--metrics", nargs="+", choices=METRICS, default=list(METRICS))
    ap.add_argument("--pre", default="exponential")
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--sigma", type=float, default=8.0)
    ap.add_argument("--n-pos", type=link_count, default=1000,
                    help="links, and non-links, sampled (at most the held-out links; 0 = all)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds the block model, the embedding and the sampler")
    for flag, typ, default in (("--n", int, 100), ("--tau", int, 8), ("--blocks", int, 2),
                               ("--p-in", float, 0.2), ("--p-out", float, 0.01),
                               ("--drift", float, 0.05)):
        ap.add_argument(flag, type=typ, default=default, help="block model parameter")
    ap.add_argument("--json", metavar="PATH", help="also write the rows and their setting here")
    args = ap.parse_args()

    if args.data:
        source = {"data": args.data, "directed": args.directed,
                  "sha256": hashlib.sha256(Path(args.data).read_bytes()).hexdigest()}
        net = load_dynamic_network(args.data, directed=args.directed)
        networks = [(Path(args.data).stem, net, args.methods)]
    else:
        sbm = {key: getattr(args, key) for key in ("n", "tau", "blocks", "p_in", "p_out")}
        source = {"sbm": {**sbm, "drift": args.drift, "seed": args.seed}}
        networks = [("sbm", dynamic_sbm(**sbm, drift=args.drift, seed=args.seed)[0], args.methods),
                    ("er-control", sbm_matched_er(**sbm, seed=args.seed + 1), ["dynacpd"])]

    print(ROW.format("network", "method", "d", "metric", "AP", "AUC", "secs"))
    rows = [row for name, net, methods in networks for row in evaluate(name, net, methods, args)]
    if args.json:
        record = {"argv": sys.argv, "input": source, "environment": environment(),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "rows": rows}
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
