#!/usr/bin/env python3
"""Sweep embedding dimension on a real dataset file and report AP/AUC.

Expects the combined edge-list format (t src dst [weight]); the final slice
is held out for evaluation. Every option not set here takes the default of
the ``dynten`` command line. Example:

    python scripts/run_dataset.py data/school.edges --methods dynacpd adj_last \
        --dims 8 16 32 64 128 --pre gaussian --sigma 8
"""

import argparse
import time

from dynten.cli import compute_embedding, resolve_config
from dynten.io import load_dynamic_network
from dynten.linkpred import evaluate_link_prediction, holdout_split


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("data")
    ap.add_argument("--methods", nargs="+", default=["dynacpd", "dynaocpd",
                                                     "adj_last", "res_last"])
    ap.add_argument("--dims", nargs="+", type=int, default=[8, 16, 32, 64, 128])
    ap.add_argument("--pre", default="gaussian")
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--sigma", type=float, default=8.0)
    ap.add_argument("--metric", default="l2", choices=["l2", "hadamard"])
    ap.add_argument("--n-pos", type=int, default=1000)
    ap.add_argument("--directed", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    net = load_dynamic_network(args.data, directed=args.directed)
    print(f"{args.data}: n={net.n} tau={net.tau}")
    train, target, n_links = holdout_split(net)
    n_pos = min(args.n_pos, n_links)

    print(f"{'method':10s} {'d':>4s} {'AP':>7s} {'AUC':>7s} {'secs':>7s}")
    for method in args.methods:
        for d in args.dims:
            cfg = resolve_config({"method": method, "d": d, "pre": args.pre,
                                  "alpha": args.alpha, "sigma": args.sigma,
                                  "seed": args.seed})
            t0 = time.perf_counter()
            emb, _ = compute_embedding(train, cfg)
            rep = evaluate_link_prediction(net, target, emb, args.metric,
                                           n_pos, seed=args.seed)
            dt = time.perf_counter() - t0
            print(f"{method:10s} {d:4d} {rep['AP']:7.4f} {rep['AUC']:7.4f} {dt:7.2f}")


if __name__ == "__main__":
    main()
