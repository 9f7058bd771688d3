#!/usr/bin/env python3
"""Benchmark every embedding method on a drifting synthetic block model.

Embeds slices 1..tau-1, predicts the held-out final slice, and prints an
AP/AUC table for both separation metrics, plus a density-matched
resampled-ER control row that should sit at chance level. Every embedding
option not set here takes the default of the ``dynten`` command line.
"""

import argparse
import time

from dynten.cli import METHODS, compute_embedding, resolve_config
from dynten.linkpred import evaluate_link_prediction, holdout_split
from dynten.synth import dynamic_sbm, sbm_matched_er


def evaluate(net, method, args):
    """Embed slices 1..tau-1 with one method; {metric: (AP, AUC)} on the last."""
    train, target, n_links = holdout_split(net)
    cfg = resolve_config({"method": method, "d": args.d, "pre": "exponential",
                          "alpha": args.alpha})
    emb, _ = compute_embedding(train, cfg)
    row = {}
    for metric in ("l2", "hadamard"):
        rep = evaluate_link_prediction(net, target, emb, metric, min(400, n_links), seed=7)
        row[metric] = (rep["AP"], rep["AUC"])
    return row


def format_row(name, row):
    return (f"{name:12s} {row['l2'][0]:7.4f} {row['l2'][1]:7.4f} "
            f"{row['hadamard'][0]:7.4f} {row['hadamard'][1]:8.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--tau", type=int, default=8)
    ap.add_argument("--blocks", type=int, default=2)
    ap.add_argument("--p-in", type=float, default=0.2)
    ap.add_argument("--p-out", type=float, default=0.01)
    ap.add_argument("--drift", type=float, default=0.05)
    ap.add_argument("--d", type=int, default=16)
    ap.add_argument("--alpha", type=float, default=1.0,
                    help="exponential recency rate for weighted methods")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    net, _ = dynamic_sbm(args.n, args.tau, args.blocks, args.p_in, args.p_out,
                         args.drift, seed=args.seed)
    print(f"block model: n={args.n} tau={args.tau} blocks={args.blocks} "
          f"p_in={args.p_in} p_out={args.p_out} drift={args.drift} d={args.d}")
    print(f"{'method':12s} {'L2 AP':>7s} {'L2 AUC':>7s} {'Had AP':>7s} "
          f"{'Had AUC':>8s} {'secs':>6s}")
    for method in METHODS:
        t0 = time.perf_counter()
        row = evaluate(net, method, args)
        print(f"{format_row(method, row)} {time.perf_counter() - t0:6.2f}")

    control = sbm_matched_er(args.n, args.tau, args.blocks, args.p_in,
                             args.p_out, seed=args.seed + 1)
    print(format_row("er-control", evaluate(control, "dynacpd", args)))


if __name__ == "__main__":
    main()
