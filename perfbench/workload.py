"""One workload in one fresh process: generate inputs, run the CLI commands
in-process, check every output, and write a JSON result file.

Started by ``run.py`` with BLAS pinned to one thread. Usage:

    python3 perfbench/workload.py --workload small --seed 1 --seconds 20 \
        --trace 0 --root . --work .perfbench/tmp --result out.json
"""

from __future__ import annotations

import os

# pin BLAS before numpy is imported (run.py sets these too)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io as _stdio  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

TAU = 8
# a quarter of the CLI's default budget of 200, which this ALS always
# exhausts: every sweep does the same work, so the run measures the same
# kernels in a quarter of the time
TENSOR_SWEEPS = 50
COMMON = ["--pre", "exponential", "--alpha", "1.0", "--seed", "0"]
METHODS = ("dynacpd", "dynaocpd", "adj_last", "res_last", "adj_wt", "res_wt")

# (name, n, directed) of each generated network
NETWORKS = {
    "tensor": [("net0", 1000, False)],
    "spectral": [("net0", 1000, False)],
    "small": [("net0", 100, False), ("net1", 100, False), ("net2", 100, False),
              ("dnet", 200, True)],
}


def linkpred(net, method, d, n_pos, extra=(), tag=""):
    return {"kind": "linkpred", "net": net, "ref": method + tag, "d": d,
            "out": f"{net}-{method}{tag}",
            "argv": ["linkpred", "--method", method, "--d", str(d),
                     "--n-pos", str(n_pos), *COMMON, *extra]}


def commands(workload):
    """The workload's CLI commands, in order."""
    if workload == "tensor":
        return [linkpred("net0", "dynacpd", 16, 1000, ("--sweeps", str(TENSOR_SWEEPS)))]
    if workload == "spectral":
        return [linkpred("net0", m, 16, 1000) for m in ("adj_last", "res_last", "adj_wt", "res_wt")]
    cmds = [linkpred(net, m, 8, 0) for net in ("net0", "net1", "net2") for m in METHODS]
    first = cmds[0]
    cmds.append(dict(first, kind="repeat"))
    cmds.append({"kind": "cluster", "net": "net0", "out": "net0-cluster",
                 "argv": ["cluster", "--method", "dynacpd", "--d", "8", "--k", "2", *COMMON]})
    cmds.append({"kind": "anomaly", "net": "net0", "out": "net0-anomaly",
                 "embedding": first["out"], "argv": ["anomaly", "--k", "2", "--seed", "0"]})
    cmds += [linkpred("dnet", m, 8, 0, ("--directed", "--variant", "symmetrized"), "-sym")
             for m in ("dynacpd", "dynaocpd")]
    return cmds


def argv_for(cmd, data, workdir):
    if cmd["kind"] == "anomaly":
        source = ["--embedding", str(workdir / cmd["embedding"] / "embedding.csv")]
    else:
        source = ["--data", str(data)]
    return [*cmd["argv"], *source, "--out", str(workdir / cmd["out"])]


def run_command(cli, argv):
    """Run one CLI command in-process; returns (seconds, error or None)."""
    sink_out, sink_err = _stdio.StringIO(), _stdio.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            rc = cli.main(argv)
        if rc != 0:
            error = {"type": f"exit {rc}", "message": sink_err.getvalue().strip()[-500:]}
    except Exception as exc:  # a failed command is recorded, never retried
        error = {"type": type(exc).__name__, "message": str(exc)[:500],
                 "traceback": traceback.format_exc()[-2000:]}
    elapsed = time.perf_counter() - t0
    return elapsed, error


def environment(seed):
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(NETWORKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    root, work = Path(args.root).resolve(), Path(args.work).resolve()
    sys.path.insert(0, str(root / "src"))
    work.mkdir(parents=True, exist_ok=True)

    inputs, digests = {}, {}
    for k, (name, n, directed) in enumerate(NETWORKS[args.workload]):
        path = work / f"{name}.edges"
        digests[name] = gen.write_edges(path, n, TAU, [args.seed, n, k, int(directed)],
                                        directed=directed)
        inputs[name] = (path, n)

    from dynten import cli

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    cmds = commands(args.workload)
    walls, failures, aucs, aps, log = [], [], [], [], []
    residual = 0.0
    deadline = time.perf_counter() + args.seconds
    while True:  # whole passes until --seconds have elapsed
        wall = 0.0
        for cmd in cmds:
            path, n = inputs[cmd["net"]]
            outdir = work / cmd["out"]
            before = checks.snapshot(outdir) if cmd["kind"] == "repeat" else None
            elapsed, error = run_command(cli, argv_for(cmd, path, work))
            wall += elapsed
            if tracer is not None:
                residual = max(residual, tracing.check_eigenpairs(tracer))
            if error is None:
                error = checks.check(cmd, outdir, n, reference, before)
            record = {"command": f"{cmd['argv'][0]} {cmd['out']}", "seconds": elapsed}
            if error is not None:
                failures.append({"command": record["command"], **error})
                record["error"] = error["type"]
            elif cmd["kind"] in ("linkpred", "repeat"):
                auc, ap_ = checks.scores(outdir)
                aucs.append(auc)
                aps.append(ap_)
                record.update(AUC=auc, AP=ap_)
            log.append(record)
        walls.append(wall)
        if time.perf_counter() >= deadline:
            break

    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # over the commands that produced a result (chance when none did): the
        # failures are counted in "failed", and scoring them as chance would make
        # these swing with the input-dependent failure count of the spectral solver
        "auc_mean": statistics.fmean(aucs) if aucs else 0.5,
        "ap_mean": statistics.fmean(aps) if aps else 0.5,
    }
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "passes": len(walls),
        "pass_walls_s": walls,
        "attempted": len(log),
        "failed": len(failures),
        "failures": failures,
        "commands": log,
        "inputs_sha256": digests,
        "metrics": metrics,
        "environment": environment(args.seed),
    }
    if tracer is not None:
        tracer.restore()
        tracer.dump(work / "spans.json")
        layers = tracing.layer_metrics(tracer)
        layers.update({
            "cli.commands": len(log),
            "cli.failures": len(failures),
            "spectral.max_rel_residual": residual,
            "trace.wall_s": metrics["wall_s"],
            "trace.self_share": sum(layers[k] for k in tracing.SELF_METRICS) / sum(walls),
            "trace.overhead_s": tracing.span_cost_s() * len(tracer.spans) / len(walls),
        })
        result["layers"] = layers
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
