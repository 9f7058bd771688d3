"""dynten benchmark: drives ``dynten.cli.main`` on generated drifting-SBM inputs.

Run from the repository root:

    python3 perfbench/run.py --workload tensor --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):

    tensor    linkpred dynacpd, n = 1000, d = 16 (rank 32)
    spectral  linkpred adj_last / res_last / adj_wt / res_wt, n = 1000, d = 16
    small     linkpred with all six methods on three n = 100 networks,
              cluster + anomaly, and a directed n = 200 network through the
              symmetrized variant

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
with spans around each layer (``tracing.py``) and prints the per-layer
metrics. The last stdout line is one JSON object with keys correct,
attempted, failed and metrics; ``correct`` is false when an output check
fails, while commands that raise or exit non-zero count in ``failed``. Full
results, including the environment, failures, input digests and spans, land
in ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0  # a run, set-up included, must end within 180 s
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); "
              "from dynten import cli; cli.build_parser()")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
             "auc_mean": "1", "ap_mean": "1"}


def pinned_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("DYNTEN_LOG", None)  # progress logging would add I/O to the timed commands
    return env


def source_identity(root: Path) -> dict:
    """The git commit when there is one, and a digest of the package source."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "dynten").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def measure_setup(root: Path, env) -> list[float]:
    """Wall time of fresh interpreters that import dynten.cli and build its parser."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                       check=True, timeout=60, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_workload(root: Path, work: Path, args, deadline: float, env) -> dict:
    """The workload in a fresh process; returns its result record."""
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(root), "--work", str(work / "run"),
           "--result", str(result)]
    done = subprocess.run(cmd, cwd=root, env=env, timeout=max(1.0, deadline - time.monotonic()),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        raise RuntimeError(f"workload process exited with {done.returncode}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dynten benchmark")
    ap.add_argument("--workload", required=True, choices=("tensor", "spectral", "small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "dynten" / "cli.py").is_file():
        print(f"error: no dynten source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    env = pinned_env()
    out_dir = root / ".perfbench"
    work = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, **source_identity(root)}
        if not args.trace:
            record["setup_samples_s"] = measure_setup(root, env)
        record.update(run_workload(root, work, args, deadline, env))
        if args.trace:
            shutil.copy(work / "run" / "spans.json",
                        out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            record["metrics"]["setup_s"] = statistics.median(record["setup_samples_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    if args.trace:
        import tracing

        metrics = {name: {"value": float(record["layers"][name]), "unit": unit}
                   for name, (unit, _better, _moves) in tracing.PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(record["metrics"][name]), "unit": unit}
                   for name, unit in E2E_UNITS.items()}

    for name, digest in sorted(record["inputs_sha256"].items()):
        print(f"input {name} sha256 {digest}")
    print("environment " + json.dumps({**record["environment"],
                                       "git_commit": record["git_commit"],
                                       "src_sha256": record["src_sha256"]}, sort_keys=True))
    for failure in record["failures"]:
        message = " ".join(failure["message"].split())[:200]
        print(f"FAILED {failure['command']}: {failure['type']}: {message}")
    print(f"fail_frac {record['failed'] / record['attempted']:.4f} "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    checked = [f for f in record["failures"] if f["type"] == "check"]
    print(json.dumps({"correct": not checked, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main())
