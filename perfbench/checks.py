"""Output checks for the benchmark's CLI commands.

Each check returns None when the outputs are valid, or a failure record
``{"type": "check", "message": ...}``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

DETERMINISTIC = ("embedding.csv", "manifest.json")


def _fail(message):
    return {"type": "check", "message": message}


def snapshot(outdir: Path) -> dict:
    """Bytes of the outputs covered by the byte-identical contract."""
    return {name: (outdir / name).read_bytes() for name in DETERMINISTIC
            if (outdir / name).exists()}


def scores(outdir: Path):
    report = json.loads((outdir / "report.json").read_text())
    return float(report["AUC"]), float(report["AP"])


def _embedding(path: Path, n: int, d: int):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = ["node"] + [f"dim_{k}" for k in range(d)]
    if rows[0] != header:
        return f"{path.name}: header {rows[0][:3]}... is not node,dim_0..dim_{d - 1}"
    if len(rows) - 1 != n:
        return f"{path.name}: {len(rows) - 1} rows, expected {n}"
    for row in rows[1:]:
        if len(row) != d + 1 or not all(math.isfinite(float(x)) for x in row[1:]):
            return f"{path.name}: row {row[0]} is not {d} finite values"
    return None


def _linkpred(cmd, outdir: Path, n: int, reference: dict):
    report = json.loads((outdir / "report.json").read_text())
    for key in ("AUC", "AP"):
        value = report.get(key)
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            return f"report.json {key}={value!r} is not a finite value in [0, 1]"
    problem = _embedding(outdir / "embedding.csv", n, cmd["d"])
    if problem:
        return problem
    manifest = json.loads((outdir / "manifest.json").read_text())
    if manifest.get("command") != "linkpred" or manifest.get("n") != n:
        return "manifest.json does not describe this linkpred run"
    ref = reference[cmd["ref"]]
    for key in ("AUC", "AP"):
        if abs(report[key] - ref[key]) > ref["tol"]:
            return (f"{key}={report[key]:.4f} is outside the reference "
                    f"{ref[key]:.4f} +- {ref['tol']}")
    return None


def _clusters(path: Path, n: int, k: int):
    manifest = json.loads((path.parent / "manifest.json").read_text())
    threshold = float(manifest["threshold"])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["node", "cluster", "score", "anomalous"] or len(rows) - 1 != n:
        return f"{path.name}: bad header or {len(rows) - 1} rows, expected {n}"
    used = set()
    for node, cluster, score, flag in rows[1:]:
        s = float(score)
        if int(cluster) not in range(k) or not math.isfinite(s) or s < 0:
            return f"{path.name}: row {node} has cluster {cluster}, score {score}"
        if flag != str(s > threshold).lower():
            return f"{path.name}: row {node} flag {flag} disagrees with threshold {threshold}"
        used.add(int(cluster))
    if len(used) != k:
        return f"{path.name}: only clusters {sorted(used)} of {k} are used"
    return None


def check(cmd, outdir: Path, n: int, reference: dict, before: dict | None):
    """Validate one successful command's outputs."""
    try:
        if cmd["kind"] == "cluster":
            problem = _clusters(outdir / "clusters.csv", n, 2)
        elif cmd["kind"] == "anomaly":
            problem = _clusters(outdir / "anomalies.csv", n, 2)
        else:
            problem = _linkpred(cmd, outdir, n, reference)
            if problem is None and cmd["kind"] == "repeat":
                after = snapshot(outdir)
                changed = [f for f in DETERMINISTIC if before.get(f) != after.get(f)]
                if changed:
                    problem = f"rerun changed {', '.join(changed)}"
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problem = f"unreadable output: {type(exc).__name__}: {exc}"
    return None if problem is None else _fail(problem)
