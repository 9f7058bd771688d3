"""File formats: snapshot edge lists, embedding CSV, CP model archives.

Edge-list format, one line per edge, whitespace separated, ``#`` comments:

    t src_label dst_label [weight]     (combined file; t non-decreasing)
    src_label dst_label [weight]       (one file per snapshot in a directory)

weight defaults to 1.0. A comment line ``# nodes: a b c`` may declare labels
that should exist even if isolated in every snapshot. Floats are written with
``repr`` so values round-trip exactly.
"""

from __future__ import annotations

import json
import os
from itertools import repeat
from pathlib import Path

import numpy as np
from scipy import sparse

from .graphs import DynamicNetwork, align_snapshots
from .tensors import AlsConfig, CPModel

_NODES_DIRECTIVE = "# nodes:"


def _parse_lines(lines, with_time, where):
    """Edge columns ``(src, dst, weights)`` per slice, and the labels of the
    ``# nodes:`` directives. Without a time column all lines form one slice;
    with one, a new slice starts wherever the time token changes."""
    slices, declared = [], []
    want = (3, 4) if with_time else (2, 3)
    first = 1 if with_time else 0  # column of the source label
    prev = None
    if not with_time:
        src, dst, wgt = [], [], []
        slices.append((src, dst, wgt))
    for ln, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            line = raw.strip()
            if line.startswith(_NODES_DIRECTIVE):
                declared.extend(line[len(_NODES_DIRECTIVE):].split())
            continue
        if len(parts) not in want:
            raise ValueError(f"{where}:{ln}: expected {want} fields, got {len(parts)}")
        try:
            w = float(parts[-1]) if len(parts) == want[1] else 1.0
        except ValueError:
            raise ValueError(f"{where}:{ln}: bad weight {parts[-1]!r}") from None
        if with_time and parts[0] != prev:
            t = parts[0]
            if prev is not None and _time_key(t) < _time_key(prev):
                raise ValueError(f"{where}: time column must be non-decreasing "
                                 f"({t!r} after {prev!r})")
            prev = t
            src, dst, wgt = [], [], []
            slices.append((src, dst, wgt))
        src.append(parts[first])
        dst.append(parts[first + 1])
        wgt.append(w)
    return slices, declared


def load_dynamic_network(path, directed: bool = False) -> DynamicNetwork:
    """Load a combined edge-list file, or a directory of per-snapshot files
    (snapshot order = sorted file names). A file's ``# nodes:`` directive
    declares labels for its own snapshot, or for the first one in a
    combined file."""
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file())
        if not files:
            raise ValueError(f"no snapshot files in {path}")
        per_slice, labels = [], []
        for f in files:
            (edges,), declared = _parse_lines(f.read_text().splitlines(), False, str(f))
            per_slice.append(edges)
            labels.append(declared)
    else:
        per_slice, declared = _parse_lines(path.read_text().splitlines(), True, str(path))
        if not per_slice and not declared:
            raise ValueError(f"{path}: empty dataset")
        per_slice = per_slice or [([], [], [])]
        labels = [declared] + [[]] * (len(per_slice) - 1)
    return align_snapshots(per_slice, snapshot_labels=labels, directed=directed)


def _time_key(token: str):
    try:
        return (0, float(token), token)
    except ValueError:
        return (1, 0.0, token)


def write_dynamic_network(path, net: DynamicNetwork) -> None:
    """Write a combined edge-list file (with a node-list directive so globally
    isolated nodes survive a round trip). An undirected network writes each
    link once, from the upper triangle of its symmetric slices. A slice with
    no links writes one zero-weight self-loop ``t v v 0.0``, which the loader
    drops while keeping the slice, so tau survives as well."""
    labels = np.array([str(lab) for lab in net.labels], dtype=object)
    lines = [_NODES_DIRECTIVE + " " + " ".join(labels)]
    for t, A in enumerate(net.snapshots):
        E = sparse.coo_array(A if net.directed else sparse.triu(A))
        if E.nnz == 0 and labels.size:
            lines.append(f"{t} {labels[0]} {labels[0]} 0.0")
        lines.extend(map(" ".join, zip(repeat(str(t)), labels[E.row], labels[E.col],
                                       map(repr, E.data.tolist()))))
    Path(path).write_text("\n".join(lines) + "\n")


def write_embedding_csv(path, labels, embedding) -> None:
    emb = np.asarray(embedding, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] != len(labels):
        raise ValueError("embedding must be n x d with one row per label")
    header = "node," + ",".join(f"dim_{k}" for k in range(emb.shape[1]))
    lines = [header] + [str(lab) + "," + row for lab, row in zip(labels, _float_rows(emb))]
    Path(path).write_text("\n".join(lines) + "\n")


def load_embedding_csv(path):
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("node,"):
        raise ValueError(f"{path}: not an embedding CSV")
    labels, rows = [], []
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split(",")
        labels.append(parts[0])
        rows.append([float(x) for x in parts[1:]])
    return labels, np.asarray(rows)


def _float_rows(M) -> list:
    """Rows of M as comma-joined float ``repr``s, which round-trip exactly."""
    return [",".join(map(repr, row))
            for row in np.atleast_2d(np.asarray(M, dtype=np.float64)).tolist()]


def _write_matrix_csv(path, M):
    Path(path).write_text("\n".join(_float_rows(M)) + "\n")


def _read_matrix_csv(path):
    rows = [[float(x) for x in line.split(",")]
            for line in Path(path).read_text().splitlines() if line]
    return np.asarray(rows)


def save_cp_model(directory, model: CPModel, config: AlsConfig | None = None) -> None:
    """Persist a decomposition as metadata.json plus one CSV per factor."""
    directory = Path(directory)
    os.makedirs(directory, exist_ok=True)
    meta = {
        "rank": model.rank,
        "dims": list(model.dims),
        "lambdas": [repr(float(x)) for x in model.lambdas],
        "fit": repr(float(model.fit)),
        "sweeps": model.sweeps,
    }
    if config is not None:
        meta["config"] = {
            "rank": config.rank, "max_sweeps": config.max_sweeps,
            "rel_tol": config.rel_tol, "seed": config.seed,
        }
    (directory / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    _write_matrix_csv(directory / "factor_a.csv", model.factor_a)
    _write_matrix_csv(directory / "factor_b.csv", model.factor_b)
    _write_matrix_csv(directory / "factor_c.csv", model.factor_c)


def load_cp_model(directory) -> CPModel:
    directory = Path(directory)
    meta = json.loads((directory / "metadata.json").read_text())
    model = CPModel(
        lambdas=np.asarray([float(x) for x in meta["lambdas"]]),
        factor_a=_read_matrix_csv(directory / "factor_a.csv"),
        factor_b=_read_matrix_csv(directory / "factor_b.csv"),
        factor_c=_read_matrix_csv(directory / "factor_c.csv"),
        fit=float(meta["fit"]),
        sweeps=int(meta.get("sweeps", 0)),
    )
    if list(model.dims) != meta["dims"] or model.rank != meta["rank"]:
        raise ValueError(f"{directory}: metadata does not match factor shapes")
    return model
