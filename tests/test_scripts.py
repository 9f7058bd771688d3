"""Smoke runs of scripts/bench.py, in-process with a patched argv, and of the README example."""

import contextlib
import io
import json
import runpy
import sys
from pathlib import Path
from unittest import mock

import pytest

from dynten import linkpred
from dynten.cli import METHODS, main
from dynten.io import load_dynamic_network

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
METRICS = ["l2", "hadamard"]


def run_bench(argv):
    """The whitespace-split rows below the header of an in-process bench.py run."""
    out = io.StringIO()
    with mock.patch.object(sys, "argv", ["bench.py", *argv]), contextlib.redirect_stdout(out):
        runpy.run_path(str(SCRIPTS / "bench.py"), run_name="__main__")
    header, *rows = out.getvalue().splitlines()
    assert header.split() == ["network", "method", "d", "metric", "AP", "AUC", "secs"]
    return [row.split() for row in rows]


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    """The printed rows, the --json record and the sampler's calls of one
    block-model run."""
    path = tmp_path_factory.mktemp("bench") / "sbm.json"
    with mock.patch.object(linkpred, "sample_training_set",
                           wraps=linkpred.sample_training_set) as spy:
        rows = run_bench(["--n", "40", "--tau", "4", "--dims", "4", "--json", str(path)])
    return rows, json.loads(path.read_text()), spy.call_args_list


def test_synthetic_mode_prints_every_method_and_the_control(synthetic):
    rows, _, _ = synthetic
    assert [tuple(r[:4]) for r in rows] == \
        [("sbm", m, "4", metric) for m in METHODS for metric in METRICS] + \
        [("er-control", "dynacpd", "4", metric) for metric in METRICS]


def test_scores_are_in_the_unit_interval(synthetic):
    rows, record, _ = synthetic
    for row in rows:
        assert all(0.0 <= float(x) <= 1.0 for x in row[4:6]), row
    for row in record["rows"]:
        assert 0.0 <= row["AP"] <= 1.0 and 0.0 <= row["AUC"] <= 1.0, row


def test_json_rows_equal_the_printed_rows(synthetic):
    rows, record, _ = synthetic
    assert [[r["network"], r["method"], str(r["d"]), r["metric"], f"{r['AP']:.4f}",
             f"{r['AUC']:.4f}", f"{r['seconds']:.2f}"] for r in record["rows"]] == rows
    assert record["input"] == {"sbm": {"n": 40, "tau": 4, "blocks": 2, "p_in": 0.2,
                                       "p_out": 0.01, "drift": 0.05, "seed": 0}}
    assert record["peak_rss_mb"] > 0 and record["environment"]["cpu_count"] >= 1
    for row in record["rows"]:
        assert row["protocol"] == {"metric": row["metric"], "normalize": False,
                                   "negatives": "uniform"}
        assert ("stop_reason" in row) == (row["method"] in ("dynacpd", "dynaocpd"))


def test_one_sample_per_network(synthetic):
    """The block model and its control are each sampled once, and that
    sample serves all of the network's methods and metrics."""
    _, record, calls = synthetic
    assert len(record["rows"]) == 2 * len(METHODS) + 2
    assert len(calls) == 2 and calls[0].args[0] is not calls[1].args[0]
    assert {(row["network"], row["n_pos"]) for row in record["rows"]} == \
        {("sbm", calls[0].args[2]), ("er-control", calls[1].args[2])}


@pytest.fixture(scope="module")
def edges_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scripts") / "sbm.edges"
    assert main(["synth", "--n", "40", "--tau", "4", "--seed", "2", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("directed", [False, True])
def test_dataset_mode_prints_one_row_per_method_dimension_and_metric(edges_file, directed):
    methods = ["dynacpd", "dynaocpd", "adj_last", "res_wt"]
    argv = [str(edges_file), "--methods", *methods, "--dims", "4", "6", "--n-pos", "50"]
    rows = run_bench(argv + (["--directed"] if directed else []))
    assert [tuple(r[:4]) for r in rows] == \
        [("sbm", m, d, metric) for m in methods for d in ("4", "6") for metric in METRICS]


def test_n_pos_zero_takes_every_held_out_link(edges_file, tmp_path, capsys):
    """As ``dynten linkpred --n-pos 0`` does, the bench samples every link
    of the held-out slice for 0, and argparse refuses a negative count."""
    path = tmp_path / "all.json"
    run_bench([str(edges_file), "--methods", "adj_last", "--dims", "4", "--n-pos", "0",
               "--json", str(path)])
    _, _, n_links = linkpred.holdout_split(load_dynamic_network(edges_file))
    rows = json.loads(path.read_text())["rows"]
    assert len(rows) == len(METRICS) and all(row["n_pos"] == n_links for row in rows)
    with pytest.raises(SystemExit) as refused:
        run_bench([str(edges_file), "--n-pos", "-1"])
    assert refused.value.code == 2
    assert "--n-pos: must be >= 0" in capsys.readouterr().err


def test_readme_library_snippet_runs(capsys):
    """The README's Library example runs as printed."""
    readme = (SCRIPTS.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    shape, fit, n_links = capsys.readouterr().out.rsplit(maxsplit=2)
    assert shape == "(4, 2)" and float(fit) >= 0.0 and int(n_links) > 0
