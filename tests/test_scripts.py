"""Smoke runs of the scripts under scripts/, in-process with a patched argv."""

import runpy
import sys
from pathlib import Path

import pytest

from dynten.cli import METHODS, main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def table_rows(lines):
    """The whitespace-split rows below the table's header line."""
    header = next(k for k, line in enumerate(lines) if line.startswith("method"))
    return [line.split() for line in lines[header + 1:]]


def test_sbm_benchmark_prints_every_method(monkeypatch, capsys):
    lines = run_script("run_sbm_benchmark.py", ["--n", "40", "--tau", "4", "--d", "4"],
                       monkeypatch, capsys)
    rows = table_rows(lines)
    assert [r[0] for r in rows] == [*METHODS, "er-control"]
    for row in rows:
        scores = [float(x) for x in row[1:5]]
        assert all(0.0 <= x <= 1.0 for x in scores), row
    assert all(len(r) == 6 for r in rows[:-1]) and len(rows[-1]) == 5


@pytest.fixture(scope="module")
def edges_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scripts") / "sbm.edges"
    assert main(["synth", "--n", "40", "--tau", "4", "--seed", "2", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("directed", [False, True])
def test_dataset_sweep_prints_method_rows(edges_file, directed, monkeypatch, capsys):
    methods = ["dynacpd", "dynaocpd", "adj_last", "res_wt"]
    argv = [str(edges_file), "--methods", *methods, "--dims", "4", "--n-pos", "50"]
    lines = run_script("run_dataset.py", argv + (["--directed"] if directed else []),
                       monkeypatch, capsys)
    assert lines[0] == f"{edges_file}: n=40 tau=4"
    rows = table_rows(lines)
    assert [(r[0], r[1]) for r in rows] == [(m, "4") for m in methods]
    for row in rows:
        assert all(0.0 <= float(x) <= 1.0 for x in row[2:4]), row


def test_readme_library_snippet_runs(capsys):
    """The README's Library example runs as printed."""
    readme = (SCRIPTS.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    shape, fit, n_links = capsys.readouterr().out.rsplit(maxsplit=2)
    assert shape == "(4, 2)" and float(fit) >= 0.0 and int(n_links) > 0
