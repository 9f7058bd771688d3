import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import dynten
from dynten import cli
from dynten.cli import main, resolve_config
from dynten.embed import DynEmbedConfig
from dynten.io import load_dynamic_network, load_embedding_csv
from dynten.tensors import AlsConfig


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sbm.edges"
    rc = main(["synth", "--kind", "sbm", "--n", "40", "--tau", "4",
               "--seed", "3", "--out", str(path)])
    assert rc == 0
    return path


def test_synth_reproducible(tmp_path):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    assert main(["synth", "--n", "30", "--tau", "3", "--seed", "5", "--out", str(a)]) == 0
    assert main(["synth", "--n", "30", "--tau", "3", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    net = load_dynamic_network(a)
    assert net.n == 30 and net.tau == 3


@pytest.mark.parametrize("args, digest", [
    ("--n 40 --tau 4", "4f7f2bc2e683af3b3930b17dc501b26dce2745a2e36e0482c49bc78e2ecee5f5"),
    ("--n 40 --tau 4 --seed 3",
     "6582774a4d50c8304bf65f2caf2465cc1dbd625ab942f8f3c8adcf0b9f8cf4dc"),
    ("--n 300 --tau 6 --seed 1",
     "2003a85c048e4053f4ca917083b0faaa66410ea65e82ef5d33368d98631b95b4"),
    ("--kind er --n 40 --tau 4 --p 0.1",
     "ce6db677e8164c11fbbd90fefbe41afff28de4002871e9f100f01638be6c1f7f")])
def test_synth_writes_pinned_bytes(tmp_path, args, digest):
    """``dynten synth`` writes the same file for the same arguments from one
    version to the next: a change to the sampler must change these digests
    on purpose."""
    path = tmp_path / "s.edges"
    assert main(["synth", *args.split(), "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_synth_er(tmp_path):
    path = tmp_path / "er.edges"
    assert main(["synth", "--kind", "er", "--n", "20", "--tau", "2",
                 "--p", "0.2", "--out", str(path)]) == 0
    assert load_dynamic_network(path).tau == 2


def test_embed_writes_outputs(dataset, tmp_path):
    out = tmp_path / "run"
    rc = main(["embed", "--data", str(dataset), "--method", "dynacpd",
               "--d", "6", "--out", str(out)])
    assert rc == 0
    labels, emb = load_embedding_csv(out / "embedding.csv")
    assert emb.shape == (40, 6)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["method"] == "dynacpd"
    assert manifest["config"]["d"] == 6
    assert manifest["n"] == 40 and manifest["tau"] == 4
    assert manifest["config"]["tol"] == 1e-6
    assert_als_diagnostics(manifest["diagnostics"])


def assert_als_diagnostics(diag):
    assert {"fit", "sweeps", "stop_reason", "b_angle"} <= diag.keys()
    assert diag["stop_reason"] in ("tol", "floor", "budget", "rejected")
    assert 0.0 <= float(diag["b_angle"]) <= np.pi / 2


def test_embed_every_method(dataset, tmp_path):
    for method in ("dynaocpd", "adj_last", "res_last", "adj_wt", "res_wt"):
        out = tmp_path / method
        rc = main(["embed", "--data", str(dataset), "--method", method,
                   "--d", "4", "--out", str(out)])
        assert rc == 0, method
        _, emb = load_embedding_csv(out / "embedding.csv")
        assert emb.shape == (40, 4)
        if method == "dynaocpd":
            assert_als_diagnostics(json.loads((out / "manifest.json").read_text())["diagnostics"])


def test_embed_normalize_rows(dataset, tmp_path):
    out = tmp_path / "unit"
    assert main(["embed", "--data", str(dataset), "--method", "adj_last",
                 "--d", "4", "--normalize", "--out", str(out)]) == 0
    _, emb = load_embedding_csv(out / "embedding.csv")
    norms = np.linalg.norm(emb, axis=1)
    assert np.abs(norms[norms > 0] - 1.0).max() < 1e-12


def test_deterministic_outputs(dataset, tmp_path):
    out = tmp_path / "same"
    args = ["embed", "--data", str(dataset), "--method", "dynacpd",
            "--d", "5", "--seed", "11", "--out", str(out)]
    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(args) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
    other = tmp_path / "other"
    assert main(args[:-1] + [str(other)]) == 0
    third = {p.name: p.read_bytes() for p in other.iterdir()}
    assert first == third
    for name in ("c1", "c2"):
        assert main(["anomaly", "--embedding", str(out / "embedding.csv"), "--k", "2",
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "c1" / "manifest.json").read_bytes() == \
        (tmp_path / "c2" / "manifest.json").read_bytes()


def test_linkpred_report(dataset, tmp_path, capsys):
    out = tmp_path / "lp"
    rc = main(["linkpred", "--data", str(dataset), "--method", "dynacpd",
               "--d", "6", "--pre", "exponential", "--alpha", "1.0",
               "--metric", "l2", "--out", str(out), "--dump-scores"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("method", "metric", "normalize", "d", "AP", "AUC", "seed", "timing_ms"):
        assert key in report
    assert 0.0 <= report["AP"] <= 1.0 and 0.0 <= report["AUC"] <= 1.0
    lines = (out / "scores.csv").read_text().splitlines()
    assert lines[0] == "i,j,separation,probability,label"
    assert len(lines) == 2 * report["n_pos"] + 1


def test_linkpred_needs_two_slices(tmp_path):
    path = tmp_path / "one.edges"
    path.write_text("0 a b\n")
    rc = main(["linkpred", "--data", str(path), "--d", "1", "--out", str(tmp_path / "o")])
    assert rc == 1


def test_linkpred_empty_held_out_slice_fails_before_embedding(tmp_path, capsys):
    path = tmp_path / "x.edges"
    path.write_text("0 a b\n0 b c\n0 c d\n1 a c\n1 b d\n2 a a\n")
    out = tmp_path / "o"
    rc = main(["linkpred", "--data", str(path), "--method", "adj_last",
               "--d", "2", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "held-out slice 2" in err and "no links" in err
    assert not out.exists()


def test_resolve_config_fills_defaults_and_coerces():
    cfg = resolve_config({"method": "dynaocpd", "d": "8", "normalize": "true",
                          "alpha": 2})
    assert cfg["method"] == "dynaocpd"
    assert cfg["d"] == 8 and cfg["normalize"] is True
    assert cfg["alpha"] == 2.0 and isinstance(cfg["alpha"], float)
    assert cfg["rank"] == 0 and cfg["pre"] == "uniform" and cfg["sweeps"] == 200
    assert resolve_config({}) == resolve_config({"d": 32})


def test_resolve_config_rejects_unknown_and_bad_values():
    with pytest.raises(ValueError, match="unknown config key"):
        resolve_config({"no_such_option": 1})
    with pytest.raises(ValueError, match="not a boolean"):
        resolve_config({"directed": "maybe"})
    with pytest.raises(ValueError):
        resolve_config({"d": "eight"})


@pytest.mark.parametrize("argv", [["embed", "--tol", "nan"],
                                  ["cluster", "--threshold", "nan"],
                                  ["linkpred", "--variant", "katz", "--omega", "inf"]],
                         ids=["tol", "threshold", "omega"])
def test_non_finite_flag_is_an_error_before_loading(dataset, tmp_path, capsys, argv):
    with mock.patch.object(cli, "_load_net", side_effect=AssertionError("data loaded")):
        rc = main([*argv, "--data", str(dataset), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, option", [
    (["linkpred", "--metric", "foo"], "--metric"), (["linkpred", "--n-pos", "-1"], "--n-pos"),
    (["linkpred", "--folds", "0"], "--folds"), (["linkpred", "--folds", "1"], "--folds"),
    (["cluster", "--k", "0"], "--k"), (["anomaly", "--k", "-2"], "--k")],
    ids=["metric", "n_pos", "folds0", "folds1", "cluster_k", "anomaly_k"])
def test_bad_evaluation_option_is_an_error_before_loading(dataset, tmp_path, capsys,
                                                          argv, option):
    with mock.patch("dynten.io.load_dynamic_network") as load:
        rc = main([*argv, "--data", str(dataset), "--out", str(tmp_path / "o")])
    assert rc == 1 and not load.called
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} must be ")
    assert not (tmp_path / "o").exists()


def test_non_finite_config_value_is_an_error_before_loading(dataset, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = dynacpd\nteleport = -inf\n")
    with mock.patch.object(cli, "_load_net", side_effect=AssertionError("data loaded")):
        rc = main(["linkpred", "--data", str(dataset), "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: teleport must be finite")
    assert not (tmp_path / "o").exists()


def test_invalid_katz_omega_fails_with_bound(dataset, tmp_path, capsys):
    rc = main(["embed", "--data", str(dataset), "--method", "dynacpd",
               "--d", "4", "--variant", "katz", "--omega", "99.0",
               "--out", str(tmp_path / "k")])
    assert rc == 1
    assert "bound" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["adj_last", "res_last", "adj_wt", "res_wt"])
def test_baselines_reject_slice_variants(dataset, tmp_path, capsys, method):
    for variant in ("symmetrized", "katz", "bogus"):
        out = tmp_path / variant
        rc = main(["linkpred", "--data", str(dataset), "--method", method, "--d", "4",
                   "--directed", "--variant", variant, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert method in err and "(A + A^T)/2" in err and repr(variant) in err
        assert not out.exists()


def test_comma_labels_survive_embed_and_anomaly(tmp_path):
    path = tmp_path / "commas.edges"
    path.write_text("# nodes: a,1 b c,\"d\"\n0 a,1 b\n0 b c,\"d\"\n1 a,1 c,\"d\"\n1 a,1 b\n")
    assert main(["embed", "--data", str(path), "--method", "adj_wt", "--d", "1",
                 "--out", str(tmp_path / "e")]) == 0
    labels, emb = load_embedding_csv(tmp_path / "e" / "embedding.csv")
    assert labels == ["a,1", "b", 'c,"d"'] and emb.shape == (3, 1)
    assert main(["anomaly", "--embedding", str(tmp_path / "e" / "embedding.csv"),
                 "--k", "1", "--out", str(tmp_path / "a")]) == 0
    with open(tmp_path / "a" / "anomalies.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows] == ["node"] + labels
    assert all(len(row) == 4 for row in rows)


def test_cluster_and_anomaly(dataset, tmp_path):
    out = tmp_path / "cl"
    rc = main(["cluster", "--data", str(dataset), "--method", "dynacpd",
               "--d", "6", "--k", "2", "--out", str(out)])
    assert rc == 0
    lines = (out / "clusters.csv").read_text().splitlines()
    assert lines[0] == "node,cluster,score,anomalous"
    assert len(lines) == 41
    assert_als_diagnostics(json.loads((out / "manifest.json").read_text())["diagnostics"])
    # clusters.csv is not an embedding; must fail cleanly
    rc = main(["anomaly", "--embedding", str(out / "clusters.csv"),
               "--k", "1", "--out", str(tmp_path / "an")])
    assert rc == 1


def test_anomaly_from_embedding(dataset, tmp_path):
    emb_dir = tmp_path / "emb"
    assert main(["embed", "--data", str(dataset), "--method", "adj_last",
                 "--d", "4", "--out", str(emb_dir)]) == 0
    out = tmp_path / "anom"
    rc = main(["anomaly", "--embedding", str(emb_dir / "embedding.csv"),
               "--k", "2", "--threshold", "0.0", "--out", str(out)])
    assert rc == 0
    lines = (out / "anomalies.csv").read_text().splitlines()
    assert len(lines) == 41
    assert all(line.endswith(("true", "false")) for line in lines[1:])


def test_config_file_layering(dataset, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = dynaocpd\nd = 3\nseed = 4\n")
    out = tmp_path / "cfgout"
    rc = main(["embed", "--data", str(dataset), "--config", str(cfg),
               "--d", "5", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["method"] == "dynaocpd"  # from file
    assert manifest["config"]["d"] == 5                # flag overrides file
    assert manifest["config"]["seed"] == 4


def test_unknown_config_key(dataset, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_option = 1\n")
    rc = main(["embed", "--data", str(dataset), "--config", str(cfg),
               "--out", str(tmp_path / "x")])
    assert rc == 1


def test_missing_data_is_an_error(tmp_path):
    rc = main(["embed", "--data", str(tmp_path / "nope.edges"),
               "--out", str(tmp_path / "o")])
    assert rc == 1


def test_cluster_recovers_blocks(tmp_path):
    data = tmp_path / "blocks.edges"
    assert main(["synth", "--n", "60", "--tau", "6", "--blocks", "2",
                 "--p-in", "0.25", "--p-out", "0.01", "--drift", "0.02",
                 "--seed", "1", "--out", str(data)]) == 0
    out = tmp_path / "cl"
    assert main(["cluster", "--data", str(data), "--method", "dynacpd",
                 "--d", "8", "--pre", "exponential", "--alpha", "1.0",
                 "--k", "2", "--out", str(out)]) == 0
    lines = (out / "clusters.csv").read_text().splitlines()[1:]
    got = np.array([int(line.split(",")[1]) for line in lines])
    truth = (np.arange(60) * 2) // 60  # labels sort in index order
    agree = max((got == truth).mean(), (got != truth).mean())
    assert agree >= 0.9


def test_linkpred_deterministic_modulo_timing(dataset, tmp_path):
    out = tmp_path / "lp2"
    args = ["linkpred", "--data", str(dataset), "--method", "adj_last",
            "--d", "5", "--seed", "2", "--out", str(out), "--dump-scores"]
    assert main(args) == 0
    emb1 = (out / "embedding.csv").read_bytes()
    scores1 = (out / "scores.csv").read_bytes()
    rep1 = json.loads((out / "report.json").read_text())
    assert main(args) == 0
    assert (out / "embedding.csv").read_bytes() == emb1
    assert (out / "scores.csv").read_bytes() == scores1
    rep2 = json.loads((out / "report.json").read_text())
    rep1.pop("timing_ms"), rep2.pop("timing_ms")
    assert rep1 == rep2


def fresh_interpreter_outputs(argv):
    """Every output file of one command run by a new interpreter, as bytes,
    with ``timing_ms`` taken out of report.json."""
    env = dict(os.environ, PYTHONPATH=str(Path(dynten.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c",
                           "import sys; from dynten.cli import main; sys.exit(main(sys.argv[1:]))",
                           *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return run_outputs(Path(argv[argv.index("--out") + 1]))


def run_outputs(out):
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    if "report.json" in files:
        report = json.loads(files["report.json"])
        del report["timing_ms"]
        files["report.json"] = report
    return files


def test_reused_parser_leaks_no_state(dataset, tmp_path, capsys):
    """One parser serves every main() call of a process. Flags given to one
    call do not reach the next, a failed parse changes nothing, and each run
    writes what a new interpreter writes for the same command."""
    def run(name, *flags, command="linkpred"):
        argv = [command, "--data", str(dataset), "--method", "adj_last", "--d", "3",
                *flags, "--out", str(tmp_path / name)]
        assert main(argv) == 0
        return argv

    cli._parser.cache_clear()
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as build:
        runs = {"flags": run("flags", "--metric", "hadamard", "--folds", "3"),
                "plain": run("plain"),
                "embed": run("embed", command="embed")}
        with pytest.raises(SystemExit) as bad:
            main(["linkpred", "--no-such-flag"])
        assert bad.value.code == 2
        with pytest.raises(SystemExit) as shown:
            main(["linkpred", "--help"])
        assert shown.value.code == 0
        runs["again"] = run("again")
    capsys.readouterr()
    assert build.call_count == 1
    for name in ("plain", "again"):
        config = json.loads((tmp_path / name / "manifest.json").read_text())["config"]
        assert (config["metric"], config["folds"]) == ("l2", 5)
    for name, argv in runs.items():
        fresh = argv[:-1] + [str(tmp_path / f"fresh-{name}")]
        assert run_outputs(tmp_path / name) == fresh_interpreter_outputs(fresh), name


def test_import_loads_no_numpy_or_scipy():
    """Importing the package, building the parser, printing the version and
    refusing a command without --data load no NumPy or SciPy module; a
    command loads them when it runs."""
    code = """
import sys

def compute_stack():
    return sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy"))

import dynten
print(compute_stack())
from dynten import cli
cli.build_parser()
print(compute_stack())
try:
    cli.main(["--version"])
except SystemExit as exc:
    print(exc.code)
print(compute_stack())
print(cli.main(["linkpred"]))
print(compute_stack())
"""
    env = dict(os.environ, PYTHONPATH=str(Path(dynten.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.splitlines() == ["[]", "[]", "0.1.0", "0", "[]", "1", "[]"]
    assert done.stderr == "error: --data is required\n"


def loaded_modules(modules, argv):
    """Which of ``modules`` are in ``sys.modules`` after ``main(argv)``
    succeeds in a new interpreter."""
    code = f"""
import json, sys
from dynten.cli import main
assert main(sys.argv[1:]) == 0
print(json.dumps(sorted(set({list(modules)!r}) & sys.modules.keys())))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(dynten.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_linkpred_loads_no_special_functions(dataset, tmp_path):
    """``linkpred`` with every method, each in a new interpreter, leaves
    ``scipy.special`` unloaded: the classifier's logistic is NumPy's."""
    for method in cli.METHODS:
        argv = ["linkpred", "--data", str(dataset), "--method", method, "--d", "3",
                "--out", str(tmp_path / method)]
        assert not loaded_modules(["scipy.special"], argv), method


SOLVER_MODULES = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")


def test_only_component_counts_load_the_graph_module(dataset, tmp_path):
    """``scipy.sparse.csgraph`` is loaded only where strong components are
    counted (``graphs.stationary_vector`` on a strict chain, which the CLI
    never asks for), and SciPy's linear algebra only where ARPACK runs. At
    n <= DENSE_MAX_N every eigenproblem is a dense NumPy ``eigh``, the weak
    components come from ``graphs.connected_components`` and ``b_angle``
    from NumPy, so ``linkpred`` with every method, ``embed``, ``cluster`` and
    ``anomaly``, each in a new interpreter, leave SciPy's linear algebra
    (``scipy.linalg``, ``scipy.sparse.linalg``) and ``scipy.sparse.csgraph``
    unloaded."""
    source = ["--data", str(dataset)]
    embedding = tmp_path / "e" / "embedding.csv"
    assert main(["embed", *source, "--d", "3", "--out", str(embedding.parent)]) == 0
    runs = [["linkpred", "--method", method, *source, "--d", "3"] for method in cli.METHODS]
    runs += [["embed", "--method", "dynacpd", *source, "--d", "3"],
             ["cluster", "--method", "dynacpd", *source, "--d", "3", "--k", "2"],
             ["anomaly", "--embedding", str(embedding), "--k", "2"]]
    for k, argv in enumerate(runs):
        assert loaded_modules(SOLVER_MODULES, argv + ["--out", str(tmp_path / str(k))]) == [], argv


def test_arpack_runs_load_sparse_linalg(tmp_path):
    """The positive control: above DENSE_MAX_N the adjacency baseline runs
    ARPACK, which loads ``scipy.sparse.linalg``."""
    data = tmp_path / "s500.edges"
    assert main(["synth", "--n", "500", "--tau", "2", "--out", str(data)]) == 0
    argv = ["linkpred", "--method", "adj_last", "--data", str(data), "--d", "3",
            "--out", str(tmp_path / "run")]
    assert "scipy.sparse.linalg" in loaded_modules(SOLVER_MODULES, argv)


def periodic_edges(tmp_path, weight=""):
    """Three slices of the chain 0 -> 1, 1 -> 0, 2 -> 0, whose closed class
    {0, 1} has period 2."""
    path = tmp_path / "periodic.edges"
    path.write_text("".join(f"{t} 0 1{weight}\n{t} 1 0{weight}\n{t} 2 0{weight}\n"
                            for t in range(3)))
    return path


def test_solver_failure_is_an_error_not_a_traceback(tmp_path, capsys):
    # the squared entries underflow, so the tensor norm reads 0 and ALS gives up
    path = periodic_edges(tmp_path, " 1e-200")
    for method in ("dynacpd", "dynaocpd"):
        rc = main(["linkpred", "--data", str(path), "--directed", "--variant", "symmetrized",
                   "--method", method, "--d", "1", "--out", str(tmp_path / method)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the norm of a tensor with 8 nonzero entries underflows to 0")
        assert "Traceback" not in err


def test_periodic_chain_with_teleport_converges(tmp_path):
    # the lazy teleport chain converges on the periodic closed class
    out = tmp_path / "o"
    rc = main(["linkpred", "--data", str(periodic_edges(tmp_path)), "--directed",
               "--variant", "symmetrized", "--d", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert all(np.isfinite(report[key]) for key in ("AUC", "AP", "cv_auc"))
    assert np.isfinite(load_embedding_csv(out / "embedding.csv")[1]).all()


def test_cli_defaults_are_the_library_defaults():
    cfg = resolve_config({})
    assert (cfg["variant"], cfg["omega"], cfg["teleport"]) == (
        DynEmbedConfig.adjacency_variant, DynEmbedConfig.katz_omega, DynEmbedConfig.teleport)
    assert (cfg["sweeps"], cfg["tol"]) == (AlsConfig.max_sweeps, AlsConfig.rel_tol)


@pytest.mark.parametrize("method", [
    pytest.param(method, marks=pytest.mark.xfail(strict=True, reason=(
        "ALS starts from lam = np.ones(r) in tensors._als, whatever the weight unit, so "
        "on this input, where ALS runs its whole budget, the dynaocpd embedding itself "
        "depends on the weight unit")))
    if method == "dynaocpd" else method for method in cli.METHODS])
def test_linkpred_auc_does_not_depend_on_the_weight_unit(dataset, tmp_path, method):
    """Weights in minutes or hours instead of seconds report the same AUC, to
    within one discordant pair of the sample: the classifier is fitted on
    standardized separations."""
    lines = dataset.read_text().splitlines()
    reports = []
    for scale in (1.0, 1 / 60, 1 / 3600):
        path = tmp_path / f"w{scale!r}.edges"
        with path.open("w") as f:
            for line in lines:
                if not line.startswith("#"):
                    t, src, dst, weight = line.split()
                    line = f"{t} {src} {dst} {float(weight) * scale!r}"
                f.write(line + "\n")
        out = tmp_path / f"out{scale!r}"
        assert main(["linkpred", "--data", str(path), "--method", method, "--d", "4",
                     "--metric", "hadamard", "--out", str(out)]) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    n_pos = reports[0]["n_pos"]
    assert all(abs(r["AUC"] - reports[0]["AUC"]) <= 1.0 / n_pos ** 2 for r in reports)
