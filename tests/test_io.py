import numpy as np
import pytest

from dynten import io
from dynten.graphs import DynamicNetwork, adjacency_from_edges
from dynten.io import (load_cp_model, load_dynamic_network, load_embedding_csv,
                       save_cp_model, write_dynamic_network, write_embedding_csv)
from dynten.synth import dynamic_sbm
from dynten.tensors import AlsConfig, SparseTensor3, cp_als


def test_combined_file_roundtrip(tmp_path):
    net, _ = dynamic_sbm(25, 4, seed=0)
    path = tmp_path / "net.edges"
    write_dynamic_network(path, net)
    back = load_dynamic_network(path)
    assert back.labels == net.labels
    assert back.tau == net.tau
    for A, B in zip(net.snapshots, back.snapshots):
        assert np.array_equal(A.indptr, B.indptr)
        assert np.array_equal(A.indices, B.indices)
        assert np.allclose(A.data, B.data)


def _weighted_text(directed):
    w = [0.1, 1 / 3, 2.5e-17, 7.0, 1e300, 0.30000000000000004]
    return ("# nodes: a b c d e\n"
            f"0 a b {w[0]!r}\n0 b a {w[1] if directed else w[0]!r}\n0 c c {w[2]!r}\n"
            f"1 d a {w[3]!r}\n1 b c {w[4]!r}\n2 e d {w[5]!r}\n")


@pytest.mark.parametrize("directed,text", [
    (True, _weighted_text(True)),
    (False, _weighted_text(False)),
    (False, "# nodes: p q lonely r\n0 q p\n1 r q 2.0\n"),
], ids=["directed-weighted", "undirected", "isolated-nodes"])
def test_write_load_write_is_exact(tmp_path, directed, text):
    (tmp_path / "in.edges").write_text(text)
    net = load_dynamic_network(tmp_path / "in.edges", directed=directed)
    write_dynamic_network(tmp_path / "one.edges", net)
    back = load_dynamic_network(tmp_path / "one.edges", directed=directed)
    write_dynamic_network(tmp_path / "two.edges", back)
    assert (tmp_path / "one.edges").read_bytes() == (tmp_path / "two.edges").read_bytes()
    assert back.labels == net.labels and back.tau == net.tau
    for A, B in zip(net.snapshots, back.snapshots):
        assert np.array_equal(A.indptr, B.indptr)
        assert np.array_equal(A.indices, B.indices)
        assert np.array_equal(A.data, B.data)


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_empty_slices_survive_roundtrip(tmp_path, directed):
    """The first, a middle and the last slice have no links; each is written
    as one zero-weight placeholder line, so tau and the slice order hold."""
    empty = adjacency_from_edges(3, [], [], [])
    link = adjacency_from_edges(3, [0], [2], [1.5], undirected=not directed)
    net = DynamicNetwork(labels=("a", "b", "c"), directed=directed,
                         snapshots=(empty, link, empty, link, empty))
    write_dynamic_network(tmp_path / "one.edges", net)
    back = load_dynamic_network(tmp_path / "one.edges", directed=directed)
    write_dynamic_network(tmp_path / "two.edges", back)
    assert (tmp_path / "one.edges").read_bytes() == (tmp_path / "two.edges").read_bytes()
    assert back.labels == net.labels and back.tau == 5
    for A, B in zip(net.snapshots, back.snapshots):
        assert B.nnz == A.nnz and np.array_equal(A.toarray(), B.toarray())


def test_combined_file_format(tmp_path):
    path = tmp_path / "x.edges"
    path.write_text("# comment\n0 a b\n0 b c 2.5\n1 a c\n")
    net = load_dynamic_network(path)
    assert net.labels == ("a", "b", "c")
    assert net.tau == 2
    A0 = net.adjacency(0).toarray()
    assert A0[net.index_of("b"), net.index_of("c")] == 2.5
    assert A0[net.index_of("a"), net.index_of("b")] == 1.0


def test_time_column_must_be_sorted(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("1 a b\n0 b c\n")
    with pytest.raises(ValueError, match="non-decreasing"):
        load_dynamic_network(path)


def test_directory_of_snapshots(tmp_path):
    d = tmp_path / "snaps"
    d.mkdir()
    (d / "00.txt").write_text("a b 2.0\n")
    (d / "01.txt").write_text("b c\n# nothing else\n")
    net = load_dynamic_network(d)
    assert net.tau == 2 and net.n == 3


def test_directory_declarations_belong_to_their_snapshot(tmp_path):
    d = tmp_path / "snaps"
    d.mkdir()
    (d / "00.txt").write_text("# nodes: a b c\na b\n")
    (d / "01.txt").write_text("# nodes: a b c\nb c\n")
    net = load_dynamic_network(d)
    assert net.labels == ("a", "b", "c") and net.tau == 2
    (d / "02.txt").write_text("# nodes: x y x\n")
    with pytest.raises(ValueError, match="duplicate label 'x' in snapshot 2"):
        load_dynamic_network(d)


def test_isolated_nodes_survive_roundtrip(tmp_path):
    path = tmp_path / "iso.edges"
    path.write_text("# nodes: a b c lonely\n0 a b\n")
    net = load_dynamic_network(path)
    assert "lonely" in net.labels and net.n == 4


def test_bad_line_reports_location(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 a b\nnot enough\n")
    with pytest.raises(ValueError, match="bad.edges:2"):
        load_dynamic_network(path)


def test_embedding_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    emb = rng.standard_normal((5, 3))
    labels = [f"v{i}" for i in range(5)]
    path = tmp_path / "emb.csv"
    write_embedding_csv(path, labels, emb)
    header = path.read_text().splitlines()[0]
    assert header == "node,dim_0,dim_1,dim_2"
    got_labels, got = load_embedding_csv(path)
    assert got_labels == labels
    assert np.array_equal(got, emb)  # repr floats round-trip exactly


@pytest.mark.parametrize("M", [
    np.array([[-0.0, 5e-324, 1e300], [0.1 + 0.2, np.inf, np.nan], [-np.inf, 1.0, -7.25]]),
    np.array([[0.1, -0.0, 3.4e38], [np.nan, 1e-45, -np.inf]], dtype=np.float32),
    np.arange(6).reshape(2, 3) - 4,
], ids=["float64", "float32", "int64"])
def test_float_rows_match_per_entry_repr(tmp_path, M):
    """Both CSV writers give the bytes of ``repr(float(x))`` per entry."""
    labels = ["a", "b", 7][:len(M)]
    rows = [",".join(repr(float(x)) for x in row) for row in M]
    io._write_matrix_csv(tmp_path / "m.csv", M)
    assert (tmp_path / "m.csv").read_text() == "\n".join(rows) + "\n"
    write_embedding_csv(tmp_path / "e.csv", labels, M)
    want = ["node,dim_0,dim_1,dim_2"] + [f"{lab},{row}" for lab, row in zip(labels, rows)]
    assert (tmp_path / "e.csv").read_text() == "\n".join(want) + "\n"
    io._write_matrix_csv(tmp_path / "v.csv", M[0])  # a vector is one row
    assert (tmp_path / "v.csv").read_text() == rows[0] + "\n"


def test_cp_model_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    dense = np.where(rng.random((5, 5, 3)) < 0.5, rng.standard_normal((5, 5, 3)), 0)
    Z = SparseTensor3.from_dense(dense)
    cfg = AlsConfig(rank=3, seed=7)
    model = cp_als(Z, cfg)
    save_cp_model(tmp_path / "model", model, config=cfg)
    back = load_cp_model(tmp_path / "model")
    assert back.rank == model.rank
    assert np.array_equal(back.lambdas, model.lambdas)
    assert np.array_equal(back.factor_a, model.factor_a)
    assert np.array_equal(back.factor_b, model.factor_b)
    assert np.array_equal(back.factor_c, model.factor_c)
    assert back.fit == model.fit
    meta = (tmp_path / "model" / "metadata.json").read_text()
    assert '"rank": 3' in meta and '"seed": 7' in meta
