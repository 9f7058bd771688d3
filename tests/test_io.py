import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from dynten import graphs, io
from dynten.graphs import DynamicNetwork, adjacency_from_edges, align_snapshots
from dynten.io import (load_dynamic_network, load_embedding_csv, write_dynamic_network,
                       write_embedding_csv)
from dynten.synth import dynamic_sbm


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


@pytest.mark.parametrize("label", ["a b", "", "tab\there", "line\nbreak", "nb\u00a0sp"])
def test_write_refuses_labels_the_loader_would_split(tmp_path, label):
    net = align_snapshots([([label, "c"], ["c", "d"], [1.0, 1.0])])
    with pytest.raises(ValueError, match=re.escape(repr(label))):
        write_dynamic_network(tmp_path / "x.edges", net)
    assert not (tmp_path / "x.edges").exists()


def test_labels_with_commas_quotes_and_non_ascii_roundtrip(tmp_path):
    labels = ["a,b", '"q"', "x'y", "na\u00efve", "\u6771\u4eac", "#tag", "\U0001f600"]
    net = align_snapshots([(labels[:4], labels[3:], [1.0, 2.0, 3.0, 4.0]),
                           (labels[::2], labels[1::2] + ["a,b"], [5.0, 6.0, 7.0, 8.0])],
                          directed=True)
    write_dynamic_network(tmp_path / "x.edges", net)
    back = load_dynamic_network(tmp_path / "x.edges", directed=True)
    assert back.labels == net.labels and back.tau == net.tau
    for A, B in zip(net.snapshots, back.snapshots):
        assert (A != B).nnz == 0


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_empty_slices_survive_roundtrip(tmp_path, directed):
    """The first, a middle and the last slice have no links; each is written
    as one zero-weight placeholder line, so tau and the slice order hold."""
    empty = adjacency_from_edges(3, [], [], [])
    link = adjacency_from_edges(3, [0], [2], [1.5], undirected=not directed)
    net = DynamicNetwork.from_snapshots(("a", "b", "c"), (empty, link, empty, link, empty),
                                        directed)
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
    index = net.labels.index
    assert A0[index("b"), index("c")] == 2.5
    assert A0[index("a"), index("b")] == 1.0


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
    for text, line in [("0 a b\nnot enough\n", 2),
                       ("0 a b\n0 b c x\n", 2),
                       ("# c\n\n0 a b 1.0\r\n0 b c nan\n", 4),  # a non-finite weight
                       ("0 a b inf\n", 1),
                       ("0\ta b -inf\r0 b c 1e999\n", 1)]:
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad.edges:{line}: "):
            load_dynamic_network(path)


def test_nan_time_is_rejected(tmp_path):
    """A NaN time compares neither below nor above any other time, so it
    would switch the order check off for the slice after it."""
    path = tmp_path / "nan.edges"
    path.write_text("1 a b\nNaN b c\n0 a c\n")
    with pytest.raises(ValueError, match=r"nan.edges:2: time 'NaN' is not a number"):
        load_dynamic_network(path)
    path.write_text("nan a b\n")
    with pytest.raises(ValueError, match="nan.edges:1: time"):
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


@pytest.mark.parametrize("d", [1, 3])
def test_embedding_csv_with_no_rows_roundtrips(tmp_path, d):
    """An embedding of no nodes is its header alone and reads back as a
    0 x d matrix."""
    path = tmp_path / "empty.csv"
    write_embedding_csv(path, [], np.empty((0, d)))
    assert path.read_text() == "node," + ",".join(f"dim_{k}" for k in range(d)) + "\n"
    got_labels, got = load_embedding_csv(path)
    assert got_labels == [] and got.shape == (0, d) and got.dtype == np.float64


@pytest.mark.parametrize("n", [0, 2])
def test_embedding_csv_refuses_no_columns(tmp_path, n):
    """An n x 0 embedding has no row the loader could read back, so nothing
    is written."""
    path = tmp_path / "none.csv"
    with pytest.raises(ValueError, match="no columns"):
        write_embedding_csv(path, ["a", "b"][:n], np.empty((n, 0)))
    assert not path.exists()


@pytest.mark.parametrize("M", [
    np.array([[-0.0, 5e-324, 1e300], [0.1 + 0.2, np.inf, np.nan], [-np.inf, 1.0, -7.25]]),
    np.array([[0.1, -0.0, 3.4e38], [np.nan, 1e-45, -np.inf]], dtype=np.float32),
    np.arange(6).reshape(2, 3) - 4,
], ids=["float64", "float32", "int64"])
def test_float_rows_match_per_entry_repr(tmp_path, M):
    """The embedding CSV writer gives the bytes of ``repr(float(x))`` per entry."""
    labels = ["a", "b", 7][:len(M)]
    rows = [",".join(repr(float(x)) for x in row) for row in M]
    write_embedding_csv(tmp_path / "e.csv", labels, M)
    want = ["node,dim_0,dim_1,dim_2"] + [f"{lab},{row}" for lab, row in zip(labels, rows)]
    assert (tmp_path / "e.csv").read_text() == "\n".join(want) + "\n"


def test_embedding_csv_quoted_labels_roundtrip(tmp_path):
    """Labels holding a comma, a quote or a line break are quoted as RFC 4180
    says and read back unchanged; other labels, non-ASCII ones, NUL and the
    empty label included, are written as they are."""
    labels = ["a,b", 'say "hi"', '",', "ñandú", "東京,大阪", "x\ny", "plain", ",",
              "nul\x00", "\x00,\x00", "\r", ""]
    fields = ['"a,b"', '"say ""hi"""', '""","', "ñandú", '"東京,大阪"', '"x\ny"', "plain", '","',
              "nul\x00", '"\x00,\x00"', '"\r"', ""]
    emb = np.random.default_rng(3).standard_normal((len(labels), 2))
    path = tmp_path / "q.csv"
    write_embedding_csv(path, labels, emb)
    rows = [",".join(map(repr, row)) for row in emb.tolist()]
    assert path.read_bytes().decode() == "node,dim_0,dim_1\n" + "".join(
        f"{field},{row}\n" for field, row in zip(fields, rows))
    got_labels, got = load_embedding_csv(path)
    assert got_labels == labels
    assert np.array_equal(got, emb)


@given(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
                min_size=1, max_size=6, unique=True))
@settings(max_examples=60)
def test_embedding_csv_any_label_roundtrips(tmp_path_factory, labels):
    path = tmp_path_factory.mktemp("labels") / "e.csv"
    emb = np.arange(2.0 * len(labels)).reshape(-1, 2) / 3.0
    write_embedding_csv(path, labels, emb)
    got_labels, got = load_embedding_csv(path)
    assert got_labels == labels
    assert np.array_equal(got, emb)


@st.composite
def labelled_embeddings(draw):
    """Labels with commas, quotes, line breaks and non-ASCII text, and an
    n x d embedding (n = 0 included) whose entries take any float64 value."""
    label = st.text(st.sampled_from(',"\r\n') | st.characters(blacklist_categories=("Cs",)),
                    max_size=6)
    value = st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, 1e-5])
    d = draw(st.integers(1, 4))
    labels = draw(st.lists(label, max_size=6))
    rows = draw(st.lists(st.lists(value, min_size=d, max_size=d),
                         min_size=len(labels), max_size=len(labels)))
    return labels, np.array(rows, dtype=np.float64).reshape(len(labels), d)


@given(labelled_embeddings())
@example(([], np.empty((0, 2))))
@example((["a,b", 'say "hi"', "x\r\ny", "東京"],
          np.array([[-0.0, 5e-324], [1e16, 1e-5], [-1e16, -5e-324], [0.1, 1e-5]])))
@settings(max_examples=80)
def test_streamed_embedding_csv_is_the_joined_text(tmp_path_factory, case):
    """The writer, which writes row by row, gives the bytes of the header and
    every row joined into one text."""
    labels, emb = case
    path = tmp_path_factory.mktemp("stream") / "e.csv"
    write_embedding_csv(path, labels, emb)
    header = "node," + ",".join(f"dim_{k}" for k in range(emb.shape[1]))
    rows = [io.csv_field(lab) + "," + ",".join(repr(float(x)) for x in row)
            for lab, row in zip(labels, emb)]
    assert path.read_bytes() == ("\n".join([header] + rows) + "\n").encode()


def test_embedding_csv_writer_memory_does_not_grow_with_n(tmp_path):
    """The writer holds one row's text at a time: its traced peak at
    n = 20 000, d = 16 is at most 1.5 times its peak at n = 1 000, where
    joining the whole file first grew about twentyfold."""
    rng = np.random.default_rng(0)
    peaks = []
    for n in (1_000, 20_000):
        labels, emb = [f"v{i}" for i in range(n)], rng.standard_normal((n, 16))
        path = tmp_path / f"e{n}.csv"
        write_embedding_csv(path, labels, emb)  # first-call imports and caches stay out of the peak
        tracemalloc.start()
        try:
            write_embedding_csv(path, labels, emb)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_embedding_csv_rejects_other_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("label,x\na,1.0\n")
    with pytest.raises(ValueError, match="not an embedding CSV"):
        load_embedding_csv(path)


@pytest.mark.parametrize("header", ["node,a,b", "node,dim_1,dim_0", "node,dim_0,", "node",
                                    "node,dim_0,dim_1,"])
def test_embedding_csv_header_must_name_the_dim_columns(tmp_path, header):
    """Only ``node,dim_0,..,dim_{d-1}`` is an embedding header: a header of
    other column names is refused, not read as that many columns."""
    path = tmp_path / "other.csv"
    path.write_text(header + "\na,1.0,2.0\n")
    with pytest.raises(ValueError, match="not an embedding CSV"):
        load_embedding_csv(path)


def test_embedding_csv_unquoted_label_is_text_before_last_d_commas(tmp_path):
    """Rows written without quoting (a comma in a label included), CRLF line
    ends and blank lines read back."""
    path = tmp_path / "old.csv"
    path.write_bytes(b"node,dim_0,dim_1\r\na,b,1.5,-2.0\r\n\r\nc,0.0,1e-3\r\n")
    labels, emb = load_embedding_csv(path)
    assert labels == ["a,b", "c"]
    assert np.array_equal(emb, [[1.5, -2.0], [0.0, 1e-3]])


@pytest.mark.parametrize("body, message", [
    ('"a,1.0,2.0\n', "malformed quoted label"),
    ('"a"b,1.0,2.0\n', "malformed quoted label"),
    ('"a",1.0\n', "1 values, header names 2"),
    ("a\n", "0 values, header names 2"),
])
def test_embedding_csv_rejects_malformed_rows(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("node,dim_0,dim_1\n" + body)
    with pytest.raises(ValueError, match=f"bad.csv: row 1: {message}"):
        load_embedding_csv(path)


# ---------------------------------------------------------------------------
# the loader against a line-by-line reference


def _reference_canonical(n, src, dst, wgt):
    """Per-slice duplicate summing in input order, zero sums dropped."""
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    wgt = np.asarray(wgt, dtype=np.float64)
    if src.size == 0:
        return src, dst, wgt
    uniq, inverse = np.unique(src * n + dst, return_inverse=True)
    summed = np.zeros(uniq.size)
    np.add.at(summed, inverse, wgt)
    keep = summed != 0.0
    return uniq[keep] // n, uniq[keep] % n, summed[keep]


def _reference_adjacency(n, src, dst, wgt, undirected):
    src, dst, wgt = _reference_canonical(n, src, dst, wgt)
    if undirected and src.size:
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        _, first, inverse = np.unique(lo * n + hi, return_index=True, return_inverse=True)
        w_u = wgt[first]
        if np.any(wgt != w_u[inverse]):
            raise ValueError("conflicting weights for undirected edge")
        lo_u, hi_u = lo[first], hi[first]
        off = lo_u != hi_u
        src, dst, wgt = _reference_canonical(n, np.concatenate([lo_u, hi_u[off]]),
                                             np.concatenate([hi_u, lo_u[off]]),
                                             np.concatenate([w_u, w_u[off]]))
    # int32 index arrays, as the loader keeps them whenever they fit
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return sp.csr_array((wgt, dst.astype(np.int32), indptr), shape=(n, n))


def _reference_time_key(token):
    try:
        return (0, float(token), token)
    except ValueError:
        return (1, 0.0, token)


def _reference_parse(lines, with_time, where):
    """Edge columns per slice and declared labels, one line at a time."""
    slices, declared = [], []
    want = (3, 4) if with_time else (2, 3)
    first = 1 if with_time else 0
    prev = None
    if not with_time:
        src, dst, wgt = [], [], []
        slices.append((src, dst, wgt))
    for ln, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            line = raw.strip()
            if line.startswith("# nodes:"):
                declared.extend(line[len("# nodes:"):].split())
            continue
        if len(parts) not in want:
            raise ValueError(f"{where}:{ln}: expected {want} fields, got {len(parts)}")
        try:
            w = float(parts[-1]) if len(parts) == want[1] else 1.0
        except ValueError:
            raise ValueError(f"{where}:{ln}: bad weight {parts[-1]!r}") from None
        if not math.isfinite(w):
            raise ValueError(f"{where}:{ln}: non-finite weight {parts[-1]!r}")
        if with_time and parts[0] != prev:
            t = parts[0]
            if math.isnan(_reference_time_key(t)[1]):
                raise ValueError(f"{where}:{ln}: time {t!r} is not a number")
            if prev is not None and _reference_time_key(t) < _reference_time_key(prev):
                raise ValueError(f"{where}: time column must be non-decreasing "
                                 f"({t!r} after {prev!r})")
            prev = t
            src, dst, wgt = [], [], []
            slices.append((src, dst, wgt))
        src.append(parts[first])
        dst.append(parts[first + 1])
        wgt.append(w)
    return slices, declared


def reference_load(path, directed=False):
    """The loader's contract, one line and one slice at a time."""
    path = Path(path)
    if path.is_dir():
        per_slice, labels = [], []
        for f in sorted(p for p in path.iterdir() if p.is_file()):
            (edges,), declared = _reference_parse(f.read_text().splitlines(), False, str(f))
            per_slice.append(edges)
            labels.append(declared)
    else:
        per_slice, declared = _reference_parse(path.read_text().splitlines(), True, str(path))
        if not per_slice and not declared:
            raise ValueError(f"{path}: empty dataset")
        per_slice = per_slice or [([], [], [])]
        labels = [declared] + [[]] * (len(per_slice) - 1)
    union = set()
    for t, (src, dst, _) in enumerate(per_slice):
        seen = set()
        for lab in labels[t]:
            if lab in seen:
                raise ValueError(f"duplicate label {lab!r} in snapshot {t}")
            seen.add(lab)
        union |= seen | set(src) | set(dst)
    order = tuple(sorted(union, key=str))
    index = {lab: i for i, lab in enumerate(order)}
    snaps = tuple(_reference_adjacency(len(order), [index[x] for x in src],
                                       [index[x] for x in dst], wgt, not directed)
                  for src, dst, wgt in per_slice)
    return DynamicNetwork.from_snapshots(order, snaps, directed)


def assert_bitwise_equal(got, want):
    assert got.labels == want.labels and got.directed == want.directed
    assert got.tau == want.tau
    for A, B in zip(got.snapshots, want.snapshots):
        for name in ("indptr", "indices", "data"):
            a, b = getattr(A, name), getattr(B, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def outcome(load, path, directed):
    try:
        return load(path, directed=directed)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_outcome(path, directed):
    got, want = outcome(load_dynamic_network, path, directed), \
        outcome(reference_load, path, directed)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
    else:
        assert_bitwise_equal(got, want)


LABELS = ["a", "b", "c", "ab", "b\x00", "abcdefgh", "abcdefghi", "abcdefghij", "#x",
          "abcdefghijklmnopqrstu", "abcdefghijklmnopqrstv", "bbcdefghijklmnopqrstu"]
WIDE_LABELS = ["\u00e9", "\u65e5\u672c", "\u65e5\u672c\u65e5\u672c\u65e5", "\U0001f600x"]
TIMES = ["0", "1", "1.0", "2", "10", "-1", "-0", "inf", "1e400", "x", "y",
         "x\x00", "1234567890123", "1234567890124"]
WEIGHTS = ["1", "2.5", "-2.5", "0", "-0.0", "0.1", "3", "1e300", "1_0",
           "0.30000000000000004"]
BAD_WEIGHTS = ["nan", "inf", "-inf", "1e999", "w"]
SEPARATORS = ["\t", "  ", "\x1f", "\xa0", "\u2003"]
BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def edge_texts(draw, with_time):
    """Edge-list texts: data lines, comments, directives and blank lines,
    with the separators and line boundaries the str methods know. About one
    text in five has a line with a wrong field count, a bad weight or, with
    a time column, a NaN time or times out of order."""
    pick = st.sampled_from

    def rarely():
        return draw(st.integers(0, 4)) == 0

    labels = LABELS + WIDE_LABELS if draw(st.booleans()) else LABELS
    kinds = ["edge"] * 6 + ["weighted"] * 3 + ["comment", "nodes", "blank"]
    if rarely():
        kinds += ["short", "long"]
    bad_weights = rarely()

    def line():
        kind = draw(pick(kinds))
        if kind == "comment":
            return "#" + draw(pick(["", " note", "nodes: a"]))
        if kind == "nodes":
            return draw(pick(["", " "])) + "# nodes: " + " ".join(
                draw(st.lists(pick(labels), max_size=4)))
        if kind == "blank":
            return draw(pick(["", " ", "\t "]))
        fields = [draw(pick(labels)) for _ in range(2)]
        if kind == "weighted":
            fields.append(draw(pick(WEIGHTS + BAD_WEIGHTS) if bad_weights else pick(WEIGHTS)))
        elif kind == "short":
            fields = fields[:1]
        elif kind == "long":
            fields += ["1", "2"]
        if with_time:
            fields.insert(0, "@")  # filled in below
        return draw(pick(SEPARATORS) if rarely() else st.just(" ")).join(fields)

    lines = [line() for _ in range(draw(st.integers(0, 12)))]
    if with_time:
        pool = sorted(draw(st.lists(pick(TIMES), min_size=1, max_size=4, unique=True)),
                      key=_reference_time_key)
        if rarely():
            pool.append(draw(pick(["nan", "-NaN"])))
        stamps = sorted(draw(st.lists(st.integers(0, len(pool) - 1),
                                      min_size=len(lines), max_size=len(lines))))
        if rarely():
            stamps = draw(st.permutations(stamps))
        lines = [ln.replace("@", pool[k], 1) for ln, k in zip(lines, stamps)]
    rare = draw(pick(BREAKS))
    ends = [rare if rarely() else draw(pick(["\n", "\r\n"])) for _ in lines]
    text = "".join(ln + end for ln, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[:-1]


# the loader's chunk size, in bytes: a few bytes, so that line ends, CRLF
# pairs, multi-byte code points, bad lines and slice changes straddle chunk
# edges, or the module's own
CHUNKS = st.one_of(st.integers(1, 16), st.just(io.CHUNK))


def assert_same_outcome_in_chunks(path, directed, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "CHUNK", chunk)
        assert_same_outcome(path, directed)


@settings(max_examples=150)
@given(text=edge_texts(with_time=True), directed=st.booleans(), chunk=CHUNKS)
@example(text="1 a b\nnan b c\n0 a c\n", directed=False, chunk=io.CHUNK)
@example(text="0 a b 2\r\n0 b a 2\r\n0 a b 1\r\n0 a b -1\n", directed=False, chunk=io.CHUNK)
@example(text="# nodes: x y x\n0 a b\n", directed=True, chunk=io.CHUNK)
@example(text="0 a b 2\n0 b a 3\n1 c c 0\n", directed=False, chunk=io.CHUNK)
@example(text="0 a b\x1c0 b c\x1e1 a\x01 c\n", directed=True, chunk=io.CHUNK)
@example(text="0 \u00e9 b\n0 b \u00e9\xa0 2\n1 \u00e9\u00e9 \u00e9\n", directed=True,
         chunk=io.CHUNK)
@example(text="# \u65e5\n0 a\u2003b\u3000c\n0 \u65e5\u672c b\n", directed=False, chunk=io.CHUNK)
@example(text="0 \U0001f600x a\n1 \U0001f600 \U0001f600x\u2028", directed=False, chunk=io.CHUNK)
@example(text="1234567890123 abcdefghijklmnopqrstu a\n1234567890124 abcdefghijklmnopqrstv a\n"
              "x abcdefghijklmnopqrstu bbcdefghijklmnopqrstu\nx\x00 b\x00 b\n", directed=True,
         chunk=io.CHUNK)
@example(text="0 a b\r\n0 b c x\r\n", directed=False, chunk=6)  # CRLF across a read
@example(text="0 \u00e9 b\r\n1 b \u65e5\n", directed=True, chunk=3)  # a split code point
@example(text="0 a b\n1 b c\n1 c a\n0 a c\n", directed=False, chunk=7)  # times out of order
@example(text="0 a b\n0 b c\n1 c a 2\n", directed=False, chunk=1)
def test_combined_loader_matches_reference(tmp_path_factory, text, directed, chunk):
    """Bitwise-equal networks, index dtypes included, or the same error, at
    the module's chunk size and at chunks of a few bytes."""
    path = tmp_path_factory.mktemp("combined") / "net.edges"
    path.write_bytes(text.encode("utf-8"))
    assert_same_outcome_in_chunks(path, directed, chunk)


@settings(max_examples=60)
@given(texts=st.lists(edge_texts(with_time=False), min_size=1, max_size=3),
       directed=st.booleans(), chunk=CHUNKS)
def test_directory_loader_matches_reference(tmp_path_factory, texts, directed, chunk):
    folder = tmp_path_factory.mktemp("snaps")
    for k, text in enumerate(texts):
        (folder / f"{k:02d}.txt").write_bytes(text.encode("utf-8"))
    assert_same_outcome_in_chunks(folder, directed, chunk)


@settings(max_examples=60)
@given(data=st.data(), directed=st.booleans(), as_directory=st.booleans())
def test_loaded_networks_pass_the_per_slice_check(tmp_path_factory, data, directed,
                                                  as_directory):
    """Every network the loader returns passes DynamicNetwork's per-slice
    check as it is."""
    if as_directory:
        path = tmp_path_factory.mktemp("snaps")
        for k, text in enumerate(data.draw(st.lists(edge_texts(with_time=False),
                                                    min_size=1, max_size=3))):
            (path / f"{k:02d}.txt").write_bytes(text.encode("utf-8"))
    else:
        path = tmp_path_factory.mktemp("combined") / "net.edges"
        path.write_bytes(data.draw(edge_texts(with_time=True)).encode("utf-8"))
    net = outcome(load_dynamic_network, path, directed)
    if not isinstance(net, tuple):
        DynamicNetwork(net.labels, net.stack, net.directed)


@pytest.mark.parametrize("fault, message", [
    ("asymmetric", "of an undirected network is not symmetric"),
    ("explicit zero", "is not a canonical 4 x 4 float64 csr_array")])
@pytest.mark.parametrize("t", [0, 2])
def test_a_faulty_slice_of_the_loaded_stack_is_named(monkeypatch, tmp_path, t, fault,
                                                     message):
    """One entry of slice t spoilt in the stacked build: the load is refused
    with the message DynamicNetwork gives for that slice alone."""
    path = tmp_path / "net.edges"
    path.write_text("0 a b\n0 b c\n1 a c\n1 b c\n2 a b\n2 c d\n")
    build, built = graphs.stacked_adjacency, []

    def spoilt(*args, **kwargs):
        stack = build(*args, **kwargs)
        first = stack.indptr[t * stack.shape[1]]  # slice t's first entry, off the diagonal
        stack.data[first] = 2.0 * stack.data[first] if fault == "asymmetric" else 0.0
        built.append(stack)
        return stack

    monkeypatch.setattr(graphs, "stacked_adjacency", spoilt)
    with pytest.raises(ValueError) as got:
        load_dynamic_network(path)
    assert str(got.value).startswith(f"snapshot {t} {message}")
    with pytest.raises(ValueError) as alone:
        DynamicNetwork.from_snapshots(("a", "b", "c", "d"), graphs._slices_of(built[0], 3))
    assert str(got.value) == str(alone.value)


def test_separators_and_boundaries_match_str_methods():
    """The loader's code point tables are exactly the separators of
    str.split() and the line boundaries of str.splitlines(), and their runs
    are exactly the ASCII members."""
    spaces = [c for c in range(0x110000) if chr(c).isspace()]
    breaks = [c for c in spaces if len(("a" + chr(c) + "b").splitlines()) == 2]
    assert io._SPACES.tolist() == spaces
    assert io._BREAKS.tolist() == breaks
    for runs, points in [(io._SPACE_RUNS, spaces), (io._BREAK_RUNS, breaks)]:
        assert [c for a, b in runs for c in range(a, b + 1)] == [c for c in points if c < 128]


def write_generated_network(path, lines, n=1000, tau=8, seed=0, names=None, header=""):
    """A combined file like the generated benchmark inputs: ``header``, a
    node directive, then ``lines`` undirected links ``t vXXXX vYYYY`` spread
    over tau slices; ``names`` replaces the labels ``vXXXX``."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, lines)
    dst = (src + rng.integers(1, n, lines)) % n
    t = np.sort(rng.integers(0, tau, lines))
    names = names or [f"v{i:04d}" for i in range(n)]
    body = "".join(f"{a} {names[b]} {names[c]}\n"
                   for a, b, c in zip(t.tolist(), np.minimum(src, dst).tolist(),
                                      np.maximum(src, dst).tolist()))
    path.write_text(header + "# nodes: " + " ".join(names) + "\n" + body, encoding="utf-8")


def array_bytes(net):
    """The bytes of the arrays that hold a network's slices."""
    return sum(a.nbytes for A in net.snapshots for a in (A.data, A.indices, A.indptr))


@pytest.mark.parametrize("variant", [
    {},
    {"header": "# source: " + "x" * 1000 + "\n"},
    {"names": [f"v{i:04d}" for i in range(999)] + ["w" * 200]},
    {"header": "# r\u00e9seau\n"},
    {"names": [f"\u65e5{i:04d}" for i in range(1000)]},
    {"n": 10_000, "lines": 400_000},
    {"lines": 40_000},
], ids=["ascii", "long-comment-token", "long-label", "latin-1-comment", "cjk-labels", "n-10000",
        "lines-40000"])
def test_loader_memory_per_file_byte(tmp_path, variant):
    """Peak traced memory of loading a combined file of 100 000 lines over
    1 000 nodes (1.4 to 1.8 MB), of 400 000 lines over 10 000 nodes
    (5.7 MB), or of 40 000 lines over 1 000 nodes (0.57 MB, eight slices of
    about 10 000 stored entries, as in the benchmark's inputs), per byte of
    the file and per byte of the arrays of the network it returns. The
    line-by-line loader that the array passes replaced peaked at 14.55
    bytes per file byte on the ASCII input, with one str object per line
    and per token, and that ratio is the bound for every variant: a
    1 000-character comment token or a 200-character label must not widen
    the keys of the other tokens, and text outside ASCII must not cost a
    4-byte unit per character when 1 or 2 bytes hold it. The load parses
    the text in chunks and builds and checks the slices one at a time, so
    its scratch beyond the network stays a fraction of it: the peak is
    bounded by 2.5 times the network's array bytes. It is 2.0 to 2.1 times
    here (2.7 to 3.6 bytes per file byte), against 5.7 to 6.9 times for a
    whole-file parse and an all-slices build."""
    path = tmp_path / "big.edges"
    options = dict(variant)
    write_generated_network(path, options.pop("lines", 100_000), **options)
    load_dynamic_network(path)  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        net = load_dynamic_network(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.n == options.get("n", 1000) and net.tau == 8
    assert peak <= 14.55 * path.stat().st_size
    assert peak <= 2.5 * array_bytes(net)


def test_writer_memory_per_file_byte(tmp_path):
    """The writer builds and writes one slice's lines at a time: on the
    100 000-line network of test_loader_memory_per_file_byte it peaks at
    about 1 byte of traced memory per byte of the file, where joining every
    line of the file at once peaked at 6.2."""
    write_generated_network(tmp_path / "in.edges", 100_000)
    net = load_dynamic_network(tmp_path / "in.edges")
    path = tmp_path / "out.edges"
    write_dynamic_network(path, net)  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        write_dynamic_network(path, net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * path.stat().st_size
