"""File formats: snapshot edge lists and embedding CSV.

Edge-list format, one line per edge, whitespace separated, ``#`` comments:

    t src_label dst_label [weight]     (combined file; t non-decreasing)
    src_label dst_label [weight]       (one file per snapshot in a directory)

weight defaults to 1.0. A comment line ``# nodes: a b c`` may declare labels
that should exist even if isolated in every snapshot. Fields are the tokens
``str.split()`` yields and lines those ``str.splitlines()`` yields, so tabs,
CRLF endings and non-ASCII labels work; the loader finds them with array
passes over line-aligned chunks of the text. Floats are written with
``repr`` so values round-trip exactly.
"""

from __future__ import annotations

import codecs
import re
from itertools import filterfalse, repeat
from pathlib import Path

import numpy as np

# align_snapshots is not used here, but perfbench/tracing.py wraps it under this module
from .graphs import DynamicNetwork, _stored_pairs, align_snapshots, aligned_network  # noqa: F401

_NODES_DIRECTIVE = "# nodes:"
# a double-quoted CSV field; group 1 is its text with inner quotes still doubled
_QUOTED_FIELD = re.compile(r'"([^"]*(?:""[^"]*)*)"')

# the separators of str.split() and the line boundaries of str.splitlines(),
# as code points, and the runs their ASCII members form; "\r\n" is one boundary
_SPACES = np.array([9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 0x85, 0xA0, 0x1680,
                    *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000])
_BREAKS = np.array([10, 11, 12, 13, 28, 29, 30, 0x85, 0x2028, 0x2029])
_SPACE_RUNS = ((9, 13), (28, 32))
_BREAK_RUNS = ((10, 13), (28, 30))
_OTHER_BREAKS = "".join(map(chr, _BREAKS[1:]))  # the line boundaries but "\n", as text

# bytes of a file read and parsed at once. A chunk's parse holds about 12
# bytes of scratch per byte of ASCII text, and each chunk costs a fixed 0.3
# to 0.45 ms (2 vCPU), about a tenth of the parse of 128 KiB of edge lines
CHUNK = 1 << 17


class _Text:
    """A chunk of text as one array of code units: its code points in the
    narrowest of 1, 2 or 4 bytes that holds them all, followed by 8 zero
    units so that an 8-byte word can be read at every unit. ``index`` is the
    integer type that holds a unit's position."""

    def __init__(self, text: str):
        self.size, self.ascii = len(text), text.isascii()
        top = 0 if self.ascii else int(np.frombuffer(text.encode("utf-32-le"), "<u4").max())
        self.unit, self.codec = ((1, "latin-1") if top < 0x100 else
                                 (2, "utf-16-le") if top < 0x10000 else (4, "utf-32-le"))
        self._raw = (text + "\0" * 8).encode(self.codec)
        self.units = np.frombuffer(self._raw, dtype=f"<u{self.unit}")
        self.index = np.int32 if self.units.size < 2**31 else np.int64
        # the 8-byte word at each unit, and the masks that keep a word's first k units
        self._word = np.ndarray((self.units.size - 8 // self.unit + 1,), dtype="<u8",
                                buffer=self._raw, strides=(self.unit,))
        self._keep = np.array([(1 << 8 * self.unit * k) - 1 for k in range(8 // self.unit + 1)],
                              dtype=np.uint64)

    def _among(self, runs, points, out):
        """Set ``out`` to which units are among the code points ``points``,
        whose ASCII members form ``runs``: ASCII units are compared with the
        runs, and only the others are looked up."""
        units = self.units[:self.size]
        out[:] = False
        for first, last in runs:
            out |= (units >= first) & (units <= last)
        if not self.ascii:
            wide = np.flatnonzero(units >= 128)
            out[wide] = np.isin(units[wide], points)
        return out

    def spaces(self):
        """Which units separate fields, padded with a separator at both ends."""
        space = np.ones(self.size + 2, dtype=bool)
        self._among(_SPACE_RUNS, _SPACES, space[1:-1])
        return space

    def breaks(self):
        """Sorted positions of the line boundaries, a CRLF pair counted once,
        as ``index`` integers."""
        at = np.flatnonzero(self._among(_BREAK_RUNS, _BREAKS, np.empty(self.size, dtype=bool)))
        return at[(self.units[at] != 13) | (self.units[at + 1] != 10)].astype(self.index)

    def decode(self, start, stop) -> str:
        return self._raw[start * self.unit:stop * self.unit].decode(self.codec)

    def _words(self, at, count):
        """The uint64 words read at units ``at``, cleared past their first
        ``count`` units (at most a word's worth)."""
        key = self._word[at]
        key &= self._keep[count]
        return key

    def factor(self, starts, lengths):
        """The distinct tokens of ``lengths[k]`` units at ``starts[k]``, and
        each token's index among them, an array of ``index`` integers. The
        distinct tokens come as a (length, starts) pair per length: the start
        of one token of each distinct value of that length, in index order.

        Tokens are grouped by length, and within a group matched on their
        units read as uint64 words, one word position at a time, so that no
        key is wider than its own token."""
        per = 8 // self.unit
        ids = np.empty(starts.size, dtype=self.index)
        distinct, total = [], 0
        by_length = np.argsort(lengths.astype(np.min_scalar_type(lengths.max(initial=0))),
                               kind="stable").astype(self.index)
        counts = np.bincount(lengths)
        present = np.flatnonzero(counts)
        for length, group in zip(present.tolist(),
                                 np.split(by_length, np.cumsum(counts[present[:-1]]))):
            at = starts[group]
            for offset in range(0, length, per):
                word, count = _ranks(self._words(at + offset, min(per, length - offset)))
                if offset:  # refine the matches of the words before by this one
                    word, count = _ranks(local.astype(np.int64) * count + word)
                local = word
            first = np.empty(count, dtype=np.int64)
            first[local] = at  # the start of some token of each distinct value
            local += total
            ids[group] = local
            distinct.append((length, first))
            total += count
        return distinct, ids

    def _gather(self, starts, length: int, pad: int = 0):
        """The units of the tokens of ``length`` units at ``starts``, one
        row each, with ``pad`` spaces after each."""
        units = np.full((starts.size, length + pad), ord(" "), dtype=self.units.dtype)
        units[:, :length] = self.units[starts[:, None] + np.arange(length)]
        return units

    def strings(self, distinct) -> list:
        """The tokens of :meth:`factor`'s ``distinct`` as str, in index
        order. The tokens of one length are decoded at once: gathered with a
        space after each, which no token holds, decoded, and split there."""
        return [token for length, starts in distinct
                for token in self._gather(starts, length, 1).tobytes().decode(self.codec)
                .split(" ")[:-1]]

    def keys(self, starts, length: int):
        """The tokens of ``length`` units at ``starts`` as keys that are equal
        exactly when the tokens are: their uint64 words when one holds them,
        else fixed-width bytes (NumPy ``S`` items)."""
        if length * self.unit <= 8:
            return self._words(starts, length)
        return self._gather(starts, length).view(f"S{length * self.unit}").ravel()

    def changes(self, starts, lengths):
        """Which tokens differ from the one before them (the first always does)."""
        per = 8 // self.unit
        key = self._words(starts, np.minimum(lengths, per))
        same = np.zeros(starts.size, dtype=bool)
        np.equal(key[1:], key[:-1], out=same[1:])
        del key
        same[1:] &= lengths[1:] == lengths[:-1]
        live = np.flatnonzero(same & (lengths > per))  # equal so far, with units left
        offset = per
        while live.size:
            count = np.minimum(lengths[live] - offset, per)
            equal = (self._words(starts[live] + offset, count)
                     == self._words(starts[live - 1] + offset, count))
            same[live[~equal]] = False
            live = live[equal & (lengths[live] > offset + per)]
            offset += per
        return ~same


def _ranks(key):
    """Each entry's rank among the distinct values of ``key`` (any fixed
    order of them), and their number."""
    order = np.argsort(key)
    key = key[order]
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    del key
    ranks = np.empty(order.size, dtype=np.int32 if order.size < 2**31 else np.int64)
    ranks[order] = np.cumsum(new, dtype=ranks.dtype)
    ranks -= 1
    return ranks, int(new.sum())


def _chunks(path):
    """The text of the file at ``path``, decoded as ``Path.read_text()``
    decodes it, as a :class:`_Text` per piece of about ``CHUNK`` bytes (or
    the rest of it) that ends at a line boundary, except the last. The bytes
    go through an incremental decoder, which holds back a character split
    across two reads, with no decoded buffer of its own. A "\\r" at the end
    of a piece waits for the next one, which may start with the "\\n" of its
    CRLF pair."""
    with open(path, newline="") as fh:
        decode = codecs.getincrementaldecoder(fh.encoding)(fh.errors).decode
        carry = ""
        while data := fh.buffer.read(CHUNK):
            text = carry + decode(data)
            del data
            limit = len(text) - text.endswith("\r")
            cut = text.rfind("\n", 0, limit) + 1
            cut = max([cut] + [text.rfind(c, cut, limit) + 1 for c in _OTHER_BREAKS])
            carry = text[cut:]
            if cut:
                text = _Text(text[:cut])  # the str goes, so only the chunk's units stay
                yield text
        carry += decode(b"", final=True)
    if carry:
        yield _Text(carry)


class _Edges:
    """The edge columns of one or more edge-list files, parsed chunk by chunk
    with array passes over each chunk's text.

    ``index`` maps each endpoint label to its id, in order of first
    appearance, and ``tables`` maps a unit width and a token length to the
    sorted keys (see :meth:`_Text.keys`) of the labels seen so far and to
    their ids. ``src`` and ``dst`` collect each chunk's endpoint ids (int32)
    and ``weight`` its weights (None for a chunk with no weight column);
    ``starts`` collects the first data line of each slice, and ``size``
    counts the data lines. Lines are those of ``str.splitlines()``
    and fields those of ``str.split()``; a bad line raises ``ValueError``
    naming the first bad line, as a line-by-line reader would.
    """

    def __init__(self):
        self.index: dict = {}
        self.tables: dict = {}
        self.src, self.dst, self.weight, self.starts = [], [], [], []
        self.size = 0

    def read(self, path, with_time: bool) -> list:
        """Parse one file and return the labels of its ``# nodes:``
        directives. With a time column a new slice starts wherever the time
        token changes; without one the file is one slice."""
        where, declared = str(path), []
        lines, time = 0, None  # the lines before a chunk, and the last time token
        if not with_time:
            self.starts.append(self.size)
        for text in _chunks(path):
            lines, time = self._read_chunk(text, where, with_time, lines, time, declared)
        return declared

    def _read_chunk(self, text, where, with_time, lines, time, declared):
        """Parse one chunk that starts a line; returns the line count and the
        last time token after it."""
        # token k is units starts[k] .. starts[k] + lengths[k]: the runs
        # between changes of the padded separator flags
        space = text.spaces()
        bounds = np.flatnonzero(space[1:] != space[:-1])
        del space
        starts, lengths = bounds[0::2].astype(text.index), bounds[1::2].astype(text.index)
        lengths -= starts
        del bounds
        breaks = text.breaks()
        head = np.zeros(starts.size, dtype=bool)  # first token of each non-blank line
        head[:1] = True
        after = np.searchsorted(starts, breaks)
        head[after[after < starts.size]] = True
        head = np.flatnonzero(head).astype(text.index)
        fields = np.diff(head, append=starts.size)

        comment = text.units[starts[head]] == ord("#")
        for h, f in zip(head[comment].tolist(), fields[comment].tolist()):
            stripped = text.decode(starts[h], starts[h + f - 1] + lengths[h + f - 1])
            if stripped.startswith(_NODES_DIRECTIVE):
                declared.extend(stripped[len(_NODES_DIRECTIVE):].split())
        head, fields = head[~comment], fields[~comment]

        def line(k) -> int:  # the line number of data line k
            return lines + int(np.searchsorted(breaks, starts[head[k]])) + 1

        first = 1 if with_time else 0  # column of the source label
        weighted = np.flatnonzero(fields == first + 3)
        values, at, times = self._check(text, where, starts, lengths, line, head, fields,
                                        weighted, with_time, time)
        self.starts.extend((self.size + at).tolist())
        weight = None
        if values is not None:
            weight = np.ones(head.size)
            weight[weighted] = values
        self.weight.append(weight)
        del line, fields, values, weight
        lines += breaks.size
        del breaks
        ends = np.concatenate([head + first, head + first + 1])
        starts, lengths = starts[ends], lengths[ends]  # the endpoint tokens, from here on
        del ends
        ids = self._label_ids(text, starts, lengths)
        del starts, lengths
        self.src.append(ids[:head.size])
        self.dst.append(ids[head.size:])
        self.size += head.size
        return lines, times[-1] if times else time

    def _label_ids(self, text, starts, lengths):
        """The label id of each token. A token found in ``tables``, the
        tokens seen in chunks of the same unit width and length, takes its
        id from there; only the others are decoded and looked up in
        ``index``, where a new label takes the next id, and join ``tables``."""
        distinct, local = text.factor(starts, lengths)
        ids = []
        for length, first in distinct:
            keys = text.keys(first, length)
            known, known_ids = self.tables.get((text.unit, length),
                                               (keys[:0], np.zeros(0, np.int32)))
            at = known.searchsorted(keys)
            found = at < known.size
            found[found] = known[at[found]] == keys[found]
            got = np.empty(keys.size, dtype=np.int32)
            got[found] = known_ids[at[found]]
            new = np.flatnonzero(~found)
            if new.size:
                labels = text.strings([(length, first[new])])
                index = self.index
                fresh = list(filterfalse(index.__contains__, labels))
                index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
                got[new] = np.fromiter(map(index.__getitem__, labels), dtype=np.int32,
                                       count=new.size)
                new = new[np.argsort(keys[new])]
                self.tables[text.unit, length] = (np.insert(known, at[new], keys[new]),
                                                  np.insert(known_ids, at[new], got[new]))
            ids.append(got)
        return np.concatenate([np.zeros(0, np.int32), *ids])[local]

    @staticmethod
    def _check(text, where, starts, lengths, line, head, fields, weighted, with_time, time):
        """Check the data lines in the order a line-by-line reader would and
        raise for the first bad one: each check only looks at the lines
        before the first failure of the checks made before it. ``time`` is
        the time token of the line before the chunk (None at the start).
        Returns the weights of the ``weighted`` lines (None without any) and,
        with a time column, the data lines that start a slice and their time
        tokens."""
        want = (3, 4) if with_time else (2, 3)
        error, limit = None, head.size
        bad = np.flatnonzero((fields != want[0]) & (fields != want[1]))
        if bad.size:
            limit = int(bad[0])
            error = f"{where}:{line(limit)}: expected {want} fields, got {fields[limit]}"
        values = None
        if weighted.size:
            column = head[weighted] + want[0]
            distinct, wid = text.factor(starts[column], lengths[column])
            strings = text.strings(distinct)
            values = np.full(len(strings), np.nan)
            malformed = np.zeros(len(strings), dtype=bool)
            for k, token in enumerate(strings):
                try:
                    values[k] = float(token)
                except ValueError:
                    malformed[k] = True
            values = values[wid]
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size and weighted[bad[0]] < limit:
                limit, u = int(weighted[bad[0]]), wid[bad[0]]
                problem = "bad weight" if malformed[u] else "non-finite weight"
                error = f"{where}:{line(limit)}: {problem} {strings[u]!r}"
        at, times = np.zeros(0, dtype=np.intp), []
        if with_time:
            at = np.flatnonzero(text.changes(starts[head[:limit]], lengths[head[:limit]]))
            times = [text.decode(s, s + n) for s, n in zip(starts[head[at]].tolist(),
                                                           lengths[head[at]].tolist())]
            if times and times[0] == time:  # the chunk goes on with the slice before it
                at, times = at[1:], times[1:]
            error = _check_times(where, line, at, times, time) or error
        if error is not None:
            raise ValueError(error)
        return values, at, times

    def columns(self):
        """The source ids, destination ids and weights of every line read,
        each as one array (the weights None when no line has one); the
        chunks are released."""
        src, dst = (np.concatenate([np.zeros(0, np.int32), *ids]) for ids in (self.src, self.dst))
        weight = None
        if any(w is not None for w in self.weight):
            weight = np.concatenate([np.ones(s.size) if w is None else w
                                     for s, w in zip(self.src, self.weight)])
        self.src, self.dst, self.weight = [], [], []
        return src, dst, weight


def _check_times(where, line, at, times, before):
    """The error for the first slice whose time, on data line ``at[k]``, is
    NaN or before the time of the slice before it (``before`` for the
    first, if not None), or None."""
    last = before
    for k, token in enumerate(times):
        key = _time_key(token)
        if key[1] != key[1]:
            return f"{where}:{line(at[k])}: time {token!r} is not a number"
        if last is not None and key < _time_key(last):
            return f"{where}: time column must be non-decreasing ({token!r} after {last!r})"
        last = token
    return None


def load_dynamic_network(path, directed: bool = False) -> DynamicNetwork:
    """Load a combined edge-list file, or a directory of per-snapshot files
    (snapshot order = sorted file names). A file's ``# nodes:`` directive
    declares labels for its own snapshot, or for the first one in a
    combined file.

    The text is parsed in line-aligned chunks of ``CHUNK`` bytes into
    int32 label ids and the weights, and the slices are built from them one
    at a time (see :func:`~dynten.graphs.stacked_adjacency`), so a load's
    scratch beyond the network it returns stays a fraction of it."""
    path = Path(path)
    edges = _Edges()
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file())
        if not files:
            raise ValueError(f"no snapshot files in {path}")
        declared = [edges.read(f, with_time=False) for f in files]
    else:
        declared = [edges.read(path, with_time=True)]
        if not edges.size and not declared[0]:
            raise ValueError(f"{path}: empty dataset")
    ends = edges.starts[1:] + [edges.size]
    return aligned_network(list(edges.index), ends, *edges.columns(), declared, directed)


def _time_key(token: str):
    try:
        return (0, float(token), token)
    except ValueError:
        return (1, 0.0, token)


def write_dynamic_network(path, net: DynamicNetwork) -> None:
    """Write a combined edge-list file (with a node-list directive so globally
    isolated nodes survive a round trip): each slice's stored entries, loops
    included, in stored order, and of an undirected one only the upper
    triangle. A slice with no entries writes one zero-weight self-loop
    ``t v v 0.0``, which the loader drops while keeping the slice, so tau
    survives as well. An empty label or one holding a ``str.split()``
    separator raises ``ValueError``. Lines are written a slice at a time."""
    labels = np.array([str(lab) for lab in net.labels], dtype=object)
    for lab in labels:
        if lab.split() != [lab]:
            raise ValueError(f"label {lab!r} is not one field of an edge-list line")
    with open(path, "w") as fh:
        fh.write(_NODES_DIRECTIVE + " " + " ".join(labels) + "\n")
        for t, A in enumerate(net.snapshots):
            row, col, value = _stored_pairs(A, upper=not net.directed)
            lines = [] if value.size else [f"{t} {labels[0]} {labels[0]} 0.0"]
            lines.extend(map(" ".join, zip(repeat(str(t)), labels[row], labels[col],
                                           map(repr, value.tolist()))))
            fh.write("\n".join(lines) + "\n")


def csv_field(text: str) -> str:
    """``text`` as one CSV field: in double quotes, with its quotes doubled,
    when it holds a comma, a quote or a line break (RFC 4180), else as is."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_embedding_csv(path, labels, embedding) -> None:
    """Write the header ``node,dim_0,..`` and one row per label: the label as
    a CSV field (see :func:`csv_field`), then the row's floats as ``repr``,
    which round-trips exactly. Rows are formatted and written one at a time,
    so the text held is O(d), not the whole file. An embedding with no
    columns is refused."""
    emb = np.asarray(embedding, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] != len(labels):
        raise ValueError("embedding must be n x d with one row per label")
    if emb.shape[1] == 0:
        raise ValueError("embedding has no columns: a CSV row needs d >= 1 values")
    header = "node," + ",".join(f"dim_{k}" for k in range(emb.shape[1]))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(csv_field(str(lab)) + "," + ",".join(map(repr, row.tolist())) + "\n"
                      for lab, row in zip(labels, emb))


def load_embedding_csv(path):
    """The labels and the n x d matrix of an embedding CSV, whose header is
    ``node,dim_0,..,dim_{d-1}`` with d >= 1. A row that starts with ``"``
    holds a quoted label, read back as the text :func:`write_embedding_csv`
    quoted (it may span lines); any other row's label is its text before the
    last d commas. Blank lines are skipped and ``\\r\\n`` line ends accepted."""
    with open(path, newline="") as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    d = header.count(",")
    if d < 1 or header.removesuffix("\r") != "node," + ",".join(f"dim_{k}" for k in range(d)):
        raise ValueError(f"{path}: not an embedding CSV")
    labels, rows, pos = [], [], 0
    while pos < len(body):
        quoted = _QUOTED_FIELD.match(body, pos) if body.startswith('"', pos) else None
        stop = body.find("\n", quoted.end() if quoted else pos)
        stop = len(body) if stop < 0 else stop
        record, pos = body[pos:stop].rstrip("\r"), stop + 1
        if not record:
            continue
        if record.startswith('"'):
            if quoted is None or not body.startswith(",", quoted.end()):
                raise ValueError(f"{path}: row {len(rows) + 1}: malformed quoted label")
            label = quoted.group(1).replace('""', '"')
            values = record[quoted.end() - quoted.start() + 1:].split(",")
        else:
            label, *values = record.rsplit(",", d)
        if len(values) != d:
            raise ValueError(f"{path}: row {len(rows) + 1}: {len(values)} values, "
                             f"header names {d}")
        labels.append(label)
        rows.append([float(x) for x in values])
    return labels, np.asarray(rows, dtype=np.float64).reshape(len(rows), d)
