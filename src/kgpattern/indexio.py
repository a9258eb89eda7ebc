"""Binary serialization of the path index.

Little-endian throughout. Layout::

    magic "KGPX" | version u32 | header size u32: the bytes before the header CRC
    depth u32 | damping f64 | tolerance f64
    graph fingerprint: 32 bytes, `KnowledgeGraph.fingerprint` of the graph
                       the index was built from
    type-name string table | attr-name string table
    pagerank: count u32, f64 * count
    pattern table: count u32, lengths u16 * count, then every pattern's
                   ids, pattern after pattern (patterns in canonical
                   length-lexicographic order; a pattern's table position is
                   its id)
    vocabulary string table | token count width u32: 1, 2 or 4 bytes
    word directory, one entry per vocabulary word in each of three arrays:
        record counts u32 * n_words | node counts u32 * n_words |
        record CRCs u32 * n_words
    header crc u32: zlib.crc32 of every byte before it
    record columns, one entry per record: every word's records in vocabulary
    order, each word's sorted root-first, pattern-first within a root:
        pattern_id | token count
    nodes * sum(node counts)

Each id array is in the narrowest of u1, u2 and u4 that holds the largest id
the header's counts allow (`pathindex.record_layout`). A string table is a u32
count, then each entry's u32 byte length, then all entries' UTF-8 bytes. A
word's records are one slice of each record column, found from the
directory's counts; its record CRC is zlib.crc32 of its slice of pattern_id,
then of the token counts, then of nodes. So every byte after the header is
covered by exactly one word's CRC. The file stores each fact once. The entity
count is the PageRank vector's length, the type and attribute counts are the
name tables' lengths, and the index's stats (`IndexStats`) follow from the
directory: its entry count is the record total and its cost proxy the node
total. A record stores only its pattern id, the token count n of the text its
word matched and its nodes. Its attributes are its pattern's odd elements.
Its node count `n_nodes` (`len(pattern) // 2 + 1`), its root (its first
node), its PageRank term (the stored score of its last node, or of the edge's
source on an edge match, whose pattern has even length) and its similarity
term 1.0 / n are derived by `pathindex.derived_columns`, as `build_index`
derives them, and so are its tree-check slots (each step's child, and its
parent and attribute as one key). The pattern table (a `PatternTable` over
its lengths and its elements, which makes a pattern's tuple on its first
read), the vocabulary and the stored columns are `PathIndex.columns`, in the
file's dtypes: `serialize` writes each array's bytes as they are, and a read
passes the `np.frombuffer` views of the file's bytes to `PathIndex`.

A read checks the header before it returns and each word's records on the
word's first use. `read_index` checks the magic, then the version, then the
header CRC, before it decodes anything else. Bad magic or version raises
IndexFormatError. Every other check raises IndexCorruptError: a header CRC
mismatch (any single-bit flip in the header, or a file cut inside it), a
header size that disagrees with its sections, a depth below 1, a PageRank
score that is not finite and positive, an empty pattern, a pattern with more
nodes than the depth (so no record has more), a pattern type id >= n_types or
attribute id >= n_attrs, a pattern table that is not strictly increasing in
canonical order, a token count width not 1, 2 or 4, or a file length other
than the header's plus the record columns the directory counts. It derives
nothing per record: the index's derived columns stay unfilled until
`PathIndex.check` passes words to `_check_words`. That runs, on all the words
of one call in one batch, each word's record CRC (any single-bit flip in its
records), then the record checks: a pattern id past the pattern table, a word
whose records' node total is not its directory node count, a node id >=
n_entities (a step's attribute is a pattern's, so it is in range), a token
count of 0, and a word whose records' (root, pattern_id) ever decrease. Each
derived column is computed only after the ids it indexes with are checked,
and written only after every check of the batch passed. The last check makes
the file's order the in-memory order the engines' join reads: each (word,
root) is one run of records and each (word, root, pattern) one run within
it, taken in stored order. `deserialize` checks every word before it returns.

So a corrupt record in a word a query reads fails the query, and one in a
word it does not read cannot change its answer.
"""
from __future__ import annotations

import functools
import io
import struct
import zlib
from collections import namedtuple
from itertools import accumulate
from pathlib import Path
from typing import Union

import numpy as np

from .errors import IndexCorruptError, IndexFormatError
from .pagerank import PageRankVector
from .pathindex import IndexColumns, PathIndex, PatternTable, derived_columns, node_offsets, record_layout, slot_layout

MAGIC = b"KGPX"
VERSION = 12
FINGERPRINT_BYTES = 32


class _Writer(io.BytesIO):
    def pack(self, fmt, *values):
        self.write(struct.pack("<" + fmt, *values))

    def string_table(self, strings):
        data = [s.encode("utf-8") for s in strings]
        self.pack("I", len(data))
        self.write(np.array(list(map(len, data)), "<u4").tobytes())
        self.write(b"".join(data))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise IndexCorruptError(
                f"truncated index: wanted {n} bytes at offset {self.pos}, have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        fmt = "<" + fmt
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size))

    def array(self, dtype: str, count: int) -> np.ndarray:
        """The next `count` items of `dtype`, as a read-only view of the data."""
        return np.frombuffer(self.take(np.dtype(dtype).itemsize * count), dtype)

    def string_table(self) -> list[str]:
        (n,) = self.unpack("I")
        ends = list(accumulate(self.unpack(f"{n}I"), initial=0))
        blob = bytes(self.take(ends[-1]))
        return [blob[a:b].decode() for a, b in zip(ends, ends[1:])]


def _record_crc(pattern_id, tokens, nodes, records: slice, node_span: slice) -> int:
    """The record CRC of a word whose records and nodes are these slices of the record columns."""
    return zlib.crc32(nodes[node_span], zlib.crc32(tokens[records], zlib.crc32(pattern_id[records])))


def record_columns(c: IndexColumns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The record columns, in file order and in the file's dtypes."""
    return c.pattern_id, c.tokens, c.nodes


def serialize(idx: PathIndex) -> bytes:
    c = idx.columns
    idx.check(c.vocab)
    columns = record_columns(c)
    records = list(accumulate(c.counts.tolist(), initial=0))
    nodes = c.node_off[records].tolist()
    crcs = [_record_crc(*columns, slice(a, b), slice(m, n)) for a, b, m, n in zip(records, records[1:], nodes, nodes[1:])]
    w = _Writer()
    w.write(MAGIC)
    w.pack("II", VERSION, 0)  # the header size, set below
    w.pack("I", idx.depth)
    w.pack("dd", idx.pagerank.damping, idx.pagerank.tolerance)
    w.write(idx.fingerprint)
    w.string_table(idx.type_names)
    w.string_table(idx.attr_names)

    scores = np.asarray(idx.pagerank.scores, dtype="<f8")
    w.pack("I", len(scores))
    w.write(scores.tobytes())

    w.pack("I", len(c.patterns))
    w.write(c.patterns.lengths.tobytes())
    w.write(c.patterns.elements.tobytes())
    w.string_table(c.vocab)
    w.pack("I", c.tokens.itemsize)
    for column in (c.counts, np.diff(nodes), crcs):
        w.write(np.asarray(column, "<u4").tobytes())
    header = w.getbuffer()
    header[8:12] = struct.pack("<I", len(header))
    return b"".join((header, struct.pack("<I", zlib.crc32(header)), *columns))


def _corrupt_on_error(read):
    """`read`, raising IndexCorruptError where a malformed file makes it fail in another way."""

    @functools.wraps(read)
    def checked(*args):
        try:
            return read(*args)
        except (IndexError, KeyError, UnicodeDecodeError, OverflowError, MemoryError, ValueError) as exc:
            raise IndexCorruptError(f"corrupt index file: {exc}") from exc

    return checked


def _require(ok: np.ndarray, what: str) -> None:
    """Raise IndexCorruptError unless every element of `ok` is true."""
    if not ok.all():
        raise IndexCorruptError(f"{what} (first at position {int(np.argmin(ok))})")


# Per word and one past the last word, the offsets of its first record and
# first node into their columns (the directory's counts summed), and per word
# its record CRC, as lists.
_Directory = namedtuple("_Directory", "records nodes crc")


@_corrupt_on_error
def _load(data: bytes) -> PathIndex:
    """The index in `data` with its header checked and no word checked."""
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise IndexFormatError("not a path-index file (bad magic)")
    (version,) = r.unpack("I")
    if version != VERSION:
        raise IndexFormatError(f"unsupported index version {version}")
    (size,) = r.unpack("I")
    if len(data) < size + 4 or zlib.crc32(memoryview(data)[:size]) != int.from_bytes(data[size : size + 4], "little"):
        raise IndexCorruptError("checksum mismatch: the index header is corrupt or truncated")
    r.data = memoryview(data)[:size]  # decode only the bytes the CRC covers
    (depth,) = r.unpack("I")
    if depth < 1:
        raise IndexCorruptError(f"index depth {depth} is below 1")
    damping, tolerance = r.unpack("dd")
    fingerprint = r.take(FINGERPRINT_BYTES)
    type_names = r.string_table()
    attr_names = r.string_table()
    n_types, n_attrs = len(type_names), len(attr_names)

    (n_entities,) = r.unpack("I")
    scores = r.array("<f8", n_entities).astype(np.float64)
    _require(np.isfinite(scores) & (scores > 0), "a PageRank score is not finite and positive")
    pagerank = PageRankVector(scores, damping, tolerance)

    (n_patterns,) = r.unpack("I")
    pid_dtype, node_dtype, element_dtype = record_layout(n_patterns, n_entities, n_types, n_attrs)
    lengths = r.array("<u2", n_patterns)
    elements = r.array(element_dtype, int(lengths.sum()))
    _require(lengths > 0, "a pattern is empty")
    _require(lengths // 2 < depth, f"a pattern has more nodes than the index depth {depth}")
    # The patterns as the rows of a matrix padded with -1; even columns hold type ids, odd ones attribute ids.
    width = int(lengths.max(initial=1))
    rows = np.full((n_patterns, width), -1, np.int64)
    rows[np.arange(width) < lengths[:, None]] = elements
    _require(rows < np.where(np.arange(width) % 2 == 0, n_types, n_attrs), "a pattern references an unknown type or attribute id")
    # Canonical order (`patterns.sort_key`): by length, then lexicographically.
    longer, step = np.diff(lengths.astype(np.int64)), np.diff(rows, axis=0)
    first = (step != 0).argmax(1)  # the first element where a pattern differs from the one before
    _require((longer > 0) | (longer == 0) & (step[np.arange(len(step)), first] > 0), "the pattern table is not in canonical order")
    vocab = r.string_table()
    (count_width,) = r.unpack("I")
    if count_width not in (1, 2, 4):
        raise IndexCorruptError(f"unsupported token count width {count_width}")

    counts, node_counts, crc = (r.array("<u4", len(vocab)) for _ in range(3))
    if r.pos != size:
        raise IndexCorruptError(f"the header size {size} disagrees with its sections' {r.pos} bytes")
    records, node_off = (list(accumulate(x.tolist(), initial=0)) for x in (counts, node_counts))
    directory = _Directory(records, node_off, crc.tolist())
    n, n_nodes = records[-1], node_off[-1]
    layout = (pid_dtype, n), (np.dtype(f"<u{count_width}"), n), (node_dtype, n_nodes)  # the record columns
    at = list(accumulate((dtype.itemsize * count for dtype, count in layout), initial=size + 4))
    if len(data) < at[-1]:
        raise IndexCorruptError(f"truncated index: the directory's records need {at[-1]} bytes, the file has {len(data)}")
    if len(data) > at[-1]:
        raise IndexCorruptError(f"{len(data) - at[-1]} unexpected bytes after the records")
    stored = PatternTable(lengths, elements), vocab, counts
    stored += tuple(np.frombuffer(data, dtype, count, offset) for (dtype, count), offset in zip(layout, at))
    width, key_dtype = slot_layout(lengths, n_entities, n_attrs)
    derived = np.zeros(n + 1, np.int64), np.zeros(n, node_dtype), np.zeros(n), np.zeros(n)
    derived += np.zeros((width, n), np.uint32), np.zeros((width, n), key_dtype)
    check_words = functools.partial(_check_words, directory)
    return PathIndex(depth, pagerank, type_names, attr_names, IndexColumns(*stored, *derived), bytes(fingerprint), check_words)


@_corrupt_on_error
def _check_words(d: _Directory, idx: PathIndex, words: list[int]) -> None:
    """Check the records of the words at these vocabulary positions (in
    increasing order) in one batch, then fill their derived columns."""
    c, records, nodes = idx.columns, d.records, d.nodes
    for w in words:
        a, b = records[w], records[w + 1]
        if _record_crc(*record_columns(c), slice(a, b), slice(nodes[w], nodes[w + 1])) != d.crc[w]:
            raise IndexCorruptError(f"checksum mismatch: the records of word {c.vocab[w]!r} are corrupt")
    # Words next to each other in the file are one span of each column.
    runs = [[words[0], words[0] + 1]]
    for w in words[1:]:
        if w == runs[-1][1]:
            runs[-1][1] += 1
        else:
            runs.append([w, w + 1])
    record_spans = [slice(records[p], records[q]) for p, q in runs]
    node_spans = [slice(nodes[p], nodes[q]) for p, q in runs]
    pid, tokens = (np.concatenate([column[span] for span in record_spans]) for column in (c.pattern_id, c.tokens))
    batch_nodes = np.concatenate([c.nodes[span] for span in node_spans])
    _require(pid < len(c.patterns), "a record references an unknown pattern id")
    node_off = node_offsets(c.patterns.lengths, pid)
    # Each word's first record and first node in the batch.
    first = np.fromiter(accumulate((records[w + 1] - records[w] for w in words), initial=0), np.int64, len(words) + 1)
    first_node = np.fromiter(accumulate((nodes[w + 1] - nodes[w] for w in words), initial=0), np.int64, len(words) + 1)
    _require(node_off[first] == first_node, "a word's records disagree with its directory node count")
    _require(batch_nodes < idx.n_entities, "a record references an unknown entity id")
    _require(tokens > 0, "a record's token count is 0")
    scores, n_attrs = idx.pagerank.scores, idx.n_attrs
    root, pr, sim, child, key = derived_columns(c.patterns, pid, tokens, node_off, batch_nodes, scores, n_attrs)
    run_key = root.astype(np.uint64) << 32 | pid
    new_word = np.zeros(len(pid) + 1, bool)
    new_word[first] = True
    _require(new_word[1:-1] | (run_key[1:] >= run_key[:-1]), "a word's records are not sorted by root, then pattern id")
    x = 0  # the run's first record in the batch
    for span, node_span in zip(record_spans, node_spans):
        a, b, y = span.start, span.stop, x + span.stop - span.start
        c.node_off[a : b + 1] = node_off[x : y + 1] + (node_span.start - node_off[x])
        c.root[span], c.pr[span], c.sim[span] = root[x:y], pr[x:y], sim[x:y]
        c.child[:, span], c.key[:, span] = child[:, x:y], key[:, x:y]
        x = y


def deserialize(data: bytes) -> PathIndex:
    """The index in `data`, every word of it checked."""
    idx = _load(data)
    idx.check(idx.columns.vocab)
    return idx


def write_index(idx: PathIndex, path: Union[str, Path]) -> None:
    Path(path).write_bytes(serialize(idx))


def read_index(path: Union[str, Path]) -> PathIndex:
    """The index in the file at `path`, its header checked; each word is
    checked on its first use (`PathIndex.check`)."""
    return _load(Path(path).read_bytes())
