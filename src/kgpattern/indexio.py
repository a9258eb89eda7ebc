"""Binary serialization of the path index.

Little-endian throughout. Layout::

    magic "KGPX" | version u32 | depth u32
    damping f64 | tolerance f64
    graph fingerprint: 32 bytes, `KnowledgeGraph.fingerprint` of the graph
                       the index was built from
    type-name string table | attr-name string table
    pagerank: count u32, f64 * count
    pattern table: count u32, lengths u16 * count, then every pattern's
                   u32 ids, pattern after pattern (patterns in canonical
                   length-lexicographic order; a pattern's table position is
                   its id)
    vocabulary string table
    counts: u64 * n_words, each word's record count
    record columns, one entry per record: every word's records in vocabulary
    order, each word's sorted pattern-first:
        pattern_id u32 | sim f64
    nodes u32 * sum(n_nodes)
    crc u32: zlib.crc32 of every byte before it

A string table is a u32 count followed by (u32 byte length, UTF-8 bytes) per
entry. The file stores each fact once. The entity count is the PageRank
vector's length, the type and attribute counts are the name tables' lengths,
and the index's stats (`IndexStats`) follow from the records: its entry count
is theirs and its cost proxy is their node total. A record stores only its
pattern id, its similarity term and its nodes. Its node count `n_nodes`
(`len(pattern) // 2 + 1`), its attributes (its pattern's odd elements), its
root (its first node) and its PageRank term (the stored score of its last
node, or of the edge's source on an edge match, whose pattern has even
length) are derived at load by `pathindex.index_columns`, as `build_index`
derives them. The pattern table (its tuples, lengths and elements), the
vocabulary and the stored columns are `PathIndex.columns`: `serialize`
writes each array with `ndarray.tobytes`, and `deserialize` passes the
`np.frombuffer` views it reads to the `PathIndex` constructor.

Reading checks the magic, then the version, then the CRC, before it decodes
anything else. Bad magic or version raises IndexFormatError. Every other
check also runs before `deserialize` returns, on whole arrays, and raises
IndexCorruptError: a CRC mismatch (any single-bit flip after the version
field, or a truncated file), a depth below 1, a short read, bytes left over
after the records, a PageRank score that is not finite and positive, an
empty pattern, an id out of range (a pattern type id >= n_types, a pattern
attribute id >= n_attrs, a pattern id past the pattern table, a node id >=
n_entities; a derived attribute is a pattern's, so it is in range), a
record's `sim` term that is not finite and positive, a record with more
nodes than the depth, a pattern table that is not strictly increasing in
canonical order, or a word whose records' (pattern_id, root) ever decrease.
Each derived column is computed only after the ids it indexes with are
checked. The last two checks make the file's order the in-memory order: each
(word, pattern, root) is one contiguous run of records, taken in stored
order.
"""
from __future__ import annotations

import io
import operator
import struct
import zlib
from pathlib import Path
from typing import Union

import numpy as np

from .errors import IndexCorruptError, IndexFormatError
from .pagerank import PageRankVector
from .pathindex import RECORD_DTYPES, PathIndex, index_columns, node_offsets

MAGIC = b"KGPX"
VERSION = 9
FINGERPRINT_BYTES = 32


class _Writer(io.BytesIO):
    def pack(self, fmt, *values):
        self.write(struct.pack("<" + fmt, *values))

    def string_table(self, strings):
        self.pack("I", len(strings))
        for s in strings:
            data = s.encode("utf-8")
            self.pack("I", len(data))
            self.write(data)


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
        return [str(self.take(self.unpack("I")[0]), "utf-8") for _ in range(n)]


def serialize(idx: PathIndex) -> bytes:
    w = _Writer()
    w.write(MAGIC)
    w.pack("II", VERSION, idx.depth)
    w.pack("dd", idx.pagerank.damping, idx.pagerank.tolerance)
    w.write(idx.fingerprint)
    w.string_table(idx.type_names)
    w.string_table(idx.attr_names)

    scores = np.asarray(idx.pagerank.scores, dtype="<f8")
    w.pack("I", len(scores))
    w.write(scores.tobytes())

    c = idx.columns
    w.pack("I", len(c.patterns))
    w.write(c.lengths.tobytes())
    w.write(c.elements.tobytes())
    w.string_table(c.vocab)
    for column in (c.counts, c.pattern_id, c.sim, c.nodes):
        w.write(column.tobytes())
    body = w.getvalue()
    return body + struct.pack("<I", zlib.crc32(body))


def deserialize(data: bytes) -> PathIndex:
    try:
        return _deserialize(data)
    except (IndexFormatError, IndexCorruptError):
        raise
    except (IndexError, KeyError, UnicodeDecodeError, OverflowError, MemoryError, ValueError) as exc:
        raise IndexCorruptError(f"corrupt index file: {exc}") from exc


def _require(ok, what: str) -> None:
    """Raise IndexCorruptError unless every element of `ok` is true."""
    if not np.all(ok):
        raise IndexCorruptError(f"{what} (first at position {int(np.argmin(ok))})")


def _deserialize(data: bytes) -> PathIndex:
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise IndexFormatError("not a path-index file (bad magic)")
    (version,) = r.unpack("I")
    if version != VERSION:
        raise IndexFormatError(f"unsupported index version {version}")
    body, crc = memoryview(data)[:-4], data[-4:]
    if len(body) < r.pos or zlib.crc32(body) != int.from_bytes(crc, "little"):
        raise IndexCorruptError("checksum mismatch: the index file is corrupt or truncated")
    r.data = body  # decode only the bytes the CRC covers
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
    lengths = r.array("<u2", n_patterns)
    elements = r.array("<u4", int(lengths.sum()))
    _require(lengths > 0, "a pattern is empty")
    ends = np.cumsum(lengths, dtype=np.int64)
    # An element's position within its pattern: even positions are type ids, odd ones attribute ids.
    position = np.arange(len(elements)) - np.repeat(ends - lengths, lengths)
    limit = np.where(position % 2 == 0, n_types, n_attrs)
    _require(elements < limit, "a pattern references an unknown type or attribute id")
    flat = elements.tolist()
    all_patterns = [tuple(flat[b - n : b]) for n, b in zip(lengths.tolist(), ends.tolist())]
    keys = list(zip(lengths.tolist(), all_patterns))  # each pattern's `patterns.sort_key`
    _require(list(map(operator.lt, keys, keys[1:])), "the pattern table is not in canonical order")
    vocab = r.string_table()

    counts = r.array("<u8", len(vocab))
    n = sum(counts.tolist())
    pid, sim = (r.array(dtype, n) for dtype in RECORD_DTYPES)
    _require(pid < n_patterns, "a record references an unknown pattern id")
    nodes = r.array("<u4", int(node_offsets(lengths, pid)[-1]))
    if r.pos != len(body):
        raise IndexCorruptError(f"{len(body) - r.pos} unexpected bytes after the records")
    _require(nodes < n_entities, "a record references an unknown entity id")
    _require(np.isfinite(sim) & (sim > 0), "a record's sim term is not finite and positive")
    columns = index_columns((all_patterns, lengths, elements, vocab, counts, pid, sim, nodes), scores)
    _require(np.diff(columns.node_off) <= depth, f"a record has more nodes than the index depth {depth}")
    run_key = pid.astype(np.uint64) << 32 | columns.root
    new_word = np.isin(np.arange(1, n), np.cumsum(counts))
    _require(new_word | (run_key[1:] >= run_key[:-1]), "a word's records are not sorted by pattern id, then root")
    return PathIndex(depth, pagerank, type_names, attr_names, columns, bytes(fingerprint))


def write_index(idx: PathIndex, path: Union[str, Path]) -> None:
    Path(path).write_bytes(serialize(idx))


def read_index(path: Union[str, Path]) -> PathIndex:
    return deserialize(Path(path).read_bytes())
