"""Binary serialization of the path index.

Little-endian throughout. Layout::

    magic "KGPX" | version u32 | depth u32
    n_entities u32 | n_types u32 | n_attrs u32
    damping f64 | tolerance f64
    type-name string table | attr-name string table
    pagerank: count u32, f64 * count
    pattern table: count u32, then per pattern u16 element count + u32 ids
                   (patterns in canonical length-lexicographic order; a
                   pattern's table position is its id)
    vocabulary string table
    counts: u64 * n_words, each word's record count
    record columns, one entry per record: every word's records in vocabulary
    order, each word's sorted pattern-first:
        pattern_id u32 | root u32 | n_nodes u8 | edge_match u8 | locus u8
        | pr f64 | sim f64
    nodes u32 * sum(n_nodes) | attrs u32 * sum(n_nodes - 1)
    stats: entry_count u64 | cost_proxy u64
    crc u32: zlib.crc32 of every byte before it

A string table is a u32 count followed by (u32 byte length, UTF-8 bytes) per
entry. The pattern table, vocabulary and columns are `PathIndex.columns`:
`serialize` writes each column with `ndarray.tobytes`, and `deserialize`
passes the `np.frombuffer` views it reads to the `PathIndex` constructor. A
path holds at most 255 nodes (`n_nodes` is a u8); `build_index` refuses more.

Reading checks the magic, then the version, then the CRC, before it decodes
anything else. Bad magic or version raises IndexFormatError. Every other
check also runs before `deserialize` returns, the record checks each on a
whole column, and raises IndexCorruptError: a CRC mismatch (any single-bit
flip after the version field, or a truncated file), a short read, bytes left
over after the stats, an entry count that disagrees with the records, a name
table whose length disagrees with its header count, an id out of range (a
pattern id past the pattern table, a node id >= n_entities, an attribute id
>= n_attrs, a pattern type id >= n_types, a root that is not the record's
first node), a record that no build writes (no nodes, `n_nodes` other than
its pattern's node count, `edge_match` other than 1 exactly on an
even-length (attribute-ending) pattern, `locus` other than edge-type exactly
on edge matches, or a `pr` or `sim` term that is not finite and positive),
a PageRank vector that is not n_entities scores, each finite and positive,
a pattern table that is not strictly increasing in canonical order, or a
word whose records' (pattern_id, root) ever decrease. The last two make the
file's order the in-memory order: each (word, pattern, root) leaf is one
contiguous run of records, taken in stored order.
"""
from __future__ import annotations

import io
import struct
import zlib
from pathlib import Path
from typing import Union

import numpy as np

from . import patterns as pat
from .errors import IndexCorruptError, IndexFormatError
from .pagerank import PageRankVector
from .pathindex import EDGE_TYPE, RECORD_DTYPES, IndexColumns, PathIndex

MAGIC = b"KGPX"
VERSION = 4


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
    w.pack("III", idx.n_entities, idx.n_types, idx.n_attrs)
    w.pack("dd", idx.pagerank.damping, idx.pagerank.tolerance)
    w.string_table(idx.type_names)
    w.string_table(idx.attr_names)

    scores = np.asarray(idx.pagerank.scores, dtype="<f8")
    w.pack("I", len(scores))
    w.write(scores.tobytes())

    c = idx.columns
    w.pack("I", len(c.patterns))
    for p in c.patterns:
        w.pack(f"H{len(p)}I", len(p), *p)
    w.string_table(c.vocab)
    for column in (c.counts, c.pattern_id, c.root, c.n_nodes, c.edge_match, c.locus, c.pr, c.sim, c.nodes, c.attrs):
        w.write(column.tobytes())

    w.pack("QQ", idx.stats.entry_count, idx.stats.cost_proxy)
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
    n_entities, n_types, n_attrs = r.unpack("III")
    damping, tolerance = r.unpack("dd")
    type_names = r.string_table()
    attr_names = r.string_table()
    if (len(type_names), len(attr_names)) != (n_types, n_attrs):
        raise IndexCorruptError(
            f"name tables hold {len(type_names)} types and {len(attr_names)} attributes, "
            f"header says {n_types} and {n_attrs}"
        )

    (n_scores,) = r.unpack("I")
    scores = r.array("<f8", n_scores).astype(np.float64)
    if n_scores != n_entities:
        raise IndexCorruptError(f"{n_scores} PageRank scores for {n_entities} entities")
    _require(np.isfinite(scores) & (scores > 0), "a PageRank score is not finite and positive")
    pagerank = PageRankVector(scores, damping, tolerance)

    (n_patterns,) = r.unpack("I")
    all_patterns = []
    for _ in range(n_patterns):
        (n_el,) = r.unpack("H")
        p = r.unpack(f"{n_el}I")
        if max(p[0::2], default=-1) >= n_types or max(p[1::2], default=-1) >= n_attrs:
            raise IndexCorruptError(f"pattern {p} references an unknown type or attribute id")
        all_patterns.append(p)
    vocab = r.string_table()

    counts = r.array("<u8", len(vocab))
    n = sum(counts.tolist())
    pid, root, n_nodes, edge_match, locus, pr, sim = (r.array(dtype, n) for dtype in RECORD_DTYPES)
    _require(pid < n_patterns, "a record references an unknown pattern id")
    # Every pattern covers at least one node, so this also rejects a record without nodes.
    node_counts = np.array([pat.node_count(p) for p in all_patterns], dtype=np.int64)[pid]
    _require(n_nodes == node_counts, "a record's node count disagrees with its pattern")
    node_off = np.concatenate(([0], np.cumsum(n_nodes, dtype=np.int64)))
    nodes = r.array("<u4", int(node_off[-1]))
    attrs = r.array("<u4", int(node_off[-1]) - n)
    _require(nodes[node_off[:-1]] == root, "a record's root is not its first node")
    _require(nodes < n_entities, "a record references an unknown entity id")
    _require(attrs < n_attrs, "a record references an unknown attribute id")
    edge_ending = np.array([pat.is_edge_ending(p) for p in all_patterns], dtype=bool)[pid]
    _require(edge_match == edge_ending, "a record's edge_match disagrees with its pattern")
    on_edge = np.where(edge_ending, locus == EDGE_TYPE, locus < EDGE_TYPE)
    _require(on_edge, "a record's locus disagrees with its pattern")
    for name, column in (("pr", pr), ("sim", sim)):
        _require(np.isfinite(column) & (column > 0), f"a record's {name} term is not finite and positive")
    keys = [pat.sort_key(p) for p in all_patterns]
    _require([a < b for a, b in zip(keys, keys[1:])], "the pattern table is not in canonical order")
    run_key = pid.astype(np.uint64) << 32 | root
    new_word = np.isin(np.arange(1, n), np.cumsum(counts))
    _require(new_word | (run_key[1:] >= run_key[:-1]), "a word's records are not sorted by pattern id, then root")

    stored_entries, cost_proxy = r.unpack("QQ")
    if r.pos != len(body):
        raise IndexCorruptError(f"{len(body) - r.pos} unexpected bytes after the stats")
    columns = IndexColumns(
        all_patterns, vocab, counts, pid, root, n_nodes, edge_match, locus, pr, sim, node_off, nodes, attrs
    )
    idx = PathIndex(depth, pagerank, n_entities, type_names, attr_names, columns, cost_proxy)
    if stored_entries != idx.stats.entry_count:
        raise IndexCorruptError(
            f"entry count mismatch: header says {stored_entries}, records say {idx.stats.entry_count}"
        )
    return idx


def write_index(idx: PathIndex, path: Union[str, Path]) -> None:
    Path(path).write_bytes(serialize(idx))


def read_index(path: Union[str, Path]) -> PathIndex:
    return deserialize(Path(path).read_bytes())
