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
entry. A column is a raw array (`ndarray.tobytes`), read back as a view with
`np.frombuffer`. A path holds at most 255 nodes (`n_nodes` is a u8);
`serialize` raises ParameterError for a longer one before it writes anything.

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
or a PageRank vector that is not n_entities scores, each finite and
positive. The `PathIndex` constructor gets each word as its record count and
a function that builds its `IndexedPath` objects from its column slices, so
a word's objects are built on first use.
"""
from __future__ import annotations

import io
import struct
import zlib
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Union

import numpy as np

from . import patterns as pat
from .errors import IndexCorruptError, IndexFormatError, ParameterError
from .pagerank import PageRankVector
from .pathindex import EDGE_TYPE, IndexedPath, PathIndex

MAGIC = b"KGPX"
VERSION = 4
MAX_PATH_NODES = 255


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

    vocab = list(idx.words.keys())
    per_word = [idx.words[word].records for word in vocab]
    records = [rec for word_records in per_word for rec in word_records]
    all_patterns = sorted({rec.pattern for rec in records}, key=pat.sort_key)
    pattern_id = {p: i for i, p in enumerate(all_patterns)}
    w.pack("I", len(all_patterns))
    for p in all_patterns:
        w.pack(f"H{len(p)}I", len(p), *p)
    w.string_table(vocab)

    n_nodes = [len(rec.nodes) for rec in records]
    if max(n_nodes, default=0) > MAX_PATH_NODES:
        raise ParameterError(
            f"a path of {max(n_nodes)} nodes exceeds the index file's limit of {MAX_PATH_NODES} "
            f"nodes per path; build with a smaller --d"
        )
    columns = (
        ("<u8", [len(word_records) for word_records in per_word]),
        ("<u4", [pattern_id[rec.pattern] for rec in records]),
        ("<u4", [rec.root for rec in records]),
        ("u1", n_nodes),
        ("u1", [rec.edge_match for rec in records]),
        ("u1", [rec.locus for rec in records]),
        ("<f8", [rec.pr_term for rec in records]),
        ("<f8", [rec.sim_term for rec in records]),
        ("<u4", [v for rec in records for v in rec.nodes]),
        ("<u4", [v for rec in records for v in rec.attrs]),
    )
    for dtype, values in columns:
        w.write(np.array(values, dtype=dtype).tobytes())

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

    counts = r.array("<u8", len(vocab)).tolist()
    n = sum(counts)
    pid, root = r.array("<u4", n), r.array("<u4", n)
    n_nodes, edge_match, locus = r.array("u1", n), r.array("u1", n), r.array("u1", n)
    pr, sim = r.array("<f8", n), r.array("<f8", n)
    _require(n_nodes >= 1, "a record has no nodes")
    node_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_nodes, out=node_off[1:])
    nodes = r.array("<u4", int(node_off[-1]))
    attrs = r.array("<u4", int(node_off[-1]) - n)
    _require(pid < n_patterns, "a record references an unknown pattern id")
    _require(nodes[node_off[:-1]] == root, "a record's root is not its first node")
    _require(nodes < n_entities, "a record references an unknown entity id")
    _require(attrs < n_attrs, "a record references an unknown attribute id")
    edge_ending = np.array([pat.is_edge_ending(p) for p in all_patterns], dtype=bool)[pid]
    _require(edge_match == edge_ending, "a record's edge_match disagrees with its pattern")
    on_edge = np.where(edge_ending, locus == EDGE_TYPE, locus < EDGE_TYPE)
    _require(on_edge, "a record's locus disagrees with its pattern")
    node_counts = np.array([pat.node_count(p) for p in all_patterns], dtype=np.int64)[pid]
    _require(n_nodes == node_counts, "a record's node count disagrees with its pattern")
    for name, column in (("pr", pr), ("sim", sim)):
        _require(np.isfinite(column) & (column > 0), f"a record's {name} term is not finite and positive")

    stored_entries, cost_proxy = r.unpack("QQ")
    if r.pos != len(body):
        raise IndexCorruptError(f"{len(body) - r.pos} unexpected bytes after the stats")
    columns = (all_patterns, pid, root, n_nodes, edge_match, locus, pr, sim, node_off, nodes, attrs)
    bounds = list(accumulate(counts, initial=0))
    per_word = {
        word: (stop - start, partial(_records, columns, start, stop))
        for word, start, stop in zip(vocab, bounds, bounds[1:])
    }
    idx = PathIndex(depth, pagerank, n_entities, type_names, attr_names, per_word, cost_proxy)
    if stored_entries != idx.stats.entry_count:
        raise IndexCorruptError(
            f"entry count mismatch: header says {stored_entries}, records say {idx.stats.entry_count}"
        )
    return idx


def _records(columns, start: int, stop: int) -> list[IndexedPath]:
    """Records start..stop-1 of the checked columns, as objects."""
    all_patterns, pid, root, n_nodes, edge_match, locus, pr, sim, node_off, nodes, attrs = columns
    first, last = int(node_off[start]), int(node_off[stop])
    word_nodes, word_attrs = nodes[first:last].tolist(), attrs[first - start : last - stop].tolist()
    fields = (c[start:stop].tolist() for c in (pid, root, n_nodes, edge_match, locus, pr, sim))
    out = []
    at = 0  # where record j's nodes start in `word_nodes`; its attributes start at `at - j`
    for j, (p, r, n, e, loc, pr_term, sim_term) in enumerate(zip(*fields)):
        rec_nodes, rec_attrs = tuple(word_nodes[at : at + n]), tuple(word_attrs[at - j : at - j + n - 1])
        out.append(IndexedPath(r, rec_nodes, rec_attrs, e == 1, loc, n, pr_term, sim_term, all_patterns[p]))
        at += n
    return out


def write_index(idx: PathIndex, path: Union[str, Path]) -> None:
    Path(path).write_bytes(serialize(idx))


def read_index(path: Union[str, Path]) -> PathIndex:
    return deserialize(Path(path).read_bytes())
