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
    per-word blocks, in vocabulary order:
        record count u64
        records, sorted pattern-first:
            pattern_id u32 | root u32 | n_nodes u8 | edge_match u8 | locus u8
            | pad u8 | nodes u32 * n_nodes | attrs u32 * (n_nodes - 1)
            | pr f64 | sim f64
    stats: entry_count u64 | cost_proxy u64
    crc u32: zlib.crc32 of every byte before it

A string table is a u32 count followed by (u32 byte length, UTF-8 bytes) per
entry. Only the records are stored: reading passes them to the `PathIndex`
constructor, which builds both layouts, as `build_index` does. A path holds
at most 255 nodes (`n_nodes` is a u8); `serialize` raises ParameterError
for a longer one before it writes anything.

Reading checks the magic, then the version, then the CRC, before it decodes
anything else. Bad magic or version raises IndexFormatError. A CRC mismatch
(any single-bit flip after the version field, or a truncated file), a short
read, bytes left over after the stats, an entry count that disagrees with
the records, a name table whose length disagrees with its header count, or
an id out of range (a pattern id past the pattern table, a node id >=
n_entities, an attribute id >= n_attrs, a pattern type id >= n_types, a root
that is not the record's first node) raises IndexCorruptError.
"""
from __future__ import annotations

import io
import struct
import zlib
from pathlib import Path
from typing import Union

import numpy as np

from . import patterns as pat
from .errors import IndexCorruptError, IndexFormatError, ParameterError
from .pagerank import PageRankVector
from .pathindex import IndexedPath, PathIndex

MAGIC = b"KGPX"
VERSION = 3
MAX_PATH_NODES = 255


class _Writer:
    def __init__(self):
        self.buf = io.BytesIO()

    def pack(self, fmt, *values):
        self.buf.write(struct.pack("<" + fmt, *values))

    def raw(self, data: bytes):
        self.buf.write(data)

    def string(self, s: str):
        data = s.encode("utf-8")
        self.pack("I", len(data))
        self.raw(data)

    def string_table(self, strings):
        self.pack("I", len(strings))
        for s in strings:
            self.string(s)

    def getvalue(self) -> bytes:
        return self.buf.getvalue()


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

    def string(self) -> str:
        (n,) = self.unpack("I")
        return self.take(n).decode("utf-8")

    def string_table(self) -> list[str]:
        (n,) = self.unpack("I")
        return [self.string() for _ in range(n)]


def serialize(idx: PathIndex) -> bytes:
    w = _Writer()
    w.raw(MAGIC)
    w.pack("II", VERSION, idx.depth)
    w.pack("III", idx.n_entities, idx.n_types, idx.n_attrs)
    w.pack("dd", idx.pagerank.damping, idx.pagerank.tolerance)
    w.string_table(idx.type_names)
    w.string_table(idx.attr_names)

    scores = np.asarray(idx.pagerank.scores, dtype="<f8")
    w.pack("I", len(scores))
    w.raw(scores.tobytes())

    all_patterns = sorted(
        {rec.pattern for word in idx.words.values() for rec in word.records},
        key=pat.sort_key,
    )
    pattern_id = {p: i for i, p in enumerate(all_patterns)}
    w.pack("I", len(all_patterns))
    for p in all_patterns:
        w.pack("H", len(p))
        w.pack(f"{len(p)}I", *p)

    vocab = list(idx.words.keys())
    w.string_table(vocab)

    for word in vocab:
        records = idx.words[word].records
        w.pack("Q", len(records))
        for rec in records:
            n = len(rec.nodes)
            if n > MAX_PATH_NODES:
                raise ParameterError(
                    f"a path of {n} nodes exceeds the index file's limit of {MAX_PATH_NODES} "
                    f"nodes per path; build with a smaller --d"
                )
            w.pack("IIBBBB", pattern_id[rec.pattern], rec.root, n, int(rec.edge_match), rec.locus, 0)
            w.pack(f"{n}I", *rec.nodes)
            if n > 1:
                w.pack(f"{n - 1}I", *rec.attrs)
            w.pack("dd", rec.pr_term, rec.sim_term)

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


def _deserialize(data: bytes) -> PathIndex:
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise IndexFormatError("not a path-index file (bad magic)")
    (version,) = r.unpack("I")
    if version != VERSION:
        raise IndexFormatError(f"unsupported index version {version}")
    body, crc = data[:-4], data[-4:]
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
    scores = np.frombuffer(r.take(8 * n_scores), dtype="<f8").astype(np.float64)
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
    per_word: dict[str, list[IndexedPath]] = {}
    for word in vocab:
        (n_records,) = r.unpack("Q")
        records: list[IndexedPath] = []
        for _ in range(n_records):
            pid, root, n_nodes, edge_match, locus, _pad = r.unpack("IIBBBB")
            nodes = r.unpack(f"{n_nodes}I")
            attrs = r.unpack(f"{n_nodes - 1}I") if n_nodes > 1 else ()
            pr_term, sim_term = r.unpack("dd")
            if pid >= n_patterns:
                raise IndexCorruptError(f"record references unknown pattern id {pid}")
            if not nodes or nodes[0] != root:
                raise IndexCorruptError(f"record root {root} is not the first node of {nodes}")
            if max(nodes) >= n_entities or max(attrs, default=-1) >= n_attrs:
                raise IndexCorruptError(
                    f"record path {nodes} / {attrs} references an unknown entity or attribute id"
                )
            records.append(
                IndexedPath(
                    root=root,
                    nodes=nodes,
                    attrs=attrs,
                    edge_match=bool(edge_match),
                    locus=locus,
                    node_count=n_nodes,
                    pr_term=pr_term,
                    sim_term=sim_term,
                    pattern=all_patterns[pid],
                )
            )
        per_word[word] = records

    stored_entries, cost_proxy = r.unpack("QQ")
    if r.pos != len(body):
        raise IndexCorruptError(f"{len(body) - r.pos} unexpected bytes after the stats")
    idx = PathIndex(depth, pagerank, n_entities, type_names, attr_names, per_word, cost_proxy)
    if stored_entries != idx.stats.entry_count:
        raise IndexCorruptError(
            f"entry count mismatch: header says {stored_entries}, records say {idx.stats.entry_count}"
        )
    return idx


def write_index(idx: PathIndex, path: Union[str, Path]) -> None:
    Path(path).write_bytes(serialize(idx))


def read_index(path: Union[str, Path]) -> PathIndex:
    return deserialize(Path(path).read_bytes())
