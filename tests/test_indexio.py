import math
import re
import zlib
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from kgpattern import (
    IndexCorruptError,
    IndexFormatError,
    KgPatternError,
    ParameterError,
    Query,
    build_index,
    compute_pagerank,
    deserialize,
    read_index,
    search_linear_topk,
    serialize,
    uniform_pagerank,
    write_index,
)
from kgpattern import patterns as pat
from kgpattern.cli import main
from kgpattern.fixtures import sample_graph_path
from kgpattern.indexio import FINGERPRINT_BYTES, VERSION
from kgpattern.pathindex import RECORD_DTYPES

from conftest import graph_from_text, random_instance, with_columns


def assert_structurally_equal(a, b):
    assert a.depth == b.depth
    assert a.n_entities == b.n_entities and a.n_types == b.n_types and a.n_attrs == b.n_attrs
    assert np.array_equal(a.pagerank.scores, b.pagerank.scores)
    assert a.pagerank.damping == b.pagerank.damping
    assert a.pagerank.tolerance == b.pagerank.tolerance
    assert a.type_names == b.type_names and a.attr_names == b.attr_names
    assert a.fingerprint == b.fingerprint
    assert a.vocabulary() == b.vocabulary()
    assert a.stats.entry_count == b.stats.entry_count
    assert a.stats.cost_proxy == b.stats.cost_proxy
    assert a.stats.word_sizes == b.stats.word_sizes
    for word in a.vocabulary():
        assert a.paths(word) == b.paths(word)
        assert a.patterns(word) == b.patterns(word)
        assert a.roots(word) == b.roots(word)
        for p in a.patterns(word):
            assert a.roots(word, pattern=p) == b.roots(word, pattern=p)
            for r in a.roots(word, pattern=p):
                assert a.paths(word, pattern=p, root=r) == b.paths(word, pattern=p, root=r)
        for r in a.roots(word):
            assert a.patterns(word, root=r) == b.patterns(word, root=r)
            assert a.paths(word, root=r) == b.paths(word, root=r)


def test_roundtrip_sample(sample_index):
    assert_structurally_equal(deserialize(serialize(sample_index)), sample_index)


@pytest.mark.parametrize("case", range(5))
def test_roundtrip_random(case):
    g, depth, _ = random_instance(case)
    idx = build_index(g, compute_pagerank(g), depth)
    assert_structurally_equal(deserialize(serialize(idx)), idx)


def test_roundtrip_empty_index():
    g = graph_from_text("")
    idx = build_index(g, compute_pagerank(g), 2)
    again = deserialize(serialize(idx))
    assert again.vocabulary() == [] and again.stats.entry_count == 0


def test_roundtrip_graph_without_attributes():
    g = graph_from_text("E a Thing red apple\nE b Thing green apple\n")
    assert g.n_attrs == 0
    idx = build_index(g, compute_pagerank(g), 2)
    assert idx.stats.entry_count > 0
    assert_structurally_equal(deserialize(serialize(idx)), idx)


@pytest.mark.parametrize("case", [None, 0, 1, 2, 3, 4])
def test_reserialize_untouched_index_is_byte_identical(sample_index, case):
    if case is None:
        idx = sample_index
    else:
        g, depth, _ = random_instance(case)
        idx = build_index(g, compute_pagerank(g), depth)
    blob = serialize(idx)
    assert serialize(deserialize(blob)) == blob


def test_file_roundtrip(tmp_path, sample_index):
    path = tmp_path / "sample.kgpx"
    write_index(sample_index, path)
    assert_structurally_equal(read_index(path), sample_index)


def test_bad_magic(sample_index):
    blob = bytearray(serialize(sample_index))
    blob[:4] = b"NOPE"
    with pytest.raises(IndexFormatError):
        deserialize(bytes(blob))


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 99])
def test_bad_version(sample_index, version):
    blob = bytearray(serialize(sample_index))
    blob[4:8] = version.to_bytes(4, "little")
    with pytest.raises(IndexFormatError):
        deserialize(bytes(blob))


def test_readme_states_the_format_version():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"format version \((\d+)\)", readme) == [str(VERSION)]


def records_of(idx):
    """(word, record) for every record of `idx`, in file order."""
    return [(w, rec) for w in idx.vocabulary() for rec in idx.paths(w)]


def with_record(idx, j, **fields):
    """`idx` with the fields of its record j (numbered as in `records_of`)
    replaced, as by `dataclasses.replace`: `pattern` replaces its pattern's
    table entry."""
    c = idx.columns
    a, b = int(c.node_off[j]), int(c.node_off[j + 1])
    changes = {}
    for field, value in fields.items():
        if field == "nodes":
            changes["nodes"] = np.concatenate([c.nodes[:a], np.array(value, "<u4"), c.nodes[b:]])
        elif field == "pattern":
            changes["patterns"] = [value if i == c.pattern_id[j] else p for i, p in enumerate(c.patterns)]
        elif field == "sim_term":
            changes["sim"] = sim = c.sim.copy()
            sim[j] = value
    return with_columns(idx, **changes)


# Each names the error a load raises and maps one record with at least two
# nodes to the fields that make it reference an id its index cannot hold.
OUT_OF_RANGE = {
    "node-id": ("unknown entity id", lambda rec, idx: {"nodes": rec.nodes[:-1] + (idx.n_entities,)}),
    "pattern-type-id": ("unknown type or attribute id", lambda rec, idx: {"pattern": (idx.n_types,) + rec.pattern[1:]}),
    "pattern-attr-id": (
        "unknown type or attribute id",
        lambda rec, idx: {"pattern": rec.pattern[:1] + (idx.n_attrs,) + rec.pattern[2:]},
    ),
}


@pytest.mark.parametrize("corruption", list(OUT_OF_RANGE))
def test_out_of_range_ids_are_corrupt(sample_graph, corruption):
    idx = build_index(sample_graph, uniform_pagerank(sample_graph), 3)
    # A record of the table's last pattern, which keeps its place in canonical
    # order when its type or attribute id grows past the others.
    j, rec = next((j, rec) for j, (_, rec) in enumerate(records_of(idx)) if rec.pattern == idx.columns.patterns[-1])
    assert len(rec.nodes) > 1
    error, fields = OUT_OF_RANGE[corruption]
    with pytest.raises(IndexCorruptError, match=error):
        deserialize(serialize(with_record(idx, j, **fields(rec, idx))))


def test_attributes_are_not_stored(sample_index):
    """A record's attributes are its pattern's odd elements: an index whose
    attribute column disagrees with its patterns writes the file of the index
    it came from, whose load derives them again."""
    changed = with_columns(sample_index, attrs=np.zeros_like(sample_index.columns.attrs))
    assert serialize(changed) == serialize(sample_index)
    assert np.array_equal(deserialize(serialize(changed)).columns.attrs, sample_index.columns.attrs)


# Similarity terms that no index build writes.
INCONSISTENT = {"sim-inf": math.inf, "sim-zero": 0.0}


@pytest.mark.parametrize("corruption", list(INCONSISTENT))
def test_inconsistent_records_are_corrupt(sample_graph, corruption):
    idx = build_index(sample_graph, compute_pagerank(sample_graph), 3)
    with pytest.raises(IndexCorruptError, match="sim term"):
        deserialize(serialize(with_record(idx, 0, sim_term=INCONSISTENT[corruption])))


@pytest.mark.parametrize("edit", ["one-short", "nan", "zero"])
def test_bad_pagerank_vector_is_corrupt(sample_graph, edit):
    idx = build_index(sample_graph, compute_pagerank(sample_graph), 3)
    scores = idx.pagerank.scores.copy()
    if edit == "one-short":
        scores = scores[:-1]
    else:
        scores[0] = math.nan if edit == "nan" else 0.0
    idx.pagerank.scores = scores
    # One score short, the vector holds no score for the last entity, which some record reaches.
    with pytest.raises(IndexCorruptError, match="unknown entity id" if edit == "one-short" else "PageRank score"):
        deserialize(serialize(idx))


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_depth_below_the_longest_path_is_corrupt(sample_index, depth):
    """No writer stores a depth below its paths' node counts, so patch the
    depth of the d=3 sample index in the file and seal it with a fresh CRC."""
    body = bytearray(serialize(sample_index)[:-4])
    body[8:12] = depth.to_bytes(4, "little")
    with pytest.raises(IndexCorruptError, match="below 1" if depth == 0 else "more nodes than the index depth"):
        deserialize(sealed(body))


def test_pattern_id_past_the_table_is_corrupt(sample_index):
    """No writer stores one, so patch the first record's pattern id in the
    file and seal it with a fresh CRC."""
    body = bytearray(serialize(sample_index)[:-4])
    records = [rec for _, rec in records_of(sample_index)]
    at = record_columns_at(body, records)
    body[at : at + 4] = len({rec.pattern for rec in records}).to_bytes(4, "little")
    with pytest.raises(IndexCorruptError, match="unknown pattern id"):
        deserialize(sealed(body))


# The byte width of each fixed-width record column, in file order.
WIDTHS = [np.dtype(dtype).itemsize for dtype in RECORD_DTYPES]


def record_columns_at(body, records) -> int:
    """Where the first record column (pattern_id) starts in `body`, a
    serialized index of `records` without its CRC."""
    # From the end: the nodes column, then the fixed-width columns.
    return len(body) - 4 * sum(len(rec.nodes) for rec in records) - sum(WIDTHS) * len(records)


def swap(body, at, other, size):
    """Swap the `size` bytes at `at` with the `size` bytes at `other`."""
    body[at : at + size], body[other : other + size] = body[other : other + size], body[at : at + size]


def sealed(body) -> bytes:
    return bytes(body) + zlib.crc32(body).to_bytes(4, "little")


def test_runs_out_of_order_are_corrupt(sample_index):
    """No writer stores a word's (pattern, root) runs out of order, so swap
    two one-record runs of one word and pattern in the file and seal it with
    a fresh CRC."""
    entries = records_of(sample_index)
    keys = [(w, rec.pattern, rec.nodes[0]) for w, rec in entries]
    j = next(
        j for j in range(1, len(keys) - 2) if keys[j][:2] == keys[j + 1][:2] and len(set(keys[j - 1 : j + 3])) == 4
    )
    records = [rec for _, rec in entries]
    node_off = list(accumulate((len(rec.nodes) for rec in records), initial=0))
    a, b, end = node_off[j : j + 3]
    assert b - a == end - b  # one pattern, one node count
    body = bytearray(serialize(sample_index)[:-4])
    at = record_columns_at(body, records)
    for width in WIDTHS:
        swap(body, at + width * j, at + width * (j + 1), width)
        at += width * len(records)
    swap(body, at + 4 * a, at + 4 * b, 4 * (b - a))  # nodes
    with pytest.raises(IndexCorruptError, match="not sorted by pattern id, then root"):
        deserialize(sealed(body))


def test_pattern_table_out_of_order_is_corrupt(sample_index):
    """No writer stores the pattern table out of canonical order, so swap two
    patterns of one length in the file, and the ids that point at them, and
    seal it with a fresh CRC."""
    records = [rec for _, rec in records_of(sample_index)]
    patterns = sorted({rec.pattern for rec in records}, key=pat.sort_key)
    i = next(i for i in range(len(patterns) - 1) if len(patterns[i]) == len(patterns[i + 1]))
    body = bytearray(serialize(sample_index)[:-4])
    names = sum(4 + len(name.encode()) for name in sample_index.type_names + sample_index.attr_names)
    # The fixed header, the graph fingerprint, two name tables, the PageRank
    # vector, the pattern count and the pattern lengths come before the
    # patterns' elements.
    at = 28 + FINGERPRINT_BYTES + 8 + names + 4 + 8 * sample_index.n_entities + 4 + 2 * len(patterns)
    at += sum(4 * len(p) for p in patterns[:i])
    size = 4 * len(patterns[i])
    swap(body, at, at + size, size)
    at = record_columns_at(body, records)
    pid = np.frombuffer(body, "<u4", len(records), at).copy()
    was_i, was_next = pid == i, pid == i + 1
    pid[was_i], pid[was_next] = i + 1, i
    body[at : at + pid.nbytes] = pid.tobytes()
    with pytest.raises(IndexCorruptError, match="pattern table is not in canonical order"):
        deserialize(sealed(body))


def with_empty_pattern(idx):
    """(`idx` with an empty pattern first in its table, the word it changes):
    the pattern goes to the word's first record, which has one node."""
    c = idx.columns
    starts = list(accumulate(c.counts.tolist(), initial=0))[:-1]
    j = next(j for j in starts if c.node_off[j + 1] - c.node_off[j] == 1)
    pattern_id = c.pattern_id + 1
    pattern_id[j] = 0
    changed = with_columns(idx, patterns=[()] + c.patterns, pattern_id=pattern_id)
    return changed, c.vocab[starts.index(j)]


def test_an_empty_pattern_is_corrupt(sample_index):
    with pytest.raises(IndexCorruptError, match="a pattern is empty"):
        deserialize(serialize(with_empty_pattern(sample_index)[0]))


@pytest.mark.parametrize("algo", ["linear-topk", "pattern-enum"])
def test_query_on_an_index_with_an_empty_pattern_is_a_data_error(tmp_path, capsys, sample_index, algo):
    index = tmp_path / "empty-pattern.kgpx"
    changed, word = with_empty_pattern(sample_index)
    write_index(changed, index)
    args = ["query", "--graph", str(sample_graph_path()), "--index", str(index), "--q", word, "--algo", algo]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_file_size_is_the_sum_of_its_sections(sample_index):
    idx = sample_index
    records = [rec for _, rec in records_of(idx)]
    n, n_nodes = len(records), sum(len(rec.nodes) for rec in records)

    def strings(table):
        return 4 + sum(4 + len(s.encode()) for s in table)

    header = 4 + 4 * 2 + 8 * 2 + FINGERPRINT_BYTES + strings(idx.type_names) + strings(idx.attr_names) + 4 + 8 * idx.n_entities
    patterns = 4 + sum(2 + 4 * len(p) for p in idx.columns.patterns)
    words = strings(idx.vocabulary()) + 8 * len(idx.vocabulary())
    columns = sum(WIDTHS) * n + 4 * n_nodes
    assert len(serialize(idx)) == header + patterns + words + columns + 4


def test_path_longer_than_255_nodes_is_rejected_before_writing():
    """`build_index` refuses the path where it finds it, so no index that
    holds it can be written."""
    chain = "".join(f"E e{i} Thing x\n" for i in range(256)) + "".join(f"A e{i} next @e{i + 1}\n" for i in range(255))
    g = graph_from_text(chain)
    with pytest.raises(ParameterError, match="255 nodes"):
        build_index(g, uniform_pagerank(g), 256)


def test_name_table_shorter_than_its_count_is_corrupt(sample_graph):
    idx = build_index(sample_graph, uniform_pagerank(sample_graph), 3)
    idx.attr_names = idx.attr_names[:-1]
    with pytest.raises(IndexCorruptError):
        deserialize(serialize(idx))


def test_a_sealed_file_without_its_last_node_is_corrupt(sample_index):
    with pytest.raises(IndexCorruptError, match="truncated index"):
        deserialize(sealed(serialize(sample_index)[:-4 - 4]))


@pytest.mark.parametrize("fraction", [0.05, 0.3, 0.7, 0.999])
def test_truncation(sample_index, fraction):
    blob = serialize(sample_index)
    cut = blob[: max(8, int(len(blob) * fraction))]
    with pytest.raises(IndexCorruptError):
        deserialize(cut)


def test_bytes_after_the_records_are_corrupt(sample_index):
    body = serialize(sample_index)[:-4] + b"\0"
    with pytest.raises(IndexCorruptError, match="after the records"):
        deserialize(body + zlib.crc32(body).to_bytes(4, "little"))


def test_byte_flip_fuzz_never_crashes(sample_index):
    """Every single-bit corruption is rejected with a package error: the
    magic and version checks catch flips in the first 8 bytes, the CRC all
    others."""
    import random

    blob = bytearray(serialize(sample_index))
    rng = random.Random(0)
    for _ in range(3000):
        pos = rng.randrange(len(blob))
        bit = 1 << rng.randrange(8)
        blob[pos] ^= bit
        try:
            with pytest.raises(KgPatternError):
                deserialize(bytes(blob))
        finally:
            blob[pos] ^= bit


def test_queries_identical_after_roundtrip(sample_graph, sample_index, sample_query):
    again = deserialize(serialize(sample_index))
    before = search_linear_topk(sample_graph, sample_index, sample_query)
    after = search_linear_topk(sample_graph, again, sample_query)
    assert [(sp.score, sp.pattern) for sp in before.patterns] == [
        (sp.score, sp.pattern) for sp in after.patterns
    ]
    assert sample_index.patterns("database") == again.patterns("database")
    assert sample_index.roots("database") == again.roots("database")
