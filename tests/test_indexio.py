import dataclasses
import zlib

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

from conftest import graph_from_text, random_instance


def assert_structurally_equal(a, b):
    assert a.depth == b.depth
    assert a.n_entities == b.n_entities and a.n_types == b.n_types and a.n_attrs == b.n_attrs
    assert np.array_equal(a.pagerank.scores, b.pagerank.scores)
    assert a.pagerank.damping == b.pagerank.damping
    assert a.pagerank.tolerance == b.pagerank.tolerance
    assert a.type_names == b.type_names and a.attr_names == b.attr_names
    assert a.vocabulary() == b.vocabulary()
    assert a.stats.entry_count == b.stats.entry_count
    assert a.stats.cost_proxy == b.stats.cost_proxy
    assert a.stats.word_sizes == b.stats.word_sizes
    for word in a.vocabulary():
        assert a.words[word].records == b.words[word].records
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


def test_file_roundtrip(tmp_path, sample_index):
    path = tmp_path / "sample.kgpx"
    write_index(sample_index, path)
    assert_structurally_equal(read_index(path), sample_index)


def test_bad_magic(sample_index):
    blob = bytearray(serialize(sample_index))
    blob[:4] = b"NOPE"
    with pytest.raises(IndexFormatError):
        deserialize(bytes(blob))


@pytest.mark.parametrize("version", [1, 2, 99])
def test_bad_version(sample_index, version):
    blob = bytearray(serialize(sample_index))
    blob[4:8] = version.to_bytes(4, "little")
    with pytest.raises(IndexFormatError):
        deserialize(bytes(blob))


# Each maps one record with at least two nodes to the fields that make it
# reference an id its index cannot hold.
OUT_OF_RANGE = {
    "root-not-first-node": lambda rec, idx: {"root": (rec.root + 1) % idx.n_entities},
    "node-id": lambda rec, idx: {"nodes": rec.nodes[:-1] + (idx.n_entities,)},
    "attr-id": lambda rec, idx: {"attrs": rec.attrs[:-1] + (idx.n_attrs,)},
    "pattern-type-id": lambda rec, idx: {"pattern": (idx.n_types,) + rec.pattern[1:]},
    "pattern-attr-id": lambda rec, idx: {"pattern": rec.pattern[:1] + (idx.n_attrs,) + rec.pattern[2:]},
}


@pytest.mark.parametrize("corruption", list(OUT_OF_RANGE))
def test_out_of_range_ids_are_corrupt(sample_graph, corruption):
    idx = build_index(sample_graph, uniform_pagerank(sample_graph), 3)
    records = idx.words["database"].records
    i = next(i for i, rec in enumerate(records) if len(rec.nodes) > 1)
    records[i] = dataclasses.replace(records[i], **OUT_OF_RANGE[corruption](records[i], idx))
    with pytest.raises(IndexCorruptError):
        deserialize(serialize(idx))


def test_path_longer_than_255_nodes_is_rejected_before_writing(sample_graph):
    idx = build_index(sample_graph, uniform_pagerank(sample_graph), 3)
    records = idx.words["database"].records
    records[0] = dataclasses.replace(records[0], nodes=(records[0].root,) * 256, attrs=(0,) * 255)
    with pytest.raises(ParameterError, match="255 nodes"):
        serialize(idx)


def test_name_table_shorter_than_its_count_is_corrupt(sample_graph):
    idx = build_index(sample_graph, uniform_pagerank(sample_graph), 3)
    idx.attr_names = idx.attr_names[:-1]
    with pytest.raises(IndexCorruptError):
        deserialize(serialize(idx))


@pytest.mark.parametrize("fraction", [0.05, 0.3, 0.7, 0.999])
def test_truncation(sample_index, fraction):
    blob = serialize(sample_index)
    cut = blob[: max(8, int(len(blob) * fraction))]
    with pytest.raises(IndexCorruptError):
        deserialize(cut)


def test_bytes_after_the_stats_are_corrupt(sample_index):
    body = serialize(sample_index)[:-4] + b"\0"
    with pytest.raises(IndexCorruptError, match="after the stats"):
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
