import functools
import math
import re
import tempfile
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
    search_baseline,
    search_linear_topk,
    search_pattern_enum,
    serialize,
    uniform_pagerank,
    write_index,
)
from kgpattern import patterns as pat
from kgpattern.cli import main
from kgpattern.fixtures import sample_graph_path
from kgpattern.indexio import FINGERPRINT_BYTES, VERSION, record_columns

from conftest import flipped, graph_from_text, random_instance, with_columns
from test_oracle import assert_engines_match_the_oracle
from test_pathindex import assert_terms_match_recomputation


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
    assert a.words == b.words
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
    assert serialize(read_index(path)) == path.read_bytes()  # its words unchecked until `serialize` checks them


def test_bad_magic(sample_index):
    blob = bytearray(serialize(sample_index))
    blob[:4] = b"NOPE"
    with pytest.raises(IndexFormatError):
        deserialize(bytes(blob))


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 99])
def test_bad_version(sample_index, version):
    blob = bytearray(serialize(sample_index))
    blob[4:8] = version.to_bytes(4, "little")
    with pytest.raises(IndexFormatError):
        deserialize(bytes(blob))


def test_readme_states_the_format_version():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"format version \((\d+)\)", readme) == [str(VERSION)]


def records_of(idx):
    """(word, record) for every record of `idx`, in file order: root-first."""
    return [(w, rec) for w in idx.vocabulary() for r in idx.roots(w) for rec in idx.paths(w, root=r)]


def with_record(idx, j, **fields):
    """`idx` with the fields of its record j (numbered as in `records_of`)
    replaced, as by `dataclasses.replace`: `pattern` replaces its pattern's
    table entry, and `tokens` sets its stored token count."""
    c = idx.columns
    a, b = int(c.node_off[j]), int(c.node_off[j + 1])
    changes = {}
    for field, value in fields.items():
        if field == "nodes":
            changes["nodes"] = np.concatenate([c.nodes[:a], np.array(value, "<u4"), c.nodes[b:]])
        elif field == "pattern":
            changes["patterns"] = [value if i == c.pattern_id[j] else p for i, p in enumerate(c.patterns)]
        elif field == "tokens":
            changes["tokens"] = tokens = c.tokens.copy()
            tokens[j] = value
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
    # Its ids are u1 (16 entities, 30 patterns, 5 types, 8 attributes), wide
    # enough for each out-of-range id. A record of the table's last pattern,
    # which keeps its place in canonical order when its type or attribute id
    # grows past the others.
    j, rec = next((j, rec) for j, (_, rec) in enumerate(records_of(idx)) if rec.pattern == idx.columns.patterns[-1])
    assert len(rec.nodes) > 1
    error, fields = OUT_OF_RANGE[corruption]
    with pytest.raises(IndexCorruptError, match=error):
        deserialize(serialize(with_record(idx, j, **fields(rec, idx))))


def test_attributes_are_not_stored(sample_index):
    """A record's attributes are its pattern's odd elements, and its step
    slots are derived from them and its nodes: an index whose key slots
    disagree with them writes the file of the index it came from, whose load
    derives the slots again."""
    changed = with_columns(sample_index, key=np.zeros_like(sample_index.columns.key))
    assert serialize(changed) == serialize(sample_index)
    assert np.array_equal(deserialize(serialize(changed)).columns.key, sample_index.columns.key)


def with_count_width(idx, width) -> bytes:
    """The file of `idx` with its token count width field set to `width`
    (the field before the word directory) and sealed with fresh CRCs."""
    blob = bytearray(serialize(idx))
    at = header_size(blob) - 12 * len(idx.vocabulary()) - 4
    blob[at : at + 4] = width.to_bytes(4, "little")
    return sealed(blob, idx)


# Token counts that no index build writes: a record's count of 0, and a
# count column whose width is none of 1, 2 and 4.
INCONSISTENT = {
    "zero-count": ("a record's token count is 0", lambda idx: serialize(with_record(idx, 0, tokens=0))),
    **{f"count-width-{w}": (f"unsupported token count width {w}", functools.partial(with_count_width, width=w))
       for w in (0, 3, 8)},
}


@pytest.mark.parametrize("corruption", list(INCONSISTENT))
def test_inconsistent_records_are_corrupt(sample_graph, corruption):
    idx = build_index(sample_graph, compute_pagerank(sample_graph), 3)
    error, blob = INCONSISTENT[corruption]
    with pytest.raises(IndexCorruptError, match=error):
        deserialize(blob(idx))


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
    depth of the d=3 sample index in the file and seal it with fresh CRCs."""
    blob = bytearray(serialize(sample_index))
    blob[12:16] = depth.to_bytes(4, "little")
    with pytest.raises(IndexCorruptError, match="below 1" if depth == 0 else "more nodes than the index depth"):
        deserialize(sealed(blob, sample_index))


def test_pattern_id_past_the_table_is_corrupt(sample_index):
    """No writer stores one, so patch the first record's pattern id in the
    file and seal it with fresh CRCs. The sample index has 30 patterns: a u1
    pattern id can hold 30."""
    blob = bytearray(serialize(sample_index))
    at, width = records_at(blob), record_columns(sample_index.columns)[0].itemsize
    blob[at : at + width] = len(sample_index.columns.patterns).to_bytes(width, "little")
    with pytest.raises(IndexCorruptError, match="unknown pattern id"):
        deserialize(sealed(blob, sample_index))


def header_size(blob) -> int:
    """The bytes before the header CRC of the serialized index `blob`."""
    return int.from_bytes(blob[8:12], "little")


def records_at(blob) -> int:
    """Where the first record column (pattern_id) starts in `blob`."""
    return header_size(blob) + 4


def sealed(blob, idx) -> bytes:
    """`blob`, the file of `idx` with some bytes patched but its record
    columns' sizes kept, with every record CRC of its word directory and its
    header CRC computed afresh from the directory's counts."""
    size, n_words = header_size(blob), len(idx.vocabulary())
    counts = np.frombuffer(bytes(blob[size - 12 * n_words : size - 4 * n_words]), "<u4").reshape(2, -1)
    records, nodes = (list(accumulate(column.tolist(), initial=0)) for column in counts)
    columns = record_columns(idx.columns)  # their dtypes and sizes, in file order
    at = accumulate((column.nbytes for column in columns), initial=records_at(blob))
    pid, tokens, node = (np.frombuffer(bytes(blob), column.dtype, len(column), offset) for column, offset in zip(columns, at))
    crcs = [zlib.crc32(node[c:d], zlib.crc32(tokens[a:b], zlib.crc32(pid[a:b])))
            for a, b, c, d in zip(records, records[1:], nodes, nodes[1:])]
    out = bytearray(blob)
    out[size - 4 * n_words : size] = np.array(crcs, "<u4").tobytes()
    out[size : size + 4] = zlib.crc32(out[:size]).to_bytes(4, "little")
    return bytes(out)


def swap(body, at, other, size):
    """Swap the `size` bytes at `at` with the `size` bytes at `other`."""
    body[at : at + size], body[other : other + size] = body[other : other + size], body[at : at + size]


def swapped(idx, j) -> bytes:
    """The file of `idx` with its records j and j + 1 (numbered as in
    `records_of`), of one node count, swapped and sealed with fresh CRCs."""
    records = [rec for _, rec in records_of(idx)]
    node_off = list(accumulate((len(rec.nodes) for rec in records), initial=0))
    a, b, end = node_off[j : j + 3]
    assert b - a == end - b  # one node count
    blob = bytearray(serialize(idx))
    *columns, nodes = record_columns(idx.columns)
    at = records_at(blob)
    for column in columns:
        width = column.itemsize
        swap(blob, at + width * j, at + width * (j + 1), width)
        at += column.nbytes
    width = nodes.itemsize
    swap(blob, at + width * a, at + width * b, width * (b - a))
    return sealed(blob, idx)


def test_runs_out_of_order_are_corrupt(sample_index):
    """No writer stores a word's (root, pattern) runs out of order, so swap
    two one-record runs of one word and pattern under two roots in the file."""
    keys = [(w, rec.pattern, rec.nodes[0]) for w, rec in records_of(sample_index)]
    j = next(
        j for j in range(1, len(keys) - 2) if keys[j][:2] == keys[j + 1][:2] and len(set(keys[j - 1 : j + 3])) == 4
    )
    with pytest.raises(IndexCorruptError, match="not sorted by root, then pattern id"):
        deserialize(swapped(sample_index, j))


def test_patterns_out_of_order_under_a_root_are_corrupt(sample_index):
    """Nor a root's records out of pattern order: swap the last record of one
    pattern under a root with the first of the next, of the same length."""
    keys = [(w, rec.nodes[0], rec.pattern) for w, rec in records_of(sample_index)]
    j = next(
        j for j in range(len(keys) - 1)
        if keys[j][:2] == keys[j + 1][:2] and keys[j][2] != keys[j + 1][2] and len(keys[j][2]) == len(keys[j + 1][2])
    )
    with pytest.raises(IndexCorruptError, match="not sorted by root, then pattern id"):
        deserialize(swapped(sample_index, j))


def test_pattern_table_out_of_order_is_corrupt(sample_index):
    """No writer stores the pattern table out of canonical order, so swap two
    patterns of one length in the file, and the ids that point at them, and
    seal it with fresh CRCs."""
    records = [rec for _, rec in records_of(sample_index)]
    patterns = sorted({rec.pattern for rec in records}, key=pat.sort_key)
    i = next(i for i in range(len(patterns) - 1) if len(patterns[i]) == len(patterns[i + 1]))
    blob = bytearray(serialize(sample_index))
    names = sum(4 + len(name.encode()) for name in sample_index.type_names + sample_index.attr_names)
    # The fixed header, the graph fingerprint, two name tables, the PageRank
    # vector, the pattern count and the pattern lengths come before the
    # patterns' elements.
    at = 32 + FINGERPRINT_BYTES + 8 + names + 4 + 8 * sample_index.n_entities + 4 + 2 * len(patterns)
    width = sample_index.columns.patterns.elements.itemsize
    at += sum(width * len(p) for p in patterns[:i])
    size = width * len(patterns[i])
    swap(blob, at, at + size, size)
    at = records_at(blob)
    pid = np.frombuffer(blob, record_columns(sample_index.columns)[0].dtype, len(records), at).copy()
    was_i, was_next = pid == i, pid == i + 1
    pid[was_i], pid[was_next] = i + 1, i
    blob[at : at + pid.nbytes] = pid.tobytes()
    with pytest.raises(IndexCorruptError, match="pattern table is not in canonical order"):
        deserialize(sealed(blob, sample_index))


def with_empty_pattern(idx):
    """(`idx` with an empty pattern first in its table, the word it changes):
    the pattern goes to the word's first record, which has one node."""
    c = idx.columns
    starts = list(accumulate(c.counts.tolist(), initial=0))[:-1]
    j = next(j for j in starts if c.node_off[j + 1] - c.node_off[j] == 1)
    pattern_id = c.pattern_id + 1
    pattern_id[j] = 0
    changed = with_columns(idx, patterns=[(), *c.patterns], pattern_id=pattern_id)
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

    header = 4 + 4 * 3 + 8 * 2 + FINGERPRINT_BYTES + strings(idx.type_names) + strings(idx.attr_names) + 4 + 8 * idx.n_entities
    pid, tokens, nodes = (column.itemsize for column in record_columns(idx.columns))
    assert (pid, tokens, nodes, idx.columns.patterns.elements.itemsize) == (1, 1, 1, 1)  # 30 patterns, 16 entities
    patterns = 4 + sum(2 + len(p) for p in idx.columns.patterns)
    words = strings(idx.vocabulary()) + 4 + 3 * 4 * len(idx.vocabulary())  # the vocabulary, the count width, the word directory
    columns = (pid + tokens) * n + nodes * n_nodes
    assert len(serialize(idx)) == header + patterns + words + 4 + columns


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
    """The header CRC holds, but the directory counts a node past the end."""
    with pytest.raises(IndexCorruptError, match="truncated index"):
        deserialize(serialize(sample_index)[:-4])


@pytest.mark.parametrize("fraction", [0.05, 0.3, 0.7, 0.999])
def test_truncation(sample_index, fraction):
    blob = serialize(sample_index)
    cut = blob[: max(8, int(len(blob) * fraction))]
    with pytest.raises(IndexCorruptError):
        deserialize(cut)


def test_bytes_after_the_records_are_corrupt(sample_index):
    with pytest.raises(IndexCorruptError, match="after the records"):
        deserialize(serialize(sample_index) + b"\0")


def test_byte_flip_fuzz_never_crashes(sample_index):
    """Every single-bit corruption is rejected with a package error: the
    magic and version checks catch flips in the first 8 bytes, the header
    CRC flips in the rest of the header, and the words' record CRCs flips in
    the records, which `deserialize` checks for every word."""
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


def test_a_word_whose_nodes_disagree_with_its_directory_is_corrupt(sample_index):
    """No writer stores a directory node count other than its records', so
    move one node from the first word's count to the second's in the file
    and seal it with fresh CRCs: the totals still match the file length."""
    blob = bytearray(serialize(sample_index))
    n_words = len(sample_index.vocabulary())
    at = header_size(blob) - 8 * n_words  # the directory's node counts
    node_counts = np.frombuffer(bytes(blob[at : at + 4 * n_words]), "<u4").astype(np.int64)
    node_counts[:2] += [1, -1]
    blob[at : at + 4 * n_words] = node_counts.astype("<u4").tobytes()
    with pytest.raises(IndexCorruptError, match="disagree with its directory node count"):
        deserialize(sealed(blob, sample_index))


def test_a_header_size_past_its_sections_is_corrupt(sample_index):
    """The header size field moves the header CRC 4 bytes on, over the
    first records' pattern ids, and the CRC there is made to hold."""
    blob = bytearray(serialize(sample_index))
    size = header_size(blob) + 4
    blob[8:12] = size.to_bytes(4, "little")
    blob[size : size + 4] = zlib.crc32(blob[:size]).to_bytes(4, "little")
    with pytest.raises(IndexCorruptError, match="header size .* disagrees with its sections"):
        read_index_of(bytes(blob))


def test_a_header_size_short_of_its_sections_is_corrupt(sample_index):
    """The header size field moves the header CRC 4 bytes back, over the
    last word's record CRC, and the CRC there is made to hold: the
    directory then reads past the header."""
    blob = bytearray(serialize(sample_index))
    size = header_size(blob) - 4
    blob[8:12] = size.to_bytes(4, "little")
    blob[size : size + 4] = zlib.crc32(blob[:size]).to_bytes(4, "little")
    with pytest.raises(IndexCorruptError, match="truncated index: wanted"):
        read_index_of(bytes(blob))


def test_a_name_that_is_not_utf8_is_corrupt(sample_index):
    """The first type name's first byte becomes 0xff in the file, whose
    header CRC is made to hold."""
    blob = bytearray(serialize(sample_index))
    n_types = int.from_bytes(blob[64:68], "little")  # after the fixed fields and the fingerprint
    blob[68 + 4 * n_types] = 0xFF
    size = header_size(blob)
    blob[size : size + 4] = zlib.crc32(blob[:size]).to_bytes(4, "little")
    with pytest.raises(IndexCorruptError, match="corrupt index file: 'utf-8' codec can't decode byte 0xff"):
        read_index_of(bytes(blob))


def read_index_of(blob):
    """`read_index` of a file holding `blob`."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "index.kgpx"
        path.write_bytes(blob)
        return read_index(path)


def answers(result):
    return [(sp.pattern, sp.score, sp.estimated_score, sp.subtrees) for sp in result.patterns]


@pytest.mark.parametrize("engine", [search_linear_topk, search_pattern_enum])
def test_a_corrupt_word_fails_only_the_queries_that_read_it(sample_graph, sample_index, sample_query, engine):
    """`springer` is no keyword of the sample query: its corrupt record
    cannot change the query's answer, and fails every load that reads it."""
    idx = read_index_of(flipped(serialize(sample_index), sample_index, "springer"))
    assert answers(engine(sample_graph, idx, sample_query)) == answers(engine(sample_graph, sample_index, sample_query))
    with pytest.raises(IndexCorruptError, match="checksum mismatch: the records of word 'springer' are corrupt"):
        engine(sample_graph, idx, Query(("database", "springer")))
    with pytest.raises(IndexCorruptError, match="checksum mismatch: the records of word 'springer' are corrupt"):
        idx.roots("springer")
    with pytest.raises(IndexCorruptError, match="checksum mismatch: the records of word 'springer' are corrupt"):
        deserialize(flipped(serialize(sample_index), sample_index, "springer"))


def test_a_query_checks_only_its_keywords(sample_graph, sample_index):
    idx = read_index_of(serialize(sample_index))
    assert set(idx.unchecked) == set(idx.vocabulary())
    search_linear_topk(sample_graph, idx, Query(("database",), 5))
    assert set(idx.vocabulary()) - set(idx.unchecked) == {"database"}
    idx.patterns("software")
    assert set(idx.vocabulary()) - set(idx.unchecked) == {"database", "software"}
    assert not deserialize(serialize(sample_index)).unchecked


@pytest.mark.parametrize(
    "words",
    [["database"], ["bing", "database"], ["12", "37", "77"], ["12", "us", "37", "writtenin"], None],
    ids=["one", "apart", "adjacent", "ends", "all"],
)
def test_checked_words_derive_the_columns_of_a_build(sample_index, words):
    """One batch fills each checked word's derived columns as the build did,
    whether its words lie next to each other in the file or apart."""
    idx = read_index_of(serialize(sample_index))
    words = idx.vocabulary() if words is None else words
    idx.check(words)
    a, b = idx.columns, sample_index.columns
    for word in words:
        span = idx.words[word]
        first, last = span.start, span.stop
        assert np.array_equal(a.node_off[first : last + 1], b.node_off[first : last + 1])
        assert np.array_equal(a.root[first:last], b.root[first:last])
        assert np.array_equal(a.pr[first:last], b.pr[first:last])
        assert np.array_equal(a.child[:, first:last], b.child[:, first:last])
        assert np.array_equal(a.key[:, first:last], b.key[:, first:last])
        assert idx.paths(word) == sample_index.paths(word)


def assert_columns_equal(a, b):
    """The indexes `a` and `b` hold the same columns, stored and derived, in the same dtypes."""
    for name, x, y in zip(a._fields, a, b):
        if name == "vocab":
            assert x == y
            continue
        arrays = [(x.lengths, y.lengths), (x.elements, y.elements)] if name == "patterns" else [(x, y)]
        for u, v in arrays:
            assert u.dtype == v.dtype and np.array_equal(u, v), name


def chain_graph(n_entities):
    """`n_entities` entities of three types in one chain, each holding one of
    four words, but the last two (of the largest ids) `near` and `last`."""
    words = [f"w{i % 4}" for i in range(n_entities - 2)] + ["near", "last"]
    entities = "".join(f"E e{i} T{i % 3} {word}\n" for i, word in enumerate(words))
    return graph_from_text(entities + "".join(f"A e{i} r{i % 2} @e{i + 1}\n" for i in range(n_entities - 1)))


def typed_graph(n_patterns):
    """One entity of each of `n_patterns` types, and no edge: each entity's
    type is one pattern of a d=2 index."""
    return graph_from_text("".join(f"E e{i} T{i} x\n" for i in range(n_patterns)))


def wordy_graph(n_tokens):
    """An entity whose text has `n_tokens` distinct tokens, reached from
    another through an attribute of two."""
    big = " ".join(f"a{i}" for i in range(n_tokens))
    return graph_from_text(f"E small Thing a1 b\nE big Thing {big}\nA small next_to @big\nA big back @small\n")


# Each graph, the query the engines and the oracle answer on it, and the
# (pattern_id, tokens, nodes, elements) widths its index takes.
BOUNDARIES = {
    "entities-256": (lambda: chain_graph(256), ("near", "last"), (1, 1, 1, 1)),
    "entities-257": (lambda: chain_graph(257), ("near", "last"), (1, 1, 2, 1)),
    "patterns-255": (lambda: typed_graph(255), ("x",), (1, 1, 1, 1)),  # 256 types with TEXT
    "patterns-256": (lambda: typed_graph(256), ("x", "t255"), (1, 1, 1, 2)),
    "patterns-257": (lambda: typed_graph(257), ("x",), (2, 1, 2, 2)),
    "tokens-255": (lambda: wordy_graph(255), ("a1", "b"), (1, 1, 1, 1)),
    "tokens-256": (lambda: wordy_graph(256), ("a1", "b"), (1, 2, 1, 1)),
}


@pytest.mark.parametrize("boundary", list(BOUNDARIES))
def test_widths_at_their_boundaries(tmp_path, boundary):
    """On either side of each width's boundary, the index file reads back to
    its own bytes and to the columns of a fresh build, its similarity terms
    are `jaccard_similarity`'s bits, and every engine on it matches the
    oracle with the baseline's score bits."""
    make, words, widths = BOUNDARIES[boundary]
    g = make()
    built = build_index(g, compute_pagerank(g), 2)
    assert tuple(column.itemsize for column in record_columns(built.columns)) + (built.columns.patterns.elements.itemsize,) == widths
    path = tmp_path / "index.kgpx"
    write_index(built, path)
    assert serialize(read_index(path)) == path.read_bytes()
    read = read_index(path)
    read.check(read.vocabulary())
    assert_columns_equal(read.columns, build_index(g, compute_pagerank(g), 2).columns)
    assert_terms_match_recomputation(g, read)
    assert_engines_match_the_oracle(g, read, words)
    query = Query(words, 10**6)
    baseline = [(sp.pattern, sp.score.hex()) for sp in search_baseline(g, read, query).patterns]
    assert baseline and [(sp.pattern, sp.score.hex()) for sp in search_linear_topk(g, read, query).patterns] == baseline
