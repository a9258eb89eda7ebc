import io
import json
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgpattern import (
    GenConfig,
    GraphLinkError,
    GraphParseError,
    jaccard_similarity,
    generate_graph,
    load_graph,
    tokenize,
)
from kgpattern.graph import TEXT_TYPE_ID

from conftest import graph_from_text, random_instance, reference_derived, reference_fingerprint


class TestTokenize:
    def test_basic_split(self):
        assert tokenize("Relational Database") == ["relational", "database"]

    def test_currency_string(self):
        assert tokenize("US$ 77 billion") == ["us", "77", "billion"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_only(self):
        assert tokenize("--- $$$ !!!") == []

    def test_underscore_splits(self):
        assert tokenize("written_in") == ["written", "in"]

    @given(st.text(max_size=60))
    def test_idempotent(self, s):
        once = tokenize(s)
        assert tokenize(" ".join(once)) == once


class TestJaccard:
    def test_half(self):
        assert jaccard_similarity("database", ["relational", "database"]) == 0.5

    def test_singleton(self):
        assert jaccard_similarity("software", ["software"]) == 1.0

    def test_one_sixth(self):
        text = tokenize("Principles of database and software systems")
        assert len(set(text)) == 6
        assert jaccard_similarity("database", text) == pytest.approx(1 / 6)

    def test_absent_and_empty(self):
        assert jaccard_similarity("x", ["a", "b"]) == 0.0
        assert jaccard_similarity("x", []) == 0.0

    @given(
        st.text(alphabet="abcde", min_size=1, max_size=3),
        st.lists(st.text(alphabet="abcde", min_size=1, max_size=3), max_size=5),
    )
    def test_one_iff_exact_singleton(self, word, text):
        sim = jaccard_similarity(word, text)
        assert (sim == 1.0) == (set(text) == {word})


class TestLoadGraph:
    def test_non_utf8_file_names_its_path_and_line(self, tmp_path):
        # The bad line lies beyond the text decoder's first read buffer.
        path = tmp_path / "latin-1.graph"
        good = "".join(f"E e{i} Thing w{i}\n" for i in range(3000)).encode()
        path.write_bytes(good + "E x Thing café\r\nE y Thing w1\n".encode("latin-1"))
        with pytest.raises(GraphParseError) as info:
            load_graph(path)
        assert info.value.line == 3001
        assert str(info.value) == f"line 3001: {path} is not UTF-8 (invalid continuation byte at byte 14)"

    def test_sample_fixture(self, sample_graph):
        g = sample_graph
        assert g.type_names[TEXT_TYPE_ID] == "TEXT"
        assert g.type_token_set[TEXT_TYPE_ID] == frozenset()
        assert "Software" in g.type_names and "Company" in g.type_names
        assert {"Developer", "Founder", "Revenue"} <= set(g.attr_names)
        sql = g.key_to_id["sql_server"]
        assert g.entity_text[sql] == "SQL Server"
        # literal attribute values became TEXT dummies carrying the raw string
        ms = g.key_to_id["microsoft"]
        revenue = g.attr_names.index("Revenue")
        targets = [t for a, t in g.adjacency[ms] if a == revenue]
        assert len(targets) == 1 and g.is_literal(targets[0])
        assert g.entity_text[targets[0]] == "US$ 77 billion"

    def test_multi_edges_same_attr(self, sample_graph):
        g = sample_graph
        ms = g.key_to_id["microsoft"]
        founder = g.attr_names.index("Founder")
        assert sum(1 for a, _ in g.adjacency[ms] if a == founder) == 2
        products = g.attr_names.index("Products")
        assert sum(1 for a, _ in g.adjacency[ms] if a == products) == 2

    def test_empty_stream(self):
        g = graph_from_text("")
        assert g.n_entities == 0
        assert g.n_types == 1 and g.type_names == ["TEXT"]

    def test_undeclared_target_is_link_error(self):
        with pytest.raises(GraphLinkError) as err:
            graph_from_text("E a T hello\nA a rel @missing\n")
        assert err.value.line == 2

    def test_undeclared_source_is_link_error(self):
        with pytest.raises(GraphLinkError):
            graph_from_text('E a T hello\nA ghost rel "x"\n')

    def test_malformed_record(self):
        with pytest.raises(GraphParseError) as err:
            graph_from_text("E a\n")
        assert err.value.line == 1

    def test_bad_target_syntax(self):
        with pytest.raises(GraphParseError):
            graph_from_text("E a T x\nA a rel plaintext\n")

    def test_duplicate_key(self):
        with pytest.raises(GraphParseError):
            graph_from_text("E a T x\nE a T y\n")

    def test_unknown_kind(self):
        with pytest.raises(GraphParseError):
            graph_from_text("Z what\n")

    @pytest.mark.parametrize("source", ["BytesIO", "list", "file"])
    def test_byte_source_is_parse_error(self, source, tmp_path):
        lines = [b"\n", b"E a T x\n", b"E b T y\n"]
        path = tmp_path / "graph.txt"
        path.write_bytes(b"".join(lines))
        with open(path, "rb") as fh:
            stream = {"BytesIO": io.BytesIO(b"".join(lines)), "list": lines, "file": fh}[source]
            with pytest.raises(GraphParseError, match="^line 2: graph source must be text, not bytes$") as err:
                load_graph(stream)
        assert err.value.line == 2

    def test_comments_and_blanks_skipped(self):
        g = graph_from_text("# header\n\nE a T hello\n")
        assert g.n_entities == 1

    def test_deterministic_ids(self):
        text = 'E a T1 one\nE b T2 two\nA a r @b\nA a r "lit"\n'
        g1, g2 = graph_from_text(text), graph_from_text(text)
        assert g1.entity_type == g2.entity_type
        assert g1.entity_text == g2.entity_text
        assert g1.adjacency == g2.adjacency
        assert g1.type_names == g2.type_names and g1.attr_names == g2.attr_names

    def test_each_literal_gets_own_dummy(self):
        g = graph_from_text('E a T x\nA a r "same"\nA a r "same"\n')
        assert g.n_entities == 3  # a + two dummies

    def test_duplicate_edge_declarations_collapse(self):
        once = graph_from_text("E a T x\nE b T y\nA a r @b\n")
        twice = graph_from_text("E a T x\nE b T y\nA a r @b\nA a r @b\n")
        assert twice.adjacency == once.adjacency
        assert twice.edges == once.edges


# Each malformed record, in the lines of a graph file: (lines, error type, message of the error, its line).
HEADER = '{"kind": "header", "version": 1}'
ENTITY_A = '{"kind": "entity", "key": "a", "type": "T", "text": "x"}'
MALFORMED = {
    "entity-without-type": (["E a T x", "E b"], GraphParseError, "entity record needs <key> <type-name> [text]", 2),
    "entity-without-key": (["E"], GraphParseError, "entity record needs <key> <type-name> [text]", 1),
    "edge-without-target": (["E a T x", "A a r"], GraphParseError, "edge record needs <source-key> <attr-name> <target>", 2),
    "edge-to-empty-reference": (["E a T x", "A a r @"], GraphParseError, "empty target reference", 2),
    "edge-to-bare-word": (["E a T x", "A a r plain"], GraphParseError, "edge target must be @<key> or a double-quoted literal", 2),
    "edge-to-lone-quote": (["E a T x", 'A a r "'], GraphParseError, "edge target must be @<key> or a double-quoted literal", 2),
    "unknown-kind": (["# c", "", "Z what"], GraphParseError, "unknown record kind 'Z'", 3),
    "tab-after-kind": (["E\ta T x"], GraphParseError, "unknown record kind 'E\\ta'", 1),
    "json-after-text": (["E a T x", ENTITY_A], GraphParseError, "unknown record kind '{\"kind\":'", 2),
    "duplicate-key": (["E a T x", "", "E a U y"], GraphParseError, "duplicate entity key 'a'", 3),
    "undeclared-source": (["E a T x", 'A ghost r "x"'], GraphLinkError, "undeclared source entity 'ghost'", 2),
    "undeclared-target": (["E a T x", "A a r @missing"], GraphLinkError, "undeclared target entity 'missing'", 2),
    "json-invalid": ([HEADER, "{not json"], GraphParseError,
                     "invalid JSON: Expecting property name enclosed in double quotes", 2),
    "json-array": ([HEADER, "[1]"], GraphParseError, "JSON record must be an object with a 'kind' field", 2),
    "json-without-kind": (['{"key": "a"}'], GraphParseError, "JSON record must be an object with a 'kind' field", 1),
    "json-bad-version": (['{"kind": "header", "version": 99}'], GraphParseError, "unsupported graph format version 99", 1),
    "json-no-version": (['{"kind": "header"}'], GraphParseError, "unsupported graph format version None", 1),
    "json-entity-without-type": (['{"kind": "entity", "key": "a"}'], GraphParseError, "field 'type' must be a string", 1),
    "json-entity-number-key": (['{"kind": "entity", "key": 1, "type": "T"}'], GraphParseError, "field 'key' must be a string", 1),
    "json-entity-null-text": (['{"kind": "entity", "key": "a", "type": "T", "text": null}'], GraphParseError,
                              "field 'text' must be a string", 1),
    "json-edge-to-string": ([ENTITY_A, '{"kind": "edge", "source": "a", "attr": "r", "target": "x"}'], GraphParseError,
                            "edge target must be {'ref': key} or {'text': literal}", 2),
    "json-edge-bad-target-first": (['{"kind": "edge", "target": {"ref": 1}}'], GraphParseError,
                                   "edge target must be {'ref': key} or {'text': literal}", 1),
    "json-edge-without-source": ([ENTITY_A, '{"kind": "edge", "attr": "r", "target": {"ref": "a"}}'], GraphParseError,
                                 "field 'source' must be a string", 2),
    "json-edge-without-attr": ([ENTITY_A, '{"kind": "edge", "source": "a", "target": {"ref": "a"}}'], GraphParseError,
                               "field 'attr' must be a string", 2),
    "json-unknown-kind": ([ENTITY_A, '{"kind": "node"}'], GraphParseError, "unknown record kind 'node'", 2),
    "json-duplicate-key": ([ENTITY_A, ENTITY_A], GraphParseError, "duplicate entity key 'a'", 2),
    "json-undeclared-source": ([ENTITY_A, '{"kind": "edge", "source": "b", "attr": "r", "target": {"text": "t"}}'],
                               GraphLinkError, "undeclared source entity 'b'", 2),
    "json-undeclared-target": ([ENTITY_A, '{"kind": "edge", "source": "a", "attr": "r", "target": {"ref": ""}}'],
                               GraphLinkError, "undeclared target entity ''", 2),
}
# One graph file's lines given to `load_graph` from a path, from a text stream and as a list.
SOURCES = {
    "path": lambda text, tmp_path: (tmp_path / "g.graph").write_text(text, encoding="utf-8") and tmp_path / "g.graph",
    "stream": lambda text, tmp_path: io.StringIO(text),
    "lines": lambda text, tmp_path: io.StringIO(text).readlines(),
}


@pytest.mark.parametrize("source", list(SOURCES))
@pytest.mark.parametrize("case", list(MALFORMED))
def test_a_malformed_record_names_its_error_and_line(tmp_path, case, source):
    lines, error, message, line = MALFORMED[case]
    with pytest.raises(error) as info:
        load_graph(SOURCES[source]("".join(f"{record}\n" for record in lines), tmp_path))
    assert type(info.value) is error
    assert (str(info.value), info.value.line) == (f"line {line}: {message}", line)


@pytest.mark.parametrize("source", list(SOURCES))
def test_lines_split_as_file_iteration_splits_them(tmp_path, source):
    """Lines end at \\n (and in a file opened by path at \\r\\n), never at the
    other breaks `str.splitlines` knows, such as \\x0c and \\u2028."""
    text = "E a T one\x0ctwo  \r\nE b T x y\r\nA a r @b\r\nA b r \"p\x0cq\"\r\n"
    g = load_graph(SOURCES[source](text, tmp_path))
    assert g.entity_text == ["one\x0ctwo", "x y", "p\x0cq"]
    assert g.entity_token_set == [frozenset({"one", "two"}), frozenset({"x", "y"}), frozenset({"p", "q"})]
    assert g.adjacency == [[(0, 1)], [(0, 2)], []]


class TestLoaderFuzz:
    @given(st.text(alphabet="EA @\"#enxyz0\n", max_size=120))
    def test_arbitrary_text_never_crashes(self, text):
        from kgpattern import KgPatternError

        try:
            graph_from_text(text)
        except KgPatternError:
            pass

    @given(st.text(max_size=80))
    def test_arbitrary_json_lines_never_crash(self, text):
        from kgpattern import KgPatternError

        try:
            load_graph(io.StringIO("{" + text))
        except KgPatternError:
            pass


class TestJsonVariant:
    def test_equivalent_to_text(self, sample_graph):
        lines = [json.dumps({"kind": "header", "version": 1})]
        lines.append(json.dumps({"kind": "entity", "key": "s", "type": "Software", "text": "SQL Server"}))
        lines.append(json.dumps({"kind": "entity", "key": "m", "type": "Company", "text": "Microsoft"}))
        lines.append(json.dumps({"kind": "edge", "source": "s", "attr": "Developer", "target": {"ref": "m"}}))
        lines.append(json.dumps({"kind": "edge", "source": "m", "attr": "Revenue", "target": {"text": "US$ 77 billion"}}))
        g = load_graph(io.StringIO("\n".join(lines)))
        equivalent = graph_from_text(
            'E s Software SQL Server\nE m Company Microsoft\nA s Developer @m\nA m Revenue "US$ 77 billion"\n'
        )
        assert g.entity_text == equivalent.entity_text
        assert g.adjacency == equivalent.adjacency

    def test_bad_version(self):
        with pytest.raises(GraphParseError):
            load_graph(io.StringIO('{"kind": "header", "version": 99}'))

    def test_bad_json(self):
        with pytest.raises(GraphParseError):
            load_graph(io.StringIO("{not json"))

    def test_missing_field(self):
        with pytest.raises(GraphParseError):
            load_graph(io.StringIO('{"kind": "entity", "key": "a"}'))

    def test_bad_target(self):
        with pytest.raises(GraphParseError):
            load_graph(io.StringIO('{"kind": "edge", "source": "a", "attr": "r", "target": "x"}'))


class TestEdgeArrays:
    @pytest.mark.parametrize("case", range(6))
    def test_hold_the_edges_in_adjacency_order(self, case):
        g, _, _ = random_instance(case)
        offsets, rows = g.edge_arrays
        assert offsets.dtype == rows.dtype == np.int64 and rows.shape == (len(g.edges), 2)
        sources = np.repeat(np.arange(g.n_entities), np.diff(offsets))
        assert list(zip(sources.tolist(), *rows.T.tolist())) == g.edges
        assert g.edge_arrays is g.edge_arrays  # made once

    @pytest.mark.parametrize("case", range(6))
    def test_fingerprint_bytes_are_unchanged(self, case, sample_graph):
        for g in (random_instance(case)[0], sample_graph, graph_from_text(""), graph_from_text("E a T caf\u00e9 \u2028x\n")):
            assert g.fingerprint() == reference_fingerprint(g, g.edges)


def shuffled_edge_lines(case):
    """A generated graph's text with its edge lines shuffled and a third of
    them repeated, after all its entity lines."""
    lines = generate_graph(GenConfig(40, 4, 4, 2.5, 12, literal_fraction=0.2, seed=case)).splitlines()
    edges = [line for line in lines if line.startswith("A ")]
    rng = random.Random(case)
    edges += rng.sample(edges, len(edges) // 3)
    rng.shuffle(edges)
    return "".join(f"{line}\n" for line in [line for line in lines if not line.startswith("A ")] + edges)


JSON_LINES = [
    {"kind": "header", "version": 1},
    {"kind": "entity", "key": "s", "type": "Software", "text": "SQL Server"},
    {"kind": "entity", "key": "m", "type": "Company", "text": "Microsoft Corp"},
    {"kind": "edge", "source": "m", "attr": "Revenue", "target": {"text": "US$ 77 billion"}},
    {"kind": "edge", "source": "s", "attr": "Developer", "target": {"ref": "m"}},
    {"kind": "edge", "source": "m", "attr": "Product", "target": {"ref": "s"}},
    {"kind": "edge", "source": "s", "attr": "Developer", "target": {"ref": "m"}},
]
# Graphs whose token sets and edge forms are compared with the loader's old eager derivation.
DERIVED_CASES = {
    **{f"random-{case}": lambda case=case: random_instance(case)[0] for case in range(8)},
    **{f"shuffled-{case}": lambda case=case: graph_from_text(shuffled_edge_lines(case)) for case in range(4)},
    "repeated-and-out-of-order": lambda: graph_from_text(
        "E a T x\nE b U y z\nE c T\nA c r @a\nA a s @b\nA a r @c\nA a s @b\nA a r @b\nA c r @a\nA b s @b\n"
    ),
    "literal-targets": lambda: graph_from_text(
        'E a T_x one\nE b U two\nA b r "lit one"\nA a q @b\nA a r "lit one"\nA a r "Two_words 2"\nA a q @b\n'
    ),
    "json": lambda: load_graph(io.StringIO("\n".join(map(json.dumps, JSON_LINES)))),
    "empty": lambda: graph_from_text(""),
    "entities-without-edges": lambda: graph_from_text("E a T x y\nE b T\nE c U caf\u00e9 x\n"),
}


@pytest.mark.parametrize("case", list(DERIVED_CASES))
def test_derived_forms_equal_the_eager_derivation(case):
    """Token sets, adjacency, edges, edge arrays and fingerprint, each made on
    first read, equal the loader's old eager derivation, whichever is read
    first."""
    g = DERIVED_CASES[case]()
    ref = reference_derived(g)
    assert (g.entity_token_set, g.type_token_set, g.attr_token_set) == ref.token_sets
    assert g.adjacency == ref.adjacency and g.edges == ref.edges
    for got, want in zip(g.edge_arrays, ref.edge_arrays):
        assert got.dtype == want.dtype == np.int64 and got.shape == want.shape and np.array_equal(got, want)
    assert g.fingerprint() == ref.fingerprint
    g = DERIVED_CASES[case]()
    assert g.fingerprint() == ref.fingerprint
    assert g.edges == ref.edges and g.adjacency == ref.adjacency
    assert g.attr_token_set == ref.token_sets[2] and g.entity_token_set == ref.token_sets[0]
