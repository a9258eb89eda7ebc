import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgpattern import (
    GraphLinkError,
    GraphParseError,
    jaccard_similarity,
    load_graph,
    tokenize,
)
from kgpattern.graph import TEXT_TYPE_ID

from conftest import graph_from_text


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
