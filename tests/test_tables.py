import io

import pytest

from kgpattern import (
    GenConfig,
    IndexedPath,
    Query,
    SamplingConfig,
    TableConsistencyError,
    ValidSubtree,
    build_index,
    compute_pagerank,
    generate_graph,
    load_graph,
    render_table,
    search_baseline,
    search_linear_enum,
    search_linear_topk,
    search_pattern_enum,
    uniform_pagerank,
)
from kgpattern import patterns as pat
from kgpattern import search
from kgpattern.fixtures import load_sample_graph

from conftest import QUERY_WORDS, graph_from_text, random_instance, reference_render_table

DIVERGENT = "E r Root hub\nE a Thing alpha\nE b Thing beta\nA r link @a\nA r link @b\n"


def top_pattern(graph, idx, words, k=5):
    res = search_baseline(graph, idx, Query(words, k=k))
    assert res.patterns
    return res.patterns[0]


def test_reference_four_column_table(sample_graph, sample_index):
    sp = top_pattern(sample_graph, sample_index, ("database", "software", "company", "revenue"))
    table = render_table(sample_graph, sp.pattern, sp.subtrees)
    assert table.column_names == ["Software", "Genre", "Company", "Revenue"]
    assert len(table.rows) == 2
    assert table.rows[0] == ["SQL Server", "Relational database", "Microsoft", "US$ 77 billion"]
    assert table.rows[1] == ["Oracle DB", "Object database", "Oracle", "US$ 37 billion"]


def test_single_node_pattern_one_column(sample_graph, sample_index):
    sp = top_pattern(sample_graph, sample_index, ("sql",))
    table = render_table(sample_graph, sp.pattern, sp.subtrees)
    assert len(table.columns) == 1
    assert table.rows == [["SQL Server"]]


def test_shared_full_path_merges_columns(sample_graph, sample_index):
    # both words match the same literal node: the naive four columns collapse to two
    sp = top_pattern(sample_graph, sample_index, ("relational", "database"))
    table = render_table(sample_graph, sp.pattern, sp.subtrees)
    naive = sum(pat.node_count(p) for p in sp.pattern)
    assert len(table.columns) == 2 < naive
    assert table.column_names == ["Software", "Genre"]
    assert table.rows == [["SQL Server", "Relational database"]]


def test_row_per_subtree_and_purity(sample_graph, sample_index):
    sp = top_pattern(sample_graph, sample_index, ("company", "revenue"))
    t1 = render_table(sample_graph, sp.pattern, sp.subtrees)
    t2 = render_table(sample_graph, sp.pattern, sp.subtrees)
    assert len(t1.rows) == len(sp.subtrees)
    assert t1 == t2


def test_mismatched_subtrees_raise(sample_graph, sample_index):
    a = top_pattern(sample_graph, sample_index, ("database", "software", "company", "revenue"))
    b = top_pattern(sample_graph, sample_index, ("sql",))
    with pytest.raises(TableConsistencyError):
        render_table(sample_graph, a.pattern, b.subtrees)


def test_name_collision_disambiguated():
    g = graph_from_text(
        "E r Root hub\n"
        "E a Thing alpha\n"
        "E b Thing beta\n"
        "A r first @a\n"
        "A r second @b\n"
    )
    idx = build_index(g, uniform_pagerank(g), 2)
    sp = top_pattern(g, idx, ("alpha", "beta"))
    table = render_table(g, sp.pattern, sp.subtrees)
    assert table.column_names == ["Root", "Root.first.Thing", "Root.second.Thing"]


def test_divergent_bindings_join_values():
    # two same-pattern sibling paths: one merged column shows both entities
    g = graph_from_text(DIVERGENT)
    idx = build_index(g, uniform_pagerank(g), 2)
    sp = top_pattern(g, idx, ("alpha", "beta"))
    table = render_table(g, sp.pattern, sp.subtrees)
    assert table.column_names == ["Root", "Thing"]
    assert table.rows == [["hub", "alpha; beta"]]


def test_text_and_csv_render(sample_graph, sample_index):
    sp = top_pattern(sample_graph, sample_index, ("database", "software", "company", "revenue"))
    table = render_table(sample_graph, sp.pattern, sp.subtrees)
    text = table.to_text()
    assert "Software" in text and "US$ 77 billion" in text
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "Software,Genre,Company,Revenue"
    assert len(csv_text.splitlines()) == 3
    assert table.to_json_dict()["columns"] == table.column_names


def test_a_path_not_at_its_members_root_raises():
    """A member whose paths do not all start at its root is no subtree of its
    pattern: the per-cell renderer showed both roots in the root column."""
    g = graph_from_text("E r Root hub\nE s Root spoke\nE a Thing alpha\nE b Thing beta\nA r link @a\nA s link @b\n")
    link = (g.type_names.index("Root"), g.attr_names.index("link"), g.type_names.index("Thing"))
    r, s, a, b = (g.key_to_id[key] for key in "rsab")
    first, second = IndexedPath((r, a), link[1:2], 2, 0.25, 1.0, link), IndexedPath((s, b), link[1:2], 2, 0.25, 1.0, link)
    member = ValidSubtree(r, (first, second))
    assert reference_render_table(g, (link, link), [member]).rows == [["hub; spoke", "alpha; beta"]]
    with pytest.raises(TableConsistencyError, match="or its root"):
        render_table(g, (link, link), [member])
    with pytest.raises(TableConsistencyError, match="or its root"):
        render_table(g, (link, link), [ValidSubtree(s, (second, first))])
    assert render_table(g, (link, link), [ValidSubtree(r, (first, first))]).rows == [["hub", "alpha"]]


def test_a_member_with_a_path_too_many_or_too_few_raises(sample_graph, sample_index):
    sp = top_pattern(sample_graph, sample_index, ("company", "revenue"))
    root, paths = sp.subtrees[0]
    for wrong in (paths[:1], paths + paths[:1]):
        with pytest.raises(TableConsistencyError):
            render_table(sample_graph, sp.pattern, [ValidSubtree(root, wrong)])


def all_engines_answers(graph, idx, words, k):
    """(tree pattern, members) of every answer of all four engines, and of
    linear-topk in sampled mode."""
    query = Query(words, k)
    results = [
        search_baseline(graph, idx, query),
        search_pattern_enum(graph, idx, query),
        search_linear_topk(graph, idx, query),
        search_linear_topk(graph, idx, query, SamplingConfig(0, 0.2, 1)),
    ]
    answers = [(sp.pattern, sp.subtrees) for result in results for sp in result.patterns]
    return answers + search_linear_enum(graph, idx, query)


def random_case(case):
    g, depth, words = random_instance(case)
    idx = build_index(g, compute_pagerank(g), depth)
    vocabulary = idx.vocabulary()
    return g, idx, [words, words[:2], tuple(vocabulary[:2]), tuple(vocabulary[-3:])]


def sample_case():
    g = load_sample_graph()
    return g, build_index(g, compute_pagerank(g), 3), [QUERY_WORDS, QUERY_WORDS[:2], ("relational", "database"), ("sql",)]


def divergent_case():
    g = graph_from_text(DIVERGENT)
    return g, build_index(g, uniform_pagerank(g), 2), [("alpha", "beta"), ("hub", "alpha")]


def edge_collision_case():
    """Edge-ending and literal columns named after one attribute."""
    g = graph_from_text('E r Root hub\nE a Thing alpha\nA r link @a\nA a link "some text"\n')
    return g, build_index(g, uniform_pagerank(g), 3), [("link", "text"), ("link", "alpha")]


def two_type_case():
    """A graph of two types and two attributes, where most tables have two
    columns of one display name."""
    g = load_graph(io.StringIO(generate_graph(GenConfig(120, 2, 2, 2.5, 12, seed=5))))
    return g, build_index(g, compute_pagerank(g), 3), [("w0", "w1"), ("w0", "w1", "w2"), ("w2", "w3")]


RENDER_CASES = {
    **{f"random-{case}": lambda case=case: random_case(case) for case in range(16)},
    "sample": sample_case,
    "divergent": divergent_case,
    "edge-collision": edge_collision_case,
    "two-types": two_type_case,
}


@pytest.mark.parametrize("case", list(RENDER_CASES))
def test_render_equals_the_per_cell_reference(case):
    """Columns, names and rows of every answer of every engine equal the
    per-cell renderer's, on a fresh graph and again with the graph's layout
    memo filled."""
    g, idx, queries = RENDER_CASES[case]()
    answers = [answer for words in queries for k in (1, 10, 100) for answer in all_engines_answers(g, idx, words, k)]
    assert answers
    for _ in range(2):
        for pattern, members in answers:
            table, expected = render_table(g, pattern, members), reference_render_table(g, pattern, members)
            assert (table.columns, table.column_names, table.rows) == (expected.columns, expected.column_names, expected.rows)
    if case == "two-types":
        dotted = [pattern for pattern, members in answers if any("." in name for name in render_table(g, pattern, members).column_names)]
        assert len(dotted) > len(answers) / 2


@pytest.mark.parametrize("case", list(RENDER_CASES))
def test_an_engines_answers_render_from_their_rows(case, monkeypatch):
    """Every answer of every engine renders before any member is read, making no
    member object: as the per-cell renderer and `render_table` render the
    materialized members, and again once they are read."""
    made, members, decode = [], search._members, search.decode_records
    monkeypatch.setattr(search, "_members", lambda c, rows: made.append("_members") or members(c, rows))
    monkeypatch.setattr(search, "decode_records", lambda c, ids: made.append("decode_records") or decode(c, ids))
    g, idx, queries = RENDER_CASES[case]()
    answers = [answer for words in queries for k in (1, 10, 100) for answer in all_engines_answers(g, idx, words, k)]
    assert sum(isinstance(m, search.Members) for _, m in answers) > len(answers) / 2
    tables = [render_table(g, pattern, m) for pattern, m in answers]
    assert made == []
    for (pattern, m), table in zip(answers, tables):
        expected = reference_render_table(g, pattern, m)
        assert (table.columns, table.rows) == (expected.columns, expected.rows)
        assert table == render_table(g, pattern, list(m)) == render_table(g, pattern, m)


def engine_answers(words=("w0", "w1"), k=10):
    g, idx, _ = two_type_case()
    return g, idx, search_linear_topk(g, idx, Query(words, k)).patterns


def test_an_engines_members_of_another_pattern_raise():
    g, _, answers = engine_answers()
    a, b = answers[:2]
    assert a.pattern != b.pattern
    with pytest.raises(TableConsistencyError, match="another tree pattern"):
        render_table(g, a.pattern, b.subtrees)
    with pytest.raises(TableConsistencyError, match="another tree pattern"):
        render_table(g, a.pattern[:1], a.subtrees)
    assert render_table(g, b.pattern, b.subtrees) == render_table(g, list(b.pattern), b.subtrees)


@pytest.mark.parametrize("keyword", [0, 1])
@pytest.mark.parametrize("change", ["root", "pattern"])
def test_a_batch_row_of_another_root_or_pattern_raises(keyword, change):
    """A batch row changed to a record of its pattern under another root, or to one
    of another pattern under its root, is caught before any answer of the batch renders."""
    g, idx, answers = engine_answers()
    c, batch = idx.columns, answers[0].subtrees.batch
    row = len(batch.rows[0]) - 1  # the last answer's last row
    record = batch.rows[keyword][row]
    same_root, same_pattern = c.root == c.root[record], c.pattern_id == c.pattern_id[record]
    other = ((same_pattern & ~same_root) if change == "root" else (same_root & ~same_pattern)).nonzero()[0][0]
    batch.rows[keyword][row] = other
    with pytest.raises(TableConsistencyError, match="its answer's pattern or its root"):
        render_table(g, answers[0].pattern, answers[0].subtrees)
