import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpattern import (
    GenConfig,
    build_index,
    compute_pagerank,
    count_patterns_exhaustive,
    enumerate_patterns_exhaustive,
    generate_graph,
    Query,
    deserialize,
    search_linear_enum,
    serialize,
)
from kgpattern import patterns as pat
from kgpattern.bench import ENGINES
from kgpattern.errors import ParameterError
from kgpattern.scoring import DEFAULT_CONFIG
from kgpattern.search import EXACT_SAMPLING

from conftest import graph_from_text, random_instance


def as_comparable(pairs):
    """linear-enum output -> {pattern: sorted member shapes} for oracle diffing."""
    return {
        p: sorted((m.root, tuple((x.nodes, x.attrs, pat.is_edge_ending(x.pattern)) for x in m.paths)) for m in members)
        for p, members in pairs
    }


def oracle_comparable(found):
    return {
        p: sorted((root, tuple((n, a, e) for n, a, e in combo)) for root, combo in members)
        for p, members in found.items()
    }


def test_single_node_both_words_d1():
    g = graph_from_text("E only Thing alpha beta\n")
    assert count_patterns_exhaustive(g, ["alpha", "beta"], 1) == 1


def test_sample_graph_contains_both_reference_patterns(sample_graph):
    found = enumerate_patterns_exhaustive(
        sample_graph, ["database", "software", "company", "revenue"], 3
    )
    rendered = {
        tuple(pat.pattern_names(sample_graph, p) for p in tree_pattern)
        for tree_pattern in found
    }
    assert (
        "Software.Genre.TEXT",
        "Software",
        "Software.Developer.Company",
        "Software.Developer.Company.Revenue",
    ) in rendered
    assert (
        "Book",
        "Book",
        "Book.Publisher.Company",
        "Book.Publisher.Company.Revenue",
    ) in rendered


def test_literal_roots_excluded():
    g = graph_from_text('E a T x\nA a r "alpha"\n')
    found = enumerate_patterns_exhaustive(g, ["alpha"], 2)
    # only the two-node path from the typed root; the literal itself roots nothing
    assert len(found) == 1
    ((root, _),) = list(found.values())[0]
    assert root == 0


@pytest.mark.parametrize("depth", [0, -3])
def test_depth_below_one_is_rejected_like_build(sample_graph, depth):
    with pytest.raises(ParameterError) as oracle_error:
        enumerate_patterns_exhaustive(sample_graph, ["database"], depth)
    with pytest.raises(ParameterError) as build_error:
        build_index(sample_graph, compute_pagerank(sample_graph), depth)
    assert str(oracle_error.value) == str(build_error.value)


def test_count_matches_enumeration(sample_graph):
    words = ["database", "company"]
    assert count_patterns_exhaustive(sample_graph, words, 3) == len(
        enumerate_patterns_exhaustive(sample_graph, words, 3)
    )


@pytest.mark.parametrize("case", range(15))
def test_matches_linear_enumeration(case):
    g, depth, words = random_instance(case)
    idx = build_index(g, compute_pagerank(g), depth)
    pairs = search_linear_enum(g, idx, Query(words, k=1))
    assert as_comparable(pairs) == oracle_comparable(
        enumerate_patterns_exhaustive(g, words, depth)
    )


def engine_members(sp):
    """A pattern's members in the oracle's (root, raw paths) form, in engine order."""
    return [(m.root, tuple((x.nodes, x.attrs, pat.is_edge_ending(x.pattern)) for x in m.paths)) for m in sp.subtrees]


@settings(max_examples=40, deadline=None)
@given(
    entities=st.integers(4, 25),
    types=st.integers(1, 5),
    attr_types=st.integers(1, 5),
    avg_out_degree=st.floats(0.5, 2.5),
    vocab=st.integers(2, 8),
    seed=st.integers(0, 2**16),
    depth=st.sampled_from([2, 3]),
    data=st.data(),
)
def test_every_engine_matches_the_oracle(entities, types, attr_types, avg_out_degree, vocab, seed, depth, data):
    """Every engine in exact mode, on the built index and on it read back from
    bytes, asked for at least as many patterns as exist, returns exactly the
    oracle's patterns with the oracle's members in the oracle's order; scores
    agree across engines and indexes and rank the answer."""
    cfg = GenConfig(
        entities, types, attr_types, avg_out_degree, vocab, words_per_text=2, literal_fraction=0.2, seed=seed
    )
    graph = graph_from_text(generate_graph(cfg))
    vocabulary = [f"w{i}" for i in range(vocab)]
    words = tuple(data.draw(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=3, unique=True)))
    assert_engines_match_the_oracle(graph, build_index(graph, compute_pagerank(graph), depth), words)


def assert_engines_match_the_oracle(graph, built, words):
    """`test_every_engine_matches_the_oracle`'s check of the index `built`
    from `graph` on the query of `words`."""
    expected = enumerate_patterns_exhaustive(graph, words, built.depth)
    query = Query(words, k=max(1, len(expected)))

    scores = {}
    for (name, engine), idx in itertools.product(ENGINES.items(), (built, deserialize(serialize(built)))):
        ranked = engine(graph, idx, query, DEFAULT_CONFIG, EXACT_SAMPLING)
        assert sorted(sp.pattern for sp in ranked) == sorted(expected), name
        for sp in ranked:
            assert engine_members(sp) == expected[sp.pattern], (name, sp.pattern)
        order = [(-sp.score, pat.tree_sort_key(sp.pattern)) for sp in ranked]
        assert order == sorted(order), name
        for sp in ranked:
            reference = scores.setdefault(sp.pattern, sp.score)
            assert sp.score == pytest.approx(reference, rel=1e-9), (name, sp.pattern)
