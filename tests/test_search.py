import math
import random
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpattern import (
    GenConfig,
    ParameterError,
    Query,
    SamplingConfig,
    ScoreDomainError,
    ScoredPattern,
    ScoringConfig,
    assemble_subtree,
    build_index,
    compute_pagerank,
    deserialize,
    generate_graph,
    pattern_score,
    rank,
    rank_enumeration,
    render_table,
    search_baseline,
    search_linear_enum,
    search_linear_topk,
    search_pattern_enum,
    serialize,
    tree_score,
    uniform_pagerank,
)
from kgpattern import patterns as pat
from kgpattern import search
from kgpattern.indexio import read_index
from kgpattern.pathindex import decode_records
from kgpattern.scoring import AGGREGATORS, DEFAULT_CONFIG
from kgpattern.search import EXACT_SAMPLING, _powers, _top, _uniform01

from conftest import (
    QUERY_WORDS,
    graph_from_text,
    random_instance,
    reference_finalists,
    reference_pattern_units,
    reference_sampled_topk,
    reference_uniform01,
    tree_height,
)

DIAMOND = """
E r Root hub
E a Mid m1
E b Mid m2
E x Leaf alpha beta
A r link @a
A r link @b
A a of @x
A b of @x
"""


def adversarial_text(p):
    lines = ["E r1 hubkind one", "E r2 hubkind two"]
    for i in range(p):
        lines.append(f"E t{i} leftkind{i} alpha")
        lines.append(f"A r1 la{i} @t{i}")
    for i in range(p):
        lines.append(f"E u{i} ritekind{i} beta")
        lines.append(f"A r2 ra{i} @u{i}")
    return "\n".join(lines) + "\n"


def node_ids(subtree):
    return {n for p in subtree.paths for n in p.nodes}


def edge_set(subtree):
    """The (source, attr, target) edges of a subtree's paths."""
    return {(p.nodes[i - 1], p.attrs[i - 1], p.nodes[i]) for p in subtree.paths for i in range(1, len(p.nodes))}


def signature(result_patterns):
    return [(sp.score, sp.pattern) for sp in result_patterns]


class TestQueryAndConfig:
    def test_from_text(self):
        q = Query.from_text("Database  Software!", k=3)
        assert q.keywords == ("database", "software") and q.k == 3

    def test_validation(self):
        with pytest.raises(ParameterError):
            Query(())
        with pytest.raises(ParameterError):
            Query(("ok",), k=0)
        with pytest.raises(ParameterError):
            Query(("two words",))

    def test_sampling_validation(self):
        with pytest.raises(ParameterError):
            SamplingConfig(rate=0.0)
        with pytest.raises(ParameterError):
            SamplingConfig(rate=1.5)


class TestAssemble:
    def test_four_path_join(self, sample_graph, sample_index):
        g, idx = sample_graph, sample_index
        sql = g.key_to_id["sql_server"]
        get = lambda word, name: next(
            p
            for p in idx.paths(word, root=sql)
            if pat.pattern_names(g, p.pattern) == name
        )
        paths = (
            get("database", "Software.Genre.TEXT"),
            get("software", "Software"),
            get("company", "Software.Developer.Company"),
            get("revenue", "Software.Developer.Company.Revenue"),
        )
        subtree = assemble_subtree(sql, paths)
        assert subtree is not None
        assert subtree.root == sql
        assert len(node_ids(subtree)) == 4
        assert len(edge_set(subtree)) == 3

    def test_identical_single_node_paths(self, sample_graph, sample_index):
        book = sample_graph.key_to_id["db_book"]
        p_db = next(p for p in sample_index.paths("database", root=book) if len(p.nodes) == 1)
        p_sw = next(p for p in sample_index.paths("software", root=book) if len(p.nodes) == 1)
        subtree = assemble_subtree(book, (p_db, p_sw))
        assert subtree is not None and node_ids(subtree) == {book}

    def test_diamond_rejected(self):
        g = graph_from_text(DIAMOND)
        idx = build_index(g, uniform_pagerank(g), 3)
        r = g.key_to_id["r"]
        alpha_paths = idx.paths("alpha", root=r)
        beta_paths = idx.paths("beta", root=r)
        assert len(alpha_paths) == 2 and len(beta_paths) == 2
        via_a = next(p for p in alpha_paths if g.key_to_id["a"] in p.nodes)
        via_b = next(p for p in beta_paths if g.key_to_id["b"] in p.nodes)
        # same target reached through different intermediates: in-degree 2
        assert assemble_subtree(r, (via_a, via_b)) is None
        same = next(p for p in beta_paths if g.key_to_id["a"] in p.nodes)
        assert assemble_subtree(r, (via_a, same)) is not None

    def test_wrong_root_raises(self, sample_graph, sample_index):
        book = sample_graph.key_to_id["db_book"]
        p = sample_index.paths("database", root=book)[0]
        with pytest.raises(ParameterError):
            assemble_subtree(0, (p,))


class TestScoredPatternFromMembers:
    @pytest.mark.parametrize("aggregator", ["sum", "avg", "max", "count"])
    def test_scores_members_with_config(self, sample_graph, sample_index, sample_query, aggregator):
        config = ScoringConfig(aggregator=aggregator)
        ((tree_pattern, members),) = [
            kv for kv in search_linear_enum(sample_graph, sample_index, sample_query) if len(kv[1]) == 2
        ]
        sp = ScoredPattern.from_members(tree_pattern, members, config, estimated_score=1.5)
        assert sp.score == pattern_score([tree_score(m.paths, config) for m in members], config)
        assert (sp.pattern, sp.subtrees, sp.estimated_score) == (tree_pattern, members, 1.5)


def _tagged(score, tag):
    return ScoredPattern(((tag,),), score, [])


class TestRank:
    def test_tie_break_and_capacity(self):
        offered = (_tagged(score, tag) for score, tag in [(1.0, 5), (2.0, 9), (2.0, 3), (0.5, 1), (3.0, 7)])
        ranked = rank(offered, 2)
        assert [(r.score, r.pattern[0][0]) for r in ranked] == [(3.0, 7), (2.0, 3)]

    def test_orders_by_key_on_ties(self):
        ranked = rank([_tagged(1.0, tag) for tag in (9, 3, 7)], 3)
        assert [r.pattern[0][0] for r in ranked] == [3, 7, 9]

    def test_without_k_ranks_everything(self):
        ranked = rank(_tagged(score, tag) for score, tag in [(1.0, 2), (0.0, 1), (1.0, 1), (5.0, 9)])
        assert [(r.score, r.pattern[0][0]) for r in ranked] == [(5.0, 9), (1.0, 1), (1.0, 2), (0.0, 1)]


class TestSampleGraphEngines:
    def test_top_pattern_and_ordering(self, sample_graph, sample_index, sample_query):
        res = search_baseline(sample_graph, sample_index, sample_query)
        top = res.patterns[0]
        assert top.score == pytest.approx(3.5, abs=1e-12)
        assert top.subtree_count == 2
        names = [pat.pattern_names(sample_graph, p) for p in top.pattern]
        assert names == [
            "Software.Genre.TEXT",
            "Software",
            "Software.Developer.Company",
            "Software.Developer.Company.Revenue",
        ]
        # the single-member Book-rooted pattern scores lower
        book_pattern = next(
            sp for sp in res.patterns if pat.pattern_names(sample_graph, sp.pattern[0]) == "Book"
        )
        assert top.score > book_pattern.score
        assert book_pattern.score == pytest.approx(4 * (7 / 3) / 7, abs=1e-12)

    def test_candidate_roots(self, sample_graph, sample_index, sample_query):
        res = search_linear_topk(sample_graph, sample_index, sample_query)
        assert res.stats["candidate_roots"] == 3
        pairs = search_linear_enum(sample_graph, sample_index, sample_query)
        roots = {m.root for _, members in pairs for m in members}
        assert {sample_graph.entity_keys[r] for r in roots} == {
            "sql_server",
            "oracle_db",
            "db_book",
        }

    def test_pattern_join_roots(self, sample_graph, sample_index, sample_query):
        res = search_pattern_enum(sample_graph, sample_index, sample_query)
        top = res.patterns[0]
        shared = None
        for i, word in enumerate(sample_query.keywords):
            roots = set(sample_index.roots(word, pattern=top.pattern[i]))
            shared = roots if shared is None else shared & roots
        assert {sample_graph.entity_keys[r] for r in shared} == {"sql_server", "oracle_db"}
        assert {m.root for m in top.subtrees} == shared

    def test_absent_token_empty_everywhere(self, sample_graph, sample_index):
        q = Query(("database", "zzzmissing"), k=5)
        assert search_baseline(sample_graph, sample_index, q).patterns == []
        assert search_pattern_enum(sample_graph, sample_index, q).patterns == []
        assert search_linear_topk(sample_graph, sample_index, q).patterns == []
        assert search_linear_enum(sample_graph, sample_index, q) == []

    def test_single_keyword_single_match(self, sample_graph, sample_index):
        q = Query(("sql",), k=5)
        pairs = search_linear_enum(sample_graph, sample_index, q)
        assert len(pairs) == 1
        pattern, members = pairs[0]
        assert len(members) == 1
        assert pat.pattern_names(sample_graph, pattern[0]) == "Software"

    def test_height_bound(self, sample_graph, sample_index, sample_query):
        for sp in search_baseline(sample_graph, sample_index, sample_query).patterns:
            assert tree_height(sp.pattern) <= sample_index.depth


class TestDiamondStats:
    def test_rejections_counted_and_logged(self, sample_graph):
        g = graph_from_text(DIAMOND)
        idx = build_index(g, uniform_pagerank(g), 3)
        q = Query(("alpha", "beta"), k=10)
        stats = {}
        pairs = search_linear_enum(g, idx, q, stats=stats)
        assert stats["tuples_rejected"] == 2
        assert stats["subtrees_accepted"] == sum(len(m) for _, m in pairs)
        # bound from the sampling engine is an upper bound, strict here
        res = search_linear_topk(g, idx, q)
        assert sum(t["bound"] for t in res.stats["types"]) > res.stats["subtrees_accepted"]

    def test_bound_tight_without_rejections(self, sample_graph, sample_index, sample_query):
        res = search_linear_topk(sample_graph, sample_index, sample_query)
        assert res.stats["tuples_rejected"] == 0
        assert sum(t["bound"] for t in res.stats["types"]) == res.stats["subtrees_accepted"]


class TestAdversarialPatternEnum:
    def test_quadratic_combos_but_correct(self):
        p = 17
        g = graph_from_text(adversarial_text(p))
        idx = build_index(g, uniform_pagerank(g), 2)
        q = Query(("alpha", "beta"), k=5)
        res = search_pattern_enum(g, idx, q)
        assert res.stats["pattern_combos_checked"] == p * p
        assert res.stats["empty_combos"] == p * p
        assert res.patterns == []
        assert search_baseline(g, idx, q).patterns == []


def joined_units(monkeypatch, g, idx, query):
    """pattern-enum's result, the units it passes `_tree_rows` (each one's (first record, record count) per
    keyword), and the `_run_bounds` calls made before; it runs with `_root_runs` patched to raise."""
    seen, marks, tree_rows, run_bounds = [], [], search._tree_rows, search._run_bounds

    def spy(c, run_start, run_size, tuples, stats):
        seen.append((list(zip(*(zip(s.tolist(), n.tolist()) for s, n in zip(run_start, run_size)))), len(marks)))
        return tree_rows(c, run_start, run_size, tuples, stats)

    def counted(*columns):
        marks.append(columns)
        return run_bounds(*columns)

    def no_root_runs(*args):
        raise AssertionError("pattern-enum called _root_runs")

    monkeypatch.setattr(search, "_tree_rows", spy)
    monkeypatch.setattr(search, "_run_bounds", counted)
    monkeypatch.setattr(search, "_root_runs", no_root_runs)
    result = search_pattern_enum(g, idx, query)
    assert len(seen) == 1
    return (result, *seen[0])


class TestPatternEnumUnits:
    """pattern-enum crosses each candidate root's (root, pattern) runs, and
    joins the units the paper's walk (`reference_pattern_units`) visits, in
    its order, counting its combinations without visiting them."""

    @pytest.mark.parametrize("case", [*range(12), "sample", "one-word", "adversarial", "absent-word"])
    def test_units_are_the_walks(self, case, sample_graph, sample_index, monkeypatch):
        if isinstance(case, int):
            g, depth, words = random_instance(case)
            idx = build_index(g, compute_pagerank(g), depth)
        elif case == "adversarial":
            g = graph_from_text(adversarial_text(17))
            idx, words = build_index(g, uniform_pagerank(g), 2), ("alpha", "beta")
        else:
            g, idx = sample_graph, sample_index
            words = {"sample": QUERY_WORDS, "one-word": QUERY_WORDS[:1], "absent-word": (QUERY_WORDS[0], "zyzzyva")}[case]
        result, units, marks = joined_units(monkeypatch, g, idx, Query(words, k=3))
        expected, combos = reference_pattern_units(idx, words)
        assert units == expected
        assert marks == 2 * len(words)  # each keyword's (root, pattern) runs, then its root runs over them
        assert result.stats["pattern_combos_checked"] == combos
        assert result.stats["empty_combos"] == combos - result.stats["patterns_found"]
        if case == "absent-word":
            assert units == [] and combos == 0 and result.patterns == []

    def test_combinations_no_walk_can_visit(self):
        """`w0 w1 w2` on the 2,000-entity reference graph has 1.1e9
        combinations; pattern-enum's answers and tuple counters are exact
        linear-topk's."""
        g = graph_from_text(generate_graph(GenConfig(2000, 6, 8, 2.5, 40, seed=11)))
        idx = build_index(g, compute_pagerank(g), 3)
        query = Query(("w0", "w1", "w2"), k=10)
        penum, topk, stats = search_pattern_enum(g, idx, query), search_linear_topk(g, idx, query), {}
        search_linear_enum(g, idx, query, stats)
        assert _answers(penum.patterns) == _answers(topk.patterns)
        assert [penum.stats[name] for name in COUNTERS[:3]] == [topk.stats[name] for name in COUNTERS[:3]]
        assert penum.stats["patterns_found"] == stats["patterns_found"]
        assert penum.stats["pattern_combos_checked"] == 1_133_753_937
        assert penum.stats["empty_combos"] == 1_133_753_937 - stats["patterns_found"]


@pytest.mark.parametrize("case", [0, 4, 5, 8, 13, "sample"])
def test_linear_enum_is_exact_topk_with_no_bound_on_k(case, sample_graph, sample_index):
    """The linear enumeration lists every pattern best first (score
    descending, then canonical key), with the scores, members and counters
    of exact linear-topk at k = sys.maxsize."""
    if isinstance(case, int):
        g, depth, words = random_instance(case)
        idx = build_index(g, compute_pagerank(g), depth)
    else:
        g, idx, words = sample_graph, sample_index, QUERY_WORDS[:2]
    stats = {}
    pairs = search_linear_enum(g, idx, Query(words, k=1), stats)
    topk = search_linear_topk(g, idx, Query(words, sys.maxsize))
    ranked = [ScoredPattern.from_members(pattern, members) for pattern, members in pairs]
    assert len(pairs) > 1
    assert [(sp.pattern, sp.score.hex()) for sp in sorted(ranked, key=search._by_score)] == [
        (sp.pattern, sp.score.hex()) for sp in ranked
    ]
    assert _answers(ranked) == _answers(topk.patterns)
    assert stats == {**topk.stats, "patterns_found": len(pairs)}


class TestEngineAgreement:
    @pytest.mark.parametrize("case", range(12))
    def test_agreement_and_truncation(self, case):
        g, depth, words = random_instance(case)
        idx = build_index(g, compute_pagerank(g), depth)
        q = Query(words, k=5)
        base = search_baseline(g, idx, q)
        penum = search_pattern_enum(g, idx, q)
        topk = search_linear_topk(g, idx, q)
        assert signature(base.patterns) == signature(penum.patterns) == signature(topk.patterns)

        ranked = rank_enumeration(search_linear_enum(g, idx, q))
        assert signature(ranked[: q.k]) == signature(base.patterns)

        for sp in base.patterns:
            assert tree_height(sp.pattern) <= depth

    @pytest.mark.parametrize("case", [2, 5, 9])
    def test_every_leaf_hosts_a_keyword(self, case):
        # minimality: leaves of the union are always some path's terminal
        g, depth, words = random_instance(case)
        idx = build_index(g, compute_pagerank(g), depth)
        pairs = search_linear_enum(g, idx, Query(words, k=1))
        for _, members in pairs:
            for m in members:
                sources = {s for s, _, _ in edge_set(m)}
                leaves = node_ids(m) - sources
                terminals = {p.nodes[-1] for p in m.paths}
                assert leaves <= terminals

    @pytest.mark.parametrize("case", [1, 4, 7])
    def test_member_sets_agree(self, case):
        g, depth, words = random_instance(case)
        idx = build_index(g, compute_pagerank(g), depth)
        q = Query(words, k=3)
        base = search_baseline(g, idx, q)
        topk = search_linear_topk(g, idx, q)
        for a, b in zip(base.patterns, topk.patterns):
            assert sorted(m.sort_key() for m in a.subtrees) == sorted(
                m.sort_key() for m in b.subtrees
            )


class TestSampling:
    def test_exact_configuration_matches_baseline(self, sample_graph, sample_index, sample_query):
        exact = search_linear_topk(
            sample_graph, sample_index, sample_query, SamplingConfig(math.inf, 1.0, 0)
        )
        base = search_baseline(sample_graph, sample_index, sample_query)
        assert signature(exact.patterns) == signature(base.patterns)
        assert all(t["rate"] == 1.0 for t in exact.stats["types"])

    def test_threshold_triggers_sampling(self, sample_graph, sample_index, sample_query):
        res = search_linear_topk(
            sample_graph, sample_index, sample_query, SamplingConfig(threshold=1, rate=0.5, seed=3)
        )
        assert any(t["rate"] == 0.5 for t in res.stats["types"])

    def test_deterministic_given_seed(self, sample_graph, sample_index, sample_query):
        cfg = SamplingConfig(threshold=0, rate=0.4, seed=11)
        r1 = search_linear_topk(sample_graph, sample_index, sample_query, cfg)
        r2 = search_linear_topk(sample_graph, sample_index, sample_query, cfg)
        assert signature(r1.patterns) == signature(r2.patterns)
        assert r1.stats == r2.stats

    def test_exact_scores_after_sampling(self, sample_graph, sample_index):
        # surviving patterns are re-scored exactly: any pattern present in both
        # the sampled and exact runs carries the same exact score
        q = Query(("database", "software", "company", "revenue"), k=10)
        exact = {
            sp.pattern: sp.score
            for sp in search_linear_topk(sample_graph, sample_index, q).patterns
        }
        sampled = search_linear_topk(
            sample_graph, sample_index, q, SamplingConfig(threshold=0, rate=0.6, seed=5)
        )
        for sp in sampled.patterns:
            assert sp.score == pytest.approx(exact[sp.pattern], rel=1e-12)
            assert sp.estimated_score is not None

    def test_non_sum_aggregator_rejected_with_sampling(self, sample_graph, sample_index, sample_query):
        cfg = ScoringConfig(aggregator="max")
        with pytest.raises(ParameterError):
            search_linear_topk(
                sample_graph, sample_index, sample_query, SamplingConfig(0, 0.5, 0), cfg
            )
        # exact mode works for every aggregator
        res = search_linear_topk(sample_graph, sample_index, sample_query, SamplingConfig(), cfg)
        assert res.patterns


@pytest.fixture(scope="module")
def sampling_instances(sample_graph, sample_index, sample_query):
    """(graph, index, query, exact answer by pattern) per instance; the exact
    answers come from the index-free baseline."""
    out = [(sample_graph, sample_index, sample_query)]
    for case in (5, 8, 11, 13):  # random instances whose queries have answers
        g, depth, words = random_instance(case)
        out.append((g, build_index(g, compute_pagerank(g), depth), Query(words, k=10)))
    exact = []
    for g, idx, q in out:
        everything = search_baseline(g, idx, Query(q.keywords, k=10**9)).patterns
        exact.append((g, idx, q, {sp.pattern: sp for sp in everything}))
    return exact


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), rho=st.floats(0.1, 0.9))
def test_sampled_winners_are_rescored_exactly(sampling_instances, data, seed, rho):
    """Every pattern sampled linear-topk returns carries its estimate, and its
    score and members are exactly those of the index-free baseline."""
    graph, idx, query, exact = data.draw(st.sampled_from(sampling_instances))
    result = search_linear_topk(graph, idx, query, SamplingConfig(threshold=0, rate=rho, seed=seed))
    for sp in result.patterns:
        assert sp.estimated_score is not None
        reference = exact[sp.pattern]
        assert sp.score == reference.score
        assert repr(sp.subtrees) == repr(reference.subtrees)


@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("threshold", [0, 5])
@pytest.mark.parametrize("rho", [0.1, 0.5])
def test_sampled_topk_equals_the_reference(sampling_instances, k, threshold, rho):
    """Sampled linear-topk picks each sampled type's winners by estimate and
    ranks them with the unsampled types' patterns by exact score, as
    `reference_sampled_topk` does from the baseline's members."""

    def answers(patterns):
        return [(sp.pattern, sp.score.hex(), sp.estimated_score.hex(), repr(sp.subtrees)) for sp in patterns]

    for graph, idx, query, exact in sampling_instances:
        query = Query(query.keywords, k)
        for seed in (0, 1, 42, 2**32 - 1, 12345678901234567):
            sampling = SamplingConfig(threshold, rho, seed)
            expected = reference_sampled_topk(graph, idx, query, sampling, list(exact.values()))
            assert answers(search_linear_topk(graph, idx, query, sampling).patterns) == answers(expected), seed


@pytest.mark.parametrize("k", [1, 10, 100])
@pytest.mark.parametrize("threshold", [0, 5])
def test_sampled_exact_join_reads_the_winners_units(sampling_instances, k, threshold, monkeypatch):
    """Under the sampled types' roots, the exact join of sampled linear-topk
    reads exactly the units of the winners' combinations that pattern-enum's
    walk (`reference_pattern_units`) visits, each one's (first record, record
    count) per keyword, in (root, combination) order; the winners are the
    sampled types' `reference_finalists`."""
    seen, tree_rows = [], search._tree_rows

    def spy(c, run_start, run_size, tuples, stats):
        seen.append(list(zip(*(zip(s.tolist(), n.tolist()) for s, n in zip(run_start, run_size)))))
        return tree_rows(c, run_start, run_size, tuples, stats)

    monkeypatch.setattr(search, "_tree_rows", spy)
    checked = 0
    for graph, idx, query, exact in sampling_instances:
        c, query = idx.columns, Query(query.keywords, k)
        units, _ = reference_pattern_units(idx, query.keywords)
        combo = {unit: tuple(c.patterns[int(c.pattern_id[start])] for start, _ in unit) for unit in units}
        for seed in (0, 1, 42, 12345678901234567):
            sampling = SamplingConfig(threshold, 0.5, seed)
            seen.clear()
            result = search_linear_topk(graph, idx, query, sampling)
            sampled = {s["type"] for s in result.stats["types"] if s["rate"] < 1.0}
            finalists = reference_finalists(graph, idx, query, sampling, list(exact.values()))
            winners = {sp.pattern for sp in finalists if sp.pattern[0][0] in sampled}
            # Keyword 0's first record orders the units by root, then by its pattern; and so on.
            expected = sorted(unit for unit in units if combo[unit] in winners)
            assert len(seen) == (2 if sampled else 1)
            assert [unit for unit in seen[-1] if graph.entity_type[int(c.root[unit[0][0]])] in sampled] == expected, seed
            checked += len(expected)
    assert checked > 0


def winners_graph():
    """Hub roots h0, h1 and h5 each hold a diamond: two Mid children over one
    Leaf matching both words, so both words' paths there have one pattern P
    and 2 of their 4 tuples are trees. Hubs h2-h4 have one alpha child (a2)
    and one beta child (b2) each, and h5 a b2 child as well."""
    lines = [f"E h{i} Hub hub" for i in range(6)]
    for i in (0, 1, 5):
        lines += [f"E m{i} Mid mid", f"E n{i} Mid mid", f"E x{i} Leaf alpha beta"]
        lines += [f"A h{i} relA @m{i}", f"A h{i} relA @n{i}", f"A m{i} of @x{i}", f"A n{i} of @x{i}"]
    for i in (2, 3, 4):
        lines += [f"E a{i} KindA alpha", f"A h{i} relC @a{i}"]
    for i in (2, 3, 4, 5):
        lines += [f"E b{i} KindB beta", f"A h{i} relD @b{i}"]
    return graph_from_text("\n".join(lines) + "\n")


def test_sampled_counters_add_both_joins(monkeypatch):
    """At threshold 10 only Hub (bound 17) is sampled, not Mid (6) or Leaf
    (3). Seed 3 keeps h0 and h2-h5, so the sample makes (P, P) and (a2, b2)
    the winners over (P, b2) of h5. The counters add the sample join's 13
    tuples (9 trees) and the exact join's 24 (18 trees): the winners' own
    runs, 12 tuples under h0, h1 and h5 and 3 under h2-h4, and the 9
    one-tuple roots of Mid and Leaf. The exact join joins no (P, b2) tuple,
    and `patterns_found` counts its patterns."""
    g = winners_graph()
    idx = build_index(g, uniform_pagerank(g), 3)
    t, a = g.type_names.index, g.attr_names.index
    p = (t("Hub"), a("relA"), t("Mid"), a("of"), t("Leaf"))
    a2, b2 = (t("Hub"), a("relC"), t("KindA")), (t("Hub"), a("relD"), t("KindB"))
    joins, found, tree_rows = [], [], search._tree_rows

    def counted(c, run_start, run_size, tuples, stats):
        before = dict(stats)
        rows = tree_rows(c, run_start, run_size, tuples, stats)
        combos = set(zip(*(map(c.patterns.__getitem__, c.pattern_id[r].tolist()) for r in rows)))
        joins.append(([stats[name] - before[name] for name in COUNTERS[:3]], {x for x in combos if x[0][0] == t("Hub")}))
        found.append(len(combos))
        return rows

    monkeypatch.setattr(search, "_tree_rows", counted)
    result = search_linear_topk(g, idx, Query(("alpha", "beta"), 2), SamplingConfig(threshold=10, rate=0.5, seed=3))
    assert [(s["type"], s["bound"], s["rate"], s["expanded"]) for s in result.stats["types"]] == [
        (t("Hub"), 17, 0.5, 5), (t("Mid"), 6, 1.0, 6), (t("Leaf"), 3, 1.0, 3)
    ]
    assert joins == [([13, 9, 4], {(p, p), (a2, b2), (p, b2)}), ([24, 18, 6], {(p, p), (a2, b2)})]
    assert [result.stats[name] for name in COUNTERS[:3]] == [37, 27, 10]
    assert result.stats["patterns_found"] == found[1] > 2


@pytest.mark.parametrize("n_patterns", [5, 1 << 40, 1 << 32])
def test_group_orders_rows_by_their_pattern_ids(n_patterns, monkeypatch):
    """Groups are the rows' distinct pattern-id tuples in lexicographic order,
    also when the tuples' radix key would pass 2^63 (2^32 patterns, as many as
    u4 ids can name, or 2^40, and 3 keywords), where the key is made dense
    before each keyword past the first."""
    rng = np.random.default_rng(7)
    ids = rng.choice([0, 1, n_patterns - 2, n_patterns - 1], size=(3, 200))
    c = types.SimpleNamespace(patterns=range(n_patterns), pattern_id=ids.ravel())
    rows = [np.arange(200) + 200 * j for j in range(3)]  # keyword j's record ids
    calls, groups_of = [], search._groups
    monkeypatch.setattr(search, "_groups", lambda key: calls.append(len(key)) or groups_of(key))
    groups = search._group(c, rows)
    assert len(calls) == (1 if n_patterns**2 < 1 << 63 else 3)  # the grouping, after a densify before keywords 1 and 2
    keys = list(zip(*ids.tolist()))
    distinct = sorted(set(keys))
    assert groups.group.tolist() == [distinct.index(key) for key in keys]
    assert groups.first_row.tolist() == [keys.index(key) for key in distinct]
    assert groups.sizes.tolist() == [keys.count(key) for key in distinct]


@pytest.mark.parametrize("n_patterns", [5, 1 << 40, 1 << 32])
def test_pattern_key_orders_by_the_key_then_the_ids(n_patterns):
    """pattern-enum's unit order: a key below its bound (a root type), then
    3 keywords' pattern ids, also where the radix key is made dense."""
    rng = np.random.default_rng(11)
    first = rng.integers(0, 4, 300)
    ids = rng.choice([0, 1, n_patterns - 2, n_patterns - 1], size=(3, 300))
    key = search._pattern_key(types.SimpleNamespace(patterns=range(n_patterns)), list(ids), first, 4)
    keys = list(zip(first.tolist(), *ids.tolist()))
    assert key.argsort(kind="stable").tolist() == sorted(range(300), key=keys.__getitem__)


def assert_groups_are_unique(key):
    groups = search._groups(key)
    distinct, first_row, group, sizes = np.unique(key, return_index=True, return_inverse=True, return_counts=True)
    assert key[groups.first_row].tolist() == distinct.tolist()
    assert groups.first_row.tolist() == first_row.tolist()
    assert groups.group.tolist() == group.tolist()
    assert groups.sizes.tolist() == sizes.tolist()
    assert groups.group.dtype == np.min_scalar_type(max(len(distinct) - 1, 0))


INT64 = np.iinfo(np.int64)


@pytest.mark.parametrize("key", [[], [7], [3] * 50, list(range(300, 0, -1)), [INT64.max, INT64.max - 1, INT64.min, INT64.max, 0]])
def test_groups_equal_unique_on_edge_keys(key):
    assert_groups_are_unique(np.array(key, np.int64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(INT64.min, INT64.max) | st.integers(INT64.max - 3, INT64.max) | st.integers(0, 5), max_size=300))
def test_groups_equal_unique(key):
    """One stable argsort groups an int64 key as `np.unique` does: the same
    first rows, group ids and sizes, in the narrowest unsigned id dtype."""
    assert_groups_are_unique(np.array(key, np.int64))


@pytest.fixture(scope="module")
def mixed_instance():
    """A graph, its index and a query whose root types bound 18, 16, 24 and 24
    subtrees: at threshold 24 half of them are sampled, and the top 10 holds
    patterns of both halves."""
    g, depth, words = random_instance(13)
    return g, build_index(g, compute_pagerank(g), depth), words


MIXED = SamplingConfig(threshold=24, rate=0.5, seed=3)


def reference_types(idx, words, sampling):
    """The per-type stats of `search_linear_topk`, derived as the engine did with `np.unique`."""
    c = idx.columns
    candidates, run_start, run_size, tuples = search._root_runs(idx, words)
    types = c.patterns.elements[c.patterns.starts[c.pattern_id[run_start[0]]]]
    type_ids, of_type, roots = np.unique(types, return_inverse=True, return_counts=True)
    bounds = np.bincount(of_type, tuples, len(type_ids)).astype(np.int64)
    rates = np.where(bounds >= sampling.threshold, sampling.rate, 1.0)
    expanded = [
        int(np.count_nonzero(_uniform01(sampling.seed, t, n) < rate)) if rate < 1.0 else n
        for t, n, rate in zip(type_ids.tolist(), roots.tolist(), rates.tolist())
    ]
    fields = ("type", "roots", "bound", "rate", "expanded")
    return [dict(zip(fields, values)) for values in zip(type_ids.tolist(), roots.tolist(), bounds.tolist(), rates.tolist(), expanded)]


@pytest.mark.parametrize("sampling", [EXACT_SAMPLING, MIXED, SamplingConfig(threshold=0, rate=0.5, seed=1)])
def test_per_type_stats_are_those_of_unique(mixed_instance, sample_graph, sample_index, sampling):
    """The per-type stats, counted by `np.bincount`, equal their `np.unique`
    derivation, also for a query with no candidate root."""
    g, idx, words = mixed_instance
    cases = [(g, idx, words), (g, idx, words[:1]), (sample_graph, sample_index, QUERY_WORDS[:2]), (g, idx, ("absentword",))]
    for graph, index, query in cases:
        stats = search_linear_topk(graph, index, Query(query, 10), sampling).stats
        assert stats["types"] == reference_types(index, query, sampling), query
        assert stats["roots_expanded"] == sum(t["expanded"] for t in stats["types"])
    assert stats["types"] == [] and stats["candidate_roots"] == stats["roots_expanded"] == 0


@pytest.mark.parametrize("k", [1, 10, 100])
@pytest.mark.parametrize("engine", ["pattern-enum", "exact", "sampled"])
def test_members_are_decoded_in_one_batch_on_first_read(mixed_instance, monkeypatch, engine, k):
    """The index engines decode no member. The first element read of any
    answer's subtrees decodes every answer's in one `decode_records` call (a sampled
    result's come from its exact join, not its sample's), and later reads
    decode nothing."""
    g, idx, words = mixed_instance
    query = Query(words, k)
    calls = []
    decode = search.decode_records
    monkeypatch.setattr(search, "decode_records", lambda c, ids: calls.append(len(ids)) or decode(c, ids))
    run = {
        "pattern-enum": lambda: search_pattern_enum(g, idx, query),
        "exact": lambda: search_linear_topk(g, idx, query),
        "sampled": lambda: search_linear_topk(g, idx, query, MIXED),
    }
    result = run[engine]()
    counts = [sp.subtree_count for sp in result.patterns]
    assert calls == [] and result.patterns
    assert result.patterns[-1].subtrees[0] and len(calls) == 1
    exact = {sp.pattern: sp for sp in search_baseline(g, idx, Query(words, 10**9)).patterns}
    for sp, count in zip(result.patterns, counts):
        assert count == len(sp.subtrees) and repr(sp.subtrees) == repr(exact[sp.pattern].subtrees)
    assert len(calls) == 1
    if engine == "sampled" and k >= 10:
        rates = {t["type"]: t["rate"] for t in result.stats["types"]}
        assert {rates[sp.pattern[0][0]] for sp in result.patterns} == {0.5, 1.0}


MEMBER_ENGINES = {
    "pattern-enum": lambda g, idx, query: search_pattern_enum(g, idx, query).patterns,
    "exact": lambda g, idx, query: search_linear_topk(g, idx, query).patterns,
    "sampled": lambda g, idx, query: search_linear_topk(g, idx, query, MIXED).patterns,
    "linear": lambda g, idx, query: [ScoredPattern(p, 0.0, m) for p, m in search_linear_enum(g, idx, query)],
}


@pytest.mark.parametrize("k", [1, 10, 100])
@pytest.mark.parametrize("engine", list(MEMBER_ENGINES))
def test_members_are_a_sequence_equal_to_the_list(mixed_instance, monkeypatch, engine, k):
    """An index engine's answer's `subtrees` is a `Members`, equal to (both
    ways), shown as, indexed, sliced and iterated as the list of the index-free
    baseline's members; its length and truth decode nothing, and it is unhashable."""
    g, idx, words = mixed_instance
    query = Query(words, k)
    exact = {sp.pattern: sp.subtrees for sp in search_baseline(g, idx, Query(words, 10**9)).patterns}
    calls = []
    decode = search.decode_records
    monkeypatch.setattr(search, "decode_records", lambda c, ids: calls.append(len(ids)) or decode(c, ids))
    answers = MEMBER_ENGINES[engine](g, idx, query)
    assert answers and all(isinstance(sp.subtrees, search.Members) for sp in answers)
    assert [(len(sp.subtrees), bool(sp.subtrees)) for sp in answers] == [(len(exact[sp.pattern]), True) for sp in answers]
    assert calls == []
    again = MEMBER_ENGINES[engine](g, idx, query)
    for sp, other in zip(answers, again):
        members, want = sp.subtrees, exact[sp.pattern]
        assert repr(members) == repr(want) and str(members) == str(want)
        assert members == want and want == members and not members != want and not want != members
        assert members == other.subtrees and members == list(members) and members != want[:-1] and want[:-1] != members
        assert members != tuple(want)
        assert (members[0], members[-1], members[len(want) - 1], members[-len(want)]) == (want[0], want[-1], want[-1], want[0])
        assert (members[1:], members[::-1], members[:0], members[-2:]) == (want[1:], want[::-1], [], want[-2:])
        assert type(members[1:]) is list and list(members) == want and [m for m in members] == want
        assert want[0] in members and members.index(want[-1]) == want.index(want[-1])
        with pytest.raises(IndexError):
            members[len(want)]
        with pytest.raises(TypeError):
            hash(members)
        listed = ScoredPattern(sp.pattern, sp.score, list(want), sp.estimated_score)
        assert sp == listed and listed == sp and sp == other and repr(sp) == repr(listed)
        assert sp != ScoredPattern(sp.pattern, sp.score, want[:-1], sp.estimated_score)
    assert len(calls) == 2  # one batch decode per engine run


class TestUniformStream:
    def test_deterministic_and_in_range(self):
        draws = _uniform01(42, 7, 100)
        assert draws.tolist() == _uniform01(42, 7, 100).tolist()
        assert ((0.0 <= draws) & (draws < 1.0)).all()

    def test_streams_differ(self):
        a = _uniform01(42, 1, 50).tolist()
        b = _uniform01(42, 2, 50).tolist()
        c = _uniform01(43, 1, 50).tolist()
        assert a != b and a != c

    def test_mean_roughly_half(self):
        draws = _uniform01(7, 0, 4000)
        assert abs(draws.mean() - 0.5) < 0.03

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**64 - 1, 12345678901234567, -5])
    def test_bit_equal_to_the_scalar_draws(self, seed):
        for key in (0, 1, 2, 7, 1000):
            expected = [reference_uniform01(seed, key, i) for i in range(3000)]
            assert _uniform01(seed, key, 3000).tolist() == expected, key
        assert _uniform01(seed, 3, 0).tolist() == []


def reference_pattern_runs(idx, word):
    """`search._pattern_runs` of a checked word, record by record: a record
    starts a run when its root (its first node) or its pattern id differs
    from the record before it."""
    span = idx.words.get(word, range(0))
    paths = decode_records(idx.columns, np.arange(span.start, span.stop))
    roots, pattern_ids, starts = [], [], []
    for j, path in zip(span, paths):
        key = path.nodes[0], int(idx.columns.pattern_id[j])
        if not starts or key != (roots[-1], pattern_ids[-1]):
            roots.append(key[0])
            pattern_ids.append(key[1])
            starts.append(j)
    return roots, pattern_ids, starts + [span.stop]


def assert_pattern_runs(idx, words):
    for word in words:
        roots, pattern_ids, off = search._pattern_runs(idx, word)
        assert (roots.tolist(), pattern_ids.tolist(), off.tolist()) == reference_pattern_runs(idx, word), word


RUN_GRAPHS = [None, GenConfig(40, 3, 4, 2.0, 8, seed=1), GenConfig(60, 4, 3, 2.5, 10, seed=2), GenConfig(30, 2, 2, 3.0, 6, seed=3)]


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("graph", range(len(RUN_GRAPHS)), ids=["sample", "g1", "g2", "g3"])
def test_pattern_runs_equal_the_records(graph, depth, tmp_path, sample_graph):
    """Every word's runs, of an index as built, deserialized and read
    lazily, its words checked in two batches."""
    cfg = RUN_GRAPHS[graph]
    g = sample_graph if cfg is None else graph_from_text(generate_graph(cfg))
    built = build_index(g, compute_pagerank(g), depth)
    words = built.vocabulary()
    assert_pattern_runs(built, words)
    assert_pattern_runs(deserialize(serialize(built)), words)
    (tmp_path / "index.kgpx").write_bytes(serialize(built))
    lazy = read_index(tmp_path / "index.kgpx")
    for batch in (words[::2], words[1::2]):
        lazy.check(batch)
        assert_pattern_runs(lazy, batch)


def test_a_word_not_in_the_index_has_no_runs(sample_index):
    roots, pattern_ids, off = search._pattern_runs(sample_index, "absentword")
    assert (roots.tolist(), pattern_ids.tolist(), off.tolist()) == ([], [], [0])


def runs_index():
    """Keyword `a`'s records 0-6 hold the (root, pattern id) runs (2, 1) x2,
    (2, 3), (5, 0) x3 and (7, 2); keyword `b`'s records 7-8 one run, (5, 0) x2.
    The pattern table holds ids 0-9."""
    keys = [(2, 1), (2, 1), (2, 3), (5, 0), (5, 0), (5, 0), (7, 2), (5, 0), (5, 0)]
    root, pattern_id = (np.array(column, "<u4") for column in zip(*keys))
    columns = types.SimpleNamespace(root=root, pattern_id=pattern_id, patterns=range(10))
    return types.SimpleNamespace(columns=columns, words={"a": range(7), "b": range(7, 9)})


def combo_units(words, keep=None):
    """`_combo_units` on `runs_index()`: each unit's run index per keyword, and its (first record, record count)."""
    runs, picks = search._combo_units(runs_index(), words, keep)
    spans = [list(zip(off[pick].tolist(), np.diff(off)[pick].tolist())) for (_, _, off), pick in zip(runs, picks)]
    return [pick.tolist() for pick in picks], spans


def test_combo_units_keep_the_runs_of_the_kept_patterns_in_unit_order():
    # a's runs 0-3 are (2, 1), (2, 3), (5, 0) and (7, 2); pattern 9 has no run.
    assert combo_units(["a"]) == ([[0, 1, 2, 3]], [[(0, 2), (2, 1), (3, 3), (6, 1)]])
    assert combo_units(["a"], [np.array([9, 2, 0, 1, 0], "<u4")]) == ([[0, 2, 3]], [[(0, 2), (3, 3), (6, 1)]])
    assert combo_units(["a"], [np.array([1], "<u4")]) == ([[0]], [[(0, 2)]])  # the first run: before the others
    assert combo_units(["a"], [np.array([3], "<u4")]) == ([[1]], [[(2, 1)]])  # between two runs
    assert combo_units(["a"], [np.array([2], "<u4")]) == ([[3]], [[(6, 1)]])  # past the last other run
    assert combo_units(["a"], [np.zeros(0, "<u4")]) == ([[]], [[]])


def test_combo_units_of_a_keyword_with_one_run():
    # `b`'s one run (5, 0) lies past a's (2, 1) and (2, 3) and before its (7, 2).
    assert combo_units(["a", "b"]) == ([[2], [0]], [[(3, 3)], [(7, 2)]])
    assert combo_units(["a", "b"], [np.array([1, 3, 0, 2], "<u4"), np.array([0], "<u4")]) == ([[2], [0]], [[(3, 3)], [(7, 2)]])
    assert combo_units(["a", "b"], [np.array([1, 3, 2], "<u4"), np.array([0], "<u4")]) == ([[], []], [[], []])
    assert combo_units(["a", "b"], [np.array([0], "<u4"), np.array([1], "<u4")]) == ([[], []], [[], []])


def _answers(patterns):
    """Everything of a ranking that query JSON and tables read, score bits included."""
    return [(sp.pattern, sp.score.hex(), repr(sp.subtrees)) for sp in patterns]


def _column_instance(seed, depth, n_words):
    rng = random.Random(seed)
    cfg = GenConfig(rng.randint(12, 30), rng.randint(2, 4), rng.randint(2, 4), 2.0, 8, words_per_text=2, seed=seed)
    g = graph_from_text(generate_graph(cfg))
    words = tuple(rng.sample([f"w{i}" for i in range(8)], n_words))
    return g, build_index(g, compute_pagerank(g), depth), words


CONFIGS = [ScoringConfig(z1=z1, z2=z2, aggregator=agg) for z1, z2 in ((-1.0, 1.0), (-0.7, 2.5)) for agg in AGGREGATORS]
COUNTERS = ("path_tuples_checked", "subtrees_accepted", "tuples_rejected", "candidate_roots", "patterns_found")
# A finite threshold no type reaches: linear-topk samples no type, so it joins every root.
UNREACHED = SamplingConfig(threshold=2.0**62, rate=0.5)


def index_engines(g, idx, query, config=DEFAULT_CONFIG, sampling=UNREACHED):
    """(name, ranked patterns, stats) of each engine that reads the index."""
    topk = search_linear_topk(g, idx, query, config=config)
    penum = search_pattern_enum(g, idx, query, config)
    stats = {}
    ranked = rank_enumeration(search_linear_enum(g, idx, query, stats=stats), config)[: query.k]
    out = [("linear-topk", topk.patterns, topk.stats), ("pattern-enum", penum.patterns, penum.stats)]
    out.append(("linear", ranked, stats))
    if config.aggregator == "sum":  # the only aggregator sampling takes
        sampled = search_linear_topk(g, idx, query, sampling, config)
        out.append(("sampled", sampled.patterns, sampled.stats))
    return out


def assert_same_as_baseline(g, idx, words, ks, config=DEFAULT_CONFIG):
    """Every index engine's top k, for each k in `ks`, equals the index-free
    baseline's in patterns, score bits and member reprs, and so do the
    counters both keep; k = None stands for every pattern."""
    reference = search_baseline(g, idx, Query(words, 10**9), config)
    for k in ks:
        expected = reference.patterns[:k]
        for name, patterns, stats in index_engines(g, idx, Query(words, k or 10**9), config):
            assert _answers(patterns) == _answers(expected), (name, k)
            shared = [c for c in COUNTERS if c in stats]
            assert {c: stats[c] for c in shared} == {c: reference.stats[c] for c in shared}, (name, k)
            if name in ("linear-topk", "sampled"):
                assert [sp.estimated_score for sp in patterns] == [sp.score for sp in patterns]


class TestExactTopkOnColumns:
    """Every index engine answers from one join on the index columns; the
    index-free baseline, the object path (its DFS, `assemble_subtree`,
    `tree_score` and `pattern_score`), is their reference."""

    @pytest.mark.parametrize("n_words", [1, 2, 3, 4])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_equal_to_ranked_enumeration(self, seed, depth, n_words):
        g, idx, words = _column_instance(100 * seed + 10 * depth + n_words, depth, n_words)
        for config in CONFIGS:
            assert_same_as_baseline(g, idx, words, (1, 3, None), config)

    @pytest.mark.parametrize("case", [1, 2, 3, 5, 7, 11])
    def test_stats_equal_the_object_path(self, case):
        g, depth, words = random_instance(case)
        idx = build_index(g, compute_pagerank(g), depth)
        assert_same_as_baseline(g, idx, words, (4,))
        q = Query(words, k=4)
        sampled = search_linear_topk(g, idx, q, UNREACHED)
        assert sampled.stats == search_linear_topk(g, idx, q).stats
        assert sampled.stats["roots_expanded"] == sampled.stats["candidate_roots"]
        assert all(t["rate"] == 1.0 for t in sampled.stats["types"])

    @pytest.mark.parametrize("z2", [-1.0, -0.5])
    def test_zero_factor_with_negative_exponent(self, z2):
        g, _, words = _column_instance(7, 3, 2)
        idx = build_index(g, uniform_pagerank(g, 0.0), 3)
        config = ScoringConfig(z2=z2)
        with pytest.raises(ScoreDomainError):
            rank_enumeration(search_linear_enum(g, idx, Query(words)), config)
        with pytest.raises(ScoreDomainError):
            search_linear_topk(g, idx, Query(words), config=config)

    def test_pattern_score_past_the_float_range(self):
        # Each member's score is its pr term, 1e308; two members sum past the float range.
        g, _, words = _column_instance(7, 3, 2)
        idx = build_index(g, uniform_pagerank(g, 1e308), 3)
        config, query = ScoringConfig(z1=0.0, z3=0.0), Query(words[:1])
        with pytest.raises(ScoreDomainError, match="a pattern score is not finite"):
            rank_enumeration(search_linear_enum(g, idx, query), config)
        with pytest.raises(ScoreDomainError, match="a pattern score is not finite"):
            search_linear_topk(g, idx, query, config=config)

    def test_chunks_change_nothing(self, monkeypatch):
        # 20 hubs with 12 alpha and 12 beta children each, of varied PageRank
        # and similarity: a pattern of 2,880 members, summed across chunks.
        entities, edges = [], []
        for i in range(20):
            entities.append(f"E r{i} hub anchor")
            for j in range(12):
                entities += [f"E a{i}_{j} kindA alpha" + " x" * (j % 4), f"E b{i}_{j} kindB beta" + " y" * (j % 5)]
                edges += [f"A r{i} relA @a{i}_{j}", f"A r{i} relB @b{i}_{j}", f"A a{i}_{j} link @b{i * j % 20}_{j % 7}"]
        g = graph_from_text("\n".join(entities + edges) + "\n")
        idx = build_index(g, compute_pagerank(g), 2)
        q = Query(("alpha", "beta"), k=5)
        assert [sp.subtree_count for sp in search_linear_topk(g, idx, q).patterns] == [2880, 240]
        # Sampling every type: the sample's join and the winners' exact one.
        sampling = SamplingConfig(threshold=0, rate=0.5, seed=3)
        whole = index_engines(g, idx, q, sampling=sampling)
        monkeypatch.setattr(search, "CHUNK_ROWS", 7)
        chunked = index_engines(g, idx, q, sampling=sampling)
        assert [name for name, _, _ in chunked] == ["linear-topk", "pattern-enum", "linear", "sampled"]
        for (name, patterns, stats), (_, whole_patterns, whole_stats) in zip(chunked, whole):
            assert _answers(patterns) == _answers(whole_patterns), name
            assert stats == whole_stats, name

    def test_answers_hold_python_numbers(self, sample_graph, sample_index_pr, sample_query):
        # numpy 2 reprs its scalars as np.float64(...), which would change every
        # member repr and the query JSON.
        result = search_linear_topk(sample_graph, sample_index_pr, sample_query)
        assert result.patterns
        for sp in result.patterns:
            assert type(sp.score) is float and type(sp.estimated_score) is float
            for m in sp.subtrees:
                assert type(m.root) is int
                for p in m.paths:
                    assert [type(x) for x in (p.node_count, p.pr_term, p.sim_term)] == [int, float, float]
                    assert {type(x) for x in p.nodes + p.attrs + p.pattern} == {int}
        assert "np." not in repr(result)

    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    def test_queries_leave_the_index_as_built(self, sample_graph, sample_query, loaded):
        idx = build_index(sample_graph, compute_pagerank(sample_graph), 3)
        if loaded:
            idx = deserialize(serialize(idx))
        before, words = dict(vars(idx)), dict(idx.words)
        index_engines(sample_graph, idx, sample_query, sampling=SamplingConfig(0, 0.5, 1))
        for word in sample_query.keywords:
            idx.paths(word), idx.patterns(word), idx.roots(word)
        # The index holds its columns and, per word, the range of its records: nothing is cached.
        assert vars(idx).keys() == before.keys() and all(vars(idx)[key] is value for key, value in before.items())
        assert idx.words == words and all(type(span) is range for span in words.values())

    @pytest.mark.parametrize("exponent", [-1.0, -0.7, 2.5])
    def test_powers_are_math_pow(self, exponent):
        # np.power differs from math.pow by one ulp on some inputs.
        values = np.random.default_rng(5).uniform(0.01, 40.0, 5000)
        got = _powers(values, exponent)
        assert [x.hex() for x in got.tolist()] == [math.pow(x, exponent).hex() for x in values.tolist()]

    @pytest.mark.parametrize("z1", [-1.0, -0.7, 0.0, 0.5, 1.0, 2.5])
    def test_node_count_powers_equal_the_baseline(self, z1):
        # The engines raise integer node counts to z1 through a table, the baseline float sums.
        for seed, depth, n_words in ((1, 3, 2), (3, 3, 3), (5, 4, 1)):
            g, idx, words = _column_instance(seed, depth, n_words)
            assert_same_as_baseline(g, idx, words, (1, 5, None), ScoringConfig(z1=z1))

    def test_node_count_power_past_the_float_range(self):
        # A two-keyword tree has at least 2 nodes, and 2.0 ** 2000 is past the float range.
        g, idx, words = _column_instance(1, 3, 2)
        config, query = ScoringConfig(z1=2000.0), Query(words)
        for engine in (search_baseline, search_pattern_enum):
            with pytest.raises(ScoreDomainError, match="a tree score is not finite"):
                engine(g, idx, query, config)
        with pytest.raises(ScoreDomainError, match="a tree score is not finite"):
            search_linear_topk(g, idx, query, config=config)

    def test_count_at_a_k_that_cuts_a_tie_run(self):
        g, idx, words = _column_instance(1, 3, 2)
        config = ScoringConfig(aggregator="count")
        scores = [sp.score for sp in search_baseline(g, idx, Query(words, 10**9), config).patterns]
        cuts = [k for k in range(2, len(scores)) if scores[k - 2 : k + 1].count(scores[k]) == 3]
        assert cuts and len(set(scores[k] for k in cuts)) == 2  # runs of counts 2 and 1 both cut
        assert_same_as_baseline(g, idx, words, cuts, config)


def assert_top_is_the_stable_argsort(scores, k):
    assert _top(scores, k).tolist() == np.argsort(-scores, kind="stable")[:k].tolist(), k


class TestTop:
    """`_top` keeps the k best scores' positions in the order of a stable argsort
    of the negated scores: score descending, ties by position."""

    @pytest.mark.parametrize("seed", range(4))
    def test_few_distinct_values(self, seed):
        scores = np.random.default_rng(seed).choice([0.25, 1.0, 3.5, 7.0], 40)
        for k in range(1, 43):
            assert_top_is_the_stable_argsort(scores, k)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_a_tie_run_straddles_the_kth_score(self, k):
        # Descending: 9, 5, then the run of 2.0 at positions 1, 3, 5 and 6, then 1.
        assert_top_is_the_stable_argsort(np.array([5.0, 2.0, 9.0, 2.0, 1.0, 2.0, 2.0]), k)

    @pytest.mark.parametrize("k", [1, 9, 10, 11])
    def test_k_at_one_and_around_the_length(self, k):
        assert_top_is_the_stable_argsort(np.random.default_rng(7).uniform(0.0, 1.0, 10), k)

    def test_no_scores(self):
        assert _top(np.zeros(0), 3).tolist() == []


def test_no_query_path_call_sorts_by_unique(sample_graph, sample_index, monkeypatch):
    """Once the index is built, no engine step and no table render calls
    `np.unique`: exact and sampled linear-topk, pattern-enum and the tables
    of every answer, on the sample graph and on a generated one."""
    g = graph_from_text(generate_graph(GenConfig(150, 3, 3, 2.5, 10, seed=5)))
    cases = [(sample_graph, sample_index, QUERY_WORDS[:2]), (sample_graph, sample_index, QUERY_WORDS)]
    cases += [(g, build_index(g, compute_pagerank(g), 3), words) for words in (("w0", "w1"), ("w0", "w1", "w2"))]
    g = graph_from_text(generate_graph(GenConfig(300, 6, 8, 2.5, 40, seed=2)))
    # Winners enough that `np.isin` over their pattern ids would sort by `np.unique`.
    cases.append((g, build_index(g, compute_pagerank(g), 3), ("w4", "w0")))

    def no_unique(*args, **kwargs):
        raise AssertionError("np.unique on the query path")

    monkeypatch.setattr(np, "unique", no_unique)
    answers = 0
    for graph, idx, words in cases:
        for k in (1, 10):
            query = Query(words, k)
            for result in (
                search_linear_topk(graph, idx, query),
                search_linear_topk(graph, idx, query, SamplingConfig(threshold=0, rate=0.5, seed=2)),
                search_pattern_enum(graph, idx, query),
            ):
                answers += len(result.patterns)
                for sp in result.patterns:
                    render_table(graph, sp.pattern, sp.subtrees)
    assert answers > 0
