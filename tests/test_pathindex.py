import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpattern import GenConfig, ParameterError, ValidSubtree, build_index, compute_pagerank, generate_graph, uniform_pagerank
from kgpattern import kernels, pathindex
from kgpattern import patterns as pat
from kgpattern.graph import jaccard_similarity
from kgpattern.indexio import deserialize, read_index, serialize, write_index
from kgpattern.fixtures import load_sample_graph
from kgpattern.oracle import _paths_reaching
from kgpattern.pathindex import IndexedPath, iter_root_paths

from conftest import graph_from_text, random_instance, reference_build, reference_steps, reference_word_matches


def names(graph, pattern_list):
    return [pat.pattern_names(graph, p) for p in pattern_list]


def test_from_hit_copies_the_hit_per_match(sample_graph, sample_index):
    root = sample_graph.entity_keys.index("sql_server")
    scores = sample_index.pagerank.scores
    for hit in iter_root_paths(sample_graph, scores, sample_index.depth, root):
        for word, sim in hit.matches:
            rec = IndexedPath.from_hit(hit, sim)
            assert (rec.nodes[0], rec.nodes, rec.attrs, rec.pattern) == (root, hit.nodes, hit.attrs, hit.pattern)
            assert (rec.node_count, rec.pr_term, rec.sim_term) == (len(hit.nodes), hit.pr_term, sim)
            assert rec in sample_index.paths(word, pattern=hit.pattern, root=root)


def test_path_objects_are_named_tuples():
    """`IndexedPath` and `ValidSubtree` are named tuples of their fields: the
    repr a dataclass of those fields had, the hash of the field tuple, no
    assignment, and the methods they had."""
    path = IndexedPath((3, 7), (2,), 2, 0.25, 0.5, (1, 2, 4))
    other = IndexedPath((3,), (), 1, 0.125, 1.0, (1,))
    member = ValidSubtree(3, (path, other))
    assert repr(path) == "IndexedPath(nodes=(3, 7), attrs=(2,), node_count=2, pr_term=0.25, sim_term=0.5, pattern=(1, 2, 4))"
    assert repr(member) == (
        "ValidSubtree(root=3, paths=(IndexedPath(nodes=(3, 7), attrs=(2,), node_count=2, pr_term=0.25, sim_term=0.5, "
        "pattern=(1, 2, 4)), IndexedPath(nodes=(3,), attrs=(), node_count=1, pr_term=0.125, sim_term=1.0, pattern=(1,))))"
    )
    assert hash(path) == hash(((3, 7), (2,), 2, 0.25, 0.5, (1, 2, 4)))
    assert hash(member) == hash((3, (path, other)))
    for obj, field in ((path, "nodes"), (path, "sim_term"), (member, "root"), (member, "paths")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    assert path.sort_key() == ((3, (1, 2, 4)), (3, 7), (2,))
    assert member.sort_key() == (3, (path.sort_key(), other.sort_key()))
    assert member.tree_pattern() == ((1, 2, 4), (1,))
    hit = pathindex.PathHit((3, 7), (2,), (1, 2, 4), 0.25, [("w", 0.5)])
    assert IndexedPath.from_hit(hit, 0.5) == path and type(IndexedPath.from_hit(hit, 0.5)) is IndexedPath


class TestSampleGraph:
    def test_three_patterns_for_database(self, sample_graph, sample_index):
        got = names(sample_graph, sample_index.patterns("database"))
        assert sorted(got) == ["Book", "Software.Genre.TEXT", "Software.Reference.Book"]

    def test_roots_for_database(self, sample_graph, sample_index):
        keys = [sample_graph.entity_keys[r] for r in sample_index.roots("database")]
        assert keys == ["sql_server", "oracle_db", "db_book"]

    def test_roots_restricted_to_pattern(self, sample_graph, sample_index):
        (p,) = [
            p
            for p in sample_index.patterns("database")
            if pat.pattern_names(sample_graph, p) == "Software.Reference.Book"
        ]
        roots = sample_index.roots("database", pattern=p)
        assert [sample_graph.entity_keys[r] for r in roots] == ["sql_server"]

    def test_single_path_lookup(self, sample_graph, sample_index):
        (p,) = [
            p
            for p in sample_index.patterns("database")
            if pat.pattern_names(sample_graph, p) == "Software.Genre.TEXT"
        ]
        sql = sample_graph.key_to_id["sql_server"]
        paths = sample_index.paths("database", pattern=p, root=sql)
        assert len(paths) == 1
        assert paths[0].nodes[0] == sql and len(paths[0].nodes) == 2
        assert paths[0].sim_term == pytest.approx(0.5)

    def test_unknown_word_everywhere(self, sample_index):
        assert sample_index.patterns("nosuchword") == []
        assert sample_index.roots("nosuchword") == []
        assert sample_index.paths("nosuchword") == []

    def test_missing_combination_is_empty(self, sample_index):
        assert sample_index.paths("database", pattern=(99,), root=12345) == []

    def test_edge_match_terms(self, sample_graph, sample_index):
        # "revenue" matches only attribute text; every entry is an edge match
        # whose PageRank term is the source node's score (stubbed to 1).
        recs = sample_index.paths("revenue")
        assert recs and all(pat.is_edge_ending(r.pattern) for r in recs)
        assert all(r.sim_term == 1.0 and r.pr_term == 1.0 for r in recs)

    def test_literals_never_roots(self, sample_graph, sample_index):
        for word in sample_index.vocabulary():
            for root in sample_index.roots(word):
                assert not sample_graph.is_literal(root)

    def test_node_counts_bounded(self, sample_index):
        for word in sample_index.vocabulary():
            for rec in sample_index.paths(word):
                assert 1 <= rec.node_count <= sample_index.depth
                assert rec.node_count == len(rec.nodes)
                assert len(set(rec.nodes)) == len(rec.nodes)  # simple path

    def test_locus_collapse_takes_max_sim(self, sample_graph, sample_index):
        # "software": in sql_server's case only via its type -> one entry, sim 1.
        sql = sample_graph.key_to_id["sql_server"]
        assert "software" not in sample_graph.entity_token_set[sql]
        recs = [r for r in sample_index.paths("software", root=sql) if len(r.nodes) == 1]
        assert len(recs) == 1
        assert recs[0].sim_term == 1.0


class TestSmallCases:
    def test_single_entity_d1(self):
        g = graph_from_text("E only Thing database stuff\n")
        idx = build_index(g, uniform_pagerank(g), 1)
        recs = idx.paths("database")
        assert len(recs) == 1
        assert recs[0].pattern == (g.entity_type[0],)
        assert recs[0].node_count == 1 and recs[0].sim_term == jaccard_similarity("database", g.entity_token_set[0])

    def test_d1_has_no_edge_matches(self):
        g = graph_from_text("E a T x\nE b T y\nA a revenue @b\n")
        idx = build_index(g, uniform_pagerank(g), 1)
        assert idx.paths("revenue") == []
        idx2 = build_index(g, uniform_pagerank(g), 2)
        assert len(idx2.paths("revenue")) == 1

    def test_depth_validation(self, sample_graph):
        with pytest.raises(ParameterError):
            build_index(sample_graph, uniform_pagerank(sample_graph), 0)

    def test_word_repeated_in_text_stored_once(self):
        g = graph_from_text("E a T buffalo buffalo buffalo\n")
        idx = build_index(g, uniform_pagerank(g), 2)
        assert len(idx.paths("buffalo")) == 1


def assert_terms_match_recomputation(g, idx):
    """Every record of `idx`, built from `g`, holds its pattern and the PageRank
    and similarity terms recomputed from its path, `jaccard_similarity`'s bits."""
    pr = idx.pagerank
    for word in idx.vocabulary():
        for rec in idx.paths(word):
            edge_match = pat.is_edge_ending(rec.pattern)
            assert rec.pattern == pat.path_pattern_of(g, rec.nodes, rec.attrs, edge_match)
            if edge_match:
                assert rec.pr_term == pr.scores[rec.nodes[-2]]
                assert rec.sim_term == jaccard_similarity(word, g.attr_token_set[rec.attrs[-1]])
            else:
                assert rec.pr_term == pr.scores[rec.nodes[-1]]
                tip = rec.nodes[-1]
                best = max(
                    jaccard_similarity(word, g.entity_token_set[tip]) if word in g.entity_token_set[tip] else 0.0,
                    jaccard_similarity(word, g.type_token_set[g.entity_type[tip]])
                    if word in g.type_token_set[g.entity_type[tip]]
                    else 0.0,
                )
                assert rec.sim_term == best


class TestInvariants:
    @pytest.mark.parametrize("case", range(10))
    def test_layout_agreement(self, case):
        g, depth, _ = random_instance(case)
        idx = build_index(g, compute_pagerank(g), depth)
        for word in idx.vocabulary():
            records = idx.paths(word)
            by_pattern = [rec for p in idx.patterns(word) for rec in idx.paths(word, pattern=p)]
            by_root = [rec for r in idx.roots(word) for rec in idx.paths(word, root=r)]
            assert by_pattern == records == sorted(records, key=IndexedPath.sort_key)
            assert by_root == sorted(records, key=lambda r: (r.nodes[0], pat.sort_key(r.pattern), r.nodes, r.attrs))

    @pytest.mark.parametrize("case", range(10))
    def test_completeness_vs_dfs_oracle(self, case):
        g, depth, _ = random_instance(case)
        idx = build_index(g, compute_pagerank(g), depth)

        vocab = set()
        for s in g.entity_token_set:
            vocab |= s
        for s in g.type_token_set:
            vocab |= s
        for s in g.attr_token_set:
            vocab |= s

        expected = set()
        for root in range(g.n_entities):
            if g.is_literal(root):
                continue
            for word in vocab:
                for nodes, attrs, edge in _paths_reaching(g, root, word, depth):
                    expected.add((word, root, nodes, attrs, edge))
        got = {
            (word, r.nodes[0], r.nodes, r.attrs, pat.is_edge_ending(r.pattern))
            for word in idx.vocabulary()
            for r in idx.paths(word)
        }
        assert got == expected

    @pytest.mark.parametrize("case", range(6))
    def test_entry_monotonicity_in_depth(self, case):
        g, _, _ = random_instance(case)
        pr = compute_pagerank(g)
        previous = None
        for depth in (1, 2, 3):
            idx = build_index(g, pr, depth)
            entries = {
                (w, r.nodes, r.attrs, r.pattern, r.sim_term)
                for w in idx.vocabulary()
                for r in idx.paths(w)
            }
            if previous is not None:
                assert previous <= entries
            previous = entries

    @pytest.mark.parametrize("case", range(6))
    def test_stored_terms_match_recomputation(self, case):
        g, depth, _ = random_instance(case)
        assert_terms_match_recomputation(g, build_index(g, compute_pagerank(g), depth))

    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    @pytest.mark.parametrize("case", [None, *range(6)])
    def test_derived_fields_agree_with_nodes_pattern_and_pagerank(self, sample_graph, case, loaded):
        """What the index file does not store: node count, root and pr term."""
        g, depth = (sample_graph, 3) if case is None else random_instance(case)[:2]
        idx = build_index(g, compute_pagerank(g), depth)
        if loaded:
            idx = deserialize(serialize(idx))
        for word in idx.vocabulary():
            for rec in idx.paths(word):
                assert rec.node_count == len(rec.nodes) == pat.node_count(rec.pattern)
                assert rec in idx.paths(word, pattern=rec.pattern, root=rec.nodes[0])
                edge_match = pat.is_edge_ending(rec.pattern)
                assert rec.pr_term == idx.pagerank.scores[rec.nodes[-1 - edge_match]]

    def test_stats_consistent(self, sample_index):
        stats = sample_index.stats
        assert stats.entry_count == sum(map(len, sample_index.words.values()))
        assert stats.entry_count == sum(len(sample_index.paths(w)) for w in sample_index.vocabulary())
        assert stats.cost_proxy >= stats.entry_count

    @pytest.mark.parametrize("case", range(4))
    def test_keys_sorted_in_both_layouts(self, case):
        g, depth, _ = random_instance(case)
        idx = build_index(g, compute_pagerank(g), depth)
        for word in idx.vocabulary():
            pats = idx.patterns(word)
            assert pats == sorted(pats, key=pat.sort_key)
            roots = idx.roots(word)
            assert roots == sorted(roots)
            for p in pats:
                assert idx.roots(word, pattern=p) == sorted(idx.roots(word, pattern=p))
            for r in roots:
                rps = idx.patterns(word, root=r)
                assert rps == sorted(rps, key=pat.sort_key)


class TestLeafBlocks:
    """The kernel block of a (word, pattern, root) leaf: one (child, parent,
    attr) step per non-root node of each of the leaf's paths, in path order."""

    @pytest.mark.parametrize("case", range(6))
    def test_block_holds_each_paths_steps(self, case):
        g, depth, _ = random_instance(case)
        built = build_index(g, compute_pagerank(g), depth)
        for idx in (built, deserialize(serialize(built))):
            for word in idx.vocabulary():
                for p in idx.patterns(word):
                    for root in idx.roots(word, pattern=p):
                        paths = idx.paths(word, pattern=p, root=root)
                        child, parent, attr, offsets = idx.block(word, root, p)
                        assert len(offsets) - 1 == len(paths)
                        for j, rec in enumerate(paths):
                            span = slice(offsets[j], offsets[j + 1])
                            steps = list(zip(child[span], parent[span], attr[span]))
                            assert steps == list(zip(rec.nodes[1:], rec.nodes[:-1], rec.attrs))

    def test_missing_leaf_joins_to_no_rows(self, sample_graph, sample_index):
        sql = sample_graph.entity_keys.index("sql_server")
        present = sample_index.block("database", sql, sample_index.patterns("database", root=sql)[0])
        assert kernels.join_tree_tuples([present]) != []
        for missing in (
            sample_index.block("database", 12345, sample_index.patterns("database")[0]),
            sample_index.block("database", sql, (99,)),
            sample_index.block("nosuchword", sql, (0,)),
        ):
            assert kernels.join_tree_tuples([missing]) == []
            assert kernels.join_tree_tuples([present, missing]) == []

    def test_mutating_returned_paths_leaves_the_index_unchanged(self, sample_graph):
        idx = build_index(sample_graph, uniform_pagerank(sample_graph), 3)
        word = "database"
        selectors = [{}]
        for p in idx.patterns(word):
            selectors.append({"pattern": p})
            selectors += [{"pattern": p, "root": r} for r in idx.roots(word, pattern=p)]
        selectors += [{"root": r} for r in idx.roots(word)]
        before = [idx.paths(word, **sel) for sel in selectors]
        for sel in selectors:
            got = idx.paths(word, **sel)
            assert got
            got.clear()
        assert [idx.paths(word, **sel) for sel in selectors] == before


def assert_slots_equal_the_reference_steps(idx, word):
    """`word`'s child and key slots hold `reference_steps`: the same steps,
    their padding (the dtype's maximum) read as -1, and pad rows past the
    word's longest path."""
    c, span = idx.columns, idx.words[word]
    ids = np.arange(span.start, span.stop)
    for slot, expected in zip((c.child, c.key), reference_steps(c, ids, idx.n_attrs)):
        got = np.where(slot[:, ids] == np.iinfo(slot.dtype).max, -1, slot[:, ids].astype(np.int64))
        assert np.array_equal(got[: len(expected)], expected) and (got[len(expected) :] == -1).all()


class TestStepSlots:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_the_reference_steps(self, tmp_path, depth, seed):
        """In a built index, a deserialized one, and one read from its file whose
        words are checked in two batches, the odd vocabulary positions first."""
        g = graph_from_text(generate_graph(GenConfig(40 + 20 * seed, 4, 4, 2.0, 10, 2, 0.2, seed)))
        built = build_index(g, compute_pagerank(g), depth)
        write_index(built, tmp_path / "index.kgpx")
        read = read_index(tmp_path / "index.kgpx")
        words = read.vocabulary()
        read.check(words[1::2])
        read.check(words)
        for idx in (built, deserialize(serialize(built)), read):
            assert idx.columns.child.shape == idx.columns.key.shape == (depth - 1, idx.stats.entry_count)
            for word in idx.vocabulary():
                assert_slots_equal_the_reference_steps(idx, word)

    def test_keys_are_u4_while_they_fit(self):
        lengths = np.array([1, 5], "<u2")  # a longest pattern of 3 nodes: 2 steps
        assert pathindex.slot_layout(lengths, 1 << 16, (1 << 16) - 2) == (2, np.uint32)
        assert pathindex.slot_layout(lengths, 1 << 16, (1 << 16) - 1) == (2, np.uint64)

    def test_wide_keys_equal_the_reference_steps(self, monkeypatch):
        """An index whose keys could pass 2^32 - 1 holds u8 keys."""
        g = random_instance(3)[0]
        monkeypatch.setattr(pathindex, "slot_layout", lambda lengths, *_: (int(lengths.max(initial=0)) // 2, np.uint64))
        idx = build_index(g, compute_pagerank(g), 3)
        assert idx.columns.key.dtype == np.uint64
        for word in idx.vocabulary():
            assert_slots_equal_the_reference_steps(idx, word)


def assert_builds_agree(graph, depth):
    """`build_index` writes the same file and word spans as the
    one-path-at-a-time reference build, derives the attributes the
    reference's DFS found (read from its key slots, record by record), and its
    cost proxy is the reference's path-by-path count; returns its index."""
    pagerank = compute_pagerank(graph)
    built, (reference, cost_proxy, attrs) = build_index(graph, pagerank, depth), reference_build(graph, pagerank, depth)
    assert serialize(built) == serialize(reference)
    key = built.columns.key.T
    assert np.array_equal(key[key != np.iinfo(key.dtype).max] % (graph.n_attrs + 1), attrs)
    assert built.stats.cost_proxy == cost_proxy
    assert built.words == reference.words
    return built


class TestArrayBuild:
    @settings(max_examples=60, deadline=None)
    @given(
        entities=st.integers(1, 30),
        types=st.integers(1, 5),
        attr_types=st.integers(1, 5),
        avg_out_degree=st.floats(0.3, 3.0),
        vocab=st.integers(1, 10),
        literal_fraction=st.sampled_from([0.0, 0.2, 0.6]),
        seed=st.integers(0, 2**16),
        depth=st.integers(1, 4),
    )
    def test_equals_the_reference_build(
        self, entities, types, attr_types, avg_out_degree, vocab, literal_fraction, seed, depth
    ):
        cfg = GenConfig(entities, types, attr_types, avg_out_degree, vocab, 2, literal_fraction, seed)
        assert_builds_agree(graph_from_text(generate_graph(cfg)), depth)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "E a ___ ___\nE b ___ _\nA a ___ @b\nA b ___ \"__\"\n",
            "E a T x\nA a r @a\nA a s @a\n",
            "E a T x\nE b T y\nE c T z\nA a r @b\nA a r @c\nA b r @c\n",
            'E a T x\nA a r "alpha beta"\nA a s "gamma"\nA a s "alpha"\n',
            "E a T x\nE b U y\nA a r @b\nA b r @a\n",
        ],
        ids=["empty", "no-word", "self-loop", "same-source-and-attr", "literal-terminals", "two-cycle"],
    )
    def test_small_graphs_equal_the_reference_build(self, text, depth):
        idx = assert_builds_agree(graph_from_text(text), depth)
        assert (idx.stats.entry_count == 0) == (text.startswith("E a ___") or not text)

    def test_depth_past_the_longest_path(self):
        g = graph_from_text("E a T x\nE b T y\nE c T z\nA a r @b\nA b r @c\n")
        shallow, deep = assert_builds_agree(g, 3), assert_builds_agree(g, 7)
        shallow.depth = deep.depth
        assert serialize(shallow) == serialize(deep)

    def test_builds_no_path_object(self, sample_graph, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("build_index enumerated paths one at a time")

        expected = serialize(build_index(sample_graph, uniform_pagerank(sample_graph), 3))
        monkeypatch.setattr(pathindex, "iter_root_paths", fail)
        monkeypatch.setattr(pathindex, "PathHit", fail)
        assert serialize(build_index(sample_graph, uniform_pagerank(sample_graph), 3)) == expected


def assert_word_matches_equal_the_reference(graph):
    words, *matches = pathindex.word_matches(graph)
    expected_words, *expected = reference_word_matches(graph)
    assert words == expected_words
    sims = []  # each match's sim term, 1.0 / its token count, as the index derives it
    for (offsets, word, count), (expected_offsets, pairs) in zip(matches, expected):
        assert offsets.dtype == np.int64 and np.array_equal(offsets, expected_offsets)
        assert word.dtype == np.int64 and word.tolist() == pairs[:, 0].astype(np.int64).tolist()
        assert count.dtype == np.int64 and (1.0 / count).tobytes() == np.ascontiguousarray(pairs[:, 1]).tobytes()
        sims.append((offsets, word, 1.0 / count))
    return sims


class TestWordMatches:
    @pytest.mark.parametrize("shape", [(200, 6, 8), (300, 2, 2), (100, 3, 3)], ids=["topk-exact", "topk-sampled", "cli-cold"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equal_the_reference_on_the_perfbench_shapes(self, shape, seed):
        assert_word_matches_equal_the_reference(graph_from_text(generate_graph(GenConfig(*shape, 2.5, 40, seed=seed))))

    def test_equal_the_reference_on_a_hand_made_graph(self):
        g = graph_from_text(
            "E a Big_Thing\n"  # no text
            "E b Big_Thing alpha alpha beta Alpha\n"  # a token repeated
            "E c Big_Thing thing gamma\n"  # a word of both its text and its type name, of equal sims
            "E d Thing thing gamma delta\n"  # ... where the type's sim is larger
            "E e Thing_Big_Huge thing\n"  # ... where the text's is
            'A a written_in "alpha beta alpha"\n'  # literals, which have no type tokens
            'A b r ""\n'
            "A c r @d\n"
        )
        (offsets, word, sim), (attr_offsets, attr_word, attr_sim) = assert_word_matches_equal_the_reference(g)
        words = pathindex.word_matches(g)[0]
        matches = [{words[w]: s for w, s in zip(word[a:b].tolist(), sim[a:b].tolist())} for a, b in zip(offsets, offsets[1:])]
        assert matches[:5] == [
            {"big": 0.5, "thing": 0.5},
            {"alpha": 0.5, "beta": 0.5, "big": 0.5, "thing": 0.5},
            {"big": 0.5, "gamma": 0.5, "thing": 0.5},
            {"delta": 1 / 3, "gamma": 1 / 3, "thing": 1.0},
            {"big": 1 / 3, "huge": 1 / 3, "thing": 1.0},
        ]
        assert matches[5:] == [{"alpha": 0.5, "beta": 0.5}, {}]
        assert attr_offsets.tolist() == [0, 2, 3] and [words[w] for w in attr_word.tolist()] == ["in", "written", "r"]
        assert attr_sim.tolist() == [0.5, 0.5, 1.0]


def dfs_patterns(graph, depth):
    """Every path pattern the DFS finds, in canonical order: the tuples a build makes its table of."""
    scores = uniform_pagerank(graph).scores
    roots = [r for r in range(graph.n_entities) if not graph.is_literal(r)]
    found = {hit.pattern for root in roots for hit in iter_root_paths(graph, scores, depth, root)}
    return sorted(found, key=pat.sort_key)


@pytest.fixture(scope="module")
def built_and_read(tmp_path_factory):
    """A generated graph, the index built from it at d=3 and that index written and read back."""
    g = graph_from_text(generate_graph(GenConfig(60, 3, 3, 2.5, 10, seed=4)))
    built = build_index(g, uniform_pagerank(g), 3)
    path = tmp_path_factory.mktemp("patterns") / "g.kgpx"
    write_index(built, path)
    return g, built, path


class TestPatternTable:
    def test_neither_build_nor_read_makes_a_tuple(self, built_and_read):
        g, built, path = built_and_read
        for table in (build_index(g, uniform_pagerank(g), 3).columns.patterns, read_index(path).columns.patterns):
            assert len(table) == len(built.columns.patterns) > 0
            assert table.tuples.count(None) == len(table)

    def test_every_read_returns_the_dfs_tuple_and_keeps_it(self, built_and_read):
        g, built, path = built_and_read
        expected = dfs_patterns(g, 3)
        for table in (built.columns.patterns, read_index(path).columns.patterns):
            assert [table[i] for i in range(len(table))] == expected
            assert all(type(x) is int for p in table.tuples for x in p)
            assert table.tuples.count(None) == 0 and table[-1] is table[len(table) - 1]
        table = read_index(path).columns.patterns
        assert table[-1] == expected[-1] and table.tuples.count(None) == len(table) - 1
        assert list(table) == expected and table.tuples == expected
        for past in (len(table), len(table) + 5, -len(table) - 1):
            with pytest.raises(IndexError):
                table[past]

    def test_access_methods_find_and_miss_patterns_as_on_a_list(self, built_and_read):
        g, built, path = built_and_read
        loaded = read_index(path)
        table = dfs_patterns(g, 3)
        absent = [(), (g.n_types,), (table[0][0], 0, g.n_types), table[-1] + (0,), (table[-1][0], g.n_attrs)]
        assert not set(absent) & set(table)
        for word in built.vocabulary():
            found = loaded.patterns(word)
            assert found == built.patterns(word) and set(found) <= set(table)
            for pattern in [*table, *absent]:
                hits = loaded.paths(word, pattern=pattern)
                assert hits == built.paths(word, pattern=pattern)
                assert loaded.roots(word, pattern=pattern) == sorted({rec.nodes[0] for rec in hits})
                assert bool(hits) == (pattern in found) and all(rec.pattern == pattern for rec in hits)


def test_edge_readers_use_the_kept_edge_arrays():
    """PageRank, the fingerprint, the build and the pairing check read the
    graph's edges from `edge_arrays`, made once, not from `adjacency`."""
    g = load_sample_graph()  # a graph of its own, which the test may change
    pagerank, fingerprint = compute_pagerank(g), g.fingerprint()
    built = build_index(g, pagerank, 3)
    built.check(built.vocabulary())
    ids = np.arange(built.stats.entry_count)
    edges = g.edge_arrays
    g.adjacency = None
    assert g.edge_arrays is edges
    assert compute_pagerank(g).scores.tobytes() == pagerank.scores.tobytes() and g.fingerprint() == fingerprint
    assert serialize(build_index(g, pagerank, 3)) == serialize(built)
    assert pathindex.mismatched_records(built.columns, g, ids).size == 0
