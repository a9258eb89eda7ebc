import hashlib
import io
import math
import random
import struct
from itertools import accumulate, chain, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from kgpattern import (
    GenConfig,
    PathIndex,
    Query,
    ScoredPattern,
    TableAnswer,
    TableConsistencyError,
    build_index,
    compute_pagerank,
    estimate_pattern_score,
    generate_graph,
    load_graph,
    rank,
    tree_score,
    uniform_pagerank,
)
from kgpattern import patterns as pat
from kgpattern import search
from kgpattern.fixtures import load_sample_graph
from kgpattern.graph import TEXT_TYPE_ID, jaccard_similarity, tokenize
from kgpattern.indexio import record_columns
from kgpattern.pathindex import PatternTable, index_columns, iter_root_paths, narrowest, record_layout

# The same examples on every run: derandomized, and no example database to
# replay earlier failures from. Each test's own max_examples still applies.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

QUERY_WORDS = ("database", "software", "company", "revenue")


def graph_from_text(text):
    return load_graph(io.StringIO(text))


def pattern_table(patterns) -> PatternTable:
    """The `PatternTable` of these pattern tuples."""
    lengths = np.array([len(p) for p in patterns], "<u2")
    return PatternTable(lengths, np.fromiter(chain.from_iterable(patterns), "<u4", int(lengths.sum())))


def in_file_dtypes(stored, n_entities, n_types, n_attrs) -> tuple:
    """The stored columns `stored`, `IndexColumns` from `patterns` to `nodes`,
    in the dtypes `build_index` gives them: the ids in `record_layout`'s, the
    token counts in the narrowest that holds them."""
    patterns, vocab, counts, pattern_id, tokens, nodes = stored
    pid, node, element = record_layout(len(patterns), n_entities, n_types, n_attrs)
    patterns = PatternTable(patterns.lengths, patterns.elements.astype(element))
    return patterns, vocab, counts, pattern_id.astype(pid), tokens.astype(narrowest(int(tokens.max(initial=1)))), nodes.astype(node)


def with_columns(idx, **changes):
    """A new index over `idx.columns._replace(**changes)`, as `build_index`
    would make it if it wrote those columns; `patterns` may be given as a list
    of tuples, of which a new pattern table is made. No column is checked and
    the derived ones are not recomputed, so it is only fit to serialize."""
    idx.check(idx.vocabulary())
    columns = idx.columns._replace(**changes)
    stored = (pattern_table(list(columns.patterns)), *columns[1:6])
    columns = columns._replace(**dict(zip(columns._fields, in_file_dtypes(stored, idx.n_entities, idx.n_types, idx.n_attrs))))
    return PathIndex(idx.depth, idx.pagerank, idx.type_names, idx.attr_names, columns, idx.fingerprint)


def flipped(blob, idx, word) -> bytes:
    """`blob`, the serialized `idx`, with one bit flipped in the first node of `word`'s records."""
    idx.check([word])
    blob = bytearray(blob)
    *records, nodes = record_columns(idx.columns)  # in file order, after the header and its CRC
    nodes_at = int.from_bytes(blob[8:12], "little") + 4 + sum(column.nbytes for column in records)
    blob[nodes_at + nodes.itemsize * int(idx.columns.node_off[idx.words[word].start])] ^= 1
    return bytes(blob)


def reference_build(graph, pagerank, depth):
    """`build_index` one path at a time: the records of the DFS
    `iter_root_paths`, sorted root-first and pattern-first within a root, per
    word in vocabulary order.
    Returns the index, its cost proxy, counted path by path, and the
    attributes the DFS found, every record's in record order as one array."""
    hits = []
    cost_proxy = 0
    for root in range(graph.n_entities):
        if graph.entity_type[root] == TEXT_TYPE_ID:
            continue
        for hit in iter_root_paths(graph, pagerank.scores, depth, root):
            cost_proxy += len(hit.nodes) * len(hit.matches)
            hits.append(hit)
    # No two paths share (pattern, nodes, attrs): sorted once, root first, they give every word its record order.
    hits.sort(key=lambda hit: (hit.nodes[0], pat.sort_key(hit.pattern), hit.nodes, hit.attrs))
    patterns = sorted(set(hit.pattern for hit in hits), key=pat.sort_key)
    pattern_ids = {p: i for i, p in enumerate(patterns)}
    per_word = {}
    for hit in hits:
        for word, sim in hit.matches:  # a sim is 1 / the token count the index stores
            per_word.setdefault(word, []).append((pattern_ids[hit.pattern], round(1 / sim), hit.nodes, hit.attrs))
    vocab = sorted(per_word)
    *fields, nodes, attrs = zip(*(rec for word in vocab for rec in per_word[word])) if vocab else [()] * 4
    fields = [np.array(column, np.int64) for column in fields]
    counts = np.array([len(per_word[word]) for word in vocab], dtype="<u8")
    nodes, attrs = (np.fromiter(chain.from_iterable(column), "<u4") for column in (nodes, attrs))
    table = pattern_table(patterns)
    stored = in_file_dtypes((table, vocab, counts, *fields, nodes), graph.n_entities, graph.n_types, graph.n_attrs)
    columns = index_columns(stored, pagerank.scores, graph.n_attrs)
    names = list(graph.type_names), list(graph.attr_names)
    return PathIndex(depth, pagerank, *names, columns, graph.fingerprint()), cost_proxy, attrs


def reference_steps(c, ids, n_attrs):
    """Each record's steps in `ids` as two (width, records) int64 arrays padded
    with -1, width being its longest's step count: the child node, and its
    parent and attribute, its pattern's odd element, as parent * (n_attrs + 1)
    + attr. The reference for the index's `child` and `key` slots, made one
    record at a time."""
    records = [(c.nodes[c.node_off[j] : c.node_off[j + 1]].tolist(), c.patterns[c.pattern_id[j]][1::2]) for j in ids]
    child, edge = np.full((2, max((len(attrs) for _, attrs in records), default=0), len(ids)), -1, np.int64)
    for j, (nodes, attrs) in enumerate(records):
        for step, attr in enumerate(attrs):
            child[step, j], edge[step, j] = nodes[step + 1], nodes[step] * (n_attrs + 1) + attr
    return child, edge


def reference_fingerprint(graph, edges) -> bytes:
    """The fingerprint of `graph` with these (source, attr, target) edges,
    packed value by value, as it was computed before it read the graph's edge
    arrays."""
    texts = [t.encode("utf-8") for t in graph.entity_text]
    digest = hashlib.sha256(struct.pack("<QQ", len(texts), len(edges)))
    digest.update(struct.pack(f"<{len(texts)}I", *graph.entity_type))
    digest.update(struct.pack(f"<{len(texts)}Q", *map(len, texts)))
    digest.update(struct.pack(f"<{3 * len(edges)}I", *chain.from_iterable(edges)))
    digest.update(b"".join(texts))
    return digest.digest()


def reference_derived(graph):
    """What the loader once derived eagerly from what it read, one value at a
    time: the entity, type and attribute token sets (each text tokenized; the
    TEXT type has none), the adjacency lists (each source's distinct
    (attr, target) edges, sorted), the edge list in adjacency order, the edge
    arrays read from the adjacency lists, and the fingerprint bytes."""
    token_set = lambda text: frozenset(tokenize(text))
    token_sets = (
        [token_set(text) for text in graph.entity_text],
        [frozenset()] + [token_set(name) for name in graph.type_names[1:]],
        [token_set(name) for name in graph.attr_names],
    )
    out = [[] for _ in range(graph.n_entities)]
    ids = graph.edge_ids
    for source, attr, target in zip(ids[0::3], ids[1::3], ids[2::3]):
        out[source].append((attr, target))
    adjacency = [sorted(set(row)) for row in out]
    edges = [(s, a, t) for s, row in enumerate(adjacency) for a, t in row]
    offsets = np.fromiter(accumulate(map(len, adjacency), initial=0), np.int64, graph.n_entities + 1)
    rows = np.fromiter(chain.from_iterable(chain.from_iterable(adjacency)), np.int64).reshape(-1, 2)
    return SimpleNamespace(
        token_sets=token_sets, adjacency=adjacency, edges=edges, edge_arrays=(offsets, rows),
        fingerprint=reference_fingerprint(graph, edges),
    )


def reference_word_matches(graph):
    """The word matches of `pathindex.word_matches` as the build once made
    them, one (entity, word) at a time with `jaccard_similarity`: the
    vocabulary, then for the entities and for the attributes the offsets of
    each item's matches and one (word id, sim) row per match."""
    words = sorted(set().union(*graph.entity_token_set, *graph.type_token_set, *graph.attr_token_set))
    word_id = {w: i for i, w in enumerate(words)}

    def csr(lists):
        pairs = np.fromiter(chain.from_iterable(chain.from_iterable(lists)), np.float64).reshape(-1, 2)
        return np.fromiter(accumulate(map(len, lists), initial=0), np.int64, len(lists) + 1), pairs

    entity = csr([
        [(word_id[w], max(jaccard_similarity(w, text), jaccard_similarity(w, kind))) for w in sorted(text | kind)]
        for text, kind in zip(graph.entity_token_set, map(graph.type_token_set.__getitem__, graph.entity_type))
    ])
    attr = csr([[(word_id[w], jaccard_similarity(w, s)) for w in sorted(s)] for s in graph.attr_token_set])
    return words, entity, attr


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def reference_uniform01(seed: int, stream_key: int, position: int) -> float:
    """The position-th uniform draw of the (seed, stream_key) stream, in
    [0, 1), one Python int at a time: the reference for the draws of
    `search._uniform01`."""
    base = _splitmix64((seed & _MASK64) ^ ((stream_key * 0xD1B54A32D192ED03) & _MASK64))
    return (_splitmix64((base + position) & _MASK64) >> 11) * 2.0**-53


def reference_sampled_topk(graph, idx, query, sampling, everything):
    """Sampled linear-topk's answer: the exact top k of `reference_finalists`."""
    return rank(reference_finalists(graph, idx, query, sampling, everything), query.k)


def reference_finalists(graph, idx, query, sampling, everything):
    """The patterns sampled linear-topk ranks, made pattern by pattern from
    `everything`, the baseline's patterns with their complete members. Per
    root type: the subtree bound (the sum over its candidate roots, those
    every keyword reaches, of the product of the keywords' path counts) and
    the rate. A sampled type draws one `reference_uniform01` per candidate
    root, in id order; a pattern's estimate is `estimate_pattern_score` over
    its members under the kept roots, and the type's k best by (estimate
    descending, canonical) are its winners. The finalists are those winners
    and every pattern of an unsampled type, whose estimate is its score."""
    words = query.keywords
    by_type = {}
    for root in sorted(set.intersection(*(set(idx.roots(w)) for w in words))):
        by_type.setdefault(graph.entity_type[root], []).append(root)
    finalists = []
    for type_id, roots in by_type.items():
        of_type = [sp for sp in everything if sp.pattern[0][0] == type_id]
        bound = sum(math.prod(len(idx.paths(w, root=root)) for w in words) for root in roots)
        rate = sampling.rate if bound >= sampling.threshold else 1.0
        if rate == 1.0:
            finalists += [ScoredPattern(sp.pattern, sp.score, sp.subtrees, sp.score) for sp in of_type]
            continue
        kept = {root for i, root in enumerate(roots) if reference_uniform01(sampling.seed, type_id, i) < rate}
        estimated = []
        for sp in of_type:
            sample = [tree_score(m.paths) for m in sp.subtrees if m.root in kept]
            if sample:
                estimated.append((estimate_pattern_score(sample, rate), sp))
        estimated.sort(key=lambda pair: (-pair[0], pat.tree_sort_key(pair[1].pattern)))
        finalists += [ScoredPattern(sp.pattern, sp.score, sp.subtrees, e) for e, sp in estimated[: query.k]]
    return finalists


def reference_pattern_units(idx, words):
    """The units pattern-enum joins, as the paper's walk visits them, one
    combination at a time: per root type, ascending, every combination of the
    keywords' path patterns (each keyword's in canonical id order, the last
    keyword fastest), and under each the roots all its patterns share,
    ascending. Returns each unit's (first record, record count) per keyword,
    and the number of combinations visited."""
    idx.check(words)
    runs, by_type = [], []
    for word in words:
        roots, pattern_id, off = search._pattern_runs(idx, word)
        runs.append({})  # pattern id -> root -> (first record, record count)
        for root, p, start, size in zip(roots.tolist(), pattern_id.tolist(), off[:-1].tolist(), np.diff(off).tolist()):
            runs[-1].setdefault(p, {})[root] = (start, size)
        by_type.append({})
        for p in sorted(runs[-1]):  # in canonical order
            by_type[-1].setdefault(idx.columns.patterns[p][0], []).append(p)
    units, combos = [], 0
    for type_id in sorted(set(by_type[0]).intersection(*by_type[1:])):
        for combo in product(*(groups[type_id] for groups in by_type)):
            combos += 1
            root_runs = [run[p] for run, p in zip(runs, combo)]
            for root in sorted(set(root_runs[0]).intersection(*root_runs[1:])):
                units.append(tuple(run[root] for run in root_runs))
    return units, combos


def reference_render_table(graph, tree_pattern, subtrees) -> TableAnswer:
    """The table answer `render_table` makes, laid out per table and rendered
    cell by cell: each column's feeders are every (keyword position, node
    position) under its prefix key, a cell joins its feeders' distinct texts
    with "; " (the root's column too), and colliding display names become
    dotted paths. Checks only that each member's tree pattern is `tree_pattern`."""
    for subtree in subtrees:
        if subtree.tree_pattern() != tuple(tree_pattern):
            raise TableConsistencyError(f"subtree rooted at {subtree.root} does not match the pattern")
    feeders = {}
    for kw_pos, path_pattern in enumerate(tree_pattern):
        edge_ending = pat.is_edge_ending(path_pattern)
        for depth in range(len(path_pattern) // 2 + (0 if edge_ending else 1)):
            feeders.setdefault(path_pattern[: 2 * depth + 1], []).append((kw_pos, depth))
        if edge_ending:  # the edge's own column shows its target node
            feeders.setdefault(path_pattern, []).append((kw_pos, len(path_pattern) // 2))

    def display_name(key):
        if len(key) % 2 == 0:
            return graph.attr_names[key[-1]]
        if key[-1] == TEXT_TYPE_ID and len(key) > 1:
            return graph.attr_names[key[-2]]
        return graph.type_names[key[-1]]

    keys = list(feeders)
    names = [display_name(key) for key in keys]
    names = [pat.pattern_names(graph, key) if names.count(name) > 1 else name for key, name in zip(keys, names)]
    rows = []
    for subtree in subtrees:
        row = []
        for column in feeders.values():
            values = []
            for kw_pos, node_pos in column:
                cell = graph.entity_text[subtree.paths[kw_pos].nodes[node_pos]]
                if cell not in values:
                    values.append(cell)
            row.append("; ".join(values))
        rows.append(row)
    return TableAnswer(list(zip(keys, names)), rows)


def tree_height(tree_pattern):
    """The most nodes on one root-to-match path of the tree pattern."""
    return max(pat.node_count(p) for p in tree_pattern)


def random_instance(case: int):
    """Deterministic small random instance: (graph, depth, keywords)."""
    rng = random.Random(1000 + case)
    cfg = GenConfig(
        entities=rng.randint(8, 28),
        types=rng.randint(3, 5),
        attr_types=rng.randint(3, 5),
        avg_out_degree=1.8,
        vocab=10,
        words_per_text=2,
        literal_fraction=0.2,
        seed=case,
    )
    graph = graph_from_text(generate_graph(cfg))
    m = case % 4 + 1
    words = tuple(rng.sample([f"w{i}" for i in range(10)], m))
    depth = 2 + case % 2
    return graph, depth, words


@pytest.fixture(scope="session")
def sample_graph():
    return load_sample_graph()


@pytest.fixture(scope="session")
def sample_index(sample_graph):
    """Sample graph indexed at d=3 with a uniform PageRank stub."""
    return build_index(sample_graph, uniform_pagerank(sample_graph), 3)


@pytest.fixture(scope="session")
def sample_index_pr(sample_graph):
    """Sample graph indexed at d=3 with the real PageRank."""
    return build_index(sample_graph, compute_pagerank(sample_graph), 3)


@pytest.fixture(scope="session")
def sample_query():
    return Query(QUERY_WORDS, k=10)


def entity(graph, key):
    return graph.key_to_id[key]
