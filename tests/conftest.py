import io
import random
from itertools import accumulate, chain

import numpy as np
import pytest
from hypothesis import settings

from kgpattern import (
    GenConfig,
    PathIndex,
    Query,
    build_index,
    compute_pagerank,
    generate_graph,
    load_graph,
    uniform_pagerank,
)
from kgpattern import patterns as pat
from kgpattern.fixtures import load_sample_graph
from kgpattern.graph import TEXT_TYPE_ID, jaccard_similarity
from kgpattern.pathindex import RECORD_DTYPES, PatternTable, index_columns, iter_root_paths

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


def with_columns(idx, **changes):
    """A new index over `idx.columns._replace(**changes)`, as `build_index`
    would make it if it wrote those columns; `patterns` may be given as a list
    of tuples, and the pattern table's lengths and elements are read from it.
    No column is checked and the derived ones are not recomputed, so it is
    only fit to serialize."""
    idx.check(idx.vocabulary())
    columns = idx.columns._replace(**changes)
    table = pattern_table(list(columns.patterns))
    columns = columns._replace(patterns=table, lengths=table.lengths, elements=table.elements)
    return PathIndex(idx.depth, idx.pagerank, idx.type_names, idx.attr_names, columns, idx.fingerprint)


def flipped(blob, idx, word) -> bytes:
    """`blob`, the serialized `idx`, with one bit flipped in the first node of `word`'s records."""
    idx.check([word])
    blob = bytearray(blob)
    records_at = int.from_bytes(blob[8:12], "little") + 4  # after the header and its CRC
    blob[records_at + 12 * idx.stats.entry_count + 4 * int(idx.columns.node_off[idx.words[word].start])] ^= 1
    return bytes(blob)


def reference_build(graph, pagerank, depth):
    """`build_index` one path at a time: the records of the DFS
    `iter_root_paths`, sorted pattern-first, per word in vocabulary order.
    Returns the index, whose `columns.attrs` holds the attributes the DFS
    found instead of those derived from the patterns, and its cost proxy,
    counted path by path."""
    hits = []
    cost_proxy = 0
    for root in range(graph.n_entities):
        if graph.entity_type[root] == TEXT_TYPE_ID:
            continue
        for hit in iter_root_paths(graph, pagerank.scores, depth, root):
            cost_proxy += len(hit.nodes) * len(hit.matches)
            hits.append(hit)
    # No two paths share (pattern, nodes, attrs): sorted once, they give every word its record order.
    hits.sort(key=lambda hit: (pat.sort_key(hit.pattern), hit.nodes, hit.attrs))
    patterns = list(dict.fromkeys(hit.pattern for hit in hits))
    pattern_ids = {p: i for i, p in enumerate(patterns)}
    per_word = {}
    for hit in hits:
        for word, sim in hit.matches:
            per_word.setdefault(word, []).append((pattern_ids[hit.pattern], sim, hit.nodes, hit.attrs))
    vocab = sorted(per_word)
    *fields, nodes, attrs = zip(*(rec for word in vocab for rec in per_word[word])) if vocab else [()] * 4
    fields = [np.array(column, dtype) for column, dtype in zip(fields, RECORD_DTYPES)]
    counts = np.array([len(per_word[word]) for word in vocab], dtype="<u8")
    nodes, attrs = (np.fromiter(chain.from_iterable(column), "<u4") for column in (nodes, attrs))
    table = pattern_table(patterns)
    columns = index_columns((table, table.lengths, table.elements, vocab, counts, *fields, nodes), pagerank.scores)
    columns = columns._replace(attrs=attrs)
    names = list(graph.type_names), list(graph.attr_names)
    return PathIndex(depth, pagerank, *names, columns, graph.fingerprint()), cost_proxy


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
