"""Materialized path index, held as columns.

For every word occurring in the graph's text, the index stores all simple
directed paths with at most ``depth`` nodes that start at some (non-literal)
root entity and end at a node or edge containing the word:

* node match - the word occurs in the terminal node's own text or in the text
  of its type; either way it is one entry, whose similarity term is the larger
  of the two Jaccard scores;
* edge match - the word occurs in the terminal edge's attribute text; the
  stored node list includes the edge's target, so ``node_count`` counts it,
  while the pattern ends on the attribute type.

Each entry precomputes the three per-path score terms (node count, PageRank of
the matched node or of the matched edge's source, Jaccard similarity), so
query-time scoring is pure arithmetic; the similarity is stored as the matched
text's token count n (`word_matches` finds every match's, from token ids) and
1.0 / n derived. Each stored array is in its file dtype (`record_layout`).

The index holds its records once, as the columns of its KGPX file plus the
columns those determine (`IndexColumns`, `index_columns`), the tree check's
step slots among them. A record's attributes are its pattern's odd elements,
and only `derived_columns` lays out its steps: the engines' join, `block` and
the pairing check (`mismatched_records`) read them from the slots. Each
word's records are one slice of the columns (`idx.words[w]`, a range of
rows), sorted root-first, and pattern-first within a root (pattern
length-lexicographically, then nodes), so a root is one run of a word's slice
and a (root, pattern) one run within it, the order the engines' join reads
(see `search`). `build_index` fills them straight from its level-by-level
path search, and a read of a KGPX file hands the file's columns to the same
constructor, with the derived ones unfilled until `PathIndex.check` checks a
word and fills its rows (see `indexio`). The pattern table is a
`PatternTable` over the stored lengths and elements, which makes a pattern's
tuple on its first read. Nothing else is decoded, laid out or cached beside
them: the engines join on the columns (see `search`), and the access methods
read a word's slice directly, finding a root's run by a binary search of its
sorted roots and a pattern's records by comparing their patterns;
`decode_records` makes `IndexedPath` named tuples of just the records asked
for, all in one C-level map over their fields, taking their attributes from
their patterns. The only thing memoized is each pattern's tuple, kept by the
pattern table for the index's life.

Literal (dummy TEXT) entities are never used as roots: they stand for
attribute *values*, carry no type, and cannot anchor a table answer. They do
appear as path terminals.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import patterns as pat
from .errors import ParameterError
from .graph import TEXT_TYPE_ID, KnowledgeGraph, jaccard_similarity
from .pagerank import PageRankVector

# No path is indexed that the baseline engine could not walk: `iter_root_paths`
# recurses once per node, and a 1,200-node chain overflows Python's stack.
MAX_PATH_NODES = 255


class IndexedPath(NamedTuple):
    """One materialized root-to-match path for one word; its root is
    `nodes[0]`, and it is an edge match when its pattern has even length."""

    nodes: tuple[int, ...]
    attrs: tuple[int, ...]
    node_count: int
    pr_term: float
    sim_term: float
    pattern: pat.PathPattern

    @classmethod
    def from_hit(cls, hit: "PathHit", sim: float) -> "IndexedPath":
        """The record for one word match, of similarity `sim`, found on `hit`."""
        return cls(hit.nodes, hit.attrs, len(hit.nodes), hit.pr_term, sim, hit.pattern)

    def sort_key(self):
        return (pat.sort_key(self.pattern), self.nodes, self.attrs)


@dataclass(slots=True)
class PathHit:
    """All word matches discovered on one concrete path (pre-index form)."""

    nodes: tuple[int, ...]
    attrs: tuple[int, ...]
    pattern: pat.PathPattern
    pr_term: float
    matches: list[tuple[str, float]]  # (word, sim)


@dataclass
class IndexStats:
    entry_count: int
    cost_proxy: int  # the records' nodes: over enumerated paths, node_count * matched-word count


class PatternTable(Sequence):
    """The pattern table, in canonical order (a pattern's id is its position),
    over its `<u2` pattern lengths and all its elements (`record_layout`), pattern
    after pattern: pattern i's tuple is made on its first read and kept."""

    def __init__(self, lengths: np.ndarray, elements: np.ndarray):
        self.lengths, self.elements = lengths, elements
        self.starts = np.cumsum(lengths, dtype=np.int64) - lengths
        self.tuples: list[Optional[pat.PathPattern]] = [None] * len(lengths)  # each pattern's, once made

    def __len__(self) -> int:
        return len(self.tuples)

    def __getitem__(self, i: int) -> pat.PathPattern:
        pattern = self.tuples[i]
        if pattern is None:
            start = int(self.starts[i])
            pattern = self.tuples[i] = tuple(self.elements[start : start + int(self.lengths[i])].tolist())
        return pattern


# Every record of an index: first its stored KGPX columns, in their file dtypes,
# that is the pattern table (a `PatternTable`), the vocabulary with each word's
# record count, pattern_id and tokens (its text's token count) with one entry
# per record (word by word, in vocabulary order, each word's root-first), and
# all records' nodes in one array; then the columns these determine
# (`index_columns`, `derived_columns`): record j's nodes are
# nodes[node_off[j]:node_off[j + 1]], its attributes its pattern's odd elements
# and its sim 1.0 / tokens[j]; child[t, j] and key[t, j] are its step t's child
# node and its parent * (n_attrs + 1) + attr, both padded with their dtype's
# maximum (the tree check's slots). A word's derived rows are valid once it is checked.
IndexColumns = namedtuple("IndexColumns", "patterns vocab counts pattern_id tokens nodes node_off root pr sim child key")


def node_offsets(pattern_lengths: np.ndarray, pattern_id: np.ndarray) -> np.ndarray:
    """The `node_off` column of records with these pattern ids, given each
    pattern's length: a pattern of n elements covers n // 2 + 1 nodes
    (`patterns.node_count`)."""
    return np.concatenate(([0], np.cumsum(pattern_lengths[pattern_id] // 2 + 1, dtype=np.int64)))


def index_columns(stored: tuple, scores: np.ndarray, n_attrs: int) -> IndexColumns:
    """`stored`, the stored columns from `patterns` to `nodes`, with the columns
    they determine (`derived_columns`). Every id in `stored` must be in range,
    no pattern empty and no token count 0."""
    patterns, _, _, pattern_id, tokens, nodes = stored
    node_off = node_offsets(patterns.lengths, pattern_id)
    return IndexColumns(*stored, node_off, *derived_columns(patterns, pattern_id, tokens, node_off, nodes, scores, n_attrs))


def narrowest(largest: int) -> np.dtype:
    """The narrowest of the little-endian u1, u2 and u4 that holds every value up to `largest`."""
    return np.dtype("<u1" if largest < 1 << 8 else "<u2" if largest < 1 << 16 else "<u4")


def record_layout(n_patterns: int, n_entities: int, n_types: int, n_attrs: int) -> tuple[np.dtype, np.dtype, np.dtype]:
    """The dtypes of pattern_id, nodes and the pattern table's elements, given the index's pattern,
    entity, type and attribute counts: each the narrowest that holds its largest id."""
    return narrowest(n_patterns - 1), narrowest(n_entities - 1), narrowest(max(n_types, n_attrs) - 1)


def slot_layout(lengths: np.ndarray, n_entities: int, n_attrs: int) -> tuple[int, type]:
    """The child and key slots' row count, the steps of the longest pattern of
    this pattern table's lengths, and the keys' dtype: u4 unless a key can
    reach 2^32 - 1 (the child slots are u4)."""
    return int(lengths.max(initial=0)) // 2, np.uint32 if n_entities * (n_attrs + 1) < 1 << 32 else np.uint64


def derived_columns(patterns: PatternTable, pattern_id, tokens, node_off, nodes, scores, n_attrs: int) -> tuple:
    """The root, pr, sim, child and key columns of the records with these pattern ids,
    token counts, `node_off` (`node_offsets`) and nodes, given the pattern table, the
    PageRank scores and the attribute count. A record's root is its first node, its pr
    term is the PageRank score of its last node, or on an edge match (a pattern of even
    length) of the edge's source, the node before it, its sim term 1.0 / its token count
    (`jaccard_similarity`'s division), and its step t joins its nodes t and t + 1 by its
    attribute t, its pattern's element 2t + 1. Nothing else lays out a record's steps."""
    n, size, elements = len(pattern_id), patterns.lengths[pattern_id], patterns.elements
    steps = size // 2
    attr = patterns.starts[pattern_id] + 1  # each record's attribute 0, in `elements`
    pr = scores[nodes[node_off[1:] - 1 - (size % 2 == 0)]]
    width, key_dtype = slot_layout(patterns.lengths, len(scores), n_attrs)
    child, key = (np.full((width, n), np.iinfo(dtype).max, dtype) for dtype in (np.uint32, key_dtype))
    for step in range(width):
        record = np.flatnonzero(steps > step)
        at = node_off[record] + step
        child[step][record] = nodes[at + 1]
        key[step][record] = nodes[at].astype(key_dtype, copy=False) * (n_attrs + 1) + elements[attr[record] + 2 * step]
    return nodes[node_off[:-1]], pr, 1.0 / tokens, child, key


def decode_records(c: IndexColumns, ids: np.ndarray) -> list[IndexedPath]:
    """The `IndexedPath` of each record in `ids`, in that order, of Python ints
    and floats; a record's attributes are its pattern's odd elements."""
    first = c.node_off[ids]
    size = c.node_off[ids + 1] - first
    # Record i's nodes are nodes[at[i]:at[i + 1]].
    at = np.concatenate(([0], np.cumsum(size)))
    nodes = tuple(c.nodes[np.repeat(first - at[:-1], size) + np.arange(at[-1])].tolist())
    at = at.tolist()
    pattern_ids = c.pattern_id[ids].tolist()
    list(map(c.patterns.__getitem__, set(pattern_ids)))  # each distinct pattern's tuple, made once
    patterns = list(map(c.patterns.tuples.__getitem__, pattern_ids))
    fields = zip([nodes[a:b] for a, b in zip(at, at[1:])], [pattern[1::2] for pattern in patterns], size.tolist(),
                 c.pr[ids].tolist(), c.sim[ids].tolist(), patterns)
    return list(map(tuple.__new__, repeat(IndexedPath), fields))  # each a named tuple of its fields


def iter_root_paths(
    graph: KnowledgeGraph, pr_scores, depth: int, root: int
) -> Iterator[PathHit]:
    """Enumerate every simple path from `root` (at most `depth` nodes) that
    ends at a word-bearing node or edge, yielding its matches: the index-free
    baseline engine's search (`build_index` finds the same paths level by level)."""
    nodes = [root]
    attrs: list[int] = []
    on_path = {root}

    def visit() -> Iterator[PathHit]:
        terminal = nodes[-1]
        text_set = graph.entity_token_set[terminal]
        type_set = graph.type_token_set[graph.entity_type[terminal]]
        words = text_set | type_set
        pattern = pat.path_pattern_of(graph, nodes, attrs, edge_match=False)
        if words:
            matches = [
                (w, max(jaccard_similarity(w, text_set), jaccard_similarity(w, type_set))) for w in sorted(words)
            ]
            yield PathHit(tuple(nodes), tuple(attrs), pattern, float(pr_scores[terminal]), matches)
        if len(nodes) < depth:
            for attr_id, target in graph.adjacency[terminal]:
                if target in on_path:
                    continue
                attr_set = graph.attr_token_set[attr_id]
                if attr_set:
                    matches = [(w, jaccard_similarity(w, attr_set)) for w in sorted(attr_set)]
                    yield PathHit(
                        tuple(nodes) + (target,),
                        tuple(attrs) + (attr_id,),
                        pattern + (attr_id,),
                        float(pr_scores[terminal]),
                        matches,
                    )
                nodes.append(target)
                attrs.append(attr_id)
                on_path.add(target)
                yield from visit()
                on_path.remove(target)
                attrs.pop()
                nodes.pop()

    yield from visit()


class PathIndex:
    """The path index: its record columns, each word's slice of them, and the
    PageRank vector it was built with."""

    def __init__(
        self,
        depth: int,
        pagerank: PageRankVector,
        type_names: list[str],
        attr_names: list[str],
        columns: IndexColumns,
        fingerprint: bytes,
        check_words: Optional[Callable[["PathIndex", list[int]], None]] = None,
    ):
        """Index the records in `columns` (each word's sorted root-first)
        for a graph with these name tables and fingerprint
        (`KnowledgeGraph.fingerprint`), and one PageRank score per entity.
        With `check_words`, no word's records are checked yet and their
        derived columns are not filled: `check` passes it the vocabulary
        positions of the words to check and fill (see `indexio`)."""
        self.depth = depth
        self.pagerank = pagerank
        self.n_entities = len(pagerank.scores)
        self.type_names = type_names
        self.attr_names = attr_names
        self.n_types = len(type_names)
        self.n_attrs = len(attr_names)
        self.columns = columns
        self.fingerprint = fingerprint
        counts = columns.counts.tolist()
        words = sorted(zip(columns.vocab, accumulate(counts, initial=0), counts))
        self.words: dict[str, range] = {w: range(start, start + size) for w, start, size in words}
        self.stats = IndexStats(sum(counts), len(columns.nodes))
        # Each word whose records are not checked yet, with its position in the vocabulary.
        self.unchecked: dict[str, int] = {w: i for i, w in enumerate(columns.vocab)} if check_words else {}
        self._check_words = check_words

    def check(self, words) -> None:
        """Check the records of those of `words` that are unchecked, and fill
        their derived columns, in one batch. Nothing may read a word's derived
        columns before this: the engines call it once on their keywords, and
        the access methods on the word they read."""
        todo = {w: self.unchecked[w] for w in words if w in self.unchecked}
        if todo:
            self._check_words(self, sorted(todo.values()))
            for w in todo:
                del self.unchecked[w]

    # -- access methods ------------------------------------------------

    def _records(self, word: str, pattern: Optional[pat.PathPattern] = None, root: Optional[int] = None) -> np.ndarray:
        """The ids of `word`'s records (of `pattern`, under `root`, when given) in pattern-first
        order: a root's run of the root-first slice is in it, and a whole word's is sorted so."""
        if self.unchecked:
            self.check((word,))
        c, span = self.columns, self.words.get(word, range(0))
        start, stop = span.start, span.stop
        if root is not None:
            start, stop = (start + np.searchsorted(c.root[start:stop], (root, root + 1))).tolist()
        ids = np.arange(start, stop)
        if pattern is not None:
            return ids[[c.patterns[i] == pattern for i in c.pattern_id[start:stop].tolist()]]
        return ids if root is not None else ids[np.argsort(c.pattern_id[start:stop], kind="stable")]

    def patterns(self, word: str, root: Optional[int] = None) -> list[pat.PathPattern]:
        """Patterns under which some root (or the given root) reaches `word`."""
        c = self.columns
        pattern_ids = dict.fromkeys(c.pattern_id[self._records(word, root=root)].tolist())  # in canonical order
        return list(map(c.patterns.__getitem__, pattern_ids))

    def roots(self, word: str, pattern: Optional[pat.PathPattern] = None) -> list[int]:
        """Roots reaching `word`, optionally restricted to one pattern."""
        return sorted(set(self.columns.root[self._records(word, pattern)].tolist()))

    def paths(self, word: str, pattern: Optional[pat.PathPattern] = None, root: Optional[int] = None) -> list[IndexedPath]:
        """Materialized paths for (word, pattern, root) in a new list; any
        selector may be omitted."""
        return decode_records(self.columns, self._records(word, pattern, root))

    def vocabulary(self) -> list[str]:
        return list(self.words)

    def block(self, word: str, root: int, pattern: pat.PathPattern):
        """The kernel block (see `kernels`) of `word`'s paths of `pattern`
        under `root`, read from their step slots; an empty block when there
        are none."""
        c, ids = self.columns, self._records(word, pattern, root)
        n_steps = len(pattern) // 2  # each path's, in its first slots
        child, key = (slot[:n_steps].take(ids, axis=1).T.ravel() for slot in (c.child, c.key))
        parent, attr = np.divmod(key.astype(np.int64), self.n_attrs + 1)
        return child.tolist(), parent.tolist(), attr.tolist(), (n_steps * np.arange(len(ids) + 1)).tolist()


def mismatched_records(c: IndexColumns, graph: KnowledgeGraph, ids: np.ndarray) -> np.ndarray:
    """Those of the checked records `ids` that are no path of their pattern in
    `graph`, read from their step slots: a node's type is not its pattern's
    type id (the root's is element 0, step t's child's element 2t + 2; an edge
    match's last node has none), or a step (parent, attr, child) is no edge.
    Edge keys are exact while n_entities² * (n_attrs + 1) < 2^63, and sorted,
    so any adjacency order will do."""
    pattern_id, elements = c.pattern_id[ids], c.patterns.elements
    length, start = c.patterns.lengths[pattern_id], c.patterns.starts[pattern_id]
    child, key = c.child.take(ids, axis=1), c.key.take(ids, axis=1)
    step, record = np.nonzero(child != np.iinfo(child.dtype).max)  # the non-padding slots
    child, key = child[step, record], key[step, record]
    entity_type = np.array(graph.entity_type, np.int64)
    typed = 2 * step + 2 < length[record]
    bad_type = entity_type[child[typed]] != elements[start[record[typed]] + 2 * step[typed] + 2]
    adj_off, edges = graph.edge_arrays  # edges: (attr, target) rows
    source = np.repeat(np.arange(graph.n_entities), np.diff(adj_off))
    edge_keys = (source * (graph.n_attrs + 1) + edges[:, 0]) * graph.n_entities + edges[:, 1]
    edge_keys = np.append(np.sort(edge_keys), np.iinfo(np.int64).max)  # past every step key
    step_keys = key.astype(np.int64) * graph.n_entities + child
    bad = np.concatenate((
        np.flatnonzero(entity_type[c.root[ids]] != elements[start]),
        record[typed][bad_type],
        record[edge_keys[np.searchsorted(edge_keys, step_keys)] != step_keys],
    ))
    return ids[np.unique(bad)]


def _ranges(off: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions off[i]:off[i + 1] of every i in `items`, concatenated, and the index into `items` each came from."""
    size = off[items + 1] - off[items]
    owner = np.repeat(np.arange(len(items)), size)
    return owner, np.arange(len(owner)) + np.repeat(off[items] + size - np.cumsum(size), size)


def word_matches(graph: KnowledgeGraph) -> tuple[list[str], tuple, tuple]:
    """The graph's vocabulary, sorted, and the word matches of its entities and
    of its attributes, each as a CSR (offsets, word ids, token counts) with each
    item's words in increasing order. An entity matches each word of its text
    (count |text tokens|) and of its type's name (count |type tokens|), keeping
    the smaller count (the larger sim) of a word in both; an attribute each word of its name."""
    words = sorted(set().union(*graph.entity_token_set, *graph.type_token_set, *graph.attr_token_set))
    word_id = dict(zip(words, range(len(words))))

    def tokens(sets: list) -> tuple[np.ndarray, ...]:
        """Each set's first token, then per token its set, its word id and its token count |set|."""
        sizes = np.fromiter(map(len, sets), np.int64, len(sets))
        owner = np.repeat(np.arange(len(sets)), sizes)
        ids = np.fromiter(map(word_id.__getitem__, chain.from_iterable(sets)), np.int64, len(owner))
        return np.concatenate(([0], np.cumsum(sizes))), owner, ids, sizes[owner]

    def csr(owner: np.ndarray, word: np.ndarray, count: np.ndarray, n: int) -> tuple:
        """The CSR of n items' (word, token count) pairs, keeping the smaller count of a repeated (owner, word)."""
        order = np.lexsort((count, word, owner))
        owner, word, count = owner[order], word[order], count[order]
        first = (np.diff(owner, prepend=-1) != 0) | (np.diff(word, prepend=-1) != 0)
        return np.concatenate(([0], np.cumsum(np.bincount(owner[first], minlength=n)))), word[first], count[first]

    type_off, _, type_word, type_count = tokens(graph.type_token_set)
    owner, at = _ranges(type_off, np.array(graph.entity_type, np.int64))  # each entity's type tokens
    text = tokens(graph.entity_token_set)[1:]
    entity = csr(*map(np.concatenate, zip(text, (owner, type_word[at], type_count[at]))), graph.n_entities)
    attr = csr(*tokens(graph.attr_token_set)[1:], graph.n_attrs)
    return words, entity, attr


def build_index(graph: KnowledgeGraph, pagerank: PageRankVector, depth: int) -> PathIndex:
    """Materialize the index columns for all paths of at most `depth` nodes,
    enumerated level by level on arrays: level L holds each simple path of L
    nodes from a non-literal root as a row. As in `iter_root_paths`, a path
    matches each word of its last node, and its extension by an edge to a node
    not on it matches each word of the edge's attribute and is on level L + 1."""
    if depth < 1:
        raise ParameterError(f"depth must be >= 1, got {depth}")
    words, entity_matches, attr_matches = word_matches(graph)
    entity_type = np.array(graph.entity_type, np.int64)
    adj_off, edges = graph.edge_arrays  # edges: (attr, target) rows
    paths = np.flatnonzero(entity_type != TEXT_TYPE_ID)[:, None]  # a row per path: node, attr, node, ...
    groups = [(paths, False)]  # the paths of pattern length 1, 2, 3, ...
    while len(paths) and paths.shape[1] < 2 * depth - 1:
        parent, edge = _ranges(adj_off, paths[:, -1])
        keep = (paths[parent, ::2] != edges[edge, 1:]).all(1)  # no target already on the path
        if paths.shape[1] == 2 * MAX_PATH_NODES - 1 and keep.any():
            raise ParameterError(f"a path of {MAX_PATH_NODES + 1} nodes exceeds the index's limit of "
                                 f"{MAX_PATH_NODES} nodes per path; build with a smaller --d")
        paths = np.column_stack((paths[parent[keep]], edges[edge[keep]]))
        groups += [(paths, True), (paths, False)]
    lengths, elements, parts = [], [], []  # parts: per group, each record's word id, pattern id, token count and path padded with -1
    for paths, edge_match in groups:
        off, match_word, match_count = attr_matches if edge_match else entity_matches
        paths = paths[np.diff(off)[paths[:, -1 - edge_match]] > 0]  # the paths with a match
        rows = paths[:, : paths.shape[1] - edge_match].copy()  # the patterns: each node's type in place of the node
        rows[:, ::2] = entity_type[rows[:, ::2]]
        # Pattern-first: by pattern row, then by nodes (the pattern fixes the attrs).
        order = np.lexsort(np.hstack((rows, paths[:, ::2])).T[::-1])
        paths, rows = paths[order], rows[order]
        new = (np.diff(rows, axis=0, prepend=-1) != 0).any(1)  # the first row of each pattern
        pattern_id = sum(map(len, lengths)) + np.cumsum(new) - 1
        lengths.append(np.full(np.count_nonzero(new), rows.shape[1]))
        elements.append(rows[new].ravel())
        owner, at = _ranges(off, paths[:, -1 - edge_match])
        padded = np.pad(paths[owner], ((0, 0), (0, groups[-1][0].shape[1] - paths.shape[1])), constant_values=-1)
        parts.append((match_word[at], pattern_id[owner], match_count[at], padded))
    word, pattern_id, tokens, paths = map(np.concatenate, zip(*parts))
    # By word, then root-first, a root's records in the groups' pattern-first order: two stable
    # sorts, each on the narrowest ids (a radix sort at up to 16 bits).
    order = np.argsort(paths[:, 0].astype(np.min_scalar_type(graph.n_entities)), kind="stable")
    order = order[np.argsort(word[order].astype(np.min_scalar_type(len(words))), kind="stable")]
    vocab, counts = np.unique(word, return_counts=True)
    nodes, lengths = paths[order, ::2], np.concatenate(lengths).astype("<u2")
    pid_dtype, node_dtype, element_dtype = record_layout(len(lengths), graph.n_entities, graph.n_types, graph.n_attrs)
    stored = PatternTable(lengths, np.concatenate(elements).astype(element_dtype)), [words[i] for i in vocab.tolist()]
    stored += counts.astype("<u4"), pattern_id[order].astype(pid_dtype)
    stored += tokens[order].astype(narrowest(int(tokens.max(initial=1)))), nodes[nodes >= 0].astype(node_dtype)
    columns = index_columns(stored, pagerank.scores, graph.n_attrs)
    return PathIndex(depth, pagerank, list(graph.type_names), list(graph.attr_names), columns, graph.fingerprint())
