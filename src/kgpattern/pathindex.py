"""Materialized path index in pattern-first and root-first layouts.

For every word occurring in the graph's text, the index stores all simple
directed paths with at most ``depth`` nodes that start at some (non-literal)
root entity and end at a node or edge containing the word:

* node match - the word occurs in the terminal node's own text or in the text
  of its type; both loci collapse into one entry whose similarity term is the
  larger of the two Jaccard scores;
* edge match - the word occurs in the terminal edge's attribute text; the
  stored node list includes the edge's target, so ``node_count`` counts it,
  while the pattern ends on the attribute type.

Each entry precomputes the three per-path score terms (node count, PageRank of
the matched node or of the matched edge's source, Jaccard similarity), so
query-time scoring is pure arithmetic.

Each word's records are kept once, sorted pattern-first (pattern
length-lexicographically, then root, nodes, attrs). Each run of records that
share a (pattern, root) pair is one *leaf*: its record list plus its kernel
block (see `kernels`). A leaf is built once and referenced from both layouts,
word -> pattern -> root -> leaf (pattern-first) and word -> root -> pattern ->
leaf (root-first), so both flatten to the same sorted sequence. A leaf's block
shares the word's (child, parent, attr) step lists; its offsets are the
leaf's own slice of the word's step offsets. A word's records, leaves and
layouts are built when first read, the same way whether the records came
from `build_index` or from a file.

Literal (dummy TEXT) entities are never used as roots: they stand for
attribute *values*, carry no type, and cannot anchor a table answer. They do
appear as path terminals.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import attrgetter
from typing import Callable, Iterator, Optional, Union

from . import patterns as pat
from .errors import ParameterError
from .graph import TEXT_TYPE_ID, KnowledgeGraph, jaccard_similarity
from .pagerank import PageRankVector

logger = logging.getLogger(__name__)

# Match loci
NODE_TEXT = 0
NODE_TYPE = 1
EDGE_TYPE = 2
LOCUS_NAMES = {NODE_TEXT: "node-text", NODE_TYPE: "node-type", EDGE_TYPE: "edge-type"}


@dataclass(frozen=True, slots=True)
class IndexedPath:
    """One materialized root-to-match path for one word."""

    root: int
    nodes: tuple[int, ...]
    attrs: tuple[int, ...]
    edge_match: bool
    locus: int
    node_count: int
    pr_term: float
    sim_term: float
    pattern: pat.PathPattern

    @classmethod
    def from_hit(cls, root: int, hit: "PathHit", locus: int, sim: float) -> "IndexedPath":
        """The record for one word match (`locus`, `sim`) found on `hit`."""
        return cls(
            root, hit.nodes, hit.attrs, hit.edge_match, locus, len(hit.nodes), hit.pr_term, sim, hit.pattern
        )

    def sort_key(self):
        return (pat.sort_key(self.pattern), self.root, self.nodes, self.attrs)


@dataclass(slots=True)
class PathHit:
    """All word matches discovered on one concrete path (pre-index form)."""

    nodes: tuple[int, ...]
    attrs: tuple[int, ...]
    edge_match: bool
    pattern: pat.PathPattern
    pr_term: float
    matches: list[tuple[str, int, float]]  # (word, locus, sim)


@dataclass
class IndexStats:
    entry_count: int
    cost_proxy: int  # sum over enumerated paths of node_count * matched-word count
    word_sizes: dict[str, int]


# A word's records in any order, or their count and a function that returns them.
WordRecords = Union[list[IndexedPath], tuple[int, Callable[[], list[IndexedPath]]]]


class Leaf:
    """The paths of one (word, pattern, root), sorted, with their kernel block."""

    __slots__ = ("paths", "block")

    def __init__(self, paths: list[IndexedPath], block: tuple):
        self.paths = paths
        self.block = block


class _WordIndex:
    """Both layouts for one word, over one shared set of leaves.

    Each slot is filled from `source` on its first read (a record list is
    sorted in place), so a word that no query touches costs no objects; a
    filled slot is read without reaching `__getattr__`.
    """

    __slots__ = ("size", "_source", "records", "pattern_first", "root_first")

    def __init__(self, source: WordRecords):
        if isinstance(source, list):
            self.size, self._source = len(source), lambda: source
        else:
            self.size, self._source = source

    def __getattr__(self, name: str):
        # Called only for an unset slot.
        if name == "records":
            self.records = self._source()
            del self._source
            self.records.sort(key=IndexedPath.sort_key)
        elif name in ("pattern_first", "root_first"):
            records = self.records
            child = [v for rec in records for v in rec.nodes[1:]]
            parent = [v for rec in records for v in rec.nodes[:-1]]
            attr = [v for rec in records for v in rec.attrs]
            offsets = list(accumulate((len(rec.attrs) for rec in records), initial=0))
            self.pattern_first: dict[pat.PathPattern, dict[int, Leaf]] = {}
            # The records are sorted pattern-first: a leaf is a run of equal (pattern, root).
            start = 0
            for (pattern, root), run in groupby(records, key=attrgetter("pattern", "root")):
                stop = start + sum(1 for _ in run)
                leaf = Leaf(records[start:stop], (child, parent, attr, offsets[start : stop + 1]))
                self.pattern_first.setdefault(pattern, {})[root] = leaf
                start = stop
            # Patterns are visited in order, so each root's leaves come in pattern order.
            root_first: dict[int, dict[pat.PathPattern, Leaf]] = {}
            for pattern, leaves in self.pattern_first.items():
                for root, leaf in leaves.items():
                    root_first.setdefault(root, {})[pattern] = leaf
            self.root_first = dict(sorted(root_first.items()))
        else:
            raise AttributeError(name)
        return getattr(self, name)


def iter_root_paths(
    graph: KnowledgeGraph, pr_scores, depth: int, root: int
) -> Iterator[PathHit]:
    """Enumerate every simple path from `root` (at most `depth` nodes) that
    ends at a word-bearing node or edge, yielding its matches.

    Shared by index construction and by the index-free baseline engine.
    """
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
            matches = []
            for w in sorted(words):
                sim_text = jaccard_similarity(w, text_set) if w in text_set else 0.0
                sim_type = jaccard_similarity(w, type_set) if w in type_set else 0.0
                locus = NODE_TEXT if sim_text >= sim_type else NODE_TYPE
                matches.append((w, locus, max(sim_text, sim_type)))
            yield PathHit(tuple(nodes), tuple(attrs), False, pattern, float(pr_scores[terminal]), matches)
        if len(nodes) < depth:
            for attr_id, target in graph.adjacency[terminal]:
                if target in on_path:
                    continue
                attr_set = graph.attr_token_set[attr_id]
                if attr_set:
                    matches = [
                        (w, EDGE_TYPE, jaccard_similarity(w, attr_set)) for w in sorted(attr_set)
                    ]
                    yield PathHit(
                        tuple(nodes) + (target,),
                        tuple(attrs) + (attr_id,),
                        True,
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
    """Dual-layout path index plus the PageRank vector it was built with."""

    def __init__(
        self,
        depth: int,
        pagerank: PageRankVector,
        n_entities: int,
        type_names: list[str],
        attr_names: list[str],
        per_word: dict[str, WordRecords],
        cost_proxy: int,
    ):
        """Index `per_word` (word -> its records, see `_WordIndex`; a list is
        sorted in place) for a graph with these entity count and name tables."""
        self.depth = depth
        self.pagerank = pagerank
        self.n_entities = n_entities
        self.type_names = type_names
        self.attr_names = attr_names
        self.n_types = len(type_names)
        self.n_attrs = len(attr_names)
        self.words: dict[str, _WordIndex] = {w: _WordIndex(per_word[w]) for w in sorted(per_word)}
        word_sizes = {w: wi.size for w, wi in self.words.items()}
        self.stats = IndexStats(sum(word_sizes.values()), cost_proxy, word_sizes)

    # -- access methods ------------------------------------------------

    def root_leaves(self, word: str, root: int) -> dict[pat.PathPattern, Leaf]:
        """The leaves of `word` under `root`, by pattern in pattern order (read-only)."""
        wi = self.words.get(word)
        return {} if wi is None else wi.root_first.get(root, {})

    def pattern_leaves(self, word: str, pattern: pat.PathPattern) -> dict[int, Leaf]:
        """The leaves of `word` under `pattern`, by root in root order (read-only)."""
        wi = self.words.get(word)
        return {} if wi is None else wi.pattern_first.get(pattern, {})

    def patterns(self, word: str, root: Optional[int] = None) -> list[pat.PathPattern]:
        """Patterns under which some root (or the given root) reaches `word`."""
        wi = self.words.get(word)
        if wi is None:
            return []
        return list(wi.pattern_first if root is None else wi.root_first.get(root, {}))

    def roots(self, word: str, pattern: Optional[pat.PathPattern] = None) -> list[int]:
        """Roots reaching `word`, optionally restricted to one pattern."""
        wi = self.words.get(word)
        if wi is None:
            return []
        return list(wi.root_first if pattern is None else wi.pattern_first.get(pattern, {}))

    def paths(
        self,
        word: str,
        pattern: Optional[pat.PathPattern] = None,
        root: Optional[int] = None,
    ) -> list[IndexedPath]:
        """Materialized paths for (word, pattern, root) in a new list; any
        selector may be omitted."""
        if pattern is not None and root is not None:
            leaf = self.pattern_leaves(word, pattern).get(root)
            return list(leaf.paths) if leaf else []
        if root is not None:
            leaves = self.root_leaves(word, root).values()
        elif pattern is not None:
            leaves = self.pattern_leaves(word, pattern).values()
        else:
            wi = self.words.get(word)
            return list(wi.records) if wi else []
        return [rec for leaf in leaves for rec in leaf.paths]

    def flatten(self, word: str, layout: str = "pattern") -> list[IndexedPath]:
        """All records for a word by walking one layout (for agreement checks)."""
        wi = self.words.get(word)
        if wi is None:
            return []
        nested = wi.pattern_first if layout == "pattern" else wi.root_first
        return [rec for leaves in nested.values() for leaf in leaves.values() for rec in leaf.paths]

    def vocabulary(self) -> list[str]:
        return list(self.words.keys())

    def block(self, word: str, root: int, pattern: pat.PathPattern):
        """The kernel block of the (word, pattern, root) leaf; an empty block
        when there is no such leaf."""
        leaf = self.pattern_leaves(word, pattern).get(root)
        return leaf.block if leaf else ([], [], [], [0])


def build_index(graph: KnowledgeGraph, pagerank: PageRankVector, depth: int) -> PathIndex:
    """Materialize both index layouts for all paths of at most `depth` nodes."""
    if depth < 1:
        raise ParameterError(f"depth must be >= 1, got {depth}")
    per_word: dict[str, list[IndexedPath]] = {}
    cost_proxy = 0
    scores = pagerank.scores
    for root in range(graph.n_entities):
        if graph.entity_type[root] == TEXT_TYPE_ID:
            continue
        for hit in iter_root_paths(graph, scores, depth, root):
            cost_proxy += len(hit.nodes) * len(hit.matches)
            for word, locus, sim in hit.matches:
                per_word.setdefault(word, []).append(IndexedPath.from_hit(root, hit, locus, sim))

    idx = PathIndex(
        depth, pagerank, graph.n_entities, list(graph.type_names), list(graph.attr_names), per_word, cost_proxy
    )
    logger.debug(
        "built index: depth=%d, %d words, %d entries", depth, len(idx.words), idx.stats.entry_count
    )
    return idx
