"""The four query engines over the path index.

* ``search_baseline`` - index-free enumeration of all valid subtrees per root
  (the same DFS used to build the index, run online), grouped into one global
  pattern dictionary, then scored and ranked to the top k. The reference
  implementation everything else must agree with.
* ``search_pattern_enum`` - per root type, enumerate the cross product of the
  keywords' path patterns, intersect the pattern-first root sets, and for
  non-empty intersections materialize the member subtrees. Fast when queries
  have few patterns; wasted intersections on empty pattern combinations are
  its worst case.
* ``search_linear_enum`` - candidate roots are the intersection of the
  root-first root sets; every root is expanded into its pattern and path
  products, so no time is spent on empty patterns. Returns the complete
  pattern -> subtrees mapping, unranked.
* ``search_linear_topk`` - the linear enumeration partitioned by root type
  with optional per-type Bernoulli root sampling: when the upper bound on a
  type's subtree count reaches the sampling threshold, only a `rate` fraction
  of its roots is expanded, pattern scores are estimated from the sample (sum
  aggregation scaled by 1/rate), and only the per-type top-k estimated
  patterns are materialized exactly and ranked again globally. With
  threshold = inf and rate = 1 it returns the exact top k.

The three index engines differ only in which (root, tree pattern) pairs they
visit: each reads a root's (or a pattern's) index leaves once per keyword and
hands each pair's leaves to one shared join, ``_join``. All four engines
score a pattern in one step, ``ScoredPattern.from_members``, and rank in one
step, ``rank`` (``bench.rank_enumeration`` ranks ``search_linear_enum``'s
output through it too). Path tuples whose union is not a rooted tree are
rejected everywhere (the union must be a subtree of the graph); rejected
counts are reported in stats and logged per query. Ordering is deterministic
end to end: scores descending, canonical pattern key ascending, members by
(root, path keys).
"""
from __future__ import annotations

import heapq
import itertools
import logging
import math
from dataclasses import dataclass, field
from operator import getitem
from typing import Optional

from . import kernels
from . import patterns as pat
from .errors import ParameterError
from .graph import TEXT_TYPE_ID, KnowledgeGraph, tokenize
from .pathindex import IndexedPath, PathIndex, iter_root_paths
from .scoring import DEFAULT_CONFIG, ScoringConfig, pattern_score, tree_score

logger = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Query:
    keywords: tuple[str, ...]
    k: int = 10

    def __post_init__(self):
        if len(self.keywords) < 1:
            raise ParameterError("query needs at least one keyword")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        for w in self.keywords:
            if tokenize(w) != [w]:
                raise ParameterError(f"keyword {w!r} is not a single normalized token")

    @classmethod
    def from_text(cls, text: str, k: int = 10) -> "Query":
        return cls(tuple(tokenize(text)), k)


@dataclass(frozen=True)
class SamplingConfig:
    threshold: float = math.inf  # sample a type only when its subtree bound reaches this
    rate: float = 1.0            # Bernoulli root-selection probability
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.rate <= 1.0:
            raise ParameterError(f"sampling rate must be in (0, 1], got {self.rate}")
        if math.isnan(self.threshold):
            raise ParameterError("sampling threshold must be a number or inf, got nan")


EXACT_SAMPLING = SamplingConfig()


@dataclass(frozen=True, slots=True)
class ValidSubtree:
    """A concrete answer tree: one indexed path per keyword, joined at `root`."""

    root: int
    paths: tuple[IndexedPath, ...]

    def tree_pattern(self) -> pat.TreePattern:
        return tuple(p.pattern for p in self.paths)

    def sort_key(self):
        return (self.root, tuple(p.sort_key() for p in self.paths))

    def node_ids(self) -> set[int]:
        out = set()
        for p in self.paths:
            out.update(p.nodes)
        return out

    def edge_set(self) -> set[tuple[int, int, int]]:
        out = set()
        for p in self.paths:
            for i in range(1, len(p.nodes)):
                out.add((p.nodes[i - 1], p.attrs[i - 1], p.nodes[i]))
        return out


@dataclass
class ScoredPattern:
    pattern: pat.TreePattern
    score: float
    subtrees: list[ValidSubtree]
    estimated_score: Optional[float] = None

    @classmethod
    def from_members(
        cls,
        pattern: pat.TreePattern,
        members: list[ValidSubtree],
        config: ScoringConfig = DEFAULT_CONFIG,
        estimated_score: Optional[float] = None,
    ) -> "ScoredPattern":
        """Score a pattern from its member subtrees; the score is exact when
        `members` is the pattern's complete member set."""
        score = pattern_score([tree_score(m.paths, config) for m in members], config)
        return cls(pattern, score, members, estimated_score)

    @property
    def subtree_count(self) -> int:
        return len(self.subtrees)


@dataclass
class SearchResult:
    patterns: list[ScoredPattern]
    stats: dict = field(default_factory=dict)


def assemble_subtree(root: int, paths) -> Optional[ValidSubtree]:
    """Union the per-keyword paths into a subtree; None when the union is not
    a rooted tree (some node would need two distinct incoming edges)."""
    parent_of: dict[int, tuple[int, int]] = {}
    for p in paths:
        if p.nodes[0] != root:
            raise ParameterError(f"path rooted at {p.nodes[0]} joined under root {root}")
        for i in range(1, len(p.nodes)):
            c = p.nodes[i]
            edge = (p.nodes[i - 1], p.attrs[i - 1])
            known = parent_of.setdefault(c, edge)
            if known != edge:
                return None
    return ValidSubtree(root, tuple(paths))


def _by_score(sp: ScoredPattern):
    return (-sp.score, pat.tree_sort_key(sp.pattern))


def rank(scored, k: Optional[int] = None, key=_by_score) -> list[ScoredPattern]:
    """The scored patterns best first by `key` (score descending, then
    canonical pattern ascending); only the first k when k is given, so at
    most k of a generator's patterns are held at once."""
    if k is None:
        return sorted(scored, key=key)
    return heapq.nsmallest(k, scored, key=key)


# ---------------------------------------------------------------------------
# Shared expansion machinery
# ---------------------------------------------------------------------------


def _intersect_sorted(lists) -> list[int]:
    """The sorted ids common to every list (or set, or dict's keys)."""
    if not lists:
        return []
    common = set(lists[0])
    for other in lists[1:]:
        common &= set(other)
        if not common:
            return []
    return sorted(common)


def _join(root: int, leaves, members: list, stats) -> None:
    """Append to `members` every tuple of the leaves' paths (one leaf per
    keyword, all under `root`) whose union is a tree; count the tuples into
    `stats` unless None."""
    rows = kernels.join_tree_tuples([leaf.block for leaf in leaves])
    if stats is not None:
        checked = math.prod(len(leaf.paths) for leaf in leaves)
        stats["path_tuples_checked"] += checked
        stats["subtrees_accepted"] += len(rows)
        stats["tuples_rejected"] += checked - len(rows)
    path_lists = [leaf.paths for leaf in leaves]
    for row in rows:
        members.append(ValidSubtree(root, tuple(map(getitem, path_lists, row))))


def _expand_root(idx: PathIndex, words, root: int, tree_dict, stats) -> None:
    """Enumerate all valid subtrees under `root` into tree_dict, one join per
    combination of the root's per-keyword patterns."""
    leaf_maps = [idx.root_leaves(w, root) for w in words]
    for combo in itertools.product(*leaf_maps):
        members = tree_dict.get(combo) or []
        _join(root, list(map(getitem, leaf_maps, combo)), members, stats)
        if members:
            tree_dict[combo] = members


def _materialize_pattern(idx: PathIndex, words, tree_pattern, stats=None) -> list[ValidSubtree]:
    """Exact member set of one tree pattern: one join under each root that
    reaches every keyword by its path pattern."""
    leaf_maps = [idx.pattern_leaves(w, p) for w, p in zip(words, tree_pattern)]
    members: list[ValidSubtree] = []
    for root in _intersect_sorted(leaf_maps):
        _join(root, [leaves[root] for leaves in leaf_maps], members, stats)
    return members


def _new_stats(**extra) -> dict:
    return {"path_tuples_checked": 0, "subtrees_accepted": 0, "tuples_rejected": 0, **extra}


def _log_rejections(name: str, query: Query, stats: dict) -> None:
    if stats.get("tuples_rejected"):
        logger.debug(
            "%s %s: rejected %d non-tree path tuples (%d accepted)",
            name,
            " ".join(query.keywords),
            stats["tuples_rejected"],
            stats["subtrees_accepted"],
        )


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def search_baseline(
    graph: KnowledgeGraph,
    idx: PathIndex,
    query: Query,
    config: ScoringConfig = DEFAULT_CONFIG,
) -> SearchResult:
    """Enumeration-aggregation reference engine (no materialized index use)."""
    words = list(query.keywords)
    wanted = set(words)
    scores = idx.pagerank.scores
    tree_dict: dict[pat.TreePattern, list[ValidSubtree]] = {}
    stats = _new_stats(candidate_roots=0)
    for root in range(graph.n_entities):
        if graph.entity_type[root] == TEXT_TYPE_ID:
            continue
        per_word: dict[str, list[IndexedPath]] = {w: [] for w in wanted}
        for hit in iter_root_paths(graph, scores, idx.depth, root):
            for word, sim in hit.matches:
                if word in wanted:
                    per_word[word].append(IndexedPath.from_hit(hit, sim))
        if any(not per_word[w] for w in wanted):
            continue
        stats["candidate_roots"] += 1
        for w in wanted:
            per_word[w].sort(key=IndexedPath.sort_key)
        for tup in itertools.product(*(per_word[w] for w in words)):
            stats["path_tuples_checked"] += 1
            subtree = assemble_subtree(root, tup)
            if subtree is None:
                stats["tuples_rejected"] += 1
                continue
            stats["subtrees_accepted"] += 1
            tree_dict.setdefault(subtree.tree_pattern(), []).append(subtree)

    ranked = rank((ScoredPattern.from_members(p, members, config) for p, members in tree_dict.items()), query.k)
    stats["patterns_found"] = len(tree_dict)
    _log_rejections("baseline", query, stats)
    return SearchResult(ranked, stats)


def search_pattern_enum(
    graph: KnowledgeGraph,
    idx: PathIndex,
    query: Query,
    config: ScoringConfig = DEFAULT_CONFIG,
) -> SearchResult:
    """Pattern-product engine over the pattern-first layout."""
    words = list(query.keywords)
    by_type: list[dict[int, list[pat.PathPattern]]] = []
    for w in words:
        groups: dict[int, list[pat.PathPattern]] = {}
        for p in idx.patterns(w):
            groups.setdefault(pat.root_type(p), []).append(p)
        by_type.append(groups)

    common_types = set(by_type[0]).intersection(*by_type[1:])

    stats = _new_stats(pattern_combos_checked=0, empty_combos=0, patterns_found=0)

    def scored():
        for type_id in sorted(common_types):
            for combo in itertools.product(*(groups[type_id] for groups in by_type)):
                stats["pattern_combos_checked"] += 1
                members = _materialize_pattern(idx, words, combo, stats)
                if not members:
                    stats["empty_combos"] += 1
                    continue
                stats["patterns_found"] += 1
                yield ScoredPattern.from_members(combo, members, config)

    ranked = rank(scored(), query.k)
    _log_rejections("pattern-enum", query, stats)
    return SearchResult(ranked, stats)


def search_linear_enum(
    graph: KnowledgeGraph,
    idx: PathIndex,
    query: Query,
    stats: Optional[dict] = None,
) -> list[tuple[pat.TreePattern, list[ValidSubtree]]]:
    """Full enumeration: every tree pattern with its complete subtree set."""
    words = list(query.keywords)
    stats = {} if stats is None else stats
    stats.update(_new_stats())
    roots = _intersect_sorted([idx.roots(w) for w in words])
    stats["candidate_roots"] = len(roots)
    tree_dict: dict[pat.TreePattern, list[ValidSubtree]] = {}
    for root in roots:
        _expand_root(idx, words, root, tree_dict, stats)
    stats["patterns_found"] = len(tree_dict)
    _log_rejections("linear-enum", query, stats)
    return sorted(tree_dict.items(), key=lambda kv: pat.tree_sort_key(kv[0]))


def search_linear_topk(
    graph: KnowledgeGraph,
    idx: PathIndex,
    query: Query,
    sampling: SamplingConfig = EXACT_SAMPLING,
    config: ScoringConfig = DEFAULT_CONFIG,
) -> SearchResult:
    """Type-partitioned linear enumeration with optional root sampling."""
    words = list(query.keywords)
    may_sample = sampling.rate < 1.0 and sampling.threshold != math.inf
    if may_sample and config.aggregator != "sum":
        raise ParameterError(f"sampling supports only the sum aggregator, not {config.aggregator!r}")

    all_roots = _intersect_sorted([idx.roots(w) for w in words])
    by_type: dict[int, list[int]] = {}
    for r in all_roots:
        by_type.setdefault(graph.entity_type[r], []).append(r)

    finalists: list[ScoredPattern] = []
    stats = _new_stats(candidate_roots=len(all_roots), roots_expanded=0, types=[])
    for type_id in sorted(by_type):
        roots = by_type[type_id]
        bound = sum(
            math.prod(sum(len(leaf.paths) for leaf in idx.root_leaves(w, r).values()) for w in words)
            for r in roots
        )
        rate = sampling.rate if bound >= sampling.threshold else 1.0

        tree_dict: dict[pat.TreePattern, list[ValidSubtree]] = {}
        expanded = 0
        for position, root in enumerate(roots):
            if _uniform01(sampling.seed, type_id, position) < rate:
                _expand_root(idx, words, root, tree_dict, stats)
                expanded += 1
        stats["roots_expanded"] += expanded
        stats["types"].append({"type": type_id, "roots": len(roots), "bound": bound, "rate": rate, "expanded": expanded})

        # Score the sampled members of every pattern; with rate = 1 the sample
        # is complete, so these are the exact scores. Otherwise (sum
        # aggregation only) the sample's sum scaled by 1/rate is the unbiased
        # estimate of scoring.estimate_pattern_score. The type's k best by
        # that estimate go on (by the estimate, not the sample score: two
        # different sample sums can become equal once divided by rate).
        scored = (ScoredPattern.from_members(p, members, config) for p, members in tree_dict.items())
        for sp in rank(scored, query.k, key=lambda sp: (-sp.score / rate, pat.tree_sort_key(sp.pattern))):
            sp.estimated_score = sp.score / rate
            if rate != 1.0:
                # Re-score sampled winners exactly over every root of their pattern.
                members = _materialize_pattern(idx, words, sp.pattern)
                sp = ScoredPattern.from_members(sp.pattern, members, config, sp.estimated_score)
            finalists.append(sp)
    _log_rejections("linear-topk", query, stats)
    return SearchResult(rank(finalists, query.k), stats)


# ---------------------------------------------------------------------------
# Deterministic per-(seed, type) sampling stream
# ---------------------------------------------------------------------------


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _uniform01(seed: int, stream_key: int, position: int) -> float:
    """position-th uniform draw of the (seed, stream_key) stream, in [0, 1)."""
    base = _splitmix64((seed & _MASK64) ^ ((stream_key * 0xD1B54A32D192ED03) & _MASK64))
    return (_splitmix64((base + position) & _MASK64) >> 11) * 2.0**-53
