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
  patterns are materialized exactly and ranked again globally. With sampling
  off (threshold = inf or rate = 1) it returns the exact top k, computed by
  ``_exact_topk`` array at a time on the index columns: no word is decoded.

The other index engines differ only in which (root, tree pattern) pairs they
visit: each reads a root's (or a pattern's) decoded index leaves once per
keyword and hands each pair's leaves to one shared join, ``_join``. They
score a pattern in ``ScoredPattern.from_members`` and rank in ``rank`` (as
``bench.rank_enumeration`` does); ``_exact_topk`` does that arithmetic on arrays.
Path tuples whose union is not a rooted tree are rejected, counted in stats
and logged. Ordering is deterministic end to end: scores descending, canonical
pattern key ascending, members by (root, path keys).
"""
from __future__ import annotations

import functools
import heapq
import itertools
import logging
import math
from dataclasses import dataclass, field
from operator import getitem
from typing import Optional

import numpy as np

from . import kernels
from . import patterns as pat
from .errors import ParameterError, ScoreDomainError
from .graph import TEXT_TYPE_ID, KnowledgeGraph, tokenize
from .pathindex import IndexedPath, PathIndex, build_all, decode_records, iter_root_paths
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

    if not may_sample:
        return _exact_topk(graph, idx, query, sampling, config)

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


# The most path tuples `_exact_topk` joins and tree-checks at once (its working set).
CHUNK_ROWS = 1 << 13


def _steps(c, ids: np.ndarray, n_attrs: int):
    """Each record's steps as two (width, records) int64 arrays padded with -1:
    the child node, and its parent and attribute as parent * (n_attrs + 1) + attr."""
    first = c.node_off[ids]
    size = c.node_off[ids + 1] - first - 1
    child, edge = np.full((2, int(size.max(initial=0)), len(ids)), -1, np.int64)
    step, record = np.nonzero(np.arange(len(child))[:, None] < size)
    at = first[record] + step
    child[step, record] = c.nodes[at + 1]
    edge[step, record] = c.nodes[at].astype(np.int64) * (n_attrs + 1) + c.attrs[at - ids[record]]
    return child, edge


def _powers(factor: np.ndarray, exponent: float) -> np.ndarray:
    """`math.pow(x, exponent)` of each x in `factor`, one call per distinct x
    (`np.power` can differ from it in the last bit); pow(x, 1.0) is x."""
    if exponent < 0.0 and not factor.all():
        raise ScoreDomainError(f"zero score factor with negative exponent {exponent}")
    if exponent == 1.0:
        return factor
    values, inverse = np.unique(factor, return_inverse=True)
    return np.array([math.pow(x, exponent) for x in values.tolist()])[inverse]


def _tree_rows(c, ids: list, run_start: list, run_size: list, offsets: np.ndarray, n_attrs: int) -> list:
    """The record ids, one array per keyword, of the rows that form a tree. Row r
    of root i (offsets[i] <= r < offsets[i + 1]) picks ids[j][run_start[j][i] + d[j]],
    d being r - offsets[i] in the mixed radix run_size[.][i]; CHUNK_ROWS rows at a time."""
    steps = [_steps(c, word_ids, n_attrs) for word_ids in ids]
    accepted = [[word_ids[:0] for word_ids in ids]]
    for first in range(0, int(offsets[-1]), CHUNK_ROWS):
        row = np.arange(first, min(first + CHUNK_ROWS, int(offsets[-1])))
        at = np.searchsorted(offsets, row, "right") - 1
        rest, picks = row - offsets[at], [None] * len(ids)
        for j in reversed(range(len(ids))):
            rest, digit = np.divmod(rest, run_size[j][at])
            picks[j] = run_start[j][at] + digit
        tree = np.ones(len(row), bool)
        picked = [(child.take(pick, axis=1), edge.take(pick, axis=1)) for (child, edge), pick in zip(steps, picks)]
        for (child_a, edge_a), (child_b, edge_b) in itertools.combinations(picked, 2):
            for s, t in itertools.product(range(len(child_a)), range(len(child_b))):
                # Not a tree when both paths reach a node through different (parent, attr) steps.
                tree &= (child_a[s] != child_b[t]) | (edge_a[s] == edge_b[t])
        accepted.append([word_ids[pick[tree]] for word_ids, pick in zip(ids, picks)])
    return [np.concatenate(column) for column in zip(*accepted)]


def _pattern_scores(c, rows: list, config: ScoringConfig):
    """Each pattern's first row, size and score, and the rows in pattern order; patterns
    come in tree_sort_key order, and scores use the arithmetic of `tree_score` (factors
    summed in keyword order) and `pattern_score` (members summed in row order)."""
    factors = np.zeros((3, len(rows[0])))
    for record in rows:
        factors += (c.node_off[record + 1] - c.node_off[record], c.pr[record], c.sim[record])
    score = functools.reduce(np.multiply, map(_powers, factors, (config.z1, config.z2, config.z3)))
    # Each keyword refines the key by its dense pattern rank, keeping it dense.
    key = np.zeros(len(rows[0]), np.int64)
    for record in rows:
        pattern_ids, rank_of = np.unique(c.pattern_id[record], return_inverse=True)
        key = np.unique(key * len(pattern_ids) + rank_of, return_inverse=True)[1]
    _, first_row, group, sizes = np.unique(key, return_index=True, return_inverse=True, return_counts=True)
    if config.aggregator == "max":
        scores = np.full(len(sizes), -math.inf)
        np.maximum.at(scores, group, score)
    elif config.aggregator == "count":
        scores = sizes.astype(float)
    else:
        scores = np.bincount(group, weights=score, minlength=len(sizes))
        if config.aggregator == "avg":
            scores = scores / sizes
    return first_row, sizes, scores, np.argsort(group, kind="stable")


def _members(c, rows: list, order: np.ndarray) -> list[ValidSubtree]:
    """The `ValidSubtree` of each row in `order`, over one `IndexedPath` per record a keyword uses."""
    columns = []
    for record in rows:
        used, where = np.unique(record[order], return_inverse=True)
        columns.append(list(map(decode_records(c, used).__getitem__, where.tolist())))
    return build_all(ValidSubtree, c.root[rows[0][order]].tolist(), list(zip(*columns)))


def _exact_topk(graph, idx: PathIndex, query: Query, sampling: SamplingConfig, config: ScoringConfig) -> SearchResult:
    """Exact linear-topk, array at a time on `idx.columns`; no word is decoded. A row
    (path tuple) picks one record per keyword under a shared root; rows go root by root,
    the last keyword fastest, each keyword's records in pattern-first order within a
    root (a stable argsort by root), so a pattern's rows come in its member order. Each
    phase is a function, so its temporary arrays are freed before the next starts."""
    c = idx.columns
    stats = _new_stats(candidate_roots=0, roots_expanded=0, types=[])
    ids, sorted_roots = [], []
    for wi in map(idx.words.get, query.keywords):
        start, stop = (wi.start, wi.start + wi.size) if wi else (0, 0)
        order = np.argsort(c.root[start:stop], kind="stable")
        ids.append(order + start)
        sorted_roots.append(c.root[start:stop][order])
    distinct = [np.unique(roots, return_index=True)[0] for roots in sorted_roots]  # no option: imports numpy.ma
    candidates = functools.reduce(functools.partial(np.intersect1d, assume_unique=True), distinct)
    run_start = [np.searchsorted(r, candidates) for r in sorted_roots]
    run_size = [np.searchsorted(r, candidates, "right") - s for r, s in zip(sorted_roots, run_start)]
    tuples = functools.reduce(np.multiply, run_size, np.ones(len(candidates), np.int64))
    offsets = np.concatenate(([0], np.cumsum(tuples)))
    types = np.array([graph.entity_type[r] for r in candidates.tolist()], np.int64)
    for type_id in sorted(set(types.tolist())):
        of_type = types == type_id
        roots, bound = int(of_type.sum()), int(tuples[of_type].sum())
        rate = sampling.rate if bound >= sampling.threshold else 1.0
        stats["types"].append({"type": type_id, "roots": roots, "bound": bound, "rate": rate, "expanded": roots})
    rows = _tree_rows(c, ids, run_start, run_size, offsets, idx.n_attrs)
    total, accepted = int(offsets[-1]), len(rows[0])
    stats.update(candidate_roots=len(candidates), roots_expanded=len(candidates), path_tuples_checked=total)
    stats.update(subtrees_accepted=accepted, tuples_rejected=total - accepted)
    _log_rejections("linear-topk", query, stats)
    if not accepted:
        return SearchResult([], stats)
    first_row, sizes, scores, order = _pattern_scores(c, rows, config)
    # Members of every pattern, so that the time does not grow with k.
    subtrees = _members(c, rows, order)
    top = np.argsort(-scores, kind="stable")[: query.k]
    ends = np.cumsum(sizes)[top].tolist()
    patterns = zip(*(c.pattern_id[record[first_row[top]]].tolist() for record in rows))
    ranked = [
        ScoredPattern(tuple(map(c.patterns.__getitem__, pattern)), score, subtrees[end - size : end], score)
        for pattern, score, size, end in zip(patterns, scores[top].tolist(), sizes[top].tolist(), ends)
    ]
    return SearchResult(ranked, stats)


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
