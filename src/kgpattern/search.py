"""The four query engines.

* ``search_baseline`` - index-free enumeration of all valid subtrees per root
  (the DFS `pathindex.iter_root_paths`, which finds the paths `build_index`
  finds level by level), grouped into one global pattern dictionary, then
  scored and ranked to the top k. The reference implementation everything
  else must agree with.
* ``search_pattern_enum`` - per root type, the cross product of the keywords'
  path patterns, each combination under the roots all its patterns share. It
  crosses each candidate root's (root, pattern) runs keyword by keyword (the
  trie walk done root-first), so no empty combination is formed, and joins the
  units in the paper's order: root type, combination, root.
* ``search_linear_enum`` - the full linear enumeration: every pattern with
  its complete member list, best first. It is exact ``search_linear_topk``
  with no bound on k, so it has no join of its own.
* ``search_linear_topk`` - candidate roots are the intersection of the
  keywords' root sets, and every row under each candidate is joined, so no
  time is spent on empty patterns; the roots are partitioned by root type,
  with optional per-type Bernoulli root sampling. A type whose subtree-count
  upper bound reaches the sampling threshold is sampled: a join over the
  roots its draws keep (each with probability `rate`) estimates its pattern
  scores (sum aggregation scaled by 1/rate), only to pick its k best. One
  exact join then reads the other types' roots whole and, under sampled
  types, only those winners' own runs, and ranks them all; with sampling off
  (threshold = inf or rate = 1) it is the only join, and the top k is exact.

``search_pattern_enum`` and ``search_linear_topk`` join on the index columns
(`idx.columns`), array at a time, and differ only in which rows they join.
Each first checks its keywords' records (`PathIndex.check`), so an index read
from a file checks and derives only the words its queries read. A row (path
tuple) picks one record per keyword under a shared root; a *unit* is a root
with one run of records per keyword, and its rows are the runs' cross product.
The join reads the index as stored, so a query sorts no records and builds no
steps: a keyword's records under a root are one run of its root-first slice,
and those of one pattern one run within it. ``_root_runs`` finds linear-topk's
root runs (and candidate roots), ``_pattern_runs`` the (root, pattern) runs.
One finder, ``_combo_units``, crosses those keyword by keyword into (root,
combination) units, for ``search_pattern_enum`` and for a sampled
``search_linear_topk``'s winners; no unit's run is found by a binary search.
``_tree_rows`` keeps the rows whose paths' union is a rooted tree, reading the
picked records' step slots (`IndexColumns.child` and `key`); ``_group`` groups
them by tree pattern; ``_pattern_scores`` scores each pattern with the
arithmetic of ``tree_score`` and ``pattern_score``, and ``_top`` picks the k
best by a partition. No ``np.unique`` runs: ``_groups`` finds the distinct
values of a key (patterns, records, score factors) by one stable argsort, and
``_run_bounds`` marks the runs of the sorted key, as it does the root and
(root, pattern) runs. No word is decoded, and members are materialized late:
``_answers`` keeps only the k returned patterns' rows, in one ``_Batch``, and
each pattern's ``subtrees`` is a ``Members`` of it, a sequence equal to the
list of its member subtrees. `tables.render_table` reads a table from the
batch's rows, making no member object; the first read of any element makes all
k patterns' members in one ``_members`` call, whose ``IndexedPath`` and
``ValidSubtree`` named tuples (one C-level map each) are only those the rows
use. Rejected rows are counted in stats. Ordering is deterministic end to end:
scores descending, canonical pattern key ascending, members by (root, path keys).
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
import sys
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import patterns as pat
from .errors import ParameterError, ScoreDomainError
from .graph import TEXT_TYPE_ID, KnowledgeGraph, tokenize
from .pathindex import IndexedPath, PathIndex, _ranges, decode_records, iter_root_paths
from .scoring import DEFAULT_CONFIG, ScoringConfig, pattern_score, power, require_finite, tree_score


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


class ValidSubtree(NamedTuple):
    """A concrete answer tree: one indexed path per keyword, joined at `root`."""

    root: int
    paths: tuple[IndexedPath, ...]

    def tree_pattern(self) -> pat.TreePattern:
        return tuple(p.pattern for p in self.paths)

    def sort_key(self):
        return (self.root, tuple(p.sort_key() for p in self.paths))


@dataclass(slots=True)
class ScoredPattern:
    """A tree pattern, its score and its member subtrees. An engine's answers
    hold their members as `Members` of one `_Batch`, a sequence equal to the
    list of them; `subtree_count` decodes nothing. Such an answer keeps its
    batch while it lives, and with it the index's `IndexColumns` and, once a
    table of the batch is rendered, the graph and the batch's texts: a pickled
    answer carries them all."""

    pattern: pat.TreePattern
    score: float
    subtrees: "list[ValidSubtree] | Members"
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


class _Batch:
    """Some answers' member rows, answer by answer, each answer's in row order: a record id row per keyword,
    where each answer's rows start (and the last ends), and each answer's pattern id per keyword and tree pattern.
    The rows are kept after `decode`, for `tables.render_table` (which keeps its `texts` here)."""

    __slots__ = ("columns", "rows", "bounds", "pattern_ids", "keys", "members", "texts")

    def __init__(self, c, rows: np.ndarray, bounds: list, pattern_ids: list, keys: list):
        self.columns, self.rows, self.bounds, self.pattern_ids, self.keys = c, rows, bounds, pattern_ids, keys
        self.members = self.texts = None

    def decode(self) -> list[list[ValidSubtree]]:
        """Each answer's members, made on the first call in one `_members` call."""
        if self.members is None:
            subtrees, bounds = _members(self.columns, self.rows), self.bounds
            self.members = [subtrees[start:stop] for start, stop in zip(bounds, bounds[1:])]
        return self.members


class Members(Sequence):
    """One answer's members, rows start:stop of a `_Batch`: a sequence equal to,
    and shown as, the list of their `ValidSubtree`s, which the first read of an
    element (or iteration, `repr`, `==`) makes for the whole batch."""

    __slots__ = ("batch", "answer", "start", "stop")
    __hash__ = None

    def __init__(self, batch: _Batch, answer: int, start: int, stop: int):
        self.batch, self.answer, self.start, self.stop = batch, answer, start, stop

    def members(self) -> list[ValidSubtree]:
        return self.batch.decode()[self.answer]

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, i):
        return self.members()[i]

    def __iter__(self):
        return iter(self.members())

    def __repr__(self) -> str:
        return repr(self.members())

    def __eq__(self, other):
        other = other.members() if isinstance(other, Members) else other
        return self.members() == other if isinstance(other, list) else NotImplemented


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


def rank(scored, k: Optional[int] = None) -> list[ScoredPattern]:
    """The scored patterns best first (score descending, then canonical
    pattern ascending); only the first k when k is given, so at most k of a
    generator's patterns are held at once."""
    if k is None:
        return sorted(scored, key=_by_score)
    return heapq.nsmallest(k, scored, key=_by_score)


def _new_stats(**extra) -> dict:
    return {"path_tuples_checked": 0, "subtrees_accepted": 0, "tuples_rejected": 0, **extra}


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
    return SearchResult(ranked, stats)


def search_pattern_enum(
    graph: KnowledgeGraph,
    idx: PathIndex,
    query: Query,
    config: ScoringConfig = DEFAULT_CONFIG,
) -> SearchResult:
    """Pattern-product engine: per root type, the cross product of the
    keywords' path patterns, each combination's roots being those all its
    patterns share. Crossing each candidate root's (root, pattern) runs
    keyword by keyword forms only the non-empty (combination, root) units;
    put in the paper's order (root type, combination, root), they are joined
    at once. `pattern_combos_checked` counts the combinations, empty or not."""
    c, words = idx.columns, list(query.keywords)
    idx.check(words)
    runs, picks = _combo_units(idx, words)
    combo = [pattern_id[pick] for (_, pattern_id, _), pick in zip(runs, picks)]  # the units are in (root, combo) order
    root_type = c.patterns.elements[c.patterns.starts[combo[0]]].astype(np.int64)  # a pattern starts with its root's type
    order = _pattern_key(c, combo, root_type, idx.n_types).argsort(kind="stable")  # the paper's: (root type, combo, root)
    run_start = [off[pick[order]] for (_, _, off), pick in zip(runs, picks)]
    run_size = [np.diff(off)[pick[order]] for (_, _, off), pick in zip(runs, picks)]
    # The paper's combinations: per root type, the product of the keywords' pattern counts, in Python ints (past 2^63).
    present = [np.bincount(pattern_id).nonzero()[0] for _, pattern_id, _ in runs]
    per_type = [np.bincount(c.patterns.elements[c.patterns.starts[p]], minlength=idx.n_types).tolist() for p in present]
    stats = _new_stats(pattern_combos_checked=sum(map(math.prod, zip(*per_type))), empty_combos=0, patterns_found=0)
    rows = _tree_rows(c, run_start, run_size, functools.reduce(np.multiply, run_size), stats)
    patterns = _group(c, rows)
    stats["patterns_found"] = len(patterns.sizes)
    stats["empty_combos"] = stats["pattern_combos_checked"] - stats["patterns_found"]
    scores = _pattern_scores(c, rows, patterns, config)
    top = _top(scores, query.k)
    keys, members = _answers(c, rows, patterns, top)
    return SearchResult(list(map(ScoredPattern, keys, scores[top].tolist(), members)), stats)


def search_linear_enum(
    graph: KnowledgeGraph,
    idx: PathIndex,
    query: Query,
    stats: Optional[dict] = None,
) -> list[tuple[pat.TreePattern, Members]]:
    """Full enumeration: every tree pattern with its complete subtree set, best
    first; exact `search_linear_topk` with no bound on k, its counters in `stats`."""
    result = search_linear_topk(graph, idx, Query(query.keywords, sys.maxsize))
    if stats is not None:
        stats.update(result.stats)
    return [(sp.pattern, sp.subtrees) for sp in result.patterns]


def search_linear_topk(
    graph: KnowledgeGraph,
    idx: PathIndex,
    query: Query,
    sampling: SamplingConfig = EXACT_SAMPLING,
    config: ScoringConfig = DEFAULT_CONFIG,
) -> SearchResult:
    """Type-partitioned linear enumeration with optional root sampling: a join
    over the sampled types' drawn roots picks their k best patterns by
    estimate, and one exact join reads those and the other types' roots; its
    patterns, every pattern in exact mode, are the stats' `patterns_found`."""
    may_sample = sampling.rate < 1.0 and sampling.threshold != math.inf
    if may_sample and config.aggregator != "sum":
        raise ParameterError(f"sampling supports only the sum aggregator, not {config.aggregator!r}")

    c = idx.columns
    candidates, run_start, run_size, tuples = _root_runs(idx, query.keywords)
    types = c.patterns.elements[c.patterns.starts[c.pattern_id[run_start[0]]]]  # a root's type starts its patterns
    per_id = np.bincount(types)  # type ids are few: counted, not sorted
    type_ids, of_type = per_id.nonzero()[0], (per_id > 0).cumsum()[types] - 1
    roots, bounds = per_id[type_ids], np.bincount(types, tuples)[type_ids].astype(np.int64)  # float sums: exact below 2^53
    type_rates = np.where(bounds >= sampling.threshold, sampling.rate, 1.0)
    rates, drawn, expanded = type_rates[of_type], np.zeros(len(candidates), bool), roots.copy()
    for t in (type_rates < 1.0).nonzero()[0].tolist():
        drawn[of_type == t] = draws = _uniform01(sampling.seed, int(type_ids[t]), int(roots[t])) < type_rates[t]
        expanded[t] = np.count_nonzero(draws)
    fields, columns = ("type", "roots", "bound", "rate", "expanded"), (type_ids, roots, bounds, type_rates, expanded)
    per_type = [dict(zip(fields, values)) for values in zip(*(column.tolist() for column in columns))]
    stats = _new_stats(candidate_roots=len(candidates), roots_expanded=int(expanded.sum()), types=per_type)
    whole, guesses, winners, units = rates == 1.0, np.zeros(0), np.zeros(0, np.int64), (run_start, run_size)
    if not whole.all():
        # A sampled type's k best by estimate (`scoring.estimate_pattern_score`, sum aggregation
        # only), ties in canonical order: not by the sample score, as two different sample sums
        # can become equal once divided by rate.
        rows = _tree_rows(c, *([s[drawn] for s in side] for side in units), tuples[drawn], stats)
        patterns = _group(c, rows)
        at = candidates.searchsorted(c.root[rows[0][patterns.first_row]])
        guesses = _pattern_scores(c, rows, patterns, config) / rates[at]
        of_types = ((types[at] == t).nonzero()[0] for t in types[at][_groups(types[at]).first_row])
        winners = np.sort(np.concatenate([np.zeros(0, np.int64), *(of[_top(guesses[of], query.k)] for of in of_types)]))
        combos = [c.pattern_id[record[patterns.first_row[winners]]] for record in rows]  # one id per winner
        runs, picks = _combo_units(idx, query.keywords, combos)
        # The units whose whole combination is a winner's, found by grouping one key over the units' and the
        # winners' combinations (keys made dense apart, past 2^63, could not be compared).
        n, ids = len(picks[0]), [np.append(pattern_id[pick], combo) for (_, pattern_id, _), pick, combo in zip(runs, picks, combos)]
        same = _groups(_pattern_key(c, ids, np.zeros(n + len(winners), np.int64), 1))
        picks = [pick[np.bincount(same.group[n:], minlength=len(same.sizes))[same.group[:n]] > 0] for pick in picks]
        more = [off[pick] for (_, _, off), pick in zip(runs, picks)], [np.diff(off)[pick] for (_, _, off), pick in zip(runs, picks)]
        units = [list(map(np.append, [s[whole] for s in side], extra)) for side, extra in zip(units, more)]
    rows = _tree_rows(c, *units, tuples if whole.all() else functools.reduce(np.multiply, units[1]), stats)

    patterns = _group(c, rows)
    stats["patterns_found"] = len(patterns.sizes)
    scores = _pattern_scores(c, rows, patterns, config)
    # The sampled types' patterns are the winners, both in canonical order;
    # an unsampled type's pattern has its score for estimate.
    estimates = scores
    if len(winners):
        estimates = scores.copy()
        estimates[rates[candidates.searchsorted(c.root[rows[0][patterns.first_row]])] < 1.0] = guesses[winners]
    top = _top(scores, query.k)
    keys, members = _answers(c, rows, patterns, top)
    return SearchResult(list(map(ScoredPattern, keys, scores[top].tolist(), members, estimates[top].tolist())), stats)


# ---------------------------------------------------------------------------
# The join on the index columns
# ---------------------------------------------------------------------------

# The most path tuples `_tree_rows` joins and tree-checks at once (its working set).
CHUNK_ROWS = 1 << 13


def _root_runs(idx: PathIndex, words):
    """The candidate roots (those every keyword reaches), each keyword's run start (a record id) and size
    per candidate, and each candidate's tuple count: a root's records are one run of the keyword's root-first slice."""
    idx.check(words)
    c, runs = idx.columns, []
    for word in words:
        span = idx.words.get(word, range(0))
        roots = c.root[span.start : span.stop]
        bound = _run_bounds(roots)
        runs.append((roots[bound[:-1]], span.start + bound[:-1], bound[1:] - bound[:-1]))
    candidates = functools.reduce(functools.partial(np.intersect1d, assume_unique=True), [run[0] for run in runs])
    at = [distinct.searchsorted(candidates) for distinct, _, _ in runs]
    sizes = [run[2][i] for run, i in zip(runs, at)]
    return candidates, [run[1][i] for run, i in zip(runs, at)], sizes, functools.reduce(np.multiply, sizes)


def _pattern_runs(idx: PathIndex, word: str):
    """A checked word's (root, pattern) runs in stored order, by root and then pattern id: each run's root
    and pattern id, and the record ids where the runs start, with one more past the last run's end."""
    c, span = idx.columns, idx.words.get(word, range(0))
    roots, pattern_id = c.root[span.start : span.stop], c.pattern_id[span.start : span.stop]
    bound = _run_bounds(roots, pattern_id)
    return roots[bound[:-1]], pattern_id[bound[:-1]], span.start + bound


def _run_bounds(*columns: np.ndarray) -> np.ndarray:
    """Where each run of equal rows of these columns starts, and the last run's end (`np.diff`, `np.ones` are slower)."""
    new = np.empty(len(columns[0]) + 1, bool)
    new[0] = new[-1] = True
    new[1:-1] = functools.reduce(np.logical_or, [column[1:] != column[:-1] for column in columns])
    return new.nonzero()[0]


def _combo_units(idx: PathIndex, words, keep: Optional[list] = None) -> tuple[list, list]:
    """Each checked keyword's `_pattern_runs`, and for each (root, combination) unit an index into each keyword's
    runs, the units in (root, combination) order. Each candidate root's runs are crossed keyword by keyword (the
    trie walk done root-first), marking each keyword's root runs once over its runs, so no empty unit is formed.
    With `keep`, keyword j crosses only its runs of the pattern ids in keep[j], found by a table of the patterns."""
    runs = [_pattern_runs(idx, word) for word in words]
    crossed = [np.arange(len(run_root)) for run_root, _, _ in runs] if keep is None else []  # the runs each keyword crosses
    for (_, pattern_id, _), ids in zip(runs, keep or []):
        table = np.zeros(len(idx.columns.patterns), bool)
        table[ids] = True
        crossed.append(table[pattern_id].nonzero()[0])
    run_roots = [run_root[cross] for (run_root, _, _), cross in zip(runs, crossed)]
    of_root = [_run_bounds(run_root) for run_root in run_roots]
    roots = [run_root[bound[:-1]] for run_root, bound in zip(run_roots, of_root)]
    # Each unit's root, and its run of each keyword so far; the units start as the candidate roots.
    root, picks = functools.reduce(functools.partial(np.intersect1d, assume_unique=True), roots), []
    for bound, distinct in zip(of_root, roots):  # each unit goes on with each of the next keyword's runs under its root
        unit, run = _ranges(bound, distinct.searchsorted(root))
        root, picks = root[unit], [pick[unit] for pick in picks] + [run]
    return runs, [cross[pick] for cross, pick in zip(crossed, picks)]


def _tree_rows(c, run_start: list, run_size: list, tuples: np.ndarray, stats: dict) -> list:
    """The record ids, one array per keyword, of the rows (path tuples) that form a tree. Unit i's
    tuples[i] rows pick record run_start[j][i] + d[j] for every keyword j, d going through the mixed radix
    run_size[.][i] (the last keyword fastest); units follow each other, and CHUNK_ROWS rows are checked at
    a time, on their step slots. Adds the rows to the counters in `stats`."""
    offsets = np.concatenate(([0], tuples.cumsum()))
    accepted = [[np.zeros(0, np.int64)] * len(run_start)]
    for first in range(0, int(offsets[-1]), CHUNK_ROWS):
        row = np.arange(first, min(first + CHUNK_ROWS, int(offsets[-1])))
        at = offsets.searchsorted(row, "right") - 1
        rest, picks = row - offsets[at], [None] * len(run_start)
        for j in reversed(range(len(run_start))):
            rest, digit = np.divmod(rest, run_size[j][at])
            picks[j] = run_start[j][at] + digit
        tree = np.ones(len(row), bool)
        # `take` gathers the slots in one pass; `slot[:, pick]` is numpy's far slower fancy index.
        picked = [(c.child.take(pick, axis=1), c.key.take(pick, axis=1)) for pick in picks]
        for (child_a, key_a), (child_b, key_b) in itertools.combinations(picked, 2):
            for s, t in itertools.product(range(len(child_a)), range(len(child_b))):
                # Not a tree when both paths reach a node through different (parent, attr) steps.
                tree &= (child_a[s] != child_b[t]) | (key_a[s] == key_b[t])
        accepted.append([pick[tree] for pick in picks])
    rows = accepted[1] if len(accepted) == 2 else [np.concatenate(column) for column in zip(*accepted)]  # 1 chunk: as is
    checked, kept = int(offsets[-1]), len(rows[0])
    stats["path_tuples_checked"] += checked
    stats["subtrees_accepted"] += kept
    stats["tuples_rejected"] += checked - kept
    return rows


# The groups of equal keys of some rows, in key order: each one's first row and row count, each row's group,
# and the rows in key order (each group's in row order), group g's being order[bound[g]:bound[g + 1]].
Groups = namedtuple("Groups", "first_row sizes group order bound")


def _groups(key: np.ndarray) -> Groups:
    """What `np.unique(key, return_index=True, return_inverse=True, return_counts=True)` finds (its values are
    key[first_row]), from one stable argsort; group ids in the narrowest unsigned dtype that holds them."""
    order = key.argsort(kind="stable")
    bound = _run_bounds(key[order])  # the sorted key is dropped here
    sizes = bound[1:] - bound[:-1]
    group = np.empty(len(key), np.min_scalar_type(max(len(sizes) - 1, 0)))
    group[order] = np.arange(len(sizes), dtype=group.dtype).repeat(sizes)
    return Groups(order[bound[:-1]], sizes, group, order, bound)


def _group(c, rows: list) -> Groups:  # the tree patterns of the rows, in tree_sort_key order
    return _groups(_pattern_key(c, (c.pattern_id[record] for record in rows), np.zeros(len(rows[0]), np.int64), 1))


def _pattern_key(c, pattern_ids, key: np.ndarray, bound: int) -> np.ndarray:
    """An int64 key ordered as `key` (below `bound`), then as each array of pattern ids in turn, which follow in
    radix len(c.patterns) (the ids are in canonical order); the key is made dense first whenever it could pass 2^63."""
    radix = len(c.patterns)
    for pattern_id in pattern_ids:
        if bound * radix >= 1 << 63:
            # Made dense, the key is below the row count, which is under 2^31, and the radix is at most
            # 2^32 (pattern ids are at most u4), so the key made from it stays below 2^63.
            dense = _groups(key)
            key, bound = dense.group.astype(np.int64), len(dense.sizes)
        key, bound = key * radix + pattern_id, bound * radix
    return key


def _powers(factor: np.ndarray, exponent: float) -> np.ndarray:
    """`scoring.power(x, exponent)` of each x in `factor`, one call per distinct x
    (`np.power` can differ from `math.pow` in the last bit); pow(x, 1.0) is x."""
    if exponent < 0.0 and not factor.all():
        raise ScoreDomainError(f"zero score factor with negative exponent {exponent}")
    if factor.dtype.kind == "i":  # node counts: their few distinct values by `np.bincount`, not by a sort
        table, present = np.zeros(int(factor.max(initial=0)) + 1), np.bincount(factor).nonzero()[0]
        table[present] = [power(float(x), exponent) for x in present.tolist()]
        return table[factor]
    if exponent == 1.0:
        return factor
    values = _groups(factor)
    return np.array([power(x, exponent) for x in factor[values.first_row].tolist()])[values.group]


def _pattern_scores(c, rows: list, patterns: Groups, config: ScoringConfig) -> np.ndarray:
    """Each pattern's score, with the arithmetic and the checks of `tree_score`
    (factors summed in keyword order, from keyword 0's as 0.0 + x is x, the node count
    as an integer) and `pattern_score` (members summed in row order)."""
    nodes, pr, sim = c.node_off[rows[0] + 1] - c.node_off[rows[0]], c.pr[rows[0]], c.sim[rows[0]]
    for record in rows[1:]:
        nodes += c.node_off[record + 1] - c.node_off[record]
        pr += c.pr[record]
        sim += c.sim[record]
    with np.errstate(over="ignore", invalid="ignore"):  # a product past the float range fails the check below
        score = functools.reduce(np.multiply, map(_powers, (nodes, pr, sim), (config.z1, config.z2, config.z3)))
    require_finite(np.isfinite(score).all(), "tree")
    group, sizes = patterns.group, patterns.sizes
    if config.aggregator == "max":
        scores = np.full(len(sizes), -math.inf)
        np.maximum.at(scores, group, score)
        return scores
    if config.aggregator == "count":
        return sizes.astype(float)
    scores = np.bincount(group, weights=score, minlength=len(sizes))
    require_finite(np.isfinite(scores).all(), "pattern")
    return scores / sizes if config.aggregator == "avg" else scores


def _top(scores: np.ndarray, k: int) -> np.ndarray:
    """`np.argsort(-scores, kind="stable")[:k]`, the k best scores' positions, sorting only
    the scores at or above the k-th, which a partition finds."""
    if k >= len(scores):
        return (-scores).argsort(kind="stable")
    above = (scores >= np.partition(scores, len(scores) - k)[len(scores) - k]).nonzero()[0]
    return above[(-scores[above]).argsort(kind="stable")[:k]]


def _members(c, rows: list) -> list[ValidSubtree]:
    """The `ValidSubtree` of each row, over one `IndexedPath` per distinct record the rows use."""
    ids = np.concatenate(rows)
    used = _groups(ids)
    paths = decode_records(c, ids[used.first_row])
    columns = [list(map(paths.__getitem__, column)) for column in used.group.reshape(len(rows), -1).tolist()]
    return list(map(tuple.__new__, itertools.repeat(ValidSubtree), zip(c.root[rows[0]].tolist(), zip(*columns))))


def _answers(c, rows: list, patterns: Groups, chosen: np.ndarray) -> tuple[list[pat.TreePattern], list[Members]]:
    """The tree pattern and the members of each chosen pattern, in that
    order. The members are `Members` of one `_Batch`, which keeps only the
    chosen patterns' rows and decodes none of them: an engine's time does not
    grow with the members it returns."""
    first_row = patterns.first_row[chosen]
    pattern_ids = [c.pattern_id[record[first_row]] for record in rows]
    keys = list(zip(*(map(c.patterns.__getitem__, ids.tolist()) for ids in pattern_ids)))
    sizes = patterns.sizes[chosen]
    ends = sizes.cumsum()
    at = patterns.order[np.arange(sizes.sum()) + np.repeat(patterns.bound[chosen] + sizes - ends, sizes)]  # answer by answer
    bounds = [0, *ends.tolist()]
    batch = _Batch(c, np.array([record[at] for record in rows]), bounds, pattern_ids, keys)
    return keys, list(map(Members, itertools.repeat(batch), range(len(keys)), bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# Deterministic per-(seed, type) sampling stream
# ---------------------------------------------------------------------------


def _uniform01(seed: int, stream_key: int, n: int) -> np.ndarray:
    """The first n uniform draws of the (seed, stream_key) stream, in [0, 1): draw i is splitmix64(base + i),
    base being splitmix64 of the seed mixed with the key (uint64 arrays wrap without a warning)."""
    z = np.array([(seed ^ stream_key * 0xD1B54A32D192ED03) % 2**64], np.uint64)
    for offset in (0, np.arange(n, dtype=np.uint64)):
        z = z + offset + 0x9E3779B97F4A7C15
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9
        z = (z ^ z >> 27) * 0x94D049BB133111EB
        z = z ^ z >> 31
    return (z >> 11) * 2.0**-53
