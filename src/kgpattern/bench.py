"""Benchmark and precision harness.

Times each engine per query, buckets queries by the total number of valid
subtrees and by the number of tree patterns, as exact linear-topk with no
bound on k counts them (bucket 10^3 holds queries with 100-999), and
summarizes each bucket with min / geometric mean / max wall time. The
precision sweep reruns the sampling engine over a grid of (threshold, rate)
and seeds and reports the fraction of the exact top-k it recovered. Reports
are deterministic except for the wall-clock fields.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from . import patterns as pat
from .errors import ParameterError
from .scoring import DEFAULT_CONFIG, ScoringConfig
from .search import (
    EXACT_SAMPLING,
    Query,
    SamplingConfig,
    ScoredPattern,
    rank,
    search_baseline,
    search_linear_topk,
    search_pattern_enum,
)

def geometric_mean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def size_bucket(n: int) -> int:
    """Power-of-10 group label: 1-9 -> 10, 10-99 -> 100, ...; 0 -> 0."""
    return 10 ** len(str(n)) if n >= 1 else 0  # the digit count is exact for every int; float log10 is not


@dataclass
class QueryTiming:
    query: str
    algorithm: str
    seconds: float
    subtree_total: int
    pattern_total: int

    @property
    def subtree_bucket(self) -> int:
        return size_bucket(self.subtree_total)

    @property
    def pattern_bucket(self) -> int:
        return size_bucket(self.pattern_total)


@dataclass
class BucketSummary:
    algorithm: str
    bucket: int
    count: int
    min_seconds: float
    geomean_seconds: float
    max_seconds: float


@dataclass
class PrecisionRecord:
    query: str
    threshold: float
    rate: float
    seed: int
    precision: float


@dataclass
class BenchReport:
    timings: list[QueryTiming] = field(default_factory=list)
    by_subtrees: list[BucketSummary] = field(default_factory=list)
    by_patterns: list[BucketSummary] = field(default_factory=list)
    precisions: list[PrecisionRecord] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "timings": [vars(t) | {"subtree_bucket": t.subtree_bucket, "pattern_bucket": t.pattern_bucket} for t in self.timings],
            "bucket_summaries": {
                "by_subtrees": [vars(b) for b in self.by_subtrees],
                "by_patterns": [vars(b) for b in self.by_patterns],
            },
            "precisions": [
                vars(p) | {"threshold": "inf" if math.isinf(p.threshold) else p.threshold}
                for p in self.precisions
            ],
        }

    def to_csv_rows(self) -> list[list]:
        rows = [["kind", "query", "algorithm", "seconds", "subtrees", "patterns", "threshold", "rate", "seed", "precision"]]
        for t in self.timings:
            rows.append(["timing", t.query, t.algorithm, f"{t.seconds:.6f}", t.subtree_total, t.pattern_total, "", "", "", ""])
        for p in self.precisions:
            rows.append(["precision", p.query, "linear-topk", "", "", "", p.threshold, p.rate, p.seed, f"{p.precision:.4f}"])
        return rows


def rank_enumeration(pairs, scoring: ScoringConfig = DEFAULT_CONFIG) -> list[ScoredPattern]:
    """Score and fully rank a (pattern, members) enumeration result."""
    return rank(ScoredPattern.from_members(p, members, scoring) for p, members in pairs)


def _linear(g, idx, q, scoring, sampling) -> list[ScoredPattern]:
    """The top k of the ranked linear enumeration: exact linear-topk ranks the
    same patterns with the same scores and members, and like the ranking it
    estimates nothing."""
    ranked = search_linear_topk(g, idx, q, EXACT_SAMPLING, scoring).patterns
    for sp in ranked:
        sp.estimated_score = None
    return ranked


# Engine name -> fn(graph, idx, query, scoring, sampling) returning the ranked top k.
ENGINES = {
    "baseline": lambda g, idx, q, scoring, sampling: search_baseline(g, idx, q, scoring).patterns,
    "pattern-enum": lambda g, idx, q, scoring, sampling: search_pattern_enum(g, idx, q, scoring).patterns,
    "linear": _linear,
    "linear-topk": lambda g, idx, q, scoring, sampling: search_linear_topk(g, idx, q, sampling, scoring).patterns,
}


def check_engines(names) -> None:
    """ParameterError unless every name is a key of ENGINES."""
    unknown = [n for n in names if n not in ENGINES]
    if unknown:
        raise ParameterError(f"unknown engine {', '.join(unknown)}; choose from {', '.join(ENGINES)}")


def _query_size(graph, idx, query) -> tuple[int, int]:
    """The subtree and tree-pattern counts of the query's full enumeration,
    read from the counters of exact linear-topk at k = 1, whose join finds
    every pattern; only the best one is made an answer."""
    stats = search_linear_topk(graph, idx, Query(query.keywords, 1)).stats
    return stats["subtrees_accepted"], stats["patterns_found"]


def _summaries(timings: list[QueryTiming], bucket_of) -> list[BucketSummary]:
    groups: dict[tuple[str, int], list[float]] = {}
    for t in timings:
        groups.setdefault((t.algorithm, bucket_of(t)), []).append(t.seconds)
    out = []
    for (algorithm, bucket) in sorted(groups):
        times = groups[(algorithm, bucket)]
        out.append(
            BucketSummary(algorithm, bucket, len(times), min(times), geometric_mean(times), max(times))
        )
    return out


def run_bench(
    graph,
    idx,
    queries: list[Query],
    algorithms=tuple(ENGINES),
    sampling: SamplingConfig = SamplingConfig(),
) -> BenchReport:
    check_engines(algorithms)
    report = BenchReport()
    for query in queries:
        n_subtrees, n_patterns = _query_size(graph, idx, query)
        for algorithm in algorithms:
            started = time.monotonic()
            ENGINES[algorithm](graph, idx, query, DEFAULT_CONFIG, sampling)
            elapsed = time.monotonic() - started
            report.timings.append(
                QueryTiming(" ".join(query.keywords), algorithm, elapsed, n_subtrees, n_patterns)
            )
    report.by_subtrees = _summaries(report.timings, lambda t: t.subtree_bucket)
    report.by_patterns = _summaries(report.timings, lambda t: t.pattern_bucket)
    return report


def precision_against_exact(exact_patterns, approx_patterns, k: int) -> float:
    """Fraction of the exact top-k the approximate run recovered.

    The denominator is min(k, |exact|) so an exact rerun always scores 1.0
    even when fewer than k patterns exist; empty exact answers score 1.0.
    """
    exact_keys = [pat.tree_sort_key(sp.pattern) for sp in exact_patterns[:k]]
    if not exact_keys:
        return 1.0
    approx_keys = {pat.tree_sort_key(sp.pattern) for sp in approx_patterns[:k]}
    hits = sum(1 for key in exact_keys if key in approx_keys)
    return hits / len(exact_keys)


def run_precision_sweep(
    graph,
    idx,
    queries: list[Query],
    thresholds,
    rates,
    k: int,
    seeds=(0,),
) -> BenchReport:
    report = BenchReport()
    for query in queries:
        query = Query(query.keywords, k)
        exact = search_linear_topk(graph, idx, query, SamplingConfig()).patterns
        for threshold in thresholds:
            for rate in rates:
                for seed in seeds:
                    approx = search_linear_topk(graph, idx, query, SamplingConfig(threshold, rate, seed)).patterns
                    report.precisions.append(
                        PrecisionRecord(
                            " ".join(query.keywords),
                            threshold,
                            rate,
                            seed,
                            precision_against_exact(exact, approx, k),
                        )
                    )
    return report
