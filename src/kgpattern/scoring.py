"""Relevance scores for valid subtrees and tree patterns.

A subtree's score multiplies three factors, each a sum of per-keyword-path
terms precomputed in the index:

    score(T) = (sum node_count)^z1 * (sum pr_term)^z2 * (sum sim_term)^z3

with default exponents z1 = -1, z2 = z3 = 1: smaller trees, more important
nodes and closer text matches all rank higher. A pattern's score aggregates
its member subtree scores; the default aggregator is the plain sum, which is
also the only aggregator the sampling estimator supports: scaling the sum of
a Bernoulli(rate) sample of members by 1/rate yields an unbiased estimate.

All factors are structurally positive on indexed paths (node counts >= 1,
PageRank >= (1-a)/n, similarity > 0 by containment), but a zero factor under a
negative exponent raises ScoreDomainError as a guard. So does a tree or pattern
score that large exponents (say z1 = 1000) take past the float range; `search`
shares `power` and `require_finite`, so every engine agrees.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParameterError, ScoreDomainError

AGGREGATORS = ("sum", "avg", "max", "count")


@dataclass(frozen=True)
class ScoringConfig:
    z1: float = -1.0
    z2: float = 1.0
    z3: float = 1.0
    aggregator: str = "sum"

    def __post_init__(self):
        for name in ("z1", "z2", "z3"):
            z = getattr(self, name)
            if isinstance(z, bool) or not isinstance(z, numbers.Real) or not math.isfinite(z):
                raise ParameterError(f"exponent {name} must be a finite number, got {z!r}")
        if self.aggregator not in AGGREGATORS:
            raise ParameterError(f"aggregator must be one of {AGGREGATORS}, got {self.aggregator!r}")


DEFAULT_CONFIG = ScoringConfig()


def tree_score(paths: Iterable, config: ScoringConfig = DEFAULT_CONFIG) -> float:
    """Score one valid subtree from its per-keyword paths (one per keyword,
    all sharing a root)."""
    s1 = 0.0
    s2 = 0.0
    s3 = 0.0
    for p in paths:
        s1 += p.node_count
        s2 += p.pr_term
        s3 += p.sim_term
    for factor, exponent in ((s1, config.z1), (s2, config.z2), (s3, config.z3)):
        if factor == 0.0 and exponent < 0.0:
            raise ScoreDomainError(f"zero score factor with negative exponent {exponent}")
    score = power(s1, config.z1) * power(s2, config.z2) * power(s3, config.z3)
    require_finite(math.isfinite(score), "tree")
    return score


def power(x: float, exponent: float) -> float:
    """`math.pow(x, exponent)`, or inf where that is past the float range."""
    try:
        return math.pow(x, exponent)
    except OverflowError:
        return math.inf


def require_finite(ok, what: str) -> None:
    """Raise ScoreDomainError unless `ok`, that is unless every `what` score is finite."""
    if not ok:
        raise ScoreDomainError(f"a {what} score is not finite: the exponents take it past the float range")


def pattern_score(member_scores: Sequence[float], config: ScoringConfig = DEFAULT_CONFIG) -> float:
    """Aggregate member subtree scores into the pattern's score."""
    if not member_scores:
        raise ParameterError("pattern_score needs at least one member score")
    if config.aggregator == "max":
        return max(member_scores)
    if config.aggregator == "count":
        return float(len(member_scores))
    total = _running_sum(member_scores)
    require_finite(math.isfinite(total), "pattern")
    return total / len(member_scores) if config.aggregator == "avg" else total


def estimate_pattern_score(sample_scores: Sequence[float], rate: float) -> float:
    """Unbiased sum-score estimate from a Bernoulli(rate) sample of members."""
    if not 0.0 < rate <= 1.0:
        raise ParameterError(f"sampling rate must be in (0, 1], got {rate}")
    return _running_sum(sample_scores) / rate


def _running_sum(values: Sequence[float]) -> float:
    total = 0.0
    for v in values:
        total += v
    return total
