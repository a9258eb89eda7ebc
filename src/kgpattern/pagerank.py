"""PageRank over the knowledge graph by power iteration.

Every score starts at 1/n; each iteration applies

    PR(v) <- (1 - a)/n + a * sum over in-edges (u, v) of PR(u)/outdeg(u)

and the loop stops once no score moves by `tolerance` or more, or after
MAX_ITERATIONS iterations. The damping
`a` must lie in [0, 1) and `tolerance` be finite and >= 0 (ParameterError
otherwise). There is no dangling-mass redistribution, so scores need not sum
to 1; every converged score lies in [(1 - a)/n, 1], so it is positive. Edge contributions are accumulated in a fixed
(target, source, attr) order, so results are bit-identical run to run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import KnowledgeGraph

MAX_ITERATIONS = 10_000  # power iterations before giving up on `tolerance`


@dataclass
class PageRankVector:
    scores: np.ndarray  # float64, one score per entity id
    damping: float
    tolerance: float


def compute_pagerank(
    graph: KnowledgeGraph,
    damping: float = 0.85,
    tolerance: float = 1e-8,
) -> PageRankVector:
    if not 0.0 <= damping < 1.0:
        raise ParameterError(f"damping must be in [0, 1), got {damping}")
    if not 0.0 <= tolerance < math.inf:
        raise ParameterError(f"tolerance must be finite and >= 0, got {tolerance}")
    n = graph.n_entities
    if n == 0:
        return PageRankVector(np.zeros(0), damping, tolerance)

    offsets, rows = graph.edge_arrays
    attr, dst = rows.T
    src = np.repeat(np.arange(n), np.diff(offsets))
    order = np.lexsort((attr, src, dst))  # in (target, source, attr) order
    src, dst = src[order], dst[order]
    out_degree = np.bincount(src, minlength=n).astype(np.float64)

    base = (1.0 - damping) / n
    pr = np.full(n, 1.0 / n)
    for _ in range(MAX_ITERATIONS):
        nxt = base + damping * np.bincount(dst, weights=pr[src] / out_degree[src], minlength=n)
        delta = np.max(np.abs(nxt - pr))
        pr = nxt
        if delta < tolerance:
            break
    return PageRankVector(pr, damping, tolerance)


def uniform_pagerank(graph: KnowledgeGraph, value: float = 1.0) -> PageRankVector:
    """Constant stub vector; handy for tests that want importance factored out."""
    return PageRankVector(np.full(graph.n_entities, value), 0.0, 0.0)
