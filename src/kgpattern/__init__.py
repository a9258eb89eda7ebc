"""kgpattern: keyword search over knowledge graphs, ranking tree patterns
(aggregations of keyword-matching subtrees with shared structure and types)
and rendering each as a table answer."""

from .bench import BenchReport, rank_enumeration, run_bench, run_precision_sweep
from .errors import (
    GraphLinkError,
    GraphParseError,
    IndexCorruptError,
    IndexFormatError,
    KgPatternError,
    ParameterError,
    ScoreDomainError,
    TableConsistencyError,
)
from .generator import GenConfig, generate_graph
from .graph import KnowledgeGraph, jaccard_similarity, load_graph, tokenize
from .indexio import deserialize, read_index, serialize, write_index
from .oracle import count_patterns_exhaustive, enumerate_patterns_exhaustive
from .pagerank import PageRankVector, compute_pagerank, uniform_pagerank
from .pathindex import IndexedPath, PathIndex, build_index
from .scoring import ScoringConfig, estimate_pattern_score, pattern_score, tree_score
from .search import (
    Query,
    SamplingConfig,
    ScoredPattern,
    SearchResult,
    ValidSubtree,
    assemble_subtree,
    rank,
    search_baseline,
    search_linear_enum,
    search_linear_topk,
    search_pattern_enum,
)
from .tables import TableAnswer, render_table

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "GenConfig",
    "GraphLinkError",
    "GraphParseError",
    "IndexCorruptError",
    "IndexFormatError",
    "IndexedPath",
    "KgPatternError",
    "KnowledgeGraph",
    "PageRankVector",
    "ParameterError",
    "PathIndex",
    "Query",
    "SamplingConfig",
    "ScoreDomainError",
    "ScoredPattern",
    "ScoringConfig",
    "SearchResult",
    "TableAnswer",
    "TableConsistencyError",
    "ValidSubtree",
    "assemble_subtree",
    "build_index",
    "compute_pagerank",
    "count_patterns_exhaustive",
    "deserialize",
    "enumerate_patterns_exhaustive",
    "estimate_pattern_score",
    "generate_graph",
    "jaccard_similarity",
    "load_graph",
    "pattern_score",
    "rank",
    "rank_enumeration",
    "read_index",
    "render_table",
    "run_bench",
    "run_precision_sweep",
    "search_baseline",
    "search_linear_enum",
    "search_linear_topk",
    "search_pattern_enum",
    "serialize",
    "tokenize",
    "tree_score",
    "uniform_pagerank",
    "write_index",
]
