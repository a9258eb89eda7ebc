"""Path-pattern and tree-pattern representations.

A path pattern is the type signature of a root-to-match path: an interleaved
tuple of ids starting with an entity-type id and alternating attribute / entity
type ids. Odd-length tuples end on a node type (the keyword matched a node);
even-length tuples end on an attribute type (the keyword matched an edge; the
edge's target type is not part of the pattern).

A tree pattern is a tuple of path patterns, one per query keyword position,
all sharing the leading (root) type.

Canonical ordering everywhere is length-lexicographic: shorter patterns first,
ties broken by the id sequence.
"""
from __future__ import annotations

PathPattern = tuple  # tuple[int, ...]
TreePattern = tuple  # tuple[PathPattern, ...]


def is_edge_ending(pattern: PathPattern) -> bool:
    return len(pattern) % 2 == 0


def node_count(pattern: PathPattern) -> int:
    """Number of graph nodes a path with this pattern covers.

    Edge-ending paths also cover the matched edge's target node, so they count
    one more node than the pattern lists types for.
    """
    return len(pattern) // 2 + 1


def sort_key(pattern: PathPattern):
    return (len(pattern), pattern)


def tree_sort_key(tree_pattern: TreePattern):
    return tuple(sort_key(p) for p in tree_pattern)


def path_pattern_of(graph, nodes, attrs, edge_match: bool) -> PathPattern:
    """Reconstruct the pattern of a concrete path from the graph's types."""
    seq = [graph.entity_type[nodes[0]]]
    for a, v in zip(attrs, nodes[1:]):
        seq += a, graph.entity_type[v]
    return tuple(seq[:-1] if edge_match else seq)


def pattern_names(graph, pattern: PathPattern) -> str:
    """Dotted human-readable form, e.g. ``Software.Genre.TEXT``."""
    parts = []
    for i, el in enumerate(pattern):
        parts.append(graph.type_names[el] if i % 2 == 0 else graph.attr_names[el])
    return ".".join(parts)


def tree_pattern_names(graph, tree_pattern: TreePattern) -> list[str]:
    return [pattern_names(graph, p) for p in tree_pattern]
