"""Brute-force ground truth for small graphs.

Enumerates tree patterns and their valid subtrees directly from the graph:
no path index, no shared expansion kernel. Per root it collects, with its own
DFS, every simple path of bounded node count that reaches each keyword, walks
the full cross product with itertools, and validates tree-ness structurally
(edge count, unique in-edges, reachability from the root). Intended for
differential tests against the engines; cost is exponential, keep graphs to a
few dozen nodes.
"""
from __future__ import annotations

import itertools
from collections import deque

from .errors import ParameterError
from .graph import TEXT_TYPE_ID, KnowledgeGraph

# A raw path is (nodes, attrs, edge_match); a member is (root, tuple_of_raw_paths).


def _paths_reaching(graph: KnowledgeGraph, root: int, word: str, depth: int):
    """All simple paths from root with <= depth nodes whose terminal node or
    terminal edge contains `word`."""
    found = []

    def walk(nodes, attrs, visited):
        tip = nodes[-1]
        if word in graph.entity_token_set[tip] or word in graph.type_token_set[graph.entity_type[tip]]:
            found.append((tuple(nodes), tuple(attrs), False))
        if len(nodes) >= depth:
            return
        for attr_id, target in graph.adjacency[tip]:
            if target in visited:
                continue
            if word in graph.attr_token_set[attr_id]:
                found.append((tuple(nodes) + (target,), tuple(attrs) + (attr_id,), True))
            walk(nodes + [target], attrs + [attr_id], visited | {target})

    walk([root], [], {root})
    return found


def _is_tree(root: int, raw_paths) -> bool:
    nodes = {root}
    edges = set()
    for path_nodes, path_attrs, _ in raw_paths:
        nodes.update(path_nodes)
        for i in range(1, len(path_nodes)):
            edges.add((path_nodes[i - 1], path_attrs[i - 1], path_nodes[i]))
    if len(edges) != len(nodes) - 1:
        return False
    incoming = {}
    children = {}
    for src, attr_id, dst in edges:
        if dst in incoming:
            return False
        incoming[dst] = (src, attr_id)
        children.setdefault(src, []).append(dst)
    seen = {root}
    frontier = deque([root])
    while frontier:
        for child in children.get(frontier.popleft(), []):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen == nodes


def _pattern_of(graph: KnowledgeGraph, raw_path):
    path_nodes, path_attrs, edge_match = raw_path
    if edge_match:
        listed = path_nodes[:-1]
        inner = path_attrs[:-1]
        tail = (path_attrs[-1],)
    else:
        listed = path_nodes
        inner = path_attrs
        tail = ()
    seq = [graph.entity_type[listed[0]]]
    for attr_id, node in zip(inner, listed[1:]):
        seq.append(attr_id)
        seq.append(graph.entity_type[node])
    return tuple(seq) + tail


def enumerate_patterns_exhaustive(
    graph: KnowledgeGraph, keywords, depth: int
) -> dict[tuple, list]:
    """Mapping tree pattern -> sorted list of members (root, raw path tuple)."""
    if depth < 1:
        raise ParameterError(f"depth must be >= 1, got {depth}")
    keywords = list(keywords)
    results: dict[tuple, list] = {}
    for root in range(graph.n_entities):
        if graph.entity_type[root] == TEXT_TYPE_ID:
            continue
        per_keyword = [_paths_reaching(graph, root, w, depth) for w in keywords]
        if any(not paths for paths in per_keyword):
            continue
        for combo in itertools.product(*per_keyword):
            if not _is_tree(root, combo):
                continue
            tree_pattern = tuple(_pattern_of(graph, rp) for rp in combo)
            results.setdefault(tree_pattern, []).append((root, combo))
    for members in results.values():
        members.sort()
    return results


def count_patterns_exhaustive(graph: KnowledgeGraph, keywords, depth: int) -> int:
    """Number of distinct tree patterns (the quantity that is hard to count)."""
    return len(enumerate_patterns_exhaustive(graph, keywords, depth))
