"""Render a tree pattern and its subtrees as a table answer.

One row per subtree. Columns are the union over keywords of the per-path
pattern prefixes, left to right in keyword order and then by depth, with
identical prefixes merged once (two keywords routed through the same typed
step share one column). Cells hold entity display texts; literal nodes render
their raw text. In the rare case where one merged column is fed by several
keywords binding different nodes of the same subtree, the distinct texts are
joined with "; " so nothing is lost.

Column names: the type name for typed-node columns, the attribute name for
literal-valued and edge-ending columns, and the full dotted path when two
distinct columns would otherwise collide on the same name.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from . import patterns as pat
from .errors import TableConsistencyError
from .graph import TEXT_TYPE_ID, KnowledgeGraph


@dataclass
class TableAnswer:
    columns: list[tuple[tuple, str]]  # (pattern-prefix key, display name)
    rows: list[list[str]]

    @property
    def column_names(self) -> list[str]:
        return [name for _, name in self.columns]

    def to_text(self) -> str:
        names = self.column_names
        widths = [len(n) for n in names]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            " | ".join(n.ljust(widths[i]) for i, n in enumerate(names)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in self.rows:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.column_names)
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {"columns": self.column_names, "rows": self.rows}


def _columns(tree_pattern) -> dict[tuple, list[tuple[int, int]]]:
    """Column key -> the (keyword position, node position) pairs feeding that
    column, with the keys in column order (left to right)."""
    feeders: dict[tuple, list[tuple[int, int]]] = {}
    for kw_pos, path_pattern in enumerate(tree_pattern):
        edge_ending = pat.is_edge_ending(path_pattern)
        n_listed = len(path_pattern) // 2 + (0 if edge_ending else 1)
        for depth in range(n_listed):
            feeders.setdefault(path_pattern[: 2 * depth + 1], []).append((kw_pos, depth))
        if edge_ending:  # the edge's own column shows its target node
            feeders.setdefault(path_pattern, []).append((kw_pos, len(path_pattern) // 2))
    return feeders


def _display_name(graph: KnowledgeGraph, key: tuple) -> str:
    if len(key) % 2 == 0:  # edge-ending column: named after the attribute
        return graph.attr_names[key[-1]]
    type_id = key[-1]
    if type_id == TEXT_TYPE_ID and len(key) > 1:
        return graph.attr_names[key[-2]]  # literal column: attribute carries the name
    return graph.type_names[type_id]


def render_table(graph: KnowledgeGraph, tree_pattern, subtrees) -> TableAnswer:
    """Build the table answer for `tree_pattern` from its member subtrees."""
    for subtree in subtrees:
        if subtree.tree_pattern() != tuple(tree_pattern):
            raise TableConsistencyError(f"subtree rooted at {subtree.root} does not match the pattern")

    feeders = _columns(tree_pattern)
    keys = list(feeders)
    names = [_display_name(graph, key) for key in keys]
    if len(set(names)) < len(names):  # columns that share a name are named by their paths
        names = [pat.pattern_names(graph, key) if names.count(name) > 1 else name for key, name in zip(keys, names)]

    text, columns, rows = graph.entity_text, list(feeders.values()), []
    for subtree in subtrees:
        paths, row = subtree.paths, []
        for col_feeders in columns:
            if len(col_feeders) == 1:  # one feeder: its text is the cell
                kw_pos, node_pos = col_feeders[0]
                row.append(text[paths[kw_pos].nodes[node_pos]])
                continue
            values: list[str] = []
            for kw_pos, node_pos in col_feeders:
                cell = text[paths[kw_pos].nodes[node_pos]]
                if cell not in values:
                    values.append(cell)
            row.append("; ".join(values))
        rows.append(row)
    return TableAnswer(list(zip(keys, names)), rows)
