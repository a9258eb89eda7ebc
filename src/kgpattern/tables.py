"""Render a tree pattern and its subtrees as a table answer.

One row per subtree. Columns are the union over keywords of the per-path
pattern prefixes, left to right in keyword order and then by depth, with
identical prefixes merged once (two keywords routed through the same typed
step share one column). Cells hold entity display texts; literal nodes render
their raw text. Where one merged column is fed by several keywords binding
different nodes of the same subtree, the distinct texts are joined with "; "
so nothing is lost. Every path of a subtree starts at its root, so the root's
column is read once.

One core (`_table`) lays out the columns and fills each from the texts of its
(keyword, node position). Two feeders give it those: member objects, each checked
against the pattern and its root (`TableConsistencyError`), and an engine's
answer's `search.Members`, read from its batch's rows with no member object made:
one gather of a (keyword, node position)'s nodes over the batch, mapped to their
texts, of which each answer's are a slice; the rows are checked array at a time.

Column names: the type name for typed-node columns, the attribute name for
literal-valued and edge-ending columns, and the full dotted path when two
distinct columns would otherwise collide on the same name.

A table's layout depends on its tree pattern alone, and each path pattern's
part of it on that path pattern alone. So the graph memoizes
(`KnowledgeGraph.table_layout`), for its life, each path pattern's columns
with their display and dotted names, made from its prefix's; a table only
merges its paths' columns. Nothing is keyed by query, tree pattern or answer.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import patterns as pat
from .errors import TableConsistencyError
from .graph import TEXT_TYPE_ID, KnowledgeGraph
from .search import Members


@dataclass
class TableAnswer:
    columns: list[tuple[tuple, str]]  # (pattern-prefix key, display name)
    rows: list[list[str]]

    @property
    def column_names(self) -> list[str]:
        return [name for _, name in self.columns]

    def to_text(self) -> str:
        names = self.column_names
        widths = [max(map(len, column)) for column in zip(names, *self.rows)]
        lines = [" | ".join(map(str.ljust, row, widths)) for row in (names, *self.rows)]
        lines.insert(1, "-+-".join("-" * w for w in widths))
        return "\n".join(lines)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows([self.column_names, *self.rows])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {"columns": self.column_names, "rows": self.rows}


def _path_columns(graph: KnowledgeGraph, layout: dict, pattern: pat.PathPattern) -> list[tuple[tuple, int, str, str]]:
    """The (column key, node position, display name, dotted name) of each node of a
    path of this pattern, root first, memoized in `layout` with its prefixes': node
    d is keyed by the pattern's prefix up to its type (an edge match's target by the
    whole pattern), and its dotted name extends node d - 1's."""
    n = len(pattern)
    prefix = pattern[: n - 1 - n % 2]  # the columns before this pattern's last node, none for the root's
    columns = (layout.get(prefix) or _path_columns(graph, layout, prefix)) if prefix else []
    if n % 2 == 0:  # an edge-ending column is named after its attribute
        name = graph.attr_names[pattern[-1]]
        dotted = f"{columns[-1][3]}.{name}"
    else:
        name = graph.type_names[pattern[-1]]
        dotted = f"{columns[-1][3]}.{graph.attr_names[pattern[-2]]}.{name}" if prefix else name
        if pattern[-1] == TEXT_TYPE_ID and prefix:  # a literal column is named after its attribute
            name = graph.attr_names[pattern[-2]]
    columns = layout[pattern] = [*columns, (pattern, n // 2, name, dotted)]
    return columns


def render_table(graph: KnowledgeGraph, tree_pattern, subtrees) -> TableAnswer:
    """Build the table answer for `tree_pattern` from its member subtrees: an engine's
    answer's `Members`, read from its batch's rows, or member objects, each checked."""
    tree_pattern = tuple(tree_pattern)
    if isinstance(subtrees, Members):
        return _table(graph, tree_pattern, _batch_cells(graph, tree_pattern, subtrees), subtrees.start, subtrees.stop)
    for root, paths in subtrees:
        if len(paths) != len(tree_pattern):
            raise TableConsistencyError(f"subtree rooted at {root} does not match the pattern")
        for pattern, path in zip(tree_pattern, paths):
            if path.pattern != pattern or path.nodes[0] != root:
                raise TableConsistencyError(f"subtree rooted at {root} does not match the pattern or its root")
    # Each member's texts, row by row, then one transpose; the members' root column is keyword 0's.
    text, feeds = graph.entity_text, [(kw, p) for kw, pattern in enumerate(tree_pattern) for p in range(kw > 0, pat.node_count(pattern))]
    columns = list(zip(*[[text[paths[kw].nodes[p]] for kw, p in feeds] for _, paths in subtrees])) or [()] * len(feeds)
    return _table(graph, tree_pattern, dict(zip(feeds, columns)), 0, None)


def _batch_cells(graph: KnowledgeGraph, tree_pattern: tuple, members: Members) -> dict:
    """The texts of an engine's answer's whole batch, made once per batch and graph; each row's records must lie
    under keyword 0's and be of its answer's pattern per keyword (`pattern_ids`), which is `tree_pattern`."""
    batch = members.batch
    if batch.texts is None or batch.texts[0] is not graph:
        c, rows, ids = batch.columns, batch.rows, np.array(batch.pattern_ids)
        if not ((c.root[rows] == c.root[rows[0]]).all() and (c.pattern_id[rows] == ids.repeat(np.diff(batch.bounds), 1)).all()):
            raise TableConsistencyError("a member row does not match its answer's pattern or its root")
        # Each row's nodes up to its keyword's longest pattern's last: a row of a shorter pattern reads another record's
        # node there, which no answer reads. The rows share their root, so keyword 0's root column is every keyword's.
        widths = (c.patterns.lengths[ids].max(1) // 2 + 1).tolist()
        nodes = c.nodes.take(c.node_off[rows][..., None] + np.arange(max(widths)), mode="clip").transpose(0, 2, 1).tolist()
        text = graph.entity_text
        feeds = [(kw, p) for kw, width in enumerate(widths) for p in range(kw > 0, width)]
        batch.texts = graph, {(kw, p): list(map(text.__getitem__, nodes[kw][p])) for kw, p in feeds}
    if tree_pattern != batch.keys[members.answer]:
        raise TableConsistencyError("the members are of another tree pattern")
    return batch.texts[1]


def _table(graph: KnowledgeGraph, tree_pattern: tuple, cells: dict, start: int, stop: int | None) -> TableAnswer:
    """The table of `tree_pattern` whose rows' texts of keyword kw's node p are cells[kw, p][start:stop]."""
    # Column j is keyed by the key `index` maps to j, named names[j] (dotted[j] on a collision) and fed
    # by feeds[j], a (keyword position, node position), and by shared[j] too when several keywords feed it.
    layout = graph.table_layout
    index, feeds, names, dotted, shared = {}, [], [], [], {}
    for kw_pos, pattern in enumerate(tree_pattern):
        for key, node_pos, name, path_name in layout.get(pattern) or _path_columns(graph, layout, pattern):
            j = index.get(key)
            if j is None:
                index[key] = len(feeds)
                feeds.append((kw_pos, node_pos))
                names.append(name)
                dotted.append(path_name)
            elif node_pos:  # the root's column is read once
                shared.setdefault(j, []).append((kw_pos, node_pos))
    if len(set(names)) < len(names):  # columns that share a name are named by their paths
        names = [path_name if names.count(name) > 1 else name for name, path_name in zip(names, dotted)]

    columns = [cells[feed][start:stop] for feed in feeds]
    for j, more in shared.items():  # a column fed by several keywords joins their distinct texts, feed by feed
        fed = [columns[j]]
        for feed in more:
            texts = cells[feed][start:stop]
            columns[j] = [joined if text in seen else f"{joined}; {text}" for joined, text, seen in zip(columns[j], texts, zip(*fed))]
            fed.append(texts)
    return TableAnswer(list(zip(index, names)), list(map(list, zip(*columns))))
