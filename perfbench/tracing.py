"""In-memory spans around the public calls of each kgpattern layer.

The tracer wraps module attributes and `PathIndex` methods at runtime, so
the program's source stays untouched. A span records its name, start, end,
parent span and op id; spans stay in memory until the run ends. Self time is
a span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import math
import time
from array import array
from collections import Counter

from kgpattern import indexio, kernels, pagerank, pathindex, search, tables
from kgpattern import graph as graph_mod

# (owner, attribute, span name) for every traced call on the query path.
TRACED_CALLS = (
    (graph_mod, "load_graph", "graph.load_graph"),
    (pagerank, "compute_pagerank", "pagerank.compute_pagerank"),
    (pathindex, "build_index", "pathindex.build_index"),
    (pathindex.PathIndex, "patterns", "pathindex.patterns"),
    (pathindex.PathIndex, "roots", "pathindex.roots"),
    (pathindex.PathIndex, "paths", "pathindex.paths"),
    (pathindex.PathIndex, "block", "pathindex.block"),
    (indexio, "serialize", "indexio.serialize"),
    (indexio, "deserialize", "indexio.deserialize"),
    (indexio, "read_index", "indexio.read_index"),
    (indexio, "write_index", "indexio.write_index"),
    (search, "search_baseline", "search.baseline"),
    (search, "search_pattern_enum", "search.pattern-enum"),
    (search, "search_linear_enum", "search.linear"),
    (search, "search_linear_topk", "search.linear-topk"),
    (kernels, "join_tree_tuples", "kernels.join_tree_tuples"),
    (tables, "render_table", "tables.render_table"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counters: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(index)

        return traced

    def _wrap_kernel(self, fn):
        @functools.wraps(fn)
        def traced(blocks):
            index = self.begin("kernels.join_tree_tuples")
            try:
                rows = fn(blocks)
            finally:
                self.finish(index)
            self.counters["kernels.combos"] += math.prod(len(b[3]) - 1 for b in blocks)
            self.counters["kernels.rows"] += len(rows)
            return rows

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in TRACED_CALLS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if name == "kernels.join_tree_tuples":
                setattr(owner, attr, self._wrap_kernel(original))
            else:
                setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- summaries --------------------------------------------------------

    def durations(self, traced_pass_only: bool = False) -> dict[str, list[int]]:
        """Inclusive durations in ns by span name, of every span or only of
        the traced pass (spans of ops numbered 0 and up)."""
        out: dict[str, list[int]] = {name: [] for name in self.names}
        for nid, s, e, op in zip(self.name_id, self.start, self.end, self.op):
            if op >= 0 or not traced_pass_only:
                out[self.names[nid]].append(e - s)
        return out

    def pass_totals(self) -> tuple[Counter, Counter, Counter]:
        """(calls, inclusive ns, self ns) per span name over the traced pass."""
        child = array("q", bytes(8 * len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for i, nid in enumerate(self.name_id):
            if self.op[i] >= 0:
                name = self.names[nid]
                duration = self.end[i] - self.start[i]
                calls[name] += 1
                total[name] += duration
                own[name] += duration - child[i]
        return calls, total, own
