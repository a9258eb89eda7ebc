"""Scalar tuple-join reference.

Given one candidate root and one per-keyword choice of path lists,
``join_tree_tuples`` walks the cross product of those lists and keeps the
tuples whose path union forms a rooted tree. It is the scalar reference for
the engines' array join (``search._tree_rows``), which the tests check
against it; no engine calls it. Each keyword's paths arrive as a *block*::

    (child, parent, attr, offsets)

four flat int lists; path j of the block owns the triple slice
``offsets[j]:offsets[j+1]``, one ``(child, parent, attr)`` triple per non-root
node of the path (``PathIndex.block`` makes one for a (word, pattern, root)).
A tuple is rejected exactly when some node would receive two different
(parent, attr) assignments, i.e. when the union is not a tree.

Rows come back as ``list[tuple[int, ...]]`` of per-keyword path indices, in
lexicographic order (last keyword varies fastest). Scoring never happens here.
"""
from __future__ import annotations

Block = tuple  # (child: list[int], parent: list[int], attr: list[int], offsets: list[int])


def join_tree_tuples(blocks: list[Block]) -> list[tuple[int, ...]]:
    """Per-keyword path-index tuples whose path union is a tree rooted at the
    blocks' shared root."""
    m = len(blocks)
    counts = []
    for _, _, _, offsets in blocks:
        n = len(offsets) - 1
        if n <= 0:
            return []
        counts.append(n)

    parent_of: dict[int, tuple[int, int]] = {}
    chosen = [0] * m
    out: list[tuple[int, ...]] = []

    def descend(level: int) -> None:
        if level == m:
            out.append(tuple(chosen))
            return
        child, parent, attr, offsets = blocks[level]
        for j in range(counts[level]):
            added = []
            ok = True
            for t in range(offsets[j], offsets[j + 1]):
                c = child[t]
                pa = (parent[t], attr[t])
                cur = parent_of.get(c)
                if cur is None:
                    parent_of[c] = pa
                    added.append(c)
                elif cur != pa:
                    ok = False
                    break
            if ok:
                chosen[level] = j
                descend(level + 1)
            for c in added:
                del parent_of[c]

    descend(0)
    return out


def backend_name() -> str:
    """Always ``"py"``: the kernel has one implementation. Kept because run
    records of the benchmark harness label themselves with it."""
    return "py"
