import itertools

import numpy as np
import pytest

from kgpattern import assemble_subtree, build_index, compute_pagerank, kernels, pathindex, search

from conftest import random_instance


def test_empty_keyword_short_circuits():
    assert kernels.join_tree_tuples([([], [], [], [0])]) == []


def test_single_node_paths_always_join():
    b = ([], [], [], [0, 0])
    assert kernels.join_tree_tuples([b, b, b]) == [(0, 0, 0)]


def test_conflict_rejected():
    via_a = ([5, 9], [0, 5], [1, 2], [0, 2])
    via_b = ([6, 9], [0, 6], [1, 2], [0, 2])
    assert kernels.join_tree_tuples([via_a, via_b]) == []
    assert kernels.join_tree_tuples([via_a, via_a]) == [(0, 0)]


def test_lexicographic_order():
    b = ([], [], [], [0, 0, 0])  # two empty paths per keyword
    rows = kernels.join_tree_tuples([b, b])
    assert rows == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize(
    "case, key_dtype",
    [pytest.param(case, np.uint32, id=str(case)) for case in (0, 3, 6)]
    + [pytest.param(case, np.uint64, id=f"{case}-u8") for case in (0, 3, 6)],
)
def test_kernel_matches_assemble(case, key_dtype, monkeypatch):
    """The kernel, and the array join of the engines, must accept exactly the
    tuples assemble_subtree accepts. The array join runs every (root, pattern
    combination) unit at once, on u4 key slots and on u8 ones, which an index
    holds when its keys could pass 2^32 - 1."""
    g, depth, words = random_instance(case)
    monkeypatch.setattr(pathindex, "slot_layout", lambda lengths, *_: (int(lengths.max(initial=0)) // 2, key_dtype))
    idx = build_index(g, compute_pagerank(g), depth)
    assert idx.columns.key.dtype == key_dtype and len(idx.columns.key) > 0
    roots = set.intersection(*(set(idx.roots(w)) for w in words))
    expected, kernel, units = set(), set(), []
    for root in sorted(roots):
        pattern_lists = [idx.patterns(w, root=root) for w in words]
        for combo in itertools.product(*pattern_lists):
            rec_lists = [idx.paths(words[i], pattern=combo[i], root=root) for i in range(len(words))]
            blocks = [idx.block(words[i], root, combo[i]) for i in range(len(words))]
            kernel |= {(root, combo, row) for row in kernels.join_tree_tuples(blocks)}
            for choice in itertools.product(*(range(len(rl)) for rl in rec_lists)):
                tup = tuple(rec_lists[i][choice[i]] for i in range(len(words)))
                if assemble_subtree(root, tup) is not None:
                    expected.add((root, combo, choice))
            runs = [idx._records(w, p, root) for w, p in zip(words, combo)]
            units.append([(run[0], len(run)) for run in runs])
    run_start, run_size = np.array(units, np.int64).reshape(len(units), len(words), 2).transpose(2, 1, 0)
    rows = search._tree_rows(idx.columns, run_start, run_size, run_size.prod(0), search._new_stats())
    joined = set()
    for record_ids in zip(*(r.tolist() for r in rows)):
        root = int(idx.columns.root[record_ids[0]])
        combo = tuple(idx.columns.patterns[idx.columns.pattern_id[r]] for r in record_ids)
        choice = tuple(r - idx._records(w, p, root)[0] for r, w, p in zip(record_ids, words, combo))
        joined.add((root, combo, choice))
    assert kernel == expected == joined
