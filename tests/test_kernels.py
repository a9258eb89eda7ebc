import itertools

import pytest

from kgpattern import assemble_subtree, build_index, compute_pagerank, kernels

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


@pytest.mark.parametrize("case", [0, 3, 6])
def test_kernel_matches_assemble(case):
    """The kernel must accept exactly the tuples assemble_subtree accepts."""
    g, depth, words = random_instance(case)
    idx = build_index(g, compute_pagerank(g), depth)
    roots = set.intersection(*(set(idx.roots(w)) for w in words)) if words else set()
    for root in sorted(roots):
        pattern_lists = [idx.patterns(w, root=root) for w in words]
        for combo in itertools.product(*pattern_lists):
            rec_lists = [idx.paths(words[i], pattern=combo[i], root=root) for i in range(len(words))]
            blocks = [idx.block(words[i], root, combo[i]) for i in range(len(words))]
            rows = set(kernels.join_tree_tuples(blocks))
            expected = set()
            for choice in itertools.product(*(range(len(rl)) for rl in rec_lists)):
                tup = tuple(rec_lists[i][choice[i]] for i in range(len(words)))
                if assemble_subtree(root, tup) is not None:
                    expected.add(choice)
            assert rows == expected
