import numpy as np
import pytest

from kgpattern import compute_pagerank

from conftest import graph_from_text, random_instance


def test_two_isolated_nodes():
    g = graph_from_text("E a T x\nE b T y\n")
    pr = compute_pagerank(g)
    assert pr.scores == pytest.approx([0.075, 0.075], abs=1e-12)


def test_two_node_cycle():
    g = graph_from_text("E a T x\nE b T y\nA a r @b\nA b r @a\n")
    pr = compute_pagerank(g)
    assert pr.scores == pytest.approx([0.5, 0.5], abs=1e-8)


def test_three_node_chain_matches_hand_iteration():
    g = graph_from_text("E u T x\nE v T y\nE w T z\nA u r @v\nA v r @w\n")
    got = compute_pagerank(g).scores

    # Independent oracle: ten update steps written out by hand.
    a, n = 0.85, 3
    pr = {"u": 1 / n, "v": 1 / n, "w": 1 / n}
    for _ in range(10):
        pr = {
            "u": (1 - a) / n,
            "v": (1 - a) / n + a * pr["u"] / 1,
            "w": (1 - a) / n + a * pr["v"] / 1,
        }
    assert got == pytest.approx([pr["u"], pr["v"], pr["w"]], abs=1e-8)


def test_empty_graph():
    g = graph_from_text("")
    assert len(compute_pagerank(g).scores) == 0


def test_deterministic():
    g, _, _ = random_instance(3)
    s1 = compute_pagerank(g).scores
    s2 = compute_pagerank(g).scores
    assert np.array_equal(s1, s2)


@pytest.mark.parametrize("case", range(8))
def test_bounds_and_fixed_point(case):
    g, _, _ = random_instance(case)
    pr = compute_pagerank(g)
    n = g.n_entities
    floor = (1 - pr.damping) / n
    assert np.all(pr.scores >= floor - 1e-15)
    assert np.all(pr.scores <= 1.0)

    # One more update step must move nothing by tolerance or more.
    src = np.array([e[0] for e in g.edges], dtype=np.int64) if g.edges else np.zeros(0, dtype=np.int64)
    dst = np.array([e[2] for e in g.edges], dtype=np.int64) if g.edges else np.zeros(0, dtype=np.int64)
    outdeg = np.bincount(src, minlength=n).astype(float)
    contrib = np.bincount(dst, weights=pr.scores[src] / outdeg[src], minlength=n) if len(src) else np.zeros(n)
    nxt = floor + pr.damping * contrib
    assert np.max(np.abs(nxt - pr.scores)) < pr.tolerance


def reference_pagerank(g, damping=0.85, tolerance=1e-8):
    """The power iteration over `g.edges` in (target, source, attr) order, as
    `compute_pagerank` ran it before it read the graph's edge arrays."""
    n = g.n_entities
    edges = np.array(g.edges, np.int64).reshape(-1, 3)
    src, _, dst = edges[np.lexsort(edges.T[[1, 0, 2]])].T
    out_degree = np.bincount(src, minlength=n).astype(np.float64)
    pr = np.full(n, 1.0 / n)
    while True:
        nxt = (1.0 - damping) / n + damping * np.bincount(dst, weights=pr[src] / out_degree[src], minlength=n)
        delta, pr = np.max(np.abs(nxt - pr)), nxt
        if delta < tolerance:
            return pr


@pytest.mark.parametrize("case", range(8))
def test_scores_equal_the_edge_list_iteration_bit_for_bit(case):
    g, _, _ = random_instance(case)
    assert compute_pagerank(g).scores.tobytes() == reference_pagerank(g).tobytes()
