"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import functools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kgpattern import (
    GenConfig,
    Query,
    SamplingConfig,
    build_index,
    compute_pagerank,
    deserialize,
    enumerate_patterns_exhaustive,
    estimate_pattern_score,
    generate_graph,
    search_baseline,
    search_linear_enum,
    search_linear_topk,
    search_pattern_enum,
    serialize,
    uniform_pagerank,
)
from kgpattern import patterns as pat
from kgpattern.cli import main as cli_main
from kgpattern.fixtures import load_sample_graph, sample_graph_path

from conftest import graph_from_text, random_instance

SRC = str(Path(__file__).resolve().parent.parent / "src")


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} {title}: FAIL", flush=True)
                raise
            print(f"\nACCEPTANCE {num} {title}: PASS", flush=True)

        return run

    return wrap


@pytest.fixture(scope="module")
def corpus():
    """100 seeded random instances (graph, index, keywords), d in {2,3}, m in 1..4."""
    instances = []
    for case in range(100):
        graph, depth, words = random_instance(case)
        assert graph.n_entities <= 50
        idx = build_index(graph, compute_pagerank(graph), depth)
        instances.append((graph, idx, words))
    return instances


@criterion(1, "worked-example fidelity")
def test_c1_worked_example():
    started = time.monotonic()
    graph = load_sample_graph()
    idx = build_index(graph, uniform_pagerank(graph), 3)

    res = search_baseline(graph, idx, Query(("database", "software", "company", "revenue"), k=20))
    by_names = {
        tuple(pat.pattern_names(graph, p) for p in sp.pattern): sp for sp in res.patterns
    }
    p1 = by_names[
        (
            "Software.Genre.TEXT",
            "Software",
            "Software.Developer.Company",
            "Software.Developer.Company.Revenue",
        )
    ]
    p2 = by_names[
        ("Book", "Book", "Book.Publisher.Company", "Book.Publisher.Company.Revenue")
    ]
    t1 = next(m for m in p1.subtrees if graph.entity_keys[m.root] == "sql_server")
    (t3,) = p2.subtrees

    assert abs(sum(p.node_count for p in t1.paths) - 8) <= 1e-12
    assert abs(sum(p.node_count for p in t3.paths) - 7) <= 1e-12
    assert abs(sum(p.sim_term for p in t1.paths) - 3.5) <= 1e-12
    assert abs(sum(p.sim_term for p in t3.paths) - 7 / 3) <= 1e-12
    assert p1.score > p2.score

    database_patterns = idx.patterns("database")
    assert len(database_patterns) == 3
    roots = [graph.entity_keys[r] for r in idx.roots("database")]
    assert roots == ["sql_server", "oracle_db", "db_book"]
    (ref_book,) = [
        p
        for p in database_patterns
        if pat.pattern_names(graph, p) == "Software.Reference.Book"
    ]
    assert [graph.entity_keys[r] for r in idx.roots("database", pattern=ref_book)] == ["sql_server"]

    assert time.monotonic() - started < 1.0


@criterion(2, "oracle equivalence on 100 random graphs")
def test_c2_oracle_equivalence(corpus):
    started = time.monotonic()
    for graph, idx, words in corpus:
        pairs = search_linear_enum(graph, idx, Query(words, k=1))
        engine = {
            p: sorted(
                (m.root, tuple((x.nodes, x.attrs, pat.is_edge_ending(x.pattern)) for x in m.paths))
                for m in members
            )
            for p, members in pairs
        }
        oracle = {
            p: sorted((root, tuple((n, a, e) for n, a, e in combo)) for root, combo in members)
            for p, members in enumerate_patterns_exhaustive(graph, words, idx.depth).items()
        }
        assert engine == oracle
    assert time.monotonic() - started < 60.0


@criterion(3, "engine agreement at k in {1, 5, 100}")
def test_c3_engine_agreement(corpus):
    for graph, idx, words in corpus:
        for k in (1, 5, 100):
            query = Query(words, k=k)
            runs = [
                search_baseline(graph, idx, query).patterns,
                search_pattern_enum(graph, idx, query).patterns,
                search_linear_topk(graph, idx, query, SamplingConfig(math.inf, 1.0, 0)).patterns,
            ]
            reference = runs[0]
            for other in runs[1:]:
                assert [sp.pattern for sp in other] == [sp.pattern for sp in reference]
                for a, b in zip(reference, other):
                    assert abs(a.score - b.score) <= 1e-9 * max(abs(a.score), abs(b.score), 1e-300)


def two_pattern_instance():
    """60 same-type roots; pattern one holds 40 members, pattern two 20, all
    members scoring 0.5 under unit PageRank. Relative score gap is 1/3. The
    keyword lives on literal values so only the two 2-node patterns exist."""
    lines = []
    for i in range(40):
        lines.append(f"E ra{i} hub anchor")
        lines.append(f'A ra{i} rel_a "alpha"')
    for i in range(20):
        lines.append(f"E rb{i} hub anchor")
        lines.append(f'A rb{i} rel_b "alpha"')
    graph = graph_from_text("\n".join(lines) + "\n")
    idx = build_index(graph, uniform_pagerank(graph), 2)
    hub = graph.type_names.index("hub")
    text = graph.type_names.index("TEXT")
    rel_a = graph.attr_names.index("rel_a")
    rel_b = graph.attr_names.index("rel_b")
    p1 = ((hub, rel_a, text),)
    p2 = ((hub, rel_b, text),)
    return graph, idx, p1, p2


@criterion(4, "sampling misordering bound")
def test_c4_misordering_bound():
    started = time.monotonic()
    graph, idx, p1, p2 = two_pattern_instance()
    query = Query(("alpha",), k=1)

    exact = search_linear_topk(graph, idx, query).patterns
    s1, s2 = 20.0, 10.0
    assert exact[0].pattern == p1 and exact[0].score == pytest.approx(s1, abs=1e-12)
    gap = (s1 - s2) / (s1 + s2)

    n_seeds = 2000
    for rho in (0.1, 0.3, 0.5):
        bound = math.exp(-2.0 * gap * gap * rho * rho)
        errors = 0
        for seed in range(n_seeds):
            got = search_linear_topk(
                graph, idx, query, SamplingConfig(threshold=0, rate=rho, seed=seed)
            ).patterns
            if got and got[0].pattern == p2:
                errors += 1
        rate = errors / n_seeds
        sigma = math.sqrt(bound * (1.0 - bound) / n_seeds)
        assert rate <= bound + 3.0 * sigma, (rho, rate, bound)
    assert time.monotonic() - started < 120.0


@criterion(5, "estimator unbiasedness over 10000 samples")
def test_c5_estimator_unbiasedness():
    member_scores = [0.5] * 40
    exact = sum(member_scores)
    rho = 0.3
    rng = np.random.default_rng(2024)
    estimates = []
    for _ in range(10_000):
        keep = rng.random(len(member_scores)) < rho
        estimates.append(estimate_pattern_score([s for s, k in zip(member_scores, keep) if k], rho))
    mean = statistics.fmean(estimates)
    stderr = statistics.stdev(estimates) / math.sqrt(len(estimates))
    assert abs(mean - exact) <= 3.0 * stderr, (mean, exact, stderr)


@criterion(5, "linear-topk's sampled estimates are unbiased and its winners re-scored exactly")
def test_c5_linear_topk_estimates_are_unbiased():
    text = generate_graph(GenConfig(entities=30, types=3, attr_types=4, avg_out_degree=2.0, vocab=6, seed=1))
    graph = graph_from_text(text)
    idx = build_index(graph, compute_pagerank(graph), 2)
    query = Query(("w0", "w1"), k=10_000)  # more than the patterns: every sampled pattern is returned
    exact = {sp.pattern: sp.score for sp in search_linear_topk(graph, idx, query).patterns}
    assert len(exact) > 50
    estimates = {p: [] for p in exact}
    seeds = 300
    for seed in range(seeds):
        found = search_linear_topk(graph, idx, query, SamplingConfig(0.0, 0.5, seed)).patterns
        assert len(found) < len(exact)  # rho = 0.5 leaves some pattern unsampled
        by_pattern = {sp.pattern: sp for sp in found}
        for p, values in estimates.items():
            sp = by_pattern.get(p)
            if sp is not None:
                assert sp.score == exact[p]
            values.append(0.0 if sp is None else sp.estimated_score)
    for p, values in estimates.items():
        stderr = statistics.stdev(values) / math.sqrt(seeds)
        assert abs(statistics.fmean(values) - exact[p]) <= 4.0 * stderr, (p, exact[p], statistics.fmean(values))


@criterion(6, "by-pattern and by-root reads agree and index round-trips")
def test_c6_layouts_and_roundtrip(corpus):
    graph = load_sample_graph()
    idx = build_index(graph, uniform_pagerank(graph), 3)
    for check_idx in [idx] + [corpus[i][1] for i in range(0, 20, 4)]:
        for word in check_idx.vocabulary():
            records = check_idx.paths(word)
            by_pattern = [rec for p in check_idx.patterns(word) for rec in check_idx.paths(word, pattern=p)]
            by_root = [rec for r in check_idx.roots(word) for rec in check_idx.paths(word, root=r)]
            assert by_pattern == records
            assert sorted(by_root, key=lambda r: r.sort_key()) == records

    again = deserialize(serialize(idx))
    assert again.depth == idx.depth
    for word in idx.vocabulary():
        assert idx.paths(word) == again.paths(word)
        assert idx.patterns(word) == again.patterns(word)
        assert idx.roots(word) == again.roots(word)

    assert again.patterns("database") == idx.patterns("database")
    assert again.roots("database") == idx.roots("database")
    for p in idx.patterns("database"):
        assert again.roots("database", pattern=p) == idx.roots("database", pattern=p)
        for r in idx.roots("database", pattern=p):
            assert again.paths("database", pattern=p, root=r) == idx.paths(
                "database", pattern=p, root=r
            )
    q = Query(("database", "software", "company", "revenue"), k=5)
    before = search_linear_topk(graph, idx, q).patterns
    after = search_linear_topk(graph, again, q).patterns
    assert [(sp.score, sp.pattern) for sp in before] == [(sp.score, sp.pattern) for sp in after]


@criterion(7, "index cost grows with d and stays under the size bound")
def test_c7_index_cost_trend():
    from kgpattern import GenConfig, generate_graph

    graph = graph_from_text(generate_graph(GenConfig(entities=60, avg_out_degree=2.2, seed=13)))
    pr = compute_pagerank(graph)
    measurements = {}
    entry_sets = {}
    for depth in (1, 2, 3):
        idx = build_index(graph, pr, depth)
        measurements[depth] = (
            idx.stats.entry_count,
            len(serialize(idx)),
            idx.stats.cost_proxy,
        )
        entry_sets[depth] = {
            (w, r.nodes, r.attrs, r.pattern, r.sim_term)
            for w in idx.vocabulary()
            for r in idx.paths(w)
        }

    for depth in (1, 2):
        e1, b1, p1 = measurements[depth]
        e2, b2, p2 = measurements[depth + 1]
        assert e1 < e2 and b1 < b2 and p1 < p2
        assert entry_sets[depth] <= entry_sets[depth + 1]

    entries1, bytes1, proxy1 = measurements[1]
    c_entries = 1.5 * entries1 / proxy1
    c_bytes = 1.5 * bytes1 / proxy1
    for depth in (2, 3):
        entries, nbytes, proxy = measurements[depth]
        assert entries <= c_entries * proxy, (depth, entries, c_entries * proxy)
        assert nbytes <= c_bytes * proxy, (depth, nbytes, c_bytes * proxy)


def k_insensitive_instance():
    """One root type, 100 roots, 10 alpha- and 10 beta-children each: exactly
    10^4 valid subtrees, none rejected."""
    lines = []
    for i in range(100):
        lines.append(f"E r{i} hub anchor")
        for j in range(10):
            lines.append(f"E a{i}_{j} kindA{(i + j) % 7} alpha")
            lines.append(f"A r{i} relA @a{i}_{j}")
            lines.append(f"E b{i}_{j} kindB{(i + j) % 11} beta")
            lines.append(f"A r{i} relB @b{i}_{j}")
    return graph_from_text("\n".join(lines) + "\n")


@criterion(8, "top-k wall time insensitive to k")
def test_c8_k_insensitivity():
    import gc

    graph = k_insensitive_instance()
    idx = build_index(graph, uniform_pagerank(graph), 2)
    sizing = search_linear_topk(graph, idx, Query(("alpha", "beta"), k=1))
    assert sizing.stats["subtrees_accepted"] >= 10_000

    ks = (1, 10, 100)
    best = {k: math.inf for k in ks}
    counters = ("candidate_roots", "roots_expanded", "path_tuples_checked", "subtrees_accepted", "tuples_rejected")
    work = {}
    for k in ks:  # warm-up: the pattern table makes each tuple on its first read
        stats = search_linear_topk(graph, idx, Query(("alpha", "beta"), k=k)).stats
        work[k] = {name: stats[name] for name in counters}
    # The deterministic half of the criterion: exact top-k does the same work
    # whatever k is.
    assert work[1] == work[10] == work[100], work
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(13):  # interleaved rounds remove drift and load bias
            for k in ks:
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                search_linear_topk(graph, idx, Query(("alpha", "beta"), k=k))
                elapsed = time.perf_counter() - t0
                gc.enable()
                best[k] = min(best[k], elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()
    spread = (max(best.values()) - min(best.values())) / min(best.values())
    assert spread < 0.20, best


@criterion(9, "byte-identical JSON across runs")
def test_c9_determinism(tmp_path):
    index_path = tmp_path / "sample.kgpx"
    assert cli_main(["build", "--graph", str(sample_graph_path()), "--index", str(index_path), "--d", "3"]) == 0

    def run(tag):
        out = tmp_path / f"{tag}.json"
        env = dict(os.environ, PYTHONPATH=SRC)
        cmd = [
            sys.executable, "-m", "kgpattern.cli", "query",
            "--graph", str(sample_graph_path()), "--index", str(index_path),
            "--q", "database software company revenue", "--k", "5",
            "--algo", "linear-topk", "--lambda", "2", "--rho", "0.5", "--seed", "11",
            "--format", "json", "--out", str(out),
        ]
        res = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return out.read_bytes()

    first = run("a")
    assert first == run("b") == run("c") == run("d")
    json.loads(first)
