import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from kgpattern import (
    Query,
    SamplingConfig,
    build_index,
    run_bench,
    run_precision_sweep,
    search_linear_enum,
    search_linear_topk,
    uniform_pagerank,
)
from kgpattern import bench
from kgpattern.bench import geometric_mean, precision_against_exact, size_bucket
from kgpattern.cli import main
from kgpattern.errors import ParameterError
from kgpattern.fixtures import sample_graph_path

from conftest import graph_from_text, random_instance


def spread_graph(n_patterns=24, per_pattern_roots=3):
    """Many distinct single-member-ish patterns with well-separated scores."""
    lines = []
    idx = 0
    for p in range(n_patterns):
        for r in range(per_pattern_roots):
            lines.append(f"E r{idx} hub{p} hub")
            lines.append(f"E c{idx} leaf{p} alpha filler{p}")
            lines.append(f"A r{idx} rel{p} @c{idx}")
            idx += 1
    return graph_from_text("\n".join(lines) + "\n")


def test_geometric_mean():
    assert geometric_mean([1, 10, 100]) == pytest.approx(10.0)
    assert geometric_mean([]) == 0.0


def test_size_bucket():
    assert size_bucket(0) == 0
    assert size_bucket(1) == 10
    assert size_bucket(9) == 10
    assert size_bucket(10) == 100
    assert size_bucket(99) == 100
    assert size_bucket(100) == 1000
    for k in range(1, 20):  # float log10 put 10^k - 1 one bucket high from k = 15 on
        assert size_bucket(10**k - 1) == 10**k
        assert size_bucket(10**k) == 10 ** (k + 1)


def test_precision_helper():
    class SP:
        def __init__(self, tag):
            self.pattern = ((tag,),)

    exact = [SP(1), SP(2), SP(3)]
    assert precision_against_exact(exact, [SP(1), SP(9), SP(3)], 3) == pytest.approx(2 / 3)
    assert precision_against_exact(exact, exact, 5) == 1.0  # denominator min(k, |exact|)
    assert precision_against_exact([], [SP(1)], 5) == 1.0


def test_exact_sweep_point_is_perfect(sample_graph, sample_index):
    queries = [Query(("database", "software"), 5), Query(("company", "revenue"), 5)]
    report = run_precision_sweep(
        sample_graph, sample_index, queries, thresholds=[math.inf], rates=[1.0], k=5, seeds=range(3)
    )
    assert report.precisions
    assert all(p.precision == 1.0 for p in report.precisions)


def test_precision_trends_up_with_rate():
    g = spread_graph()
    idx = build_index(g, uniform_pagerank(g), 2)
    q = Query(("alpha",), 5)
    exact = search_linear_topk(g, idx, q).patterns
    seeds = range(40)

    def mean_precision(rate):
        total = 0.0
        for seed in seeds:
            approx = search_linear_topk(g, idx, q, SamplingConfig(0, rate, seed)).patterns
            total += precision_against_exact(exact, approx, 5)
        return total / len(seeds)

    low, mid, high = mean_precision(0.2), mean_precision(0.6), mean_precision(1.0)
    assert high == 1.0
    assert mid >= low - 0.02
    assert high >= mid - 0.02


def test_run_bench_structure(sample_graph, sample_index):
    queries = [Query(("database", "software"), 5), Query(("company",), 5)]
    report = run_bench(sample_graph, sample_index, queries)
    assert len(report.timings) == len(queries) * 4
    for t in report.timings:
        assert t.seconds >= 0
        assert t.subtree_bucket == size_bucket(t.subtree_total)
    assert report.by_subtrees and report.by_patterns
    doc = report.to_json_dict()
    assert set(doc) == {"timings", "bucket_summaries", "precisions"}
    rows = report.to_csv_rows()
    assert rows[0][0] == "kind" and len(rows) == 1 + len(report.timings)


def test_report_deterministic_except_wall_clock(sample_graph, sample_index):
    queries = [Query(("database", "software"), 5)]
    docs = []
    for _ in range(2):
        doc = run_bench(sample_graph, sample_index, queries).to_json_dict()
        for t in doc["timings"]:
            t["seconds"] = None
        for group in doc["bucket_summaries"].values():
            for b in group:
                b["min_seconds"] = b["geomean_seconds"] = b["max_seconds"] = None
        docs.append(doc)
    assert docs[0] == docs[1]


def test_unknown_engine_is_rejected_before_sizing(sample_graph, sample_index, monkeypatch):
    def no_sizing(*args):
        raise AssertionError("queries were sized before the engine names were checked")

    monkeypatch.setattr(bench, "_query_size", no_sizing)
    with pytest.raises(ParameterError, match="foo"):
        run_bench(sample_graph, sample_index, [Query(("database",), 5)], algorithms=("linear-topk", "foo"))


BENCH_QUERIES = ["database software", "company revenue", "database", "software company revenue", "nothing here"]


@pytest.mark.parametrize("case", [None, 0, 1, 2, 3, 4])
def test_query_sizes_are_those_of_the_full_enumeration(sample_graph, sample_index, case, monkeypatch):
    """Read from the counters of one exact linear-topk call at k = 1."""
    if case is None:
        graph, idx, queries = sample_graph, sample_index, [Query.from_text(q) for q in BENCH_QUERIES]
    else:
        graph, depth, words = random_instance(case)
        idx, queries = build_index(graph, uniform_pagerank(graph), depth), [Query(words)]
    asked = []
    monkeypatch.setattr(bench, "search_linear_topk", lambda g, i, q: asked.append(q.k) or search_linear_topk(g, i, q))
    for query in queries:
        pairs = search_linear_enum(graph, idx, query)
        assert bench._query_size(graph, idx, query) == (sum(len(members) for _, members in pairs), len(pairs))
    assert asked == [1] * len(queries)


def test_bench_json_is_unchanged(tmp_path, capsys, monkeypatch):
    """With a clock that ticks 0.5 s a call, `kgpattern bench --format json`
    on the sample graph prints `data/software_kb-bench.json`, the report of
    the KGPX v9 tree, which sized each query by decoding its enumeration."""
    index, queries = tmp_path / "sample.kgpx", tmp_path / "queries.txt"
    assert main(["build", "--graph", str(sample_graph_path()), "--index", str(index), "--d", "3"]) == 0
    queries.write_text("\n".join(BENCH_QUERIES) + "\n", encoding="utf-8")
    monkeypatch.setattr(bench, "time", SimpleNamespace(monotonic=itertools.count(0, 0.5).__next__))
    capsys.readouterr()
    assert main(["bench", "--graph", str(sample_graph_path()), "--index", str(index), "--queries", str(queries),
                 "--format", "json"]) == 0
    expected = (Path(__file__).resolve().parent / "data" / "software_kb-bench.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
