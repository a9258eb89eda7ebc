"""Self-tests of the benchmark: seeded inputs, repeatable traced counters,
and failure accounting. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import time

import pytest

import harness
import inputs
import run
import speed
from kgpattern import generate_graph, search

SMALL_SHAPES = {name: (4, 80, shape[2], shape[3]) for name, shape in inputs.GRAPH_SHAPES.items()}
SMALL_POOLS = {name: (4, 2) for name in inputs.POOL_SIZES}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(inputs, "GRAPH_SHAPES", SMALL_SHAPES)
    monkeypatch.setattr(inputs, "POOL_SIZES", SMALL_POOLS)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    ops = inputs.op_list(workload, 7)
    assert ops == inputs.op_list(workload, 7)
    other = inputs.op_list(workload, 8)
    assert ops != other
    # another seed runs the same ops in another order
    key = lambda op: (op.kind, op.graph, op.keywords, op.k, op.engine, op.sampling_seed)
    assert sorted(map(key, ops)) == sorted(map(key, other))
    n = inputs.graphs_per_run(workload)
    graphs = [generate_graph(inputs.gen_config(workload, j)) for j in range(n)]
    assert graphs == [generate_graph(inputs.gen_config(workload, j)) for j in range(n)]
    assert len(set(graphs)) == n


def test_query_mix_is_two_to_one_distinct_words():
    pool = inputs.query_pool(20, 10)
    assert sorted(len(q) for q in pool) == [2] * 20 + [3] * 10
    assert all(len(set(q)) == len(q) for q in pool)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_cycle_has_a_hundred_query_ops(workload):
    """query_p90_ms is taken over the cycle's distinct query ops: ten must lie beyond it."""
    assert sum(op.kind == "query" for op in inputs.op_list(workload, 1)) >= 100


def test_partial_last_cycle_weighs_each_op_once():
    op = inputs.op_list("topk-exact", 1)
    results = [harness.OpResult(op[0], 0.010, "ok"), harness.OpResult(op[1], 0.030, "ok"),
               harness.OpResult(op[0], 0.012, "ok")]
    assert run.per_op_ms(results, "query") == pytest.approx([11.0, 30.0])


def test_speed_scaling_cancels_a_uniform_slowdown():
    raw = [0.010, 0.020, 0.030]
    at_reference = speed.scaled_series(raw, [speed.PROBE_REFERENCE_MS] * 3)
    twice_as_slow = speed.scaled_series([2 * x for x in raw], [2 * speed.PROBE_REFERENCE_MS] * 3)
    assert at_reference == pytest.approx(raw)
    assert twice_as_slow == pytest.approx(raw)


def test_sampled_ops_cycle_k_and_derive_seeds():
    ops = inputs.op_list("topk-sampled", 5)
    assert [op.k for op in ops[:6]] == [1, 10, 100, 1, 10, 100]
    assert len({op.sampling_seed for op in ops}) == len(ops)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_counters_repeat_exactly(small, workload, tmp_path):
    first = run.measure(workload, 3, seconds=0, trace=True, workdir=tmp_path / "a")
    second = run.measure(workload, 3, seconds=0, trace=True, workdir=tmp_path / "b")
    assert not [r for r in first.warmup + first.measured if r.outcome != "ok"]
    counters = {
        name for name, m in first.metrics.items()
        if m["unit"] in ("count", "bytes") or name in ("search.accept_ratio", "search.empty_combo_ratio")
    }
    assert "kernels.calls" in counters and "search.tuples_checked" in counters
    assert first.metrics["kernels.calls"]["value"] > 0
    for name in counters:
        assert first.metrics[name]["value"] == second.metrics[name]["value"], name


def _prepared(workload, tmp_path, deadline_s=harness.DEADLINE_S):
    ops = inputs.op_list(workload, 4)
    w = harness.Workload(workload, tmp_path, deadline_s=deadline_s)
    w.setup()
    w.prepare_references(ops)
    return w, ops


def _failed(w, ops):
    return [r for r in (w.execute(op) for op in ops) if r.outcome != "ok"]


def _single_use_op(ops):
    """A query op whose (graph, keywords) no other op of the cycle shares."""
    uses = {}
    for op in ops:
        uses[(op.graph, op.keywords)] = uses.get((op.graph, op.keywords), 0) + 1
    return next(op for op in ops if uses[(op.graph, op.keywords)] == 1)


def test_injected_wrong_answer_fails_exactly_one_op(small, tmp_path):
    w, ops = _prepared("topk-exact", tmp_path)
    assert _failed(w, ops) == []
    target = _single_use_op(ops)
    ref = w.reference_for(target)
    assert ref.exact, "the tampered query needs a non-empty answer"
    ref.exact = ref.exact[:-1]
    failed = _failed(w, ops)
    assert [(r.op, r.outcome) for r in failed] == [(target, "wrong")]


def test_injected_deadline_miss_fails_exactly_one_op(small, tmp_path, monkeypatch):
    w, ops = _prepared("topk-exact", tmp_path, deadline_s=0.5)
    target = _single_use_op(ops)
    original = search.search_linear_topk

    def slow_for_one_query(graph, idx, query, *args, **kwargs):
        if graph is w.parts[target.graph].graph and query.keywords == target.keywords:
            time.sleep(5)
        return original(graph, idx, query, *args, **kwargs)

    monkeypatch.setattr(search, "search_linear_topk", slow_for_one_query)
    started = time.perf_counter()
    failed = _failed(w, ops)
    assert [(r.op, r.outcome) for r in failed] == [(target, "deadline")]
    assert time.perf_counter() - started < 5, "the deadline must stop the op"
