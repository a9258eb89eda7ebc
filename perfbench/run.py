#!/usr/bin/env python3
"""kgpattern benchmark: one seeded workload per process, one closed-loop client.

    python3 perfbench/run.py --workload topk-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs from the root of a source checkout and imports kgpattern from `src/`.
Prints every metric by name, unit and sample count, writes one JSON record
per run under `perfbench/runs/`, and prints as its last line a JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
reports the end-to-end metrics, measured with tracing off; `--trace 1` runs
a fixed op list once untraced and once traced and reports the per-layer
metrics. See perfbench/README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program():
    if not (SRC / "kgpattern" / "__init__.py").is_file():
        sys.exit(f"error: no kgpattern sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _percentile(values, q: int) -> float:
    """q-th percentile (inclusive method); the single value for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def _git_commit() -> str:
    """Commit of the checkout, read from .git without calling git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _bucket_summaries(results, references_of) -> list[dict]:
    """The paper's min / geomean / max latency by subtree-count bucket."""
    from kgpattern.bench import geometric_mean, size_bucket

    groups: dict[tuple, list[float]] = {}
    for r in results:
        if r.op.kind == "query" and r.outcome == "ok":
            bucket = size_bucket(references_of(r.op).subtree_total)
            groups.setdefault((r.op.engine, bucket), []).append(r.seconds * 1e3)
    return [
        {
            "engine": engine,
            "subtree_bucket": bucket,
            "n": len(times),
            "min_ms": min(times),
            "geomean_ms": geometric_mean(times),
            "max_ms": max(times),
        }
        for (engine, bucket), times in sorted(groups.items())
    ]


def closed_loop(workload, ops, seconds: float) -> list:
    """Repeat the op cycle, one op at a time, until `seconds` have passed and
    at least one whole cycle is done."""
    results = []
    started = time.perf_counter()
    while len(results) < len(ops) or time.perf_counter() - started < seconds:
        results.append(workload.execute(ops[len(results) % len(ops)]))
    return results


def per_op_ms(results, kind: str, seconds=None) -> list[float]:
    """Median latency in ms of each distinct op of the cycle of one kind, so
    that the ops a last partial cycle repeated weigh no more than the rest.
    `seconds` gives each result's time, by default its raw `seconds`."""
    if seconds is None:
        seconds = [r.seconds for r in results]
    by_op: dict[int, list[float]] = {}
    for r, t in zip(results, seconds):
        if r.op.kind == kind:
            by_op.setdefault(r.op.number, []).append(t * 1e3)
    return [statistics.median(v) for v in by_op.values()]


def end_to_end_metrics(parts, results, scaled: bool = True) -> dict:
    """The end-to-end metrics, with every time scaled to the reference speed
    of the speed probe, or raw with `scaled=False`."""
    if scaled:
        seconds = speed.scaled_series([r.seconds for r in results], [r.probe_ms for r in results])
        part_probes = [p.probe_ms for p in parts]
        setups = speed.scaled_series([p.setup_seconds for p in parts], part_probes)
        set_up_builds = speed.scaled_series([p.build_seconds for p in parts], part_probes)
    else:
        seconds = [r.seconds for r in results]
        setups = [p.setup_seconds for p in parts]
        set_up_builds = [p.build_seconds for p in parts]
    queries = per_op_ms(results, "query", seconds)
    build_ops = per_op_ms(results, "build", seconds)  # cli-cold only
    # without build ops, the build part of each graph's set-up
    builds = build_ops or [b * 1e3 for b in set_up_builds]
    cycle = queries + build_ops
    ok_share = sum(1 for r in results if r.outcome == "ok") / len(results)
    index_sizes = [p.index_size for p in parts]
    precision = {r.op.number: r.precision for r in results if r.precision is not None}
    return {
        "setup_s": _metric(statistics.median(setups), "s", len(parts)),
        "query_p50_ms": _metric(_percentile(queries, 50), "ms", len(queries)),
        "query_p90_ms": _metric(_percentile(queries, 90), "ms", len(queries)),
        # one cycle's ops over the cycle's time at each op's median latency
        "ops_per_s": _metric(ok_share * len(cycle) / (sum(cycle) / 1e3), "1/s", len(results)),
        "build_p50_ms": _metric(statistics.median(builds), "ms", len(builds)),
        "index_mb": _metric(statistics.fmean(index_sizes) / 1e6, "MB", len(index_sizes)),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "precision_at_k": _metric(statistics.fmean(precision.values()), "fraction", len(precision)),
    }


def per_layer_metrics(workload, tracer, untraced, traced) -> dict:
    every_span = tracer.durations()
    pass_spans = tracer.durations(traced_pass_only=True)

    def median_ms(name, spans=every_span):
        values = spans.get(name, [])
        return (statistics.median(values) / 1e6 if values else 0.0), len(values)

    calls, total, self_ns = tracer.pass_totals()
    stats_sum: dict[str, int] = {}
    for r in traced:
        for key, value in r.stats.items():
            if isinstance(value, int):
                stats_sum[key] = stats_sum.get(key, 0) + value
    n = len(traced)
    out = {}

    def put(name, value, unit, samples=n):
        out[name] = _metric(value, unit, samples)

    load_ms, load_n = median_ms("graph.load_graph")
    put("graph.load_ms", load_ms, "ms", load_n)
    parts = workload.parts
    put("graph.entities", sum(p.graph.n_entities for p in parts), "count", len(parts))
    put("graph.edges", sum(len(p.graph.edges) for p in parts), "count", len(parts))
    pr_ms, pr_n = median_ms("pagerank.compute_pagerank")
    put("pagerank.compute_ms", pr_ms, "ms", pr_n)
    build_ms, build_n = median_ms("pathindex.build_index")
    put("pathindex.build_ms", build_ms, "ms", build_n)
    put("pathindex.entries", sum(p.idx.stats.entry_count for p in parts), "count", len(parts))
    put("pathindex.cost_proxy", sum(p.idx.stats.cost_proxy for p in parts), "count", len(parts))
    access = ("pathindex.patterns", "pathindex.roots", "pathindex.paths")
    put("pathindex.access_calls", sum(calls[a] for a in access), "count")
    put("pathindex.access_ms", sum(total[a] for a in access) / 1e6, "ms")
    put("pathindex.block_calls", calls["pathindex.block"], "count")
    put("pathindex.block_ms", self_ns["pathindex.block"] / 1e6, "ms")
    ser_ms, ser_n = median_ms("indexio.serialize")
    put("indexio.serialize_ms", ser_ms, "ms", ser_n)
    de_ms, de_n = median_ms("indexio.deserialize")
    put("indexio.deserialize_ms", de_ms, "ms", de_n)
    index_bytes = statistics.fmean(p.index_size for p in parts)
    put("indexio.bytes", sum(p.index_size for p in parts), "bytes", len(parts))
    put("indexio.deserialize_mb_s", index_bytes / 1e3 / de_ms if de_ms else 0.0, "MB/s", de_n)
    engines = {r.op.engine for r in traced if r.op.kind == "query"}
    for engine in sorted(engines):
        call_ms, call_n = median_ms(f"search.{engine}", pass_spans)
        put(f"search.{engine}.call_ms", call_ms, "ms", call_n)
    put("search.self_ms", sum(v for k, v in self_ns.items() if k.startswith("search.")) / 1e6, "ms")
    put("search.candidate_roots", stats_sum.get("candidate_roots", 0), "count")
    put("search.roots_expanded", stats_sum.get("roots_expanded", 0), "count")
    checked = stats_sum.get("path_tuples_checked", 0)
    accepted = stats_sum.get("subtrees_accepted", 0)
    put("search.tuples_checked", checked, "count")
    put("search.subtrees_accepted", accepted, "count")
    put("search.accept_ratio", accepted / checked if checked else 0.0, "fraction")
    if engines != {"linear-topk"}:  # engines only
        combos = stats_sum.get("pattern_combos_checked", 0)
        put("search.pattern_combos", combos, "count")
        put("search.empty_combo_ratio", stats_sum.get("empty_combos", 0) / combos, "fraction")
        put("search.patterns_found", stats_sum.get("patterns_found", 0), "count")
    put("search.members_returned", sum(r.members_returned for r in traced), "count")
    refs = workload.references.values()
    put("search.members_per_pattern",
        sum(r.subtree_total for r in refs) / max(1, sum(r.pattern_total for r in refs)), "ratio", len(refs))
    sampled = [r.stats for r in traced if r.op.sampling_seed is not None]
    if sampled:  # topk-sampled only: how often sampling skipped roots, and what k costs
        skipped = sum(1 for st in sampled if st["roots_expanded"] < st["candidate_roots"])
        put("search.sampled_op_share", skipped / len(sampled), "fraction", len(sampled))
        by_k = {k: [r.seconds for r in untraced if r.op.k == k] for k in (1, 100)}
        put("search.k_growth", statistics.median(by_k[100]) / statistics.median(by_k[1]), "ratio",
            len(by_k[1]) + len(by_k[100]))
    base = sum(r.seconds for r in untraced if r.op.engine == "baseline")
    topk = sum(r.seconds for r in untraced if r.op.engine == "linear-topk")
    if base:  # engines only
        put("search.index_speedup", base / topk, "ratio")
    kernel_combos = tracer.counters["kernels.combos"]
    kernel_rows = tracer.counters["kernels.rows"]
    put("kernels.calls", calls["kernels.join_tree_tuples"], "count")
    put("kernels.ms", total["kernels.join_tree_tuples"] / 1e6, "ms")
    put("kernels.combos", kernel_combos, "count")
    put("kernels.rows", kernel_rows, "count")
    put("kernels.rows_per_combo", kernel_rows / kernel_combos if kernel_combos else 0.0, "fraction")
    put("tables.render_ms", total["tables.render_table"] / 1e6, "ms")
    put("tables.tables", calls["tables.render_table"], "count")
    put("tables.rows", sum(r.table_rows for r in traced), "count")
    put("tables.rows_per_table", out["tables.rows"]["value"] / max(1, calls["tables.render_table"]), "ratio")
    untraced_s, traced_s = (
        sum(speed.scaled_series([r.seconds for r in rs], [r.probe_ms for r in rs])) for rs in (untraced, traced)
    )
    put("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%")
    return out


@dataclass
class Measurement:
    workload: object
    ops: list
    warmup: list
    measured: list
    metrics: dict
    raw_metrics: dict  # the end-to-end metrics without speed scaling
    phases_s: dict  # wall seconds of each phase of the run


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Measurement:
    """One run of one workload: set-up, references, warm-up, then either the
    timed closed loop (trace off) or an untraced and a traced pass over one
    op cycle (trace on)."""
    import inputs
    from harness import Workload, freeze_state
    from tracing import Tracer

    ops = inputs.op_list(name, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    phases = {}
    started = time.perf_counter()

    def phase_done(phase):
        nonlocal started
        now = time.perf_counter()
        phases[phase] = now - started
        started = now

    try:
        workload = Workload(name, workdir)
        tracer = Tracer() if trace else None
        if tracer:
            with tracer:
                workload.setup()
        else:
            workload.setup()
        phase_done("setup")
        workload.prepare_references(ops)
        phase_done("references")
        warmup = workload.warm_up(ops)
        freeze_state()  # the set-up and the caches warm-up filled live until the run ends
        phase_done("warm_up")
        if tracer:
            untraced = [workload.execute(op) for op in ops]
            with tracer:
                traced = []
                for op in ops:
                    tracer.current_op = op.number
                    traced.append(workload.execute(op))
            measured = untraced + traced
            metrics = per_layer_metrics(workload, tracer, untraced, traced)
            raw_metrics = {}
        else:
            measured = closed_loop(workload, ops, seconds)
            metrics = end_to_end_metrics(workload.parts, measured)
            raw_metrics = end_to_end_metrics(workload.parts, measured, scaled=False)
        phase_done("measure")
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    return Measurement(workload, ops, warmup, measured, metrics, raw_metrics, phases)


def run_workload(args) -> int:
    import numpy
    from kgpattern import kernels

    import inputs
    from harness import Mismatch

    runs_dir = HERE / "runs"
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                    runs_dir / f"work-{os.getpid()}")
    except Mismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    workload, ops, warmup, measured, metrics = m.workload, m.ops, m.warmup, m.measured, m.metrics
    every = warmup + measured
    failed = [r for r in every if r.outcome != "ok"]
    loop_failed = sum(1 for r in measured if r.outcome != "ok")
    for r in failed[:20]:
        print(f"failed op #{r.op.number} {r.op.engine} {' '.join(r.op.keywords)} k={r.op.k}: "
              f"{r.outcome}: {r.detail}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_digest": inputs.ops_digest(ops),
        "ops_per_cycle": len(ops),
        "phases_s": m.phases_s,
        "attempted": len(every),
        "failed": len(failed),
        "error_rate": _metric(loop_failed / len(measured), "fraction", len(measured)),
        "failures": {o: sum(1 for r in every if r.outcome == o) for o in ("wrong", "error", "deadline")},
        "metrics": metrics,
        "raw_metrics": m.raw_metrics,
        "buckets_by_subtrees": _bucket_summaries(measured, workload.reference_for),
        "op_latencies_ms": [[r.op.number, r.seconds * 1e3, r.probe_ms] for r in measured],
        "labels": {"kernels.backend": kernels.backend_name()},
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(),
        },
    }
    runs_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(every)} ops, {len(failed)} failed; record {path.relative_to(ROOT)}")
    print("  phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in m.phases_s.items()))
    for name, metric in list(metrics.items()) + [("error_rate", record["error_rate"])]:
        print(f"  {name:28s} {metric['value']:>14.6g} {metric['unit']:9s} n={metric['n']}")
    reported = _listed_metrics(bool(args.trace)) or list(metrics)
    wrong_or_error = record["failures"]["wrong"] + record["failures"]["error"]
    print(json.dumps({
        "correct": wrong_or_error == 0,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in reported},
    }))
    return 0


def _listed_metrics(trace: bool):
    """Names BENCHMARK.json lists for this kind of run, or None without it."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    doc = json.loads(spec.read_text(encoding="utf-8"))
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    import inputs

    status = 0
    for name in inputs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="topk-exact, topk-sampled, cli-cold, engines or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    import inputs

    if args.workload not in inputs.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
