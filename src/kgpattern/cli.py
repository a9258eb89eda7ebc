"""Command-line interface.

Subcommands: gen, build, query, bench, sweep, oracle, dump-index. Exit codes:
0 success, 1 usage error (bad flags, unknown engine), 2 data error
(unreadable, non-UTF-8 or malformed inputs, an index built from another
graph, or a score past the float range). Engine names come from ``bench.ENGINES``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import patterns as pat
from .errors import IndexCorruptError, IndexFormatError, KgPatternError, ParameterError
from .generator import GenConfig, generate_graph
from .graph import load_graph, tokenize
from .indexio import read_index, write_index
from .oracle import count_patterns_exhaustive, enumerate_patterns_exhaustive
from .pagerank import compute_pagerank
from .pathindex import build_index, mismatched_records
from .scoring import DEFAULT_CONFIG, ScoringConfig
from .search import Query, SamplingConfig
from .tables import render_table

USAGE_ERROR = 1
DATA_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgpattern", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic graph file")
    p_gen.add_argument("--entities", type=int, default=100)
    p_gen.add_argument("--types", type=int, default=8)
    p_gen.add_argument("--attrs", type=int, default=10)
    p_gen.add_argument("--avg-degree", type=float, default=2.0)
    p_gen.add_argument("--vocab", type=int, default=50)
    p_gen.add_argument("--words-per-text", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_build = sub.add_parser("build", help="build and serialize a path index")
    p_build.add_argument("--graph", required=True)
    p_build.add_argument("--index", required=True, help="output index file")
    p_build.add_argument("--d", type=int, default=3, help="height threshold")
    p_build.add_argument("--damping", type=float, default=0.85)
    p_build.add_argument("--tol", type=float, default=1e-8)

    files, sampling, report = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    files.add_argument("--graph", required=True)
    files.add_argument("--index", required=True)
    sampling.add_argument("--lambda", dest="threshold", default="inf", help="sampling threshold (number or 'inf')")
    sampling.add_argument("--rho", type=float, default=1.0, help="sampling rate in (0,1]")
    sampling.add_argument("--seed", type=int, default=0)
    report.add_argument("--format", choices=["text", "json", "csv"], default="text")
    report.add_argument("--out")

    p_query = sub.add_parser("query", parents=[files, sampling, report], help="run a keyword query")
    p_query.add_argument("--q", required=True, help="keywords, e.g. \"database software\"")
    p_query.add_argument("--k", type=int, default=10)
    p_query.add_argument("--algo", choices=list(bench_mod.ENGINES), default="linear-topk")
    p_query.add_argument("--config", help="JSON file with scoring config (z1, z2, z3, aggregator)")

    p_bench = sub.add_parser("bench", parents=[files, sampling, report], help="time engines over a query workload")
    p_bench.add_argument("--queries", required=True, help="file with one query per line")
    p_bench.add_argument("--k", type=int, default=10)
    p_bench.add_argument("--algos", default=",".join(bench_mod.ENGINES))

    p_sweep = sub.add_parser("sweep", parents=[files, report], help="precision sweep over sampling parameters")
    p_sweep.add_argument("--queries", required=True)
    p_sweep.add_argument("--k", type=int, default=10)
    p_sweep.add_argument("--lambdas", default="0", help="comma list, 'inf' allowed")
    p_sweep.add_argument("--rhos", default="0.1,0.5,1.0")
    p_sweep.add_argument("--seeds", type=int, default=5, help="number of seeds per point")

    p_oracle = sub.add_parser("oracle", help="brute-force pattern list/count (small graphs)")
    p_oracle.add_argument("--graph", required=True)
    p_oracle.add_argument("--q", required=True)
    p_oracle.add_argument("--d", type=int, default=3)
    p_oracle.add_argument("--count", action="store_true", help="print only the pattern count")
    p_oracle.add_argument("--format", choices=["text", "json"], default="text")
    p_oracle.add_argument("--out")

    p_dump = sub.add_parser("dump-index", help="JSON debug dump of an index file")
    p_dump.add_argument("--index", required=True)
    p_dump.add_argument("--out")

    return parser


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _parse_number(raw: str, flag: str) -> float:
    """`raw` as a float ('inf' included); ParameterError naming `flag` otherwise."""
    try:
        return float(raw)
    except ValueError:
        raise ParameterError(f"{flag} must be a number, got {raw!r}") from None


def _parse_list(raw: str, flag: str) -> list[str]:
    """The non-blank items of the comma list `raw`; ParameterError naming `flag` if there are none."""
    items = [x.strip() for x in raw.split(",") if x.strip()]
    if not items:
        raise ParameterError(f"{flag} must list at least one value, got {raw!r}")
    return items


def _read_text(path, flag) -> str:
    """The text of a UTF-8 file; a data error naming `flag` and `path` when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise KgPatternError(f"{flag} {path} is not UTF-8 ({exc.reason} at byte {exc.start + 1})") from None


def _scoring_from(path) -> ScoringConfig:
    if not path:
        return DEFAULT_CONFIG
    data = json.loads(_read_text(path, "--config"))
    if not isinstance(data, dict):
        raise ParameterError(f"--config {path} must hold a JSON object, not {type(data).__name__}")
    keys = [f.name for f in dataclasses.fields(ScoringConfig)]
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ParameterError(f"--config {path} has unknown keys {unknown}; allowed keys are {keys}")
    return ScoringConfig(**data)


def _pattern_json(graph, sp) -> dict:
    return {
        "pattern": pat.tree_pattern_names(graph, sp.pattern),
        "score": sp.score,
        "estimated_score": sp.estimated_score,
        "count": sp.subtree_count,
        **render_table(graph, sp.pattern, sp.subtrees).to_json_dict(),
    }


def _cmd_gen(args) -> int:
    cfg = GenConfig(
        entities=args.entities,
        types=args.types,
        attr_types=args.attrs,
        avg_out_degree=args.avg_degree,
        vocab=args.vocab,
        words_per_text=args.words_per_text,
        seed=args.seed,
    )
    Path(args.out).write_text(generate_graph(cfg), encoding="utf-8")
    return 0


def _cmd_build(args) -> int:
    graph = load_graph(args.graph)
    pr = compute_pagerank(graph, damping=args.damping, tolerance=args.tol)
    idx = build_index(graph, pr, args.d)
    write_index(idx, args.index)
    print(
        f"indexed {idx.stats.entry_count} entries over {len(idx.words)} words "
        f"(d={args.d}, cost proxy {idx.stats.cost_proxy})"
    )
    return 0


def _load_graph_and_index(args, words):
    """Load --graph and --index and check the records of `words`;
    IndexFormatError when the index header does not describe the graph (the
    index was built from another graph), IndexCorruptError when one of the
    records is corrupt or no path of the graph."""
    graph = load_graph(args.graph)
    idx = read_index(args.index)
    index_header = (idx.n_entities, idx.n_types, idx.n_attrs, idx.type_names, idx.attr_names)
    graph_header = (graph.n_entities, graph.n_types, graph.n_attrs, graph.type_names, graph.attr_names)
    if index_header != graph_header:
        raise IndexFormatError(
            f"index {args.index} was not built from graph {args.graph}: their entity, type or "
            f"attribute counts or names differ (index {idx.n_entities}/{idx.n_types}/{idx.n_attrs}, "
            f"graph {graph.n_entities}/{graph.n_types}/{graph.n_attrs})"
        )
    if idx.fingerprint != graph.fingerprint():
        raise IndexFormatError(
            f"index {args.index} was not built from graph {args.graph}: the graph's entity types, "
            f"texts or edges differ from those the index was built from"
        )
    words = sorted(set(words).intersection(idx.words))  # in file order
    idx.check(words)
    ids = np.concatenate([np.arange(0)] + [np.arange(idx.words[w].start, idx.words[w].stop) for w in words])
    if len(bad := mismatched_records(idx.columns, graph, ids)):
        raise IndexCorruptError(f"index {args.index} is corrupt: {len(bad)} records (the first is record "
                                f"{bad[0]}) are no paths of their patterns in graph {args.graph}")
    return graph, idx


def _cmd_query(args) -> int:
    keywords = tuple(tokenize(args.q))
    graph, idx = _load_graph_and_index(args, keywords)
    scoring = _scoring_from(args.config)
    query = Query(keywords, args.k)
    sampling = SamplingConfig(_parse_number(args.threshold, "--lambda"), args.rho, args.seed)
    ranked = bench_mod.ENGINES[args.algo](graph, idx, query, scoring, sampling)
    if args.format == "json":
        doc = {
            "query": list(query.keywords),
            "k": query.k,
            "algorithm": args.algo,
            "params": {"lambda": args.threshold, "rho": args.rho, "seed": args.seed},
            "patterns": [_pattern_json(graph, sp) for sp in ranked],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    elif args.format == "csv":
        if not ranked:
            _emit("", args.out)
        else:
            top = ranked[0]
            _emit(render_table(graph, top.pattern, top.subtrees).to_csv(), args.out)
    else:
        chunks = []
        for rank, sp in enumerate(ranked, start=1):
            table = render_table(graph, sp.pattern, sp.subtrees)
            header = f"#{rank} score={sp.score:.6g} subtrees={sp.subtree_count}"
            chunks.append(header + "\n" + " | ".join(pat.tree_pattern_names(graph, sp.pattern)))
            chunks.append(table.to_text())
        _emit("\n\n".join(chunks) if chunks else "(no matching tree patterns)", args.out)
    return 0


def _read_queries(path, k) -> list[Query]:
    """The queries of a --queries file, one per line that is neither blank
    nor a comment; a data error naming `path` when there are none, or naming
    the line of a query with no keyword."""
    queries = []
    for number, line in enumerate(_read_text(path, "--queries").splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            keywords = tuple(tokenize(line))
            if not keywords:
                raise KgPatternError(f"--queries {path} line {number}: {line!r} holds no keyword")
            queries.append(Query(keywords, k))
    if not queries:
        raise KgPatternError(f"--queries {path} holds no query")
    return queries


def _emit_report(report, fmt, out) -> None:
    if fmt == "json":
        _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", out)
    elif fmt == "csv":
        _emit("\n".join(",".join(str(c) for c in row) for row in report.to_csv_rows()) + "\n", out)
    else:
        lines = []
        for t in report.timings:
            lines.append(
                f"{t.algorithm:12s} {t.seconds * 1e3:9.3f} ms  subtrees={t.subtree_total:<8d} "
                f"patterns={t.pattern_total:<6d} {t.query}"
            )
        for b in report.by_subtrees:
            lines.append(
                f"bucket[subtrees<={b.bucket}] {b.algorithm:12s} n={b.count} "
                f"min={b.min_seconds * 1e3:.3f}ms geomean={b.geomean_seconds * 1e3:.3f}ms max={b.max_seconds * 1e3:.3f}ms"
            )
        for p in report.precisions:
            lines.append(
                f"precision lambda={p.threshold} rho={p.rate} seed={p.seed} "
                f"{p.precision:.3f}  {p.query}"
            )
        _emit("\n".join(lines) + "\n", out)


def _cmd_bench(args) -> int:
    algorithms = tuple(_parse_list(args.algos, "--algos"))
    bench_mod.check_engines(algorithms)
    queries = _read_queries(args.queries, args.k)
    graph, idx = _load_graph_and_index(args, [w for q in queries for w in q.keywords])
    sampling = SamplingConfig(_parse_number(args.threshold, "--lambda"), args.rho, args.seed)
    report = bench_mod.run_bench(graph, idx, queries, algorithms=algorithms, sampling=sampling)
    _emit_report(report, args.format, args.out)
    return 0


def _cmd_sweep(args) -> int:
    thresholds = [_parse_number(x, "--lambdas") for x in _parse_list(args.lambdas, "--lambdas")]
    rates = [_parse_number(x, "--rhos") for x in _parse_list(args.rhos, "--rhos")]
    if args.seeds < 1:
        raise ParameterError(f"--seeds must be >= 1, got {args.seeds}")
    queries = _read_queries(args.queries, args.k)
    graph, idx = _load_graph_and_index(args, [w for q in queries for w in q.keywords])
    report = bench_mod.run_precision_sweep(
        graph, idx, queries, thresholds, rates, args.k, seeds=range(args.seeds)
    )
    _emit_report(report, args.format, args.out)
    return 0


def _cmd_oracle(args) -> int:
    graph = load_graph(args.graph)
    words = tokenize(args.q)
    if not words:
        print("error: empty query", file=sys.stderr)
        return USAGE_ERROR
    if args.count:
        _emit(str(count_patterns_exhaustive(graph, words, args.d)), args.out)
        return 0
    found = enumerate_patterns_exhaustive(graph, words, args.d)
    if args.format == "json":
        doc = [
            {"pattern": pat.tree_pattern_names(graph, p), "subtrees": len(members)}
            for p, members in sorted(found.items(), key=lambda kv: pat.tree_sort_key(kv[0]))
        ]
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [
            f"{len(members):6d}  {' | '.join(pat.tree_pattern_names(graph, p))}"
            for p, members in sorted(found.items(), key=lambda kv: pat.tree_sort_key(kv[0]))
        ]
        _emit("\n".join(lines) if lines else "(no patterns)", args.out)
    return 0


def _cmd_dump_index(args) -> int:
    idx = read_index(args.index)
    idx.check(idx.vocabulary())
    doc = {
        "depth": idx.depth,
        "entities": idx.n_entities,
        "types": idx.n_types,
        "attrs": idx.n_attrs,
        "entry_count": idx.stats.entry_count,
        "cost_proxy": idx.stats.cost_proxy,
        "words": {
            w: {
                "entries": len(idx.words[w]),
                "patterns": [pat.pattern_names(idx, p) for p in idx.patterns(w)],
                "roots": idx.roots(w),
            }
            for w in idx.vocabulary()
        },
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "build": _cmd_build,
    "query": _cmd_query,
    "bench": _cmd_bench,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "dump-index": _cmd_dump_index,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 on --help; remap usage to 1.
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except ParameterError as exc:  # bad flag values (rho, lambda, k, keywords)
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (KgPatternError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
