"""Set-up, answer references, timed ops and answer checks of each workload.

Only the public API of kgpattern is called, always through module
attributes, so that the tracer's wrappers see every call. Every reference an
answer is checked against is computed before the timed loop starts, in a
child process, and kept only in the compact form the checks need, so that
neither its time nor its memory counts toward the run.
"""
from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import pickle
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from kgpattern import bench, generate_graph, indexio, pagerank, pathindex, search, tables
from kgpattern import cli
from kgpattern import graph as graph_mod
from kgpattern import patterns as pat
from kgpattern.scoring import pattern_score, tree_score

import speed
from inputs import (
    DEPTH,
    K_CYCLE,
    SAMPLING_RATE,
    SAMPLING_THRESHOLD,
    Op,
    gen_config,
    graphs_per_run,
)

# Per-op deadline. At the benchmark's graph sizes the slowest op that
# finishes (a three-keyword pattern-enum query) takes a few seconds, so the
# deadline only stops an op that would not finish.
DEADLINE_S = 60.0
SETUP_PROBES = 3  # speed probes between two set-ups
CLI_REFERENCE_QUERIES = 4  # distinct cli-cold queries checked against kgpattern.cli.main
SCORE_RTOL = 1e-9  # engines sum member scores in different orders


class Mismatch(Exception):
    """An answer differs from its reference."""


class DeadlineExceeded(BaseException):
    """Raised by the timer signal; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def freeze_state() -> None:
    """Collect garbage, then move every live object to the collector's
    permanent generation. A full collection scans every tracked object, so
    without this each one would take time in proportion to all the run's
    graphs and indexes (about a quarter second on topk-exact), landing on
    whichever op happens to trigger it. A process that holds one index
    would scan only that one; a long-running one freezes its start-up state
    the same way."""
    gc.collect()
    gc.freeze()


def digest(value) -> bytes:
    """Digest of a value's repr: members and index bytes are compared by it,
    so the benchmark does not hold a second copy of the program's output."""
    if not isinstance(value, bytes):
        value = repr(value).encode()
    return hashlib.sha256(value).digest()


@dataclass
class Part:
    """One of the run's graphs with its index, in memory and, for cli-cold,
    on disk, and the time its set-up took."""

    graph: object
    idx: object
    index_size: int
    index_digest: bytes
    graph_path: Path
    index_path: Path
    setup_seconds: float  # generate, load, PageRank, build, serialize, deserialize
    build_seconds: float  # load, PageRank, build, serialize
    probe_ms: float = speed.PROBE_REFERENCE_MS  # median speed probe around the set-up


@dataclass(frozen=True)
class Expected:
    """One pattern of a reference ranking."""

    pattern: tuple
    score: float
    members_digest: bytes


@dataclass
class Reference:
    exact: list[Expected]  # exact top k (the largest k of the cycle for sampled ops)
    subtree_total: int  # members of every pattern of the query
    pattern_total: int  # patterns of the query
    members: Optional[dict] = None  # pattern -> digest of its exact members (sampled ops)
    cli_json: Optional[str] = None


@dataclass
class OpResult:
    op: Op
    seconds: float
    outcome: str  # "ok", "wrong", "error", "deadline"
    detail: str = ""
    stats: dict = field(default_factory=dict)
    members_returned: int = 0
    tables: int = 0
    table_rows: int = 0
    precision: Optional[float] = None
    probe_ms: float = speed.PROBE_REFERENCE_MS  # speed probe taken right after the op


class Workload:
    """One workload's state in one run."""

    def __init__(self, name: str, workdir: Path, deadline_s: float = DEADLINE_S):
        self.name = name
        self.workdir = workdir
        self.deadline_s = deadline_s
        self.rebuilt_path = workdir / "rebuilt.kgpx"
        self.parts: list[Part] = []
        self.references: dict[tuple, Reference] = {}

    @property
    def on_disk(self) -> bool:
        return self.name == "cli-cold"

    # -- set-up -------------------------------------------------------------

    def _setup_part(self, part: int) -> Part:
        setup_started = time.perf_counter()
        text = generate_graph(gen_config(self.name, part))
        graph_path = self.workdir / f"graph{part}.txt"
        index_path = self.workdir / f"index{part}.kgpx"
        if self.on_disk:
            graph_path.write_text(text, encoding="utf-8")
        started = time.perf_counter()
        if self.on_disk:
            graph = graph_mod.load_graph(graph_path)
        else:
            graph = graph_mod.load_graph(io.StringIO(text))
        pr = pagerank.compute_pagerank(graph)
        idx = pathindex.build_index(graph, pr, DEPTH)
        if self.on_disk:
            indexio.write_index(idx, index_path)
            built = time.perf_counter()
            idx = indexio.read_index(index_path)
        else:
            index_bytes = indexio.serialize(idx)
            built = time.perf_counter()
            idx = indexio.deserialize(index_bytes)
        loaded = time.perf_counter()
        if self.on_disk:
            index_bytes = index_path.read_bytes()  # for the build-op check
        return Part(graph, idx, len(index_bytes), digest(index_bytes), graph_path, index_path,
                    setup_seconds=loaded - setup_started, build_seconds=built - started)

    def setup(self) -> None:
        """Set up each of the run's graphs once, one after the other; each
        graph's set-up is timed on its own, between speed probes. The graphs
        and indexes already set up are frozen out of the cyclic garbage
        collector (see `freeze_state`), so that a graph's set-up does not pay
        for scanning the graphs set up before it."""
        probes = [[speed.probe_ms() for _ in range(SETUP_PROBES)]]
        self.parts = []
        for j in range(graphs_per_run(self.name)):
            freeze_state()
            part = self._setup_part(j)
            probes.append([speed.probe_ms() for _ in range(SETUP_PROBES)])
            part.probe_ms = statistics.median(probes[-2] + probes[-1])
            self.parts.append(part)

    # -- references -----------------------------------------------------------

    def _ref_key(self, op: Op) -> tuple:
        return (op.graph, op.keywords, op.sampling_seed is not None)

    def prepare_references(self, ops: list[Op]) -> None:
        """Reference answers for every distinct query, computed in a forked
        child: the parent's peak RSS and caches then hold only what the
        program under test builds, plus the compact references."""
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: compute, send, exit without running any cleanup
            status = 1
            try:
                os.close(read_fd)
                references = self._compute_references(ops)
                with os.fdopen(write_fd, "wb") as out:
                    pickle.dump(references, out)
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(status)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as inp:
            data = inp.read()
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise Mismatch("computing the reference answers failed")
        self.references = pickle.loads(data)

    def _compute_references(self, ops: list[Op]) -> dict[tuple, Reference]:
        references: dict[tuple, Reference] = {}
        for op in ops:
            key = self._ref_key(op)
            if op.kind != "query" or key in references:
                continue
            part = self.parts[op.graph]
            if op.sampling_seed is not None:
                pairs = search.search_linear_enum(part.graph, part.idx, search.Query(op.keywords, 1))
                ranked = bench.rank_enumeration(pairs)[: max(K_CYCLE)]
                references[key] = Reference(
                    exact=[Expected(sp.pattern, sp.score, b"") for sp in ranked],
                    subtree_total=sum(len(m) for _, m in pairs),
                    pattern_total=len(pairs),
                    members={p: digest(m) for p, m in pairs},
                )
            else:
                result = search.search_baseline(part.graph, part.idx, search.Query(op.keywords, op.k))
                references[key] = Reference(
                    exact=[Expected(sp.pattern, sp.score, digest(sp.subtrees)) for sp in result.patterns],
                    subtree_total=result.stats["subtrees_accepted"],
                    pattern_total=result.stats["patterns_found"],
                )
        if self.on_disk:
            self._add_cli_references(ops, references)
        return references

    def _add_cli_references(self, ops: list[Op], references: dict[tuple, Reference]) -> None:
        keys = list(dict.fromkeys(self._ref_key(op) for op in ops if op.kind == "query"))
        out = self.workdir / "cli-reference.json"
        for key in keys[:CLI_REFERENCE_QUERIES]:
            part = self.parts[key[0]]
            code = cli.main([
                "query", "--graph", str(part.graph_path), "--index", str(part.index_path),
                "--q", " ".join(key[1]), "--k", "10", "--format", "json", "--out", str(out),
            ])
            if code != 0:
                raise Mismatch(f"kgpattern query exited with {code} on {' '.join(key[1])!r}")
            references[key].cli_json = out.read_text(encoding="utf-8")
        out.unlink(missing_ok=True)

    def reference_for(self, op: Op) -> Reference:
        return self.references[self._ref_key(op)]

    def warm_up(self, ops: list[Op]) -> list[OpResult]:
        """Fill lazily built caches before measuring. In memory, that is one
        pass over each index that builds every kernel block the ops' words can
        use. cli-cold reloads everything per op, so there one op of each kind
        only warms the interpreter."""
        if self.on_disk:
            firsts: dict[str, Op] = {}
            for op in ops:
                firsts.setdefault(op.kind, op)
            return [self.execute(op) for op in firsts.values()]
        for j, part in enumerate(self.parts):
            for word in sorted({w for op in ops if op.graph == j for w in op.keywords}):
                for root in part.idx.roots(word):
                    for pattern in part.idx.patterns(word, root=root):
                        part.idx.block(word, root, pattern)
        return []

    # -- ops ------------------------------------------------------------------

    def _answer(self, graph, idx, op: Op):
        """(ranked patterns, engine stats) for one query op."""
        query = search.Query(op.keywords, op.k)
        if op.engine == "baseline":
            result = search.search_baseline(graph, idx, query)
        elif op.engine == "pattern-enum":
            result = search.search_pattern_enum(graph, idx, query)
        elif op.engine == "linear":
            stats: dict = {}
            pairs = search.search_linear_enum(graph, idx, query, stats=stats)
            return bench.rank_enumeration(pairs)[: op.k], stats
        elif op.sampling_seed is not None:
            sampling = search.SamplingConfig(SAMPLING_THRESHOLD, SAMPLING_RATE, op.sampling_seed)
            result = search.search_linear_topk(graph, idx, query, sampling)
        else:
            result = search.search_linear_topk(graph, idx, query)
        return result.patterns, result.stats

    def _timed(self, op: Op):
        """The part of an op a user waits for; returns what the check needs."""
        part = self.parts[op.graph]
        if op.kind == "build":
            graph = graph_mod.load_graph(part.graph_path)
            pr = pagerank.compute_pagerank(graph)
            idx = pathindex.build_index(graph, pr, DEPTH)
            indexio.write_index(idx, self.rebuilt_path)
            return None, {}, [], None
        if self.on_disk:
            graph = graph_mod.load_graph(part.graph_path)
            idx = indexio.read_index(part.index_path)
        else:
            graph, idx = part.graph, part.idx
        ranked, stats = self._answer(graph, idx, op)
        if self.name == "engines":
            return ranked, stats, [], None
        rendered = [tables.render_table(graph, sp.pattern, sp.subtrees) for sp in ranked]
        text = None
        if self.on_disk:  # what `kgpattern query --format json` prints
            doc = {
                "query": list(op.keywords),
                "k": op.k,
                "algorithm": "linear-topk",
                "params": {"lambda": "inf", "rho": 1.0, "seed": 0},
                "patterns": [
                    {
                        "pattern": pat.tree_pattern_names(graph, sp.pattern),
                        "score": sp.score,
                        "estimated_score": sp.estimated_score,
                        "count": sp.subtree_count,
                        "columns": table.column_names,
                        "rows": table.rows,
                    }
                    for sp, table in zip(ranked, rendered)
                ],
            }
            text = json.dumps(doc, indent=2) + "\n"
        return ranked, stats, rendered, text

    def execute(self, op: Op) -> OpResult:
        """Run one op under the deadline, check its answer (untimed), then
        take a speed probe."""
        result = self._execute(op)
        result.probe_ms = speed.probe_ms()
        return result

    def _execute(self, op: Op) -> OpResult:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
        started = time.perf_counter()
        try:
            ranked, stats, rendered, text = self._timed(op)
            elapsed = time.perf_counter() - started
        except DeadlineExceeded:
            return OpResult(op, time.perf_counter() - started, "deadline", f"over {self.deadline_s} s")
        except Exception as exc:  # any error of the program under test fails the op
            return OpResult(op, time.perf_counter() - started, "error", f"{type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        result = OpResult(op, elapsed, "ok", stats=stats)
        try:
            self.check(op, ranked, rendered, text, result)
        except Mismatch as exc:
            result.outcome = "wrong"
            result.detail = str(exc)
        return result

    # -- checks ---------------------------------------------------------------

    def check(self, op: Op, ranked, rendered, text, result: OpResult) -> None:
        if op.kind == "build":
            if digest(self.rebuilt_path.read_bytes()) != self.parts[op.graph].index_digest:
                raise Mismatch("rebuilt index differs from the set-up index")
            return
        ref = self.reference_for(op)
        if op.sampling_seed is not None:
            result.precision = _check_sampled(ranked, ref, op.k)
        else:
            _check_exact(ranked, ref.exact)
            result.precision = 1.0
        for sp, table in zip(ranked, rendered):
            if len(table.rows) != sp.subtree_count:
                raise Mismatch(f"table has {len(table.rows)} rows for {sp.subtree_count} subtrees")
        if text is not None and ref.cli_json is not None and text != ref.cli_json:
            raise Mismatch("query JSON differs from `kgpattern query --format json`")
        result.members_returned = sum(sp.subtree_count for sp in ranked)
        result.tables = len(rendered)
        result.table_rows = sum(len(t.rows) for t in rendered)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SCORE_RTOL * max(abs(a), abs(b))


def _check_exact(ranked, exact: list[Expected]) -> None:
    """Pattern keys, scores, members and order must match the reference."""
    if len(ranked) != len(exact):
        raise Mismatch(f"{len(ranked)} patterns returned, reference has {len(exact)}")
    for rank, (got, want) in enumerate(zip(ranked, exact), start=1):
        if got.pattern != want.pattern:
            raise Mismatch(f"pattern #{rank} differs from the reference")
        if not _close(got.score, want.score):
            raise Mismatch(f"pattern #{rank} scores {got.score!r}, reference {want.score!r}")
        if digest(got.subtrees) != want.members_digest:
            raise Mismatch(f"pattern #{rank} members differ from the reference")


def _check_sampled(ranked, ref: Reference, k: int) -> float:
    """Members must be each pattern's exact member set and scores their exact
    re-scoring; returns the fraction of the exact top k recovered."""
    if len(ranked) > k:
        raise Mismatch(f"{len(ranked)} patterns returned for k={k}")
    for rank, sp in enumerate(ranked, start=1):
        exact_members = ref.members.get(sp.pattern)
        if exact_members is None:
            raise Mismatch(f"pattern #{rank} does not exist")
        if digest(sp.subtrees) != exact_members:
            raise Mismatch(f"pattern #{rank} members are not its exact member set")
        rescored = pattern_score([tree_score(m.paths) for m in sp.subtrees])
        if sp.score != rescored:
            raise Mismatch(f"pattern #{rank} scores {sp.score!r}, exact re-scoring {rescored!r}")
    keys = [(-sp.score, pat.tree_sort_key(sp.pattern)) for sp in ranked]
    if keys != sorted(keys):
        raise Mismatch("patterns are not ranked by score")
    return bench.precision_against_exact(ref.exact, ranked, k)
