"""Guard for the kgpattern API that the perfbench harness (perfbench/) uses.

perfbench imports kgpattern names, wraps some of them at runtime and calls
methods on the objects they return. The unit suite does not run perfbench,
so without these tests a change that deletes or reshapes one of those names
would break only the benchmark. The tests read perfbench's sources and
change none of them.
"""
import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from kgpattern import bench, indexio, kernels, search, tables
from kgpattern import patterns as pat
from kgpattern.cli import main
from kgpattern.fixtures import sample_graph_path
from kgpattern.scoring import pattern_score, tree_score

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))
KEYWORDS = ("database", "software", "company")


def _kgpattern_names(tree) -> dict:
    """Name -> object for every `from kgpattern... import name [as alias]` in `tree`."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kgpattern":
            for alias in node.names:
                try:
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    value = getattr(importlib.import_module(node.module), alias.name)
                bound[alias.asname or alias.name] = value
    return bound


def _callee(node, bound):
    """The kgpattern object a call node calls (`name(...)` or `module.name(...)`), else None."""
    func = node.func
    if isinstance(func, ast.Name):
        return bound.get(func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        owner = bound.get(func.value.id)
        if inspect.ismodule(owner):
            return getattr(owner, func.attr)
    return None


def test_traced_calls_resolve_as_the_tracer_installs_them():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED_CALLS
    for owner, attr, name in tracing.TRACED_CALLS:
        assert callable(owner.__dict__.get(attr)), f"{name}: {owner.__name__} has no {attr}"


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_every_kgpattern_name_exists_and_takes_its_arguments(source):
    tree = ast.parse(source.read_text(encoding="utf-8"))
    bound = _kgpattern_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = bound.get(node.value.id)
            if inspect.ismodule(owner):
                assert hasattr(owner, node.attr), f"{source.name}:{node.lineno}: {node.value.id}.{node.attr}"
        elif isinstance(node, ast.Call):
            callee = _callee(node, bound)
            if callee is None or any(isinstance(a, ast.Starred) for a in node.args):
                continue
            keywords = {kw.arg: None for kw in node.keywords if kw.arg is not None}
            try:
                inspect.signature(callee).bind(*node.args, **keywords)
            except TypeError as exc:
                pytest.fail(f"{source.name}:{node.lineno}: {ast.unparse(node.func)} {exc}")


def test_enumeration_reference_calls(sample_graph, sample_index_pr):
    graph, idx = sample_graph, sample_index_pr
    stats: dict = {}
    pairs = search.search_linear_enum(graph, idx, search.Query(KEYWORDS, 1), stats=stats)
    assert pairs and stats["subtrees_accepted"] == sum(len(members) for _, members in pairs)
    ranked = bench.rank_enumeration(pairs)
    assert sorted(sp.pattern for sp in ranked) == sorted(p for p, _ in pairs)
    keys = [(-sp.score, pat.tree_sort_key(sp.pattern)) for sp in ranked]
    assert keys == sorted(keys)
    for sp in ranked:
        assert sp.score == pattern_score([tree_score(m.paths) for m in sp.subtrees])
        assert (sp.estimated_score, sp.subtree_count) == (None, len(sp.subtrees))

    baseline = search.search_baseline(graph, idx, search.Query(KEYWORDS, 2))
    assert [sp.pattern for sp in baseline.patterns] == [sp.pattern for sp in ranked[:2]]
    assert baseline.stats["subtrees_accepted"] == stats["subtrees_accepted"]
    assert baseline.stats["patterns_found"] == len(pairs)
    assert bench.precision_against_exact(ranked, baseline.patterns, 2) == 1.0


def test_engine_calls_and_tables(sample_graph, sample_index_pr):
    graph, idx = sample_graph, sample_index_pr
    query = search.Query(KEYWORDS, 3)
    exact = search.search_baseline(graph, idx, query).patterns
    sampling = search.SamplingConfig(1000.0, 0.2, 7)
    for result in (
        search.search_pattern_enum(graph, idx, query),
        search.search_linear_topk(graph, idx, query),
        search.search_linear_topk(graph, idx, query, sampling),
    ):
        assert [sp.pattern for sp in result.patterns] == [sp.pattern for sp in exact]
        assert isinstance(result.stats, dict)
    for sp in exact:
        table = tables.render_table(graph, sp.pattern, sp.subtrees)
        assert len(table.column_names) and len(table.rows) == sp.subtree_count
        assert pat.tree_pattern_names(graph, sp.pattern)


def test_index_calls(sample_graph, sample_index_pr):
    idx = sample_index_pr
    assert isinstance(kernels.backend_name(), str)
    assert idx.stats.entry_count > 0 and idx.stats.cost_proxy > 0
    blocks = 0
    for word in KEYWORDS:
        for root in idx.roots(word):
            for pattern in idx.patterns(word, root=root):
                block = idx.block(word, root, pattern)
                assert len(block[3]) - 1 == len(idx.paths(word, pattern=pattern, root=root))  # tracing reads b[3]
                blocks += 1
    assert blocks
    again = indexio.deserialize(indexio.serialize(idx))
    assert again.stats == idx.stats  # perfbench reads entry_count and cost_proxy
    assert (again.n_entities, again.n_types, again.n_attrs) == (idx.n_entities, idx.n_types, idx.n_attrs)
    assert len(sample_graph.edges) == sum(map(len, sample_graph.adjacency)) > 0  # perfbench reads len(graph.edges)


def test_cli_query_json_is_the_document_the_harness_builds(sample_graph, sample_index_pr, tmp_path):
    graph, idx = sample_graph, sample_index_pr
    indexio.write_index(idx, tmp_path / "sample.kgpx")
    out = tmp_path / "out.json"
    argv = ["query", "--graph", str(sample_graph_path()), "--index", str(tmp_path / "sample.kgpx"),
            "--q", " ".join(KEYWORDS), "--k", "10", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    ranked = search.search_linear_topk(graph, indexio.read_index(tmp_path / "sample.kgpx"), search.Query(KEYWORDS, 10)).patterns
    patterns = []
    for sp in ranked:
        table = tables.render_table(graph, sp.pattern, sp.subtrees)
        patterns.append({
            "pattern": pat.tree_pattern_names(graph, sp.pattern),
            "score": sp.score,
            "estimated_score": sp.estimated_score,
            "count": sp.subtree_count,
            "columns": table.column_names,
            "rows": table.rows,
        })
    doc = {"query": list(KEYWORDS), "k": 10, "algorithm": "linear-topk",
           "params": {"lambda": "inf", "rho": 1.0, "seed": 0}, "patterns": patterns}
    assert out.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"
