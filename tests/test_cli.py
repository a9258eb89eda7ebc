import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgpattern import Query, build_index, cli, compute_pagerank, load_graph, pathindex, render_table
from kgpattern import patterns as pat
from kgpattern.bench import ENGINES, rank_enumeration
from kgpattern.cli import main
from kgpattern.fixtures import load_sample_graph, sample_graph_path
from kgpattern.indexio import read_index, write_index
from kgpattern.search import search_linear_enum, search_linear_topk

from conftest import flipped, with_columns

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated graph + built index + query file, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    graph = root / "toy.graph"
    index = root / "toy.kgpx"
    queries = root / "queries.txt"
    assert main(["gen", "--entities", "60", "--vocab", "12", "--seed", "5", "--out", str(graph)]) == 0
    assert main(["build", "--graph", str(graph), "--index", str(index), "--d", "2"]) == 0
    queries.write_text("w0 w1\nw0\n", encoding="utf-8")
    return {"root": root, "graph": graph, "index": index, "queries": queries}


@pytest.fixture(scope="module")
def sample_ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_sample")
    index = root / "sample.kgpx"
    assert main(["build", "--graph", str(sample_graph_path()), "--index", str(index), "--d", "3"]) == 0
    return {"root": root, "index": index}


class TestGenBuild:
    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        for out in (a, b):
            assert main(["gen", "--entities", "30", "--seed", "9", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_build_writes_index(self, workspace):
        assert workspace["index"].stat().st_size > 0


class TestQuery:
    def test_text_output(self, sample_ws, capsys):
        rc = main(
            ["query", "--graph", str(sample_graph_path()), "--index", str(sample_ws["index"]),
             "--q", "database software company revenue", "--k", "2", "--format", "text"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Software" in out and "SQL Server" in out

    def test_json_output(self, sample_ws, tmp_path):
        out = tmp_path / "res.json"
        rc = main(
            ["query", "--graph", str(sample_graph_path()), "--index", str(sample_ws["index"]),
             "--q", "database software company revenue", "--k", "2", "--format", "json",
             "--algo", "baseline", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["query"] == ["database", "software", "company", "revenue"]
        assert doc["algorithm"] == "baseline"
        assert len(doc["patterns"]) == 2
        top = doc["patterns"][0]
        assert top["score"] == pytest.approx(doc["patterns"][0]["score"])
        assert top["columns"] == ["Software", "Genre", "Company", "Revenue"]
        assert len(top["rows"]) == top["count"] == 2

    def test_csv_output_is_top_pattern_table(self, sample_ws, capsys):
        rc = main(
            ["query", "--graph", str(sample_graph_path()), "--index", str(sample_ws["index"]),
             "--q", "database software company revenue", "--format", "csv"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "Software,Genre,Company,Revenue"
        assert len(lines) == 3

    @pytest.mark.parametrize("algo", ["baseline", "pattern-enum", "linear", "linear-topk"])
    def test_algorithms_agree_via_cli(self, sample_ws, tmp_path, algo):
        out = tmp_path / f"{algo}.json"
        rc = main(
            ["query", "--graph", str(sample_graph_path()), "--index", str(sample_ws["index"]),
             "--q", "database software", "--k", "3", "--format", "json", "--algo", algo,
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        scores = [p["score"] for p in doc["patterns"]]
        assert scores == sorted(scores, reverse=True)
        (tmp_path / "agree.json").write_text(json.dumps(scores))

    @pytest.mark.parametrize("aggregator", ["sum", "avg", "max", "count"])
    def test_linear_prints_the_ranked_enumeration(self, sample_ws, tmp_path, monkeypatch, aggregator):
        """`--algo linear` runs exact linear-topk; its JSON is byte for byte
        that of ranking the whole linear enumeration."""
        cfg = tmp_path / "scoring.json"
        cfg.write_text(json.dumps({"aggregator": aggregator}))

        def run(tag):
            out = tmp_path / f"{tag}.json"
            rc = main(
                ["query", "--graph", str(sample_graph_path()), "--index", str(sample_ws["index"]),
                 "--q", "database software company", "--k", "20", "--format", "json", "--algo", "linear",
                 "--config", str(cfg), "--out", str(out)]
            )
            assert rc == 0
            return out.read_bytes()

        topk = run("topk")
        enumeration = lambda g, idx, q, scoring, sampling: rank_enumeration(search_linear_enum(g, idx, q), scoring)[: q.k]
        monkeypatch.setitem(ENGINES, "linear", enumeration)
        assert run("enumeration") == topk
        assert json.loads(topk)["patterns"]

    def test_scoring_config_file(self, sample_ws, tmp_path, capsys):
        cfg = tmp_path / "scoring.json"
        cfg.write_text(json.dumps({"aggregator": "count"}))
        rc = main(
            ["query", "--graph", str(sample_graph_path()), "--index", str(sample_ws["index"]),
             "--q", "database software company revenue", "--k", "1", "--format", "json",
             "--config", str(cfg)]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["patterns"][0]["score"] == 2.0  # count of member subtrees

    def test_sampling_flags(self, workspace, capsys):
        rc = main(
            ["query", "--graph", str(workspace["graph"]), "--index", str(workspace["index"]),
             "--q", "w0 w1", "--algo", "linear-topk", "--lambda", "1", "--rho", "0.5",
             "--seed", "3", "--format", "json"]
        )
        assert rc == 0
        json.loads(capsys.readouterr().out)


class TestOracleAndDump:
    def test_oracle_count_matches_list(self, capsys):
        rc = main(["oracle", "--graph", str(sample_graph_path()), "--q", "database company", "--d", "3",
                   "--count"])
        assert rc == 0
        count = int(capsys.readouterr().out.strip())
        rc = main(["oracle", "--graph", str(sample_graph_path()), "--q", "database company", "--d", "3",
                   "--format", "json"])
        assert rc == 0
        listed = json.loads(capsys.readouterr().out)
        assert count == len(listed) > 0

    def test_dump_index(self, sample_ws, capsys):
        rc = main(["dump-index", "--index", str(sample_ws["index"])])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["depth"] == 3
        assert "database" in doc["words"]
        assert doc["words"]["database"]["patterns"] == [
            "Book",
            "Software.Genre.TEXT",
            "Software.Reference.Book",
        ]


class TestBenchSweep:
    def test_bench_json(self, workspace, tmp_path):
        out = tmp_path / "bench.json"
        rc = main(
            ["bench", "--graph", str(workspace["graph"]), "--index", str(workspace["index"]),
             "--queries", str(workspace["queries"]), "--k", "3", "--format", "json",
             "--algos", "baseline,linear-topk", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["timings"]) == 4
        assert {t["algorithm"] for t in doc["timings"]} == {"baseline", "linear-topk"}

    def test_bench_csv(self, workspace, capsys):
        rc = main(
            ["bench", "--graph", str(workspace["graph"]), "--index", str(workspace["index"]),
             "--queries", str(workspace["queries"]), "--format", "csv", "--algos", "linear-topk"]
        )
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0].startswith("kind,")

    def test_sweep(self, workspace, capsys):
        rc = main(
            ["sweep", "--graph", str(workspace["graph"]), "--index", str(workspace["index"]),
             "--queries", str(workspace["queries"]), "--k", "3", "--lambdas", "inf,0",
             "--rhos", "0.5,1.0", "--seeds", "2", "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["precisions"]
        for p in doc["precisions"]:
            if p["rate"] == 1.0:
                assert p["precision"] == 1.0


class TestEmptyGraph:
    def test_build_and_query_empty_graph(self, tmp_path, capsys):
        graph = tmp_path / "empty.graph"
        graph.write_text("# nothing here\n")
        index = tmp_path / "empty.kgpx"
        assert main(["build", "--graph", str(graph), "--index", str(index), "--d", "2"]) == 0
        capsys.readouterr()  # drop the build status line
        rc = main(["query", "--graph", str(graph), "--index", str(index), "--q", "anything",
                   "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["patterns"] == []


class TestExitCodes:
    def test_usage_error(self):
        assert main(["query", "--graph", "x"]) == 1  # missing required flags

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_graph_is_data_error(self, tmp_path):
        rc = main(["build", "--graph", str(tmp_path / "nope.graph"), "--index", str(tmp_path / "i"), "--d", "2"])
        assert rc == 2

    def test_malformed_graph_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("E onlykey\n")
        rc = main(["build", "--graph", str(bad), "--index", str(tmp_path / "i"), "--d", "2"])
        assert rc == 2

    def test_corrupt_index_is_data_error(self, tmp_path):
        fake = tmp_path / "fake.kgpx"
        fake.write_bytes(b"NOTANINDEX")
        rc = main(["dump-index", "--index", str(fake)])
        assert rc == 2

    def test_bad_parameter_values_are_usage_errors(self, sample_ws):
        common = ["query", "--graph", str(sample_graph_path()), "--index", str(sample_ws["index"])]
        assert main(common + ["--q", "database", "--algo", "linear-topk", "--rho", "0"]) == 1
        assert main(common + ["--q", "database", "--lambda", "notanumber"]) == 1
        assert main(common + ["--q", "   "]) == 1

    @pytest.mark.parametrize(
        "config", ["[1]", '{"z1": "x"}', '{"z1": NaN}', '{"z2": true}', '{"agregator": "max"}'],
        ids=["not-an-object", "string-exponent", "nan-exponent", "bool-exponent", "unknown-key"],
    )
    def test_bad_scoring_config_is_usage_error(self, sample_ws, tmp_path, capsys, config):
        cfg = tmp_path / "scoring.json"
        cfg.write_text(config)
        rc = main(
            ["query", "--graph", str(sample_graph_path()), "--index", str(sample_ws["index"]),
             "--q", "database software", "--format", "json", "--config", str(cfg)]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("config", ['{"z1": 1000}', '{"z1": 300, "z3": 300}'], ids=["pow-overflow", "product-overflow"])
    @pytest.mark.parametrize("algo", ["baseline", "pattern-enum", "linear", "linear-topk"])
    def test_score_past_the_float_range_is_data_error(self, sample_ws, tmp_path, capsys, algo, config):
        cfg = tmp_path / "scoring.json"
        cfg.write_text(config)
        rc = main(
            ["query", "--graph", str(sample_graph_path()), "--index", str(sample_ws["index"]),
             "--q", "database software company", "--algo", algo, "--format", "json", "--config", str(cfg)]
        )
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: a tree score is not finite: the exponents take it past the float range\n"

    @pytest.mark.parametrize(
        "flags", [["--damping", "1.5"], ["--damping", "nan"], ["--damping", "1"], ["--damping", "-0.1"],
                  ["--tol", "nan"], ["--tol", "-1"], ["--tol", "inf"]],
        ids=["damping-1.5", "damping-nan", "damping-1", "damping-negative", "tol-nan", "tol-negative", "tol-inf"],
    )
    def test_bad_pagerank_parameters_are_usage_errors(self, tmp_path, capsys, flags):
        index = tmp_path / "i.kgpx"
        assert main(["build", "--graph", str(sample_graph_path()), "--index", str(index), *flags]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not index.exists()

    @pytest.mark.parametrize("command", ["query", "sweep"])
    def test_nan_lambda_is_usage_error(self, command, workspace, capsys):
        args = [command, "--graph", str(workspace["graph"]), "--index", str(workspace["index"])]
        if command == "query":
            args += ["--q", "w0 w1", "--lambda", "nan", "--rho", "0.5"]
        else:
            args += ["--queries", str(workspace["queries"]), "--lambdas", "nan"]
        assert main(args) == 1
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--rhos", "abc"], ["--rhos", "0.5,x"], ["--seeds", "0"], ["--seeds", "-2"]],
        ids=["rhos-abc", "rhos-partly-bad", "seeds-0", "seeds-negative"],
    )
    def test_bad_sweep_flags_are_usage_errors(self, workspace, capsys, flags):
        args = ["sweep", "--graph", str(workspace["graph"]), "--index", str(workspace["index"]),
                "--queries", str(workspace["queries"]), *flags]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, flag, value",
        [("sweep", "--rhos", ","), ("sweep", "--lambdas", " "), ("bench", "--algos", ",")],
        ids=["sweep-rhos", "sweep-lambdas", "bench-algos"],
    )
    def test_empty_list_flags_are_usage_errors(self, tmp_path, capsys, command, flag, value):
        # The graph and index do not exist: the flag must be refused before either loads.
        args = [command, "--graph", str(tmp_path / "none.graph"), "--index", str(tmp_path / "none.kgpx"),
                "--queries", str(tmp_path / "none.txt"), flag, value]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {flag} must list at least one value, got {value!r}\n"

    @pytest.mark.parametrize("text", ["", "# a comment\n\n   \n"], ids=["empty", "comments-only"])
    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_queries_file_without_a_query_is_data_error(self, tmp_path, capsys, command, text):
        # The graph and index do not exist: the file must be refused before either loads.
        queries = tmp_path / "queries.txt"
        queries.write_text(text, encoding="utf-8")
        args = [command, "--graph", str(tmp_path / "none.graph"), "--index", str(tmp_path / "none.kgpx"),
                "--queries", str(queries)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: --queries {queries} holds no query\n"

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_queries_line_without_a_keyword_is_data_error(self, tmp_path, capsys, command):
        # The graph and index do not exist: the line must be refused before either loads.
        queries = tmp_path / "queries.txt"
        queries.write_text("w0 w1\n# a comment\n  !!!  \nw2\n", encoding="utf-8")
        args = [command, "--graph", str(tmp_path / "none.graph"), "--index", str(tmp_path / "none.kgpx"),
                "--queries", str(queries)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: --queries {queries} line 3: '!!!' holds no keyword\n"

    @pytest.mark.parametrize(
        "command, flag, bad",
        [("build", "--graph", "directory"), ("query", "--graph", "directory"), ("query", "--index", "directory"),
         ("build", "--index", "directory"), ("bench", "--queries", "directory"), ("build", "--graph", "latin-1"),
         ("bench", "--queries", "latin-1"), ("query", "--config", "latin-1")],
        ids=["build-graph-dir", "query-graph-dir", "query-index-dir", "build-index-dir", "bench-queries-dir",
             "graph-latin-1", "queries-latin-1", "config-latin-1"],
    )
    def test_unreadable_input_paths_are_data_errors(self, workspace, tmp_path, capsys, command, flag, bad):
        if bad == "directory":
            path = tmp_path
        else:
            path = tmp_path / "latin-1.txt"
            path.write_bytes("E café Thing w0\n".encode("latin-1"))
        graph, index, queries = workspace["graph"], workspace["index"], workspace["queries"]
        args = {
            "build": ["build", "--graph", graph, "--index", tmp_path / "out.kgpx"],
            "query": ["query", "--graph", graph, "--index", index, "--q", "w0 w1"],
            "bench": ["bench", "--graph", graph, "--index", index, "--queries", queries, "--algos", "linear-topk"],
        }[command]
        if flag in args:
            args[args.index(flag) + 1] = path
        else:
            args += [flag, path]
        assert main([str(a) for a in args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(path) in err
        if bad == "latin-1":
            where = "line 1: " if flag == "--graph" else f"{flag} "
            assert err == f"error: {where}{path} is not UTF-8 (invalid continuation byte at byte 6)\n"

    @pytest.mark.parametrize("count", [[], ["--count"]], ids=["list", "count"])
    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_oracle_depth_below_one_is_usage_error(self, capsys, depth, count):
        assert main(["oracle", "--graph", str(sample_graph_path()), "--q", "database", "--d", depth, *count]) == 1
        assert capsys.readouterr().err == f"error: depth must be >= 1, got {depth}\n"

    def test_unknown_engine_is_usage_error(self, workspace, capsys):
        rc = main(
            ["bench", "--graph", str(workspace["graph"]), "--index", str(workspace["index"]),
             "--queries", str(workspace["queries"]), "--algos", "linear-topk,foo"]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: unknown engine foo")

    @pytest.mark.parametrize("command", ["query", "bench", "sweep"])
    def test_index_of_another_graph_is_data_error(self, command, workspace, capsys):
        args = [command, "--graph", str(sample_graph_path()), "--index", str(workspace["index"])]
        if command == "query":
            args += ["--q", "database software"]
        else:
            args += ["--queries", str(workspace["queries"])]
        assert main(args) == 2
        assert "was not built from graph" in capsys.readouterr().err

    def test_index_of_an_edited_graph_is_data_error(self, tmp_path, capsys):
        # The edit keeps the entity count and the name tables: only the graph
        # fingerprint tells the graphs apart.
        graph, index = tmp_path / "g.graph", tmp_path / "g.kgpx"
        assert main(["gen", "--entities", "60", "--types", "3", "--attrs", "3", "--vocab", "10", "--seed", "1",
                     "--out", str(graph)]) == 0
        assert main(["build", "--graph", str(graph), "--index", str(index), "--d", "3"]) == 0
        text = graph.read_text(encoding="utf-8")
        edited = text.replace("E e0 kind0 w2 w5 w0\n", "E e0 kind0 w2 w5 w7\n").replace(
            "E e1 kind0 w1 w1 w3\n", "E e1 kind0 w4 w4 w3\n")
        assert edited.count("\n") == text.count("\n") and edited != text
        graph.write_text(edited, encoding="utf-8")
        capsys.readouterr()
        for q in ("w0 w1", "w1 w3", "w0", "w1"):
            assert main(["query", "--graph", str(graph), "--index", str(index), "--q", q, "--format", "json"]) == 2
            assert "was not built from graph" in capsys.readouterr().err
        assert main(["build", "--graph", str(graph), "--index", str(index), "--d", "3"]) == 0
        assert main(["query", "--graph", str(graph), "--index", str(index), "--q", "w0 w1"]) == 0

    @staticmethod
    def assert_record_is_no_path(idx, tmp_path, capsys, record, word, **changes):
        """`idx` with the columns `changes` passes every check `read_index`
        makes, but a query on `word` exits 2 naming `record` as no path."""
        corrupt = tmp_path / "corrupt.kgpx"
        write_index(with_columns(idx, **changes), corrupt)
        read_index(corrupt)
        capsys.readouterr()
        args = ["query", "--graph", str(sample_graph_path()), "--index", str(corrupt), "--q", word, "--format", "json"]
        assert main(args) == 2
        assert f"is corrupt: 1 records (the first is record {record}) are no paths" in capsys.readouterr().err

    def test_index_whose_pattern_ids_disagree_with_its_paths_is_data_error(self, sample_ws, tmp_path, capsys):
        # One record's pattern id moves to another pattern of the same length,
        # so the file passes every check `read_index` makes: the last record
        # of a word, moved to a later pattern, keeps its word's records sorted.
        idx = read_index(sample_ws["index"])
        c = idx.columns
        ends = (np.cumsum(c.counts) - 1).tolist()
        for record in ends:
            old = c.pattern_id[record]
            lengths = c.patterns.lengths
            later = np.flatnonzero((lengths == lengths[old]) & (np.arange(len(lengths)) > old))
            if len(later):
                break
        pattern_id = c.pattern_id.copy()
        pattern_id[record] = later[0]
        self.assert_record_is_no_path(idx, tmp_path, capsys, record, c.vocab[ends.index(record)], pattern_id=pattern_id)

    def test_index_whose_node_types_disagree_with_its_patterns_is_data_error(self, sample_ws, tmp_path, capsys):
        # A word's last one-node record moves to the next pattern, also of one
        # node: the path has no edge, so only its node's type gives it away.
        idx = read_index(sample_ws["index"])
        c = idx.columns
        ends = (np.cumsum(c.counts) - 1).tolist()
        lengths = c.patterns.lengths
        record = next(j for j in ends if lengths[c.pattern_id[j]] == 1 and lengths[c.pattern_id[j] + 1] == 1)
        pattern_id = c.pattern_id.copy()
        pattern_id[record] += 1
        self.assert_record_is_no_path(idx, tmp_path, capsys, record, c.vocab[ends.index(record)], pattern_id=pattern_id)

    def test_index_whose_path_is_not_in_the_graph_is_data_error(self, sample_ws, tmp_path, capsys):
        # Record 0 is Springer -Revenue-> "US$ 12 billion". Its last node
        # becomes another literal, of the same type, that Springer has no
        # Revenue edge to: every node keeps its pattern's type.
        idx = read_index(sample_ws["index"])
        graph = load_sample_graph()
        assert [graph.entity_text[n] for n in idx.paths("12")[0].nodes] == ["Springer", "US$ 12 billion"]
        nodes = idx.columns.nodes.copy()
        nodes[1] = graph.entity_text.index("Relational database")
        self.assert_record_is_no_path(idx, tmp_path, capsys, 0, "12", nodes=nodes)

    @staticmethod
    def second_step_broken(idx, graph):
        """The first 3-node record of `idx` and a copy of its nodes column in
        which that record's last node is another entity of the same type, one
        that its parent has no edge to by the record's second attribute."""
        idx.check(idx.vocabulary())
        c = idx.columns
        record = next(j for j in range(idx.stats.entry_count) if c.patterns.lengths[c.pattern_id[j]] // 2 == 2)
        parent, last = c.nodes[c.node_off[record] + 1 : c.node_off[record + 1]].tolist()
        attr = c.patterns[c.pattern_id[record]][3]
        nodes = c.nodes.copy()
        nodes[c.node_off[record] + 2] = next(
            n for n in range(graph.n_entities)
            if graph.entity_type[n] == graph.entity_type[last] and (attr, n) not in graph.adjacency[parent]
        )
        return record, nodes

    def test_index_whose_second_step_is_no_edge_is_data_error(self, sample_ws, tmp_path, capsys):
        # Every node keeps its pattern's type and the first step stays an edge.
        idx = read_index(sample_ws["index"])
        record, nodes = self.second_step_broken(idx, load_sample_graph())
        word = next(w for w, span in idx.words.items() if record in span)
        self.assert_record_is_no_path(idx, tmp_path, capsys, record, word, nodes=nodes)

    @pytest.mark.parametrize("element", [0, 2], ids=["root", "child"])
    def test_index_whose_node_type_disagrees_with_its_pattern_is_data_error(self, sample_ws, tmp_path, capsys, element):
        # One type of a multi-node pattern, the root's or step 0's child's,
        # changes where the pattern table stays in canonical order: its
        # records' steps stay edges and their other nodes keep their types, so
        # only that node gives them away. The word queried has one record of
        # that pattern.
        idx = read_index(sample_ws["index"])
        c, table = idx.columns, list(idx.columns.patterns)
        edits = []  # (pattern id, edited pattern) pairs that keep the table canonical
        for q, p in enumerate(table):
            if len(p) <= max(element, 1):  # a one-node pattern, or no child at that element
                continue
            for t in range(idx.n_types):
                edited = table[:q] + [p[:element] + (t,) + p[element + 1 :]] + table[q + 1 :]
                if t != p[element] and len(set(edited)) == len(edited) and sorted(edited, key=pat.sort_key) == edited:
                    edits.append((q, edited[q]))
        q, pattern, word = next(
            (q, pattern, w) for q, pattern in edits
            for w, span in idx.words.items() if np.count_nonzero(c.pattern_id[span.start : span.stop] == q) == 1
        )
        span = idx.words[word]
        record = span.start + int(np.flatnonzero(c.pattern_id[span.start : span.stop] == q)[0])
        table[q] = pattern
        self.assert_record_is_no_path(idx, tmp_path, capsys, record, word, patterns=table)

    def assert_pairing_check_finds_a_broken_step(self, graph):
        """A valid index of `graph` has no mismatched record, and one whose
        record's second step is no edge has exactly that record; returns both
        indexes' columns."""
        idx = build_index(graph, compute_pagerank(graph), 3)
        ids = np.arange(idx.stats.entry_count)
        assert pathindex.mismatched_records(idx.columns, graph, ids).size == 0
        record, nodes = self.second_step_broken(idx, graph)
        broken = pathindex.index_columns(idx.columns._replace(nodes=nodes)[:6], idx.pagerank.scores, idx.n_attrs)
        assert pathindex.mismatched_records(broken, graph, ids).tolist() == [record]
        return idx.columns, broken

    def test_pairing_check_reads_wide_keys(self, monkeypatch):
        monkeypatch.setattr(pathindex, "slot_layout", lambda lengths, *_: (int(lengths.max(initial=0)) // 2, np.uint64))
        columns = self.assert_pairing_check_finds_a_broken_step(load_sample_graph())
        assert [c.key.dtype for c in columns] == [np.uint64, np.uint64]

    def test_pairing_check_reads_unsorted_adjacency(self):
        """The check finds a step's edge wherever its parent's rows of the edge
        arrays hold it: here each source's rows are reversed."""
        graph = load_sample_graph()
        offsets, rows = graph.edge_arrays
        reversed_at = np.repeat(offsets[:-1] + offsets[1:] - 1, np.diff(offsets)) - np.arange(len(rows))
        graph.edge_arrays = offsets, rows[reversed_at]
        assert any(row != sorted(row) for row in map(np.ndarray.tolist, np.split(graph.edge_arrays[1], offsets[1:-1])))
        self.assert_pairing_check_finds_a_broken_step(graph)

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_runs_as_a_module(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        res = subprocess.run([sys.executable, "-m", "kgpattern", "--help"], env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("usage: kgpattern")


def derived_forms_made(graph) -> set[str]:
    """The graph's forms made on first read that it has made so far."""
    return {name for name in ("edge_arrays", "adjacency", "edges", "_token_sets") if name in vars(graph)}


@pytest.mark.parametrize("ws, words", [("sample_ws", ("database", "software")), ("workspace", ("w0", "w1"))])
class TestColdQueryReadsOnlyItsGraph:
    """A cold query makes none of the graph's token sets and edge forms; the
    CLI's pairing check makes only the edge arrays."""

    @staticmethod
    def graph_path(ws):
        return ws.get("graph", sample_graph_path())

    def test_load_read_query_and_render_make_no_derived_form(self, request, ws, words):
        ws = request.getfixturevalue(ws)
        graph = load_graph(self.graph_path(ws))
        ranked = search_linear_topk(graph, read_index(ws["index"]), Query(words, 10)).patterns
        tables = [render_table(graph, sp.pattern, sp.subtrees) for sp in ranked]
        names = [pat.tree_pattern_names(graph, sp.pattern) for sp in ranked]
        assert ranked and all(table.rows for table in tables) and all(names)
        assert derived_forms_made(graph) == set()

    def test_the_pairing_check_makes_the_edge_arrays_only(self, request, ws, words):
        ws = request.getfixturevalue(ws)
        args = argparse.Namespace(graph=str(self.graph_path(ws)), index=str(ws["index"]))
        graph, idx = cli._load_graph_and_index(args, words)
        assert all(idx.words[w].stop > idx.words[w].start for w in words)
        assert derived_forms_made(graph) == {"edge_arrays"}


class TestCorruptWord:
    """A corrupt record fails the commands that read its word, and cannot
    change the output of those that do not."""

    QUERY = ["--q", "database software", "--format", "json"]

    @pytest.fixture(scope="class")
    def corrupt(self, sample_ws, tmp_path_factory):
        # `springer` is no keyword of QUERY.
        index = tmp_path_factory.mktemp("corrupt") / "flipped.kgpx"
        index.write_bytes(flipped(sample_ws["index"].read_bytes(), read_index(sample_ws["index"]), "springer"))
        return index

    def run(self, capsys, *args) -> tuple[int, str, str]:
        capsys.readouterr()
        rc = main([str(arg) for arg in args])
        out, err = capsys.readouterr()
        return rc, out, err

    @pytest.mark.parametrize("algo", list(ENGINES))
    def test_a_query_that_does_not_read_the_word_prints_the_same_json(self, sample_ws, corrupt, capsys, algo):
        graph = sample_graph_path()
        clean = self.run(capsys, "query", "--graph", graph, "--index", sample_ws["index"], "--algo", algo, *self.QUERY)
        assert clean[0] == 0
        assert self.run(capsys, "query", "--graph", graph, "--index", corrupt, "--algo", algo, *self.QUERY) == clean

    @pytest.mark.parametrize("algo", list(ENGINES))
    def test_a_query_that_reads_the_word_is_a_data_error(self, corrupt, capsys, algo):
        rc, out, err = self.run(capsys, "query", "--graph", sample_graph_path(), "--index", corrupt,
                                "--algo", algo, "--q", "database springer")
        assert (rc, out) == (2, "")
        assert err == "error: checksum mismatch: the records of word 'springer' are corrupt\n"

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_bench_and_sweep_read_every_query_word(self, corrupt, tmp_path, capsys, command):
        queries = tmp_path / "queries.txt"
        queries.write_text("database\ncompany springer\n", encoding="utf-8")
        args = [command, "--graph", sample_graph_path(), "--index", corrupt, "--queries", queries]
        assert self.run(capsys, *args)[0] == 2
        queries.write_text("database\ncompany software\n", encoding="utf-8")
        assert self.run(capsys, *args)[0] == 0

    def test_dump_index_is_a_data_error(self, corrupt, capsys):
        rc, out, err = self.run(capsys, "dump-index", "--index", corrupt)
        assert (rc, out) == (2, "")
        assert "checksum mismatch: the records of word 'springer'" in err

    def test_a_version_9_file_is_a_data_error(self, capsys):
        for version in (9, 10, 11):  # each file written by that KGPX version's `build` of the sample graph
            old = Path(__file__).resolve().parent / "data" / f"software_kb-v{version}.kgpx"
            for args in (["dump-index"], ["query", "--graph", sample_graph_path(), "--q", "database"]):
                rc, out, err = self.run(capsys, *args, "--index", old)
                assert (rc, out, err) == (2, "", f"error: unsupported index version {version}\n")


class TestByteDeterminism:
    def run_query(self, ws, out_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        cmd = [
            sys.executable, "-m", "kgpattern.cli", "query",
            "--graph", str(sample_graph_path()), "--index", str(ws["index"]),
            "--q", "database software company revenue", "--k", "5",
            "--algo", "linear-topk", "--lambda", "2", "--rho", "0.5", "--seed", "11",
            "--format", "json", "--out", str(out_path),
        ]
        res = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return out_path.read_bytes()

    def test_identical_across_runs_and_threads(self, sample_ws, tmp_path):
        blobs = [self.run_query(sample_ws, tmp_path / f"out{i}.json") for i in range(3)]
        assert blobs[0] == blobs[1] == blobs[2]
