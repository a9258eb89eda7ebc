import math

import pytest

from kgpattern import GenConfig, ParameterError, generate_graph
from kgpattern.cli import main

from conftest import graph_from_text


def test_entity_count():
    text = generate_graph(GenConfig(entities=100, seed=1))
    assert sum(1 for line in text.splitlines() if line.startswith("E ")) == 100
    g = graph_from_text(text)
    assert g.n_entities >= 100  # literals add dummies on top


def test_same_seed_identical():
    cfg = GenConfig(entities=60, seed=7)
    assert generate_graph(cfg) == generate_graph(cfg)


def test_different_seed_differs():
    assert generate_graph(GenConfig(seed=1)) != generate_graph(GenConfig(seed=2))


def test_loadable_and_typed():
    g = graph_from_text(generate_graph(GenConfig(entities=50, types=4, seed=3)))
    named_types = set(g.entity_type[e] for e in range(g.n_entities) if not g.is_literal(e))
    assert named_types and all(t != 0 for t in named_types)


def test_degree_parameter_scales_edges():
    base_edges, doubled_edges = 0, 0
    for seed in range(20):
        low = graph_from_text(generate_graph(GenConfig(entities=80, avg_out_degree=1.5, seed=seed)))
        high = graph_from_text(
            generate_graph(GenConfig(entities=80, avg_out_degree=3.0, seed=seed))
        )
        base_edges += len(low.edges)
        doubled_edges += len(high.edges)
    ratio = doubled_edges / base_edges
    assert abs(ratio - 2.0) <= 0.2


def test_config_validation():
    with pytest.raises(ParameterError):
        GenConfig(entities=0)
    with pytest.raises(ParameterError):
        GenConfig(avg_out_degree=0)
    with pytest.raises(ParameterError):
        GenConfig(literal_fraction=1.5)


@pytest.mark.parametrize("degree", [math.nan, math.inf, 1000.0, 746.0, -1.0])
def test_degree_outside_the_poisson_range_is_refused(degree):
    # nan made the Poisson draw loop forever; inf and means past ~745 drew about 745 edges each.
    with pytest.raises(ParameterError, match="avg_out_degree"):
        GenConfig(avg_out_degree=degree)


@pytest.mark.parametrize("degree", ["inf", "1000"])
def test_gen_refuses_a_degree_outside_the_poisson_range(tmp_path, capsys, degree):
    out = tmp_path / "g.txt"
    assert main(["gen", "--entities", "5", "--avg-degree", degree, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: avg_out_degree must be in (0, 700]")
    assert not out.exists()


def test_largest_degree_is_drawn_with_its_mean():
    text = generate_graph(GenConfig(entities=20, avg_out_degree=700.0, seed=5))
    edges = sum(1 for line in text.splitlines() if line.startswith("A "))
    assert abs(edges / 20 - 700.0) < 4 * math.sqrt(700.0 / 20)
