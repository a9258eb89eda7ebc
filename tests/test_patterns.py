from kgpattern import patterns as pat

from conftest import tree_height


def test_edge_ending_by_parity():
    assert not pat.is_edge_ending((1,))
    assert pat.is_edge_ending((1, 0))
    assert not pat.is_edge_ending((1, 0, 2))
    assert pat.is_edge_ending((1, 0, 2, 3))


def test_node_count_counts_edge_target():
    assert pat.node_count((1,)) == 1
    assert pat.node_count((1, 0, 2)) == 2
    assert pat.node_count((1, 0)) == 2          # edge-ending: target counted
    assert pat.node_count((1, 0, 2, 3)) == 3    # Software.Developer.Company.Revenue shape


def test_tree_height():
    assert tree_height(((1,), (1, 0, 2, 3))) == 3


def test_pattern_names(sample_graph, sample_index):
    names = sorted(pat.pattern_names(sample_graph, p) for p in sample_index.patterns("database"))
    assert names == ["Book", "Software.Genre.TEXT", "Software.Reference.Book"]


def test_reconstruction_matches_stored(sample_graph, sample_index):
    for word in sample_index.vocabulary():
        for rec in sample_index.paths(word):
            rebuilt = pat.path_pattern_of(sample_graph, rec.nodes, rec.attrs, pat.is_edge_ending(rec.pattern))
            assert rebuilt == rec.pattern
