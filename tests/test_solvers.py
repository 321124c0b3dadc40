import pytest
from hypothesis import given, settings

from boxlab import (
    ResourceBudgetError,
    chromatic_number_exact,
    clique_number_exact,
    complete_multipartite,
    compressed_zn,
    cycle_graph,
    is_clique,
    make_graph,
    maximal_cliques,
)
from boxlab.circular import circular_clique
from boxlab.solvers import _dsatur_greedy

from oracles import brute_chromatic, brute_clique, brute_maximal_cliques, graphs, net_graph


def test_chromatic_examples():
    assert chromatic_number_exact(cycle_graph(4))[0] == 2
    assert chromatic_number_exact(complete_multipartite([2, 2, 2]))[0] == 3
    # ceil(5/2) = 3 for the circular clique on 5 vertices with distance 2
    assert chromatic_number_exact(circular_clique(5, 2))[0] == 3


def test_chromatic_search_beats_the_greedy_bound():
    # DSATUR spends 4 colours here but chi = omega = 3, so the exact
    # k-colouring search runs and its success is the returned witness
    g = make_graph(
        9,
        [(0, 2), (0, 4), (1, 2), (1, 4), (1, 7), (2, 3), (2, 4), (3, 7),
         (3, 8), (4, 5), (4, 8), (5, 6), (5, 7), (5, 8), (6, 7)],
    )
    assert max(_dsatur_greedy(g)) + 1 == 4
    assert clique_number_exact(g)[0] == 3
    chi, coloring = chromatic_number_exact(g)
    assert chi == 3 == brute_chromatic(g)
    assert coloring.is_proper(g) and coloring.num_colors == 3


def test_clique_examples():
    assert clique_number_exact(cycle_graph(4))[0] == 2
    assert clique_number_exact(net_graph())[0] == 3
    assert clique_number_exact(compressed_zn(72).graph)[0] == 4


def test_witnesses_verify():
    g = net_graph()
    chi, coloring = chromatic_number_exact(g)
    assert coloring.is_proper(g) and coloring.num_colors == chi
    omega, witness = clique_number_exact(g)
    assert is_clique(g, witness) and len(witness) == omega


def test_limit_enforced():
    g = cycle_graph(65)  # one vertex over DEFAULT_SOLVER_LIMIT
    with pytest.raises(ResourceBudgetError):
        chromatic_number_exact(g)
    with pytest.raises(ResourceBudgetError):
        clique_number_exact(g)


def test_maximal_cliques_net():
    cliques = sorted(sorted(c) for c in maximal_cliques(net_graph()))
    assert cliques == [[0, 1, 2], [0, 3], [1, 4], [2, 5]]


@given(graphs(max_n=7))
@settings(max_examples=150, deadline=None)
def test_maximal_cliques_match_brute_force(g):
    # every maximal clique exactly once
    assert sorted(sorted(c) for c in maximal_cliques(g)) == brute_maximal_cliques(g)


@given(graphs(max_n=7))
@settings(max_examples=80, deadline=None)
def test_solvers_match_brute_force(g):
    chi, coloring = chromatic_number_exact(g)
    omega, witness = clique_number_exact(g)
    assert chi == brute_chromatic(g)
    assert omega == brute_clique(g)
    assert chi >= omega
    if g.n:
        assert coloring.is_proper(g)
        assert is_clique(g, witness)


def test_no_package_module_but_the_root_imports_the_solvers(package_imports):
    # the solvers serve the tests and the benchmark's traced layers; no certificate needs them
    importers = [
        module
        for module, names in package_imports.items()
        if module != "__init__.py" and any("solvers" in name.split(".") for name in names)
    ]
    assert importers == []
