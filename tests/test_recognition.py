import importlib
import random
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxlab import (
    Obstruction,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_of_intervals,
    is_interval_graph,
    make_graph,
    path_graph,
)
from boxlab import Graph, recognition
from boxlab.errors import ConstructionDefectError
from boxlab.intervals import IntervalRep, interval_adjacency
from boxlab.recognition import (
    asteroidal_paths,
    clique_spans,
    consecutive_clique_order,
    find_asteroidal_triple,
    is_induced_cycle,
    lex_bfs_order,
    maximal_cliques_chordal,
    perfect_elimination_order,
)

import oracles
from oracles import (
    SUBDIVIDED_CLAW,
    atlas_connected,
    atlas_graphs,
    brute_is_interval,
    chordal_graphs,
    disjoint_interval_graphs,
    graphs,
    interval_graphs,
    is_asteroidal_triple,
    net_graph,
    planted_at_graphs,
    planted_hole_graphs,
    two_at_unions,
)
from recognizer_stages import band_graph


def test_c4_yields_hole():
    ok, payload = is_interval_graph(cycle_graph(4))
    assert not ok
    assert isinstance(payload, Obstruction) and payload.kind == "chordless-cycle"
    assert sorted(payload.witness) == [0, 1, 2, 3]
    assert is_induced_cycle(cycle_graph(4), payload.witness)


def test_p4_yields_rep():
    ok, rep = is_interval_graph(path_graph(4))
    assert ok
    assert graph_of_intervals(rep) == path_graph(4)


def test_net_yields_asteroidal_triple():
    g = net_graph()
    ok, payload = is_interval_graph(g)
    assert not ok
    assert payload.kind == "asteroidal-triple"
    assert sorted(payload.witness) == [3, 4, 5]  # the three pendants
    assert is_asteroidal_triple(g, payload.witness)
    assert_at_carries_its_paths(g, payload)


def assert_at_carries_its_paths(g, obstruction):
    """The paths x to y, y to z and z to x, each along edges of g and outside
    the closed neighbourhood of the third vertex, checked on masks."""
    x, y, z = obstruction.witness
    assert len(obstruction.paths) == 3
    for path, (a, b, c) in zip(obstruction.paths, ((x, y, z), (y, z, x), (z, x, y))):
        assert (path[0], path[-1]) == (a, b)
        assert all(g.adj[u] >> v & 1 for u, v in zip(path, path[1:]))
        assert sum(1 << v for v in path) & (g.adj[c] | 1 << c) == 0


def test_at_paths_match_the_definition_on_atlas():
    # every triple of distinct vertices, and every triple with a repeated
    # one (up to rotation, which permutes the three paths), of every graph
    # on at most 7 vertices: the path search answers exactly when the
    # definition holds, and its paths are the witnesses
    ats = 0
    for g in atlas_graphs(7):
        adj = oracles.set_adj(g)
        repeated = [(x, x, y) for x, y in product(range(g.n), repeat=2)]
        for x, y, z in [*combinations(range(g.n), 3), *repeated]:
            paths = asteroidal_paths(g, (x, y, z))
            assert (paths is not None) == is_asteroidal_triple(g, (x, y, z)), (g, (x, y, z))
            if paths is None:
                continue
            ats += 1
            for path, (a, b, c) in zip(paths, ((x, y, z), (y, z, x), (z, x, y))):
                assert (path[0], path[-1]) == (a, b)
                assert all(v in adj[u] for u, v in zip(path, path[1:]))
                assert not set(path) & (adj[c] | {c})
    assert ats == 205


def is_chordal(g) -> bool:
    return perfect_elimination_order(g).failure is None


def test_peo_on_chordal_and_not():
    assert not is_chordal(cycle_graph(4))
    assert is_chordal(complete_graph(5))
    assert is_chordal(path_graph(6))


def test_long_holes_are_found():
    for n in range(4, 9):
        ok, payload = is_interval_graph(cycle_graph(n))
        assert not ok and payload.kind == "chordless-cycle"
        assert is_induced_cycle(cycle_graph(n), payload.witness)


def test_trivial_graphs():
    assert is_interval_graph(empty_graph(0)) == (True, IntervalRep(()))
    assert is_interval_graph(empty_graph(1))[0]
    assert is_interval_graph(empty_graph(5))[0]
    assert is_interval_graph(complete_graph(6))[0]


def test_round_trip_on_atlas():
    # every connected graph up to 6 vertices: interval ones round-trip
    # through an exact representation, the rest produce a valid obstruction
    for g in atlas_connected(6):
        ok, payload = is_interval_graph(g)
        if ok:
            assert graph_of_intervals(payload) == g
        elif payload.kind == "chordless-cycle":
            assert is_induced_cycle(g, payload.witness)
            assert payload.paths == ()
        else:
            assert is_asteroidal_triple(g, payload.witness)
            assert_at_carries_its_paths(g, payload)


@given(graphs(max_n=7))
@settings(max_examples=100, deadline=None)
def test_recognition_matches_order_oracle(g):
    ok, payload = is_interval_graph(g)
    assert ok == brute_is_interval(g)
    if ok:
        assert graph_of_intervals(payload) == g


def test_disconnected_interval_graph():
    g = make_graph(6, [(0, 1), (2, 3), (3, 4)])
    ok, rep = is_interval_graph(g)
    assert ok
    assert graph_of_intervals(rep) == g


def is_consecutive(cliques, order) -> bool:
    """`order` lists every clique once and each vertex's cliques form one run."""
    if sorted(order) != list(range(len(cliques))):
        return False
    where: dict[int, list[int]] = {}
    for pos, idx in enumerate(order):
        for v in cliques[idx]:
            where.setdefault(v, []).append(pos)
    return all(w[-1] - w[0] + 1 == len(w) for w in where.values())


def test_clique_order_search_is_not_bounded_by_recursion_depth():
    # 1199 cliques: a search that recursed once per placed clique would
    # overflow the interpreter stack here
    g = path_graph(1200)
    elim = perfect_elimination_order(g)
    cliques = maximal_cliques_chordal(elim)
    assert is_consecutive(cliques, consecutive_clique_order(cliques, elim.order))


def test_interval_path_is_recognized_without_the_cubic_scan():
    # the asteroidal-triple scan alone took 17 s at 800 vertices
    g = path_graph(1200)
    ok, rep = is_interval_graph(g)
    assert ok
    assert graph_of_intervals(rep) == g


def random_interval_graph(n: int, seed: int):
    """n integer intervals of length below 8 on [0, 3n], edges by a sweep."""
    rng = random.Random(seed)
    starts = rng.choices(range(3 * n), k=n)
    spans = sorted((lo, lo + rng.randrange(8), v) for v, lo in enumerate(starts))
    edges = []
    for a, (lo, hi, u) in enumerate(spans):
        for lo2, _, v in spans[a + 1 :]:
            if lo2 > hi:
                break
            edges.append((u, v))
    return make_graph(n, edges)


@pytest.mark.parametrize("kind", ["path", "random"])
def test_ten_thousand_vertex_interval_graphs_are_recognized(kind):
    g = path_graph(10_000) if kind == "path" else random_interval_graph(10_000, seed=1)
    ok, rep = is_interval_graph(g)
    assert ok
    assert interval_adjacency(rep) == g.adj


def test_caterpillar_with_claw_yields_asteroidal_triple():
    # spine 0..7 with three leaves per spine vertex, and a subdivided claw
    # centred on spine vertex 0; an unbounded clique-order search hits its
    # node cap here before it gives up on the order
    edges = [(i, i + 1) for i in range(7)]
    edges += [(i, 8 + 3 * i + j) for i in range(8) for j in range(3)]
    edges += [(0, 32), (32, 33), (0, 34), (34, 35), (0, 36), (36, 37)]
    g = make_graph(38, edges)
    ok, payload = is_interval_graph(g)
    assert not ok
    assert payload.kind == "asteroidal-triple"
    assert is_asteroidal_triple(g, payload.witness)


RECOGNITION_INPUTS = st.one_of(graphs(max_n=9), interval_graphs(), planted_at_graphs())


@given(RECOGNITION_INPUTS)
@settings(max_examples=150, deadline=None)
def test_lex_bfs_matches_list_label_oracle(g):
    # the same visit order and the same parent, the neighbour visited last
    assert lex_bfs_order(g) == oracles.lex_bfs_order(g)


@given(st.one_of(RECOGNITION_INPUTS, chordal_graphs(), graphs(max_n=14)))
@settings(max_examples=300, deadline=None)
def test_elimination_matches_reverse_walk(g):
    # the check at each visit gives the order, later neighbours, followers
    # and failure of the walk over the reverse order, tie-break included;
    # random graphs of up to 14 vertices make failures common
    assert perfect_elimination_order(g) == oracles.parent_perfect_elimination_order(g)


def test_elimination_matches_reverse_walk_on_random_graphs():
    # 2000 seeded graphs of up to 14 vertices, at every edge density, about
    # two in five of them with a failure
    rng = random.Random(47)
    failures = 0
    for _ in range(2000):
        n, density = rng.randrange(15), rng.random()
        g = make_graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
        elim = perfect_elimination_order(g)
        assert elim == oracles.parent_perfect_elimination_order(g), g.edges
        failures += elim.failure is not None
    assert failures > 600


def test_recognizer_checks_its_certificates(monkeypatch):
    # clique spans that do not realize the graph, and a chordal graph with
    # neither a consecutive clique order nor an AT, are defects; the first
    # carries the lowest vertex whose row the spans miss, with its span, and
    # the second the scattered vertices, never the graph
    with monkeypatch.context() as m:
        m.setattr(recognition, "maximal_cliques_chordal", lambda elim: [(0, 1, 2)])
        with pytest.raises(ConstructionDefectError, match="do not realize") as info:
            is_interval_graph(path_graph(3))
        assert info.value.witness == (0, 0, 0)
    monkeypatch.setattr(recognition, "find_asteroidal_triple", lambda g, first, last, within: None)
    with pytest.raises(ConstructionDefectError, match="no asteroidal triple") as info:
        is_interval_graph(net_graph())
    witness = info.value.witness
    assert witness and witness == tuple(sorted(set(witness)))


def assert_hole_through_failing_vertex(g, payload):
    assert is_induced_cycle(g, payload.witness)
    assert perfect_elimination_order(g).failure[0] in payload.witness


@given(st.one_of(graphs(max_n=9), planted_hole_graphs()), st.data())
@settings(max_examples=200, deadline=None)
def test_hole_check_matches_pairwise_check(g, data):
    # the mask check and the pairwise one agree on g's hole turned, reversed
    # and shuffled, with a vertex repeated, cut to three vertices, and with a
    # chord added to g, and on random tuples of g's vertices, some with
    # repeats and some short
    vertex = st.integers(min_value=0, max_value=max(g.n - 1, 0))
    tuples = [tuple(data.draw(st.lists(vertex, max_size=min(g.n + 2, 12)))) for _ in range(3)] if g.n else [()]
    ok, payload = is_interval_graph(g)
    if not ok and payload.kind == "chordless-cycle":
        hole = payload.witness
        turn = data.draw(st.integers(min_value=0, max_value=len(hole) - 1))
        turned = hole[turn:] + hole[:turn]
        holes = [hole, turned, turned[::-1]]
        assert all(is_induced_cycle(g, h) for h in holes)
        shuffled = tuple(data.draw(st.permutations(hole)))
        tuples += [*holes, shuffled, hole[:-1] + hole[:1], hole + hole[:1], hole[:3]]
        chorded = make_graph(g.n, g.edges | {(min(hole[0], hole[2]), max(hole[0], hole[2]))})
        assert not is_induced_cycle(chorded, hole) and not oracles.parent_is_induced_cycle(chorded, hole)
    for t in tuples:
        assert is_induced_cycle(g, t) == oracles.parent_is_induced_cycle(g, t)


@given(RECOGNITION_INPUTS)
@settings(max_examples=150, deadline=None)
def test_recognizer_matches_at_first_flow(g):
    # same verdict and obstruction kind, and the same AT element by element;
    # a representation or a hole may differ from the oracle's, but the
    # representation must realize g exactly and the hole must be one of g
    # through the vertex where the follower check fails
    ok, payload = is_interval_graph(g)
    oracle_ok, oracle_payload = oracles.is_interval_graph(g)
    assert ok == oracle_ok
    if ok:
        assert interval_adjacency(payload) == g.adj
    elif payload.kind == "asteroidal-triple":
        assert payload == oracle_payload
        assert_at_carries_its_paths(g, payload)
    else:
        assert oracle_payload.kind == "chordless-cycle"
        assert_hole_through_failing_vertex(g, payload)


@given(st.one_of(interval_graphs(), disjoint_interval_graphs(), planted_at_graphs(), two_at_unions()))
@settings(max_examples=300, deadline=None)
def test_recognizer_matches_frozenset_pipeline(g):
    # the same verdict, the very same intervals and the same AT element by
    # element as the recognizer on frozenset cliques, whose AT search runs
    # over every component
    ok, payload = is_interval_graph(g)
    oracle_ok, oracle_payload = oracles.frozenset_is_interval_graph(g)
    assert ok == oracle_ok
    if ok:
        assert payload.intervals == oracle_payload.intervals
    else:
        assert payload == oracle_payload
        assert_at_carries_its_paths(g, payload)


def assert_order_matches_search(g):
    # the pass refuses the refined order exactly when the search finds none
    elim = perfect_elimination_order(g)
    cliques = maximal_cliques_chordal(elim)
    order = consecutive_clique_order(cliques, elim.order)
    _, _, scattered = clique_spans(cliques, order, g.n)
    assert (scattered != 0) == (oracles.consecutive_clique_order(list(map(frozenset, cliques)), g.n) is None)
    assert (scattered != 0) != is_consecutive(cliques, order)
    assert (scattered != 0) == (oracles.parent_clique_spans(cliques, order, g.n) is None)


def test_clique_spans_refuse_a_non_consecutive_order():
    # the cliques of P4 with the middle one last: vertex 1 lies in the first
    # and the last clique but not in the one between
    cliques = [(0, 1), (1, 2), (2, 3)]
    assert clique_spans(cliques, [0, 2, 1], 4) == ([0, 0, 1, 1], [0, 2, 2, 1], 1 << 1)
    assert clique_spans(cliques, [0, 1, 2], 4) == ([0, 0, 1, 2], [0, 1, 2, 2], 0)


@given(st.one_of(interval_graphs(), planted_at_graphs(), two_at_unions(), chordal_graphs()), st.data())
@settings(max_examples=300, deadline=None)
def test_clique_spans_match_parent_passes(g, data):
    # the one pass returns the spans and the scattered vertices of the span
    # pass and the second walk it replaced, under the refined order and
    # under a shuffled one
    elim = perfect_elimination_order(g)
    cliques = maximal_cliques_chordal(elim)
    refined = consecutive_clique_order(cliques, elim.order)
    for order in (refined, data.draw(st.permutations(refined))):
        first, last, scattered = clique_spans(cliques, order, g.n)
        assert (first, last) == oracles.parent_clique_ends(cliques, order, g.n)
        assert scattered == oracles.parent_scattered_vertices(cliques, order, g.n)
        assert (scattered == 0) == (oracles.parent_clique_spans(cliques, order, g.n) is not None)


def test_clique_order_matches_search_on_atlas():
    chordal = [g for g in atlas_connected(7) if is_chordal(g)]
    for g in chordal:
        assert_order_matches_search(g)


@given(st.one_of(RECOGNITION_INPUTS, disjoint_interval_graphs()))
@settings(max_examples=200, deadline=None)
def test_clique_order_matches_search(g):
    assume(is_chordal(g))
    assert_order_matches_search(g)


def assert_order_matches_parent_queue(g) -> int:
    # the queue of clique indices reads the very vertices the queue of
    # vertex copies popped, so the refined order is the same list; returns
    # the number of cliques
    elim = perfect_elimination_order(g)
    assert elim.failure is None
    cliques = maximal_cliques_chordal(elim)
    order = consecutive_clique_order(cliques, elim.order)
    assert order == oracles.parent_consecutive_clique_order(cliques, elim.order)
    return len(cliques)


@given(st.one_of(interval_graphs(), planted_at_graphs(), two_at_unions(), chordal_graphs()))
@settings(max_examples=300, deadline=None)
def test_clique_order_matches_parent_queue(g):
    assert_order_matches_parent_queue(g)


@pytest.mark.parametrize(
    "g, q", [(empty_graph(0), 0), (complete_graph(6), 1), (band_graph(300), 150)], ids=["empty", "complete", "band"]
)
def test_clique_order_matches_parent_queue_on_fixed_graphs(g, q):
    assert assert_order_matches_parent_queue(g) == q


def assert_hole_found_as_by_scan(g):
    """A hole exactly when the all-vertex scan finds one, re-verified and
    through the vertex where the follower check fails."""
    ok, payload = is_interval_graph(g)
    try:
        scanned = oracles.find_chordless_cycle(g)
    except ConstructionDefectError:
        scanned = None
    found = not ok and payload.kind == "chordless-cycle"
    assert found == (scanned is not None)
    if found:
        assert_hole_through_failing_vertex(g, payload)


@given(st.one_of(graphs(max_n=9), planted_hole_graphs()))
@settings(max_examples=150, deadline=None)
def test_hole_scan_matches_unfiltered_scan(g):
    assert_hole_found_as_by_scan(g)


def test_hole_matches_scan_on_atlas():
    for g in atlas_graphs(7):
        if not is_chordal(g):
            assert_hole_found_as_by_scan(g)


def hung_hole(n: int, k: int, seed: int):
    """A k-cycle hung off vertex 0 of a random interval graph on n vertices."""
    base = random_interval_graph(n, seed)
    cycle = [(n + i, n + (i + 1) % k) for i in range(k)]
    return make_graph(n + k, [*base.edges, (0, n), *cycle])


@pytest.mark.parametrize("k", range(4, 9))
def test_hole_matches_scan_in_interval_graphs(k):
    for seed in range(4):
        g = hung_hole(100, k, seed)
        perm = random.Random(seed).sample(range(g.n), g.n)
        assert_hole_found_as_by_scan(make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))


def record_labellings(monkeypatch) -> list[int]:
    """The masks passed to `Graph.components_within` from now on, in call order."""
    labelled = []
    components_within = Graph.components_within
    monkeypatch.setattr(
        Graph, "components_within", lambda h, within: labelled.append(within) or components_within(h, within)
    )
    return labelled


def test_one_path_search_finds_the_hole(count_calls, monkeypatch):
    # the all-vertex scan searched paths at vertex after vertex, and labelled
    # the components of g - N[v] after a first miss
    g = hung_hole(144, 6, seed=5)
    counts = count_calls(recognition, ["_bfs_path"])
    labelled = record_labellings(monkeypatch)
    ok, payload = is_interval_graph(g)
    assert not ok and payload.kind == "chordless-cycle"
    assert sorted(payload.witness) == list(range(144, 150))
    assert counts["_bfs_path"] == 1
    assert not labelled


@pytest.mark.parametrize("n", [0, 1, 2, 50, 800])
def test_lex_bfs_on_paths_matches_oracle(n):
    g = path_graph(n)
    assert lex_bfs_order(g) == oracles.lex_bfs_order(g)


@given(RECOGNITION_INPUTS)
@settings(max_examples=150, deadline=None)
def test_maximal_cliques_match_pairwise_filter(g):
    # the same cliques in the same order, each a tuple of distinct vertices
    # led by its generator, the vertex that comes first in the elimination
    # order, then the rest in increasing order
    elim = perfect_elimination_order(g)
    assume(elim.failure is None)
    fast = maximal_cliques_chordal(elim)
    slow = oracles.maximal_cliques_chordal(g, elim.order)
    assert [set(c) for c in fast] == [set(c) for c in slow]
    rank = {v: i for i, v in enumerate(elim.order)}
    for c in fast:
        assert len(set(c)) == len(c)
        assert c[0] == min(c, key=rank.__getitem__)
        assert list(c[1:]) == sorted(c[1:])


def assert_at_search_matches_full_scan(g):
    # "an AT exists" as by the scan over every vertex, and the very triple
    # of the search that labelled every candidate up front, both on all of g
    # and inside the components that hold a scattered vertex; on both, the
    # triple of the search that counted clique memberships
    elim = perfect_elimination_order(g)
    cliques = maximal_cliques_chordal(elim)
    full = (1 << g.n) - 1
    first, last, scattered = clique_spans(cliques, consecutive_clique_order(cliques, elim.order), g.n)
    at = find_asteroidal_triple(g, first, last, full)
    assert at == oracles.labelling_asteroidal_triple(g, cliques)
    assert at == oracles.parent_asteroidal_triple(g, cliques, full)
    within = g.reach(scattered, full)
    assert at == find_asteroidal_triple(g, first, last, within)
    assert at == oracles.parent_asteroidal_triple(g, cliques, within)
    assert (at is None) == (oracles.full_scan_asteroidal_triple(g) is None)
    assert at is None or is_asteroidal_triple(g, at)


def test_at_search_matches_full_scan_on_atlas():
    chordal = [g for g in atlas_graphs(7) if is_chordal(g)]
    for g in chordal:
        assert_at_search_matches_full_scan(g)


@given(st.one_of(planted_at_graphs(), interval_graphs(), chordal_graphs()))
@settings(max_examples=200, deadline=None)
def test_at_search_matches_full_scan(g):
    assume(is_chordal(g))
    assert_at_search_matches_full_scan(g)


def test_at_search_labels_once_per_clique(monkeypatch):
    # a subdivided claw hung off a random 143-vertex interval graph; the
    # full scan labels g - N[z] for all 150 vertices z, and labelling each
    # of the 60 candidates up front takes 60; the search labels 39
    base = random_interval_graph(143, seed=5)
    claw = [(143 + a, 143 + b) for a, b in SUBDIVIDED_CLAW]
    g = make_graph(150, [*base.edges, (0, 143), *claw])
    cliques = maximal_cliques_chordal(perfect_elimination_order(g))
    candidates = sum(any(sum(v in d for d in cliques) == 1 for v in c) for c in cliques)
    assert candidates == 60 and len(cliques) == 90
    labelled = record_labellings(monkeypatch)
    ok, payload = is_interval_graph(g)
    assert not ok and payload.kind == "asteroidal-triple"
    assert is_asteroidal_triple(g, payload.witness)
    assert len(labelled) < candidates


def test_asteroidal_triple_beside_interval_components():
    # a path on 0..3, a triangle on 4..6, the isolated 7 and the net on 8..13,
    # whose one AT is its three pendants
    net = [(8 + a, 8 + b) for a, b in net_graph().edges]
    g = make_graph(14, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (5, 6), *net])
    ok, payload = is_interval_graph(g)
    assert not ok
    assert payload == Obstruction("asteroidal-triple", (11, 12, 13))
    assert is_asteroidal_triple(g, payload.witness)
    assert oracles.full_scan_asteroidal_triple(g) == (11, 12, 13)


def test_at_search_labels_only_the_component_of_the_triple(monkeypatch):
    # a subdivided claw beside six random interval components, all vertices
    # relabelled; the claw's one AT is its three leaves, and no component of
    # g - N[z] outside the claw is labelled
    parts = [random_interval_graph(n, seed) for seed, n in enumerate((30, 40, 25, 50, 35, 20))]
    parts.append(make_graph(7, SUBDIVIDED_CLAW))
    edges, n = [], 0
    for h in parts:
        edges += [(n + u, n + v) for u, v in h.edges]
        n += h.n
    perm = random.Random(7).sample(range(n), n)
    g = make_graph(n, [(perm[u], perm[v]) for u, v in edges])
    claw = sum(1 << perm[v] for v in range(n - 7, n))
    labelled = record_labellings(monkeypatch)
    ok, payload = is_interval_graph(g)
    assert not ok and payload.kind == "asteroidal-triple"
    assert labelled and all(mask & ~claw == 0 for mask in labelled)
    assert payload.witness == tuple(sorted(perm[v] for v in (n - 5, n - 3, n - 1)))
    assert payload.witness == oracles.full_scan_asteroidal_triple(g)


def test_only_the_recognizer_binds_the_at_paths(package_imports):
    # the oracle reads an AT's paths from its obstruction: no other package
    # module imports the path search, and no module wraps it again
    names = [f"boxlab.{name[:-3]}".removesuffix(".__init__") for name in package_imports if name != "__main__.py"]
    modules = list(map(importlib.import_module, names))
    assert [m.__name__ for m in modules if hasattr(m, "asteroidal_paths")] == ["boxlab.recognition"]
    assert not any(hasattr(m, "is_asteroidal_triple") for m in modules)
    at_names = ("asteroidal_paths", "is_asteroidal_triple")
    assert not any(n.split(".")[-1] in at_names for names in package_imports.values() for n in names)
