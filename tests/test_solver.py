import itertools
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import connected_graphs
from xconn import solver
from xconn.formulas import DomainError, FamilyParams, guard_limit
from xconn.graph import (Graph, components, from_edges, is_complete, make_cycle, make_path,
                         neighborhood)
from xconn.formulas import CYCLES
from xconn.products import FAMILIES, family_product, slice_of_set, strong_product
from xconn.solver import (INFINITY, InconclusiveError, check_g_extra_cut,
                          check_layer_bounds, classical_connectivity,
                          enumerate_min_cuts, fragment_solve_many,
                          kappa_extra_fragment, kappa_extra_subset, min_cuts_grouped)
from xconn.verifier import SweepConfig, _cell_grid
from xconn.witnesses import (WITNESS_KINDS, WitnessError, build_witness, plan_witness,
                             validate_witness)


def test_check_g_extra_cut_examples():
    p5 = make_path(5)
    v = check_g_extra_cut(p5, {2}, 1)
    assert v.is_cut and v.min_component_size == 2 and v.is_g_extra
    v = check_g_extra_cut(p5, {1}, 1)
    assert v.is_cut and v.min_component_size == 1 and not v.is_g_extra

    pg = family_product("pxp", 3, 3)
    middle_column = [pg.id(i, 1) for i in range(3)]
    v = check_g_extra_cut(pg.graph, middle_column, 2)
    assert v.is_g_extra and v.component_sizes == (3, 3)


def test_check_g_extra_cut_rejects_whole_vertex_set():
    with pytest.raises(ValueError):
        check_g_extra_cut(make_path(3), {0, 1, 2}, 0)


@pytest.mark.parametrize("vertex", [-1, 5, 9])
def test_check_g_extra_cut_rejects_out_of_range_vertices(vertex):
    # the cut's mask would silently drop a vertex >= n; it must raise instead
    with pytest.raises(ValueError, match=f"vertex {vertex} out of range"):
        check_g_extra_cut(make_path(5), {2, vertex}, 0)


def test_check_g_extra_cut_names_an_out_of_range_vertex_of_a_large_cut():
    # the range is checked before the cut's size
    with pytest.raises(ValueError, match="vertex 99 out of range"):
        check_g_extra_cut(make_cycle(4), [0, 1, 2, 99], 0)


@pytest.mark.parametrize("call", [
    lambda: kappa_extra_fragment(make_path(4), 0.5),
    lambda: check_g_extra_cut(make_path(4), [True], 0),
    lambda: check_g_extra_cut(make_path(4), [1.0], 0),
    lambda: check_g_extra_cut(make_path(4), [[1]], 0),
    lambda: fragment_solve_many(make_path(4), [0, 1.0]),
    lambda: fragment_solve_many(make_path(4), [0], {0: 1.5}),
    lambda: fragment_solve_many(make_path(4), [0], {0: True}),
    lambda: kappa_extra_subset(make_path(4), True),
    lambda: kappa_extra_subset(make_path(4), 0, budget=10.0 ** 3),
    lambda: enumerate_min_cuts(make_path(4), 0, 1, max_checks=0.5),
    lambda: enumerate_min_cuts(make_path(4), "0"),
    lambda: enumerate_min_cuts(make_path(4), 0, 1.0),
    lambda: check_layer_bounds(family_product("pxp", 3, 3), [], 0.5),
])
def test_solver_inputs_must_be_integers(call):
    # kappa_extra_fragment(P4, 0.5) once answered infinity, and [True] cut vertex 1
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_subset_solver_examples():
    k4 = family_product("pxp", 2, 2).graph
    assert kappa_extra_subset(k4, 0).value is INFINITY

    p5 = make_path(5)
    res = kappa_extra_subset(p5, 1)
    assert res.value == 1 and res.witness == (2,)

    res = kappa_extra_subset(family_product("pxp", 3, 3).graph, 0)
    assert res.value == 3


def test_fragment_solver_examples():
    res = kappa_extra_fragment(make_path(5), 1)
    assert res.value == 1 and res.witness == (2,)
    assert kappa_extra_fragment(family_product("cxp", 4, 3).graph, 0).value == 4
    assert kappa_extra_fragment(family_product("cxc", 4, 4).graph, 0).value == 8


def test_solvers_reject_bad_input():
    disconnected = from_edges(4, [(0, 1), (2, 3)])
    for solve in (kappa_extra_subset, kappa_extra_fragment):
        with pytest.raises(ValueError):
            solve(disconnected, 0)
        with pytest.raises(ValueError):
            solve(make_path(1), 0)
        with pytest.raises(ValueError):
            solve(make_path(4), -1)


def test_subset_budget_is_honest():
    # C(9, 1) = 9 subsets exceed the budget, so no scan starts
    with pytest.raises(InconclusiveError) as exc:
        kappa_extra_subset(family_product("pxp", 3, 3).graph, 0, budget=3)
    assert exc.value.checks_done == 0


def test_fragment_absorbs_stranded_cut_vertices():
    # tree where the unique minimum 1-extra cut {2,3} is NOT the neighbourhood
    # of either surviving component: vertex 3 hangs off the cut vertex 2
    t = from_edges(6, [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5)])
    sub = kappa_extra_subset(t, 1)
    frag = kappa_extra_fragment(t, 1)
    assert sub.value == frag.value == 2
    assert sub.witness == frag.witness == (2, 3)
    for comp in components(t, {2, 3}):
        assert set(neighborhood(t, comp)) != {2, 3}


def test_infinity_cases():
    for g, extra in [(make_path(4), 2), (family_product("pxp", 2, 2).graph, 0),
                     (make_cycle(5), 1)]:
        assert kappa_extra_subset(g, extra).value is INFINITY
        res = kappa_extra_fragment(g, extra)
        assert res.value is INFINITY and res.witness is None


def test_seeding_never_changes_the_answer():
    g = family_product("pxp", 4, 4).graph
    plain = kappa_extra_fragment(g, 1)
    seeded = fragment_solve_many(g, [1], {1: 4})[1]
    too_low = fragment_solve_many(g, [1], {1: 2})[1]  # forces the unseeded rerun
    assert too_low.stats.nodes > plain.stats.nodes  # the failed pass plus the rerun
    assert plain.value == seeded.value == too_low.value == 4
    assert plain.witness == seeded.witness == too_low.witness


def test_multi_extra_matches_single_runs():
    g = family_product("cxp", 4, 3).graph
    many = fragment_solve_many(g, [0, 1, 2])
    for extra in (0, 1, 2):
        single = kappa_extra_fragment(g, extra)
        assert many[extra].value == single.value
        assert many[extra].witness == single.witness


def test_enumerate_min_cuts_examples():
    assert enumerate_min_cuts(make_path(3), 0) == [(1,)]
    assert enumerate_min_cuts(make_cycle(4), 0) == [(0, 2), (1, 3)]
    # C5 has no 1-extra cut at all: 2 removals always strand a lone vertex
    assert enumerate_min_cuts(make_cycle(5), 1) == []


@pytest.mark.parametrize("graph, extra, value, witness, checks", [
    (family_product("pxp", 3, 3).graph, 0, 3, (1, 3, 4), 80),
    (family_product("cxp", 4, 3).graph, 1, 4, (1, 4, 7, 10), 541),
    (make_cycle(5), 1, INFINITY, None, 5),
])
def test_subset_solver_answer_and_check_count(graph, extra, value, witness, checks):
    res = kappa_extra_subset(graph, extra)
    assert (res.value, res.witness, res.stats.nodes) == (value, witness, checks)
    cuts = enumerate_min_cuts(graph, extra)
    assert (cuts[0] if cuts else None) == res.witness


@pytest.mark.parametrize("family, m, n, extra, value, witness, checks", [
    ("pxp", 4, 4, 1, 4, (1, 5, 6, 7), 1351),
    ("cxc", 4, 4, 0, 8, (0, 1, 2, 3, 8, 9, 10, 11), 26758),
    ("cxp", 4, 3, 2, 4, (1, 4, 7, 10), 541),
])
def test_subset_oracle_pinned_on_products(family, m, n, extra, value, witness, checks):
    # the scan's order fixes the witness and the check count
    res = kappa_extra_subset(family_product(family, m, n).graph, extra)
    assert (res.value, res.witness, res.stats.nodes) == (value, witness, checks)


def test_subset_oracle_pinned_cut_list_and_refusal():
    g = family_product("pxp", 4, 4).graph
    assert enumerate_min_cuts(g, 1) == [
        (1, 5, 6, 7), (1, 5, 8, 9), (1, 5, 9, 13), (2, 4, 5, 6), (2, 6, 10, 11), (2, 6, 10, 14),
        (4, 5, 6, 7), (4, 5, 9, 13), (6, 7, 10, 14), (8, 9, 10, 11), (8, 9, 10, 14),
        (9, 10, 11, 13)]
    # 16 singletons fit the budget; the C(16, 2) pairs would not, so none is checked
    with pytest.raises(InconclusiveError, match=r"^C\(16, 2\) subsets after 16 checks "
                                                r"exceed subset budget 100$") as exc:
        kappa_extra_subset(g, 1, budget=100)
    assert exc.value.checks_done == 16


@given(connected_graphs(min_n=2, max_n=8), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_subset_solver_returns_the_first_enumerated_min_cut(g, extra):
    res = kappa_extra_subset(g, extra)
    cuts = enumerate_min_cuts(g, extra)
    if res.value is INFINITY:
        assert cuts == []
    else:
        assert (res.value, res.witness) == (len(cuts[0]), cuts[0])


def test_enumerate_min_cuts_known_value_and_budget():
    g = family_product("pxp", 3, 3).graph
    full = enumerate_min_cuts(g, 0)
    assert enumerate_min_cuts(g, 0, known_value=3) == full
    assert all(len(c) == 3 for c in full)
    with pytest.raises(InconclusiveError):
        enumerate_min_cuts(g, 0, max_checks=10)
    with pytest.raises(ValueError, match="subset budget -1 is negative"):
        enumerate_min_cuts(g, 0, max_checks=-1)
    # kappa_0(C6) = 2, so no cut has one vertex
    with pytest.raises(ValueError, match="1 is not kappa_0 of the graph"):
        enumerate_min_cuts(make_cycle(6), 0, known_value=1)
    # an infinite value, as a solver reports for a graph with no cut, is checked too
    assert enumerate_min_cuts(make_cycle(5), 1, known_value=INFINITY) == []
    with pytest.raises(ValueError, match="inf is not kappa_0 of the graph"):
        enumerate_min_cuts(make_cycle(6), 0, known_value=INFINITY)


@pytest.mark.parametrize("graph, extra, value", [
    (make_cycle(6), 0, 2),
    # kappa_1 = 1 (the hub), no 1-extra cut has 2 vertices, and 3 have 3
    (from_edges(7, [(0, v) for v in range(1, 7)] + [(1, 2), (3, 4), (5, 6)]), 1, 1),
])
def test_enumerate_min_cuts_rejects_a_too_large_known_value(graph, extra, value):
    assert len(enumerate_min_cuts(graph, extra, known_value=value)[0]) == value
    with pytest.raises(ValueError, match=f"3 is not kappa_{extra} of the graph"):
        enumerate_min_cuts(graph, extra, known_value=3)


def test_enumerate_min_cuts_refuses_before_scanning():
    # C(36, 12) = 1,251,677,700 subsets exceed the budget, so no scan starts
    g = family_product("cxc", 6, 6).graph
    start = time.process_time()
    with pytest.raises(InconclusiveError) as exc:
        enumerate_min_cuts(g, 0, known_value=12, max_checks=10 ** 6)
    assert time.process_time() - start < 0.5
    assert exc.value.checks_done == 0


def test_min_cuts_grouped_matches_per_extra_enumeration():
    g = family_product("cxp", 4, 3).graph
    solved = fragment_solve_many(g, [0, 1, 2])
    values = {extra: int(solved[extra].value) for extra in (0, 1, 2)}
    grouped = min_cuts_grouped(g, values, solved)
    for extra in (0, 1, 2):
        assert grouped[extra] == enumerate_min_cuts(g, extra, known_value=values[extra])


def test_min_cuts_grouped_absorbs_stranded_cut_vertices():
    t = from_edges(6, [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5)])
    cuts = min_cuts_grouped(t, {1: 2}, fragment_solve_many(t, [1]))
    assert cuts == {1: enumerate_min_cuts(t, 1, known_value=2)} == {1: [(2, 3)]}
    assert min_cuts_grouped(t, {}, {}) == {}


@given(connected_graphs(min_n=2, max_n=10))
@settings(max_examples=80, deadline=None)
def test_min_cuts_grouped_matches_subset_scan(g):
    values = {}
    for extra in (0, 1, 2):
        value = kappa_extra_subset(g, extra).value
        if value is not INFINITY:
            values[extra] = value
    grouped = min_cuts_grouped(g, values, fragment_solve_many(g, [0, 1, 2]))
    assert set(grouped) == set(values)
    for extra, value in values.items():
        assert grouped[extra] == enumerate_min_cuts(g, extra, known_value=value)


@given(connected_graphs(min_n=2, max_n=10), st.integers(0, 2), st.sampled_from((-1, 1)))
@settings(max_examples=60, deadline=None)
def test_min_cuts_grouped_rejects_a_wrong_value(g, extra, offset):
    value = kappa_extra_subset(g, extra).value
    if value is INFINITY:
        value = g.n  # no cut of any size exists
    with pytest.raises(ValueError):
        min_cuts_grouped(g, {extra: value + offset}, fragment_solve_many(g, [extra]))


def subset_values(g):
    values = {}
    for extra in (0, 1, 2):
        value = kappa_extra_subset(g, extra).value
        if value is not INFINITY:
            values[extra] = value
    return values


@given(connected_graphs(min_n=2, max_n=10), connected_graphs(min_n=2, max_n=10),
       st.sets(st.integers(0, 2), min_size=1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_min_cuts_grouped_after_a_solve(a, b, solved, b_equals_a):
    # a solve leaves no state behind that could answer for another graph
    if b_equals_a:
        b = Graph(a.n, a.masks, a.labels, a.automorphisms)  # equal to a, but a distinct object
    fragment_solve_many(a, sorted(solved))
    for graph in (b, a):
        values = subset_values(graph)
        grouped = min_cuts_grouped(graph, values, fragment_solve_many(graph, [0, 1, 2]))
        assert grouped == {extra: enumerate_min_cuts(graph, extra, known_value=value)
                           for extra, value in values.items()}


@given(connected_graphs(max_n=10))
@settings(max_examples=60, deadline=None)
def test_min_cuts_grouped_with_and_without_solved_results(g):
    solved = fragment_solve_many(g, [0, 1, 2])
    values = {extra: r.value for extra, r in solved.items() if r.value is not INFINITY}
    expected = {extra: enumerate_min_cuts(g, extra, known_value=value)
                for extra, value in values.items()}
    assert min_cuts_grouped(g, values, solved) == expected
    assert all(list(solved[extra].cuts) == cuts for extra, cuts in expected.items())
    with pytest.raises(TypeError):  # the cuts come only from a solve
        min_cuts_grouped(g, values)


def test_factor_solves_leave_the_product_cuts_alone(monkeypatch):
    # a star factor: paths and cycles are answered without a solve
    pg = strong_product(from_edges(4, [(0, 1), (0, 2), (0, 3)]), make_path(3))
    results = fragment_solve_many(pg.graph, [0, 1])
    values = {g: r.value for g, r in results.items()}
    orders = []
    search = solver._fragment_search

    def counted(masks, n, *args, **kwargs):
        orders.append(n)
        return search(masks, n, *args, **kwargs)

    monkeypatch.setattr(solver, "_fragment_search", counted)
    assert classical_connectivity(pg.factor1) == 1  # solves the star
    grouped = min_cuts_grouped(pg.graph, values, results)
    assert pg.graph.n not in orders and orders
    assert grouped == {g: enumerate_min_cuts(pg.graph, g, known_value=v)
                       for g, v in values.items()}


def test_fragment_solve_many_on_no_extras_is_empty():
    assert fragment_solve_many(make_path(4), []) == {}
    assert min_cuts_grouped(make_path(4), {}, {}) == {}


def test_fragment_solve_many_checks_the_graph_once(monkeypatch):
    walks = []
    connected = solver.is_connected

    def counted(graph):
        walks.append(graph.n)
        return connected(graph)

    monkeypatch.setattr(solver, "is_connected", counted)
    results = fragment_solve_many(make_cycle(10), [0, 1, 2, 3])
    assert walks == [10]
    assert [results[g].value for g in range(4)] == [2, 2, 2, 2]
    for extras in ([-1], [3, 0, -2]):
        with pytest.raises(ValueError):
            fragment_solve_many(make_cycle(10), extras)


@given(connected_graphs(min_n=2, max_n=10), st.integers(0, 2), st.sampled_from((-1, 1)))
@settings(max_examples=60, deadline=None)
def test_min_cuts_grouped_after_a_solve_rejects_a_wrong_value(g, extra, offset):
    solved = fragment_solve_many(g, [extra])
    value = solved[extra].value
    if value is INFINITY:
        value = g.n  # no cut of any size exists
    with pytest.raises(ValueError):
        min_cuts_grouped(g, {extra: value + offset}, solved)
    with pytest.raises(ValueError):  # a g the solve did not cover
        min_cuts_grouped(g, {extra + 1: value}, solved)


def test_classical_connectivity_known_values():
    assert classical_connectivity(make_path(7)) == 1
    assert classical_connectivity(make_cycle(5)) == 2
    assert classical_connectivity(make_path(1)) == 0
    assert classical_connectivity(family_product("pxp", 2, 2).graph) == 3  # K4
    petersen = from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                               (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                               (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])
    assert classical_connectivity(petersen) == 3


@given(connected_graphs(min_n=2, max_n=10))
@settings(max_examples=60, deadline=None)
def test_classical_connectivity_matches_a_fresh_solve(g):
    fresh = kappa_extra_fragment(g, 0).value
    expected = g.n - 1 if fresh is INFINITY else fresh
    # an equal graph object, built separately, gets the same answer
    twin = Graph(g.n, g.masks, g.labels, g.automorphisms)
    assert classical_connectivity(g) == classical_connectivity(twin) == expected


def relabelled(g, order):
    """``g`` with vertex v renamed ``order[v]``."""
    return from_edges(g.n, [(order[u], order[v]) for u, v in g.edges])


paths_and_cycles = st.one_of(st.integers(2, 12).map(make_path),
                             st.integers(3, 12).map(make_cycle))


@given(st.one_of(paths_and_cycles,
                 paths_and_cycles.flatmap(lambda g: st.permutations(range(g.n)).map(
                     lambda order: relabelled(g, order))),
                 connected_graphs(min_n=2, max_n=10)))
@settings(max_examples=120, deadline=None)
def test_classical_connectivity_matches_networkx(g):
    assert classical_connectivity(g) == nx.node_connectivity(nx.Graph(g.edges))


def test_classical_connectivity_answers_paths_and_cycles_without_a_solve(monkeypatch):
    monkeypatch.setattr(solver, "_fragment_search", None)  # any solve would raise
    for n in range(2, 9):
        assert classical_connectivity(make_path(n)) == 1
    for n in range(3, 9):
        assert classical_connectivity(make_cycle(n)) == 2


def test_kappa0_equals_classical_connectivity():
    for g in (make_path(6), make_cycle(6), family_product("pxp", 3, 4).graph):
        sub = kappa_extra_subset(g, 0)
        assert sub.value == classical_connectivity(g)


def test_check_layer_bounds():
    pg = family_product("pxp", 3, 3)
    column = [pg.id(i, 1) for i in range(3)]
    assert check_layer_bounds(pg, [column], 0)

    cxc = family_product("cxc", 4, 4)
    for cut in enumerate_min_cuts(cxc.graph, 0):
        assert check_layer_bounds(cxc, [cut], 0)

    with pytest.raises(ValueError):
        check_layer_bounds(pg, [[0]], 0)  # not a g-extra cut


def test_check_layer_bounds_batch():
    cxc = family_product("cxc", 4, 4)
    good = enumerate_min_cuts(cxc.graph, 0)
    assert check_layer_bounds(cxc, good, 0)
    assert check_layer_bounds(cxc, [], 0)
    # columns 0 and 2 plus one vertex of column 1: a 0-extra cut (it leaves
    # 3 + 4 vertices) whose column-1 slice has 1 < kappa(C4) = 2 vertices
    bad = [cxc.id(i, j) for i in range(4) for j in (0, 2)] + [cxc.id(0, 1)]
    assert not check_layer_bounds(cxc, good + [bad], 0)
    with pytest.raises(ValueError):
        check_layer_bounds(cxc, good + [[cxc.id(0, 0)]], 0)  # not a g-extra cut


def test_check_layer_bounds_follows_the_slice_rule():
    # every g-extra cut of at most 5 vertices, minimum or not: the check
    # passes exactly when no slice of the cut inside a factor-1 layer (a
    # column) or a factor-2 layer (a row) is nonempty and smaller than that
    # factor's connectivity, 1 for a path and 2 for a cycle
    checked = violating = 0
    for fam, m, n in [("pxp", 3, 3), ("pxp", 3, 4), ("pxp", 4, 4),
                      ("cxp", 4, 3), ("cxp", 4, 4), ("cxc", 4, 4)]:
        pg = family_product(fam, m, n)
        k1, k2 = (1 + c for c in CYCLES[fam])
        for size in range(1, 6):
            for cut in itertools.combinations(range(m * n), size):
                for g in (0, 1):
                    if not check_g_extra_cut(pg.graph, cut, g).is_g_extra:
                        continue
                    slices = [(len(slice_of_set(pg, cut, "factor1", j)), k1) for j in range(n)]
                    slices += [(len(slice_of_set(pg, cut, "factor2", i)), k2) for i in range(m)]
                    rule = all(not 0 < count < bound for count, bound in slices)
                    assert check_layer_bounds(pg, [cut], g) == rule, (fam, m, n, g, cut)
                    checked += 1
                    violating += not rule
    assert (checked, violating) == (1125, 64)


def test_min_cut_neighbourhood_anchor_on_family_instances():
    # on the product families every minimum g-extra cut is exactly the
    # neighbourhood of each of its components (not true on general graphs,
    # see test_fragment_absorbs_stranded_cut_vertices)
    for fam, m, n, extras in [("pxp", 3, 3, (0, 1, 2)), ("pxp", 3, 4, (0, 1)),
                              ("cxp", 4, 3, (0, 1, 2)), ("cxc", 4, 4, (0, 1))]:
        g = family_product(fam, m, n).graph
        for extra in extras:
            for cut in enumerate_min_cuts(g, extra):
                for comp in components(g, cut):
                    assert neighborhood(g, comp) == cut


def test_result_invariants_and_stats():
    res = kappa_extra_fragment(make_path(5), 0)
    assert res.solver == "fragment" and res.stats.nodes > 0
    assert len(res.witness) == res.value


@given(connected_graphs(min_n=2, max_n=9), st.integers(0, 2))
@settings(max_examples=120, deadline=None)
def test_solver_agreement_on_random_graphs(g, extra):
    sub = kappa_extra_subset(g, extra)
    frag = kappa_extra_fragment(g, extra)
    assert sub.value == frag.value
    assert sub.witness == frag.witness
    if sub.value is not INFINITY:
        assert check_g_extra_cut(g, sub.witness, extra).is_g_extra
        assert check_g_extra_cut(g, frag.witness, extra).is_g_extra


@given(connected_graphs(min_n=3, max_n=9), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_monotone_in_extra(g, extra):
    lo = kappa_extra_fragment(g, extra).value
    hi = kappa_extra_fragment(g, extra + 1).value
    if lo is not INFINITY and hi is not INFINITY:
        assert lo <= hi


@given(connected_graphs(min_n=2, max_n=10))
@settings(max_examples=120, deadline=None)
def test_kappa0_matches_networkx_node_connectivity(g):
    value = kappa_extra_fragment(g, 0).value
    if is_complete(g):
        assert value is INFINITY
    else:
        assert value == nx.node_connectivity(nx.Graph(g.edges))


def bare_copy(graph):
    """The same graph declaring no automorphisms, so searched from every root."""
    return Graph(graph.n, graph.masks)


def witness_seeds(pg, family, m, n, gs):
    """Upper bounds from the validated witness cuts, as a sweep cell seeds them."""
    seeds = {}
    for g in gs:
        params = FamilyParams(family, m, n, g)
        for which in WITNESS_KINDS:
            try:
                cut = build_witness(plan_witness(params, which))
            except (WitnessError, DomainError):
                continue
            if validate_witness(pg, cut, g).is_g_extra:
                seeds[g] = min(seeds.get(g, len(cut)), len(cut))
    return seeds


def solve_and_group(graph, gs, seeds):
    results = fragment_solve_many(graph, gs, seeds)
    values = {g: int(r.value) for g, r in results.items() if r.value is not INFINITY}
    answers = {g: (r.value, r.witness) for g, r in results.items()}
    return answers, min_cuts_grouped(graph, values, results)  # reads the solve's cuts


DEFAULT_CELLS = [(family, m, n) for family in FAMILIES
                 for m, n in _cell_grid(SweepConfig(), family)]


@pytest.mark.parametrize("family,m,n", DEFAULT_CELLS)
def test_orbit_rooting_keeps_every_answer_on_default_cells(family, m, n):
    pg = family_product(family, m, n)
    assert pg.graph.automorphisms
    gs = list(range(guard_limit(family, m, n) + 1))
    seeds = witness_seeds(pg, family, m, n, gs)
    assert solve_and_group(pg.graph, gs, seeds) == solve_and_group(bare_copy(pg.graph), gs, seeds)


@pytest.mark.parametrize("family,m,n,extras", [("cxc", 4, 4, (0, 1)), ("cxp", 4, 3, (0, 1, 2))])
def test_min_cuts_grouped_search_on_a_symmetric_graph(family, m, n, extras):
    pg = family_product(family, m, n)
    values = {g: int(kappa_extra_fragment(bare_copy(pg.graph), g).value) for g in extras}
    grouped = min_cuts_grouped(pg.graph, values, fragment_solve_many(pg.graph, extras))
    assert grouped == {g: enumerate_min_cuts(pg.graph, g, known_value=values[g])
                       for g in extras}


def test_orbit_rooting_visits_fewer_nodes():
    torus = family_product("cxc", 4, 4).graph
    rooted = kappa_extra_fragment(torus, 0)
    everywhere = kappa_extra_fragment(bare_copy(torus), 0)
    assert (rooted.value, rooted.witness) == (everywhere.value, everywhere.witness)
    assert rooted.stats.nodes < everywhere.stats.nodes


@given(connected_graphs(min_n=2, max_n=4))
@settings(max_examples=30, deadline=None)
def test_square_of_a_random_graph_matches_its_bare_copy(h):
    # h declares nothing, so the product declares only the coordinate swap
    square = strong_product(h, h).graph
    assert len(square.automorphisms) == 1
    gs = [0, 1, 2]
    assert solve_and_group(square, gs, {}) == solve_and_group(bare_copy(square), gs, {})


def test_root_pruning_keeps_every_answer_on_the_torus_probe_cell():
    pg = family_product("cxc", 5, 6)  # 30 vertices, above the default cells
    assert solve_and_group(pg.graph, [2], {2: 10}) == solve_and_group(bare_copy(pg.graph),
                                                                      [2], {2: 10})


@given(st.sampled_from(["cxp", "cxc"]), st.integers(4, 5), st.integers(4, 5), st.data())
@settings(max_examples=30, deadline=None)
def test_any_declared_generators_keep_every_answer(family, m, n, data):
    # a random subset of the generators: the maps that fix a root vary
    graph = family_product(family, m, n).graph
    autos = data.draw(st.lists(st.sampled_from(graph.automorphisms), min_size=1, unique=True))
    declared = Graph(graph.n, graph.masks, automorphisms=tuple(autos))
    gs = [0, 1, 2]
    assert solve_and_group(declared, gs, {}) == solve_and_group(bare_copy(graph), gs, {})


@pytest.mark.parametrize("family,m,n,extra,seeds,nodes", [
    # the benchmark's torus-probe cell
    pytest.param("cxc", 5, 6, 2, {2: 10}, 73_940, id="cxc-5-6-g2"),
    # 230 with every neighbour of the root branched on
    pytest.param("cxc", 4, 4, 0, {}, 112, id="cxc-4-4-g0"),
    # the sweep's slowest cell; some roots have stabilisers
    pytest.param("pxp", 6, 6, 3, {3: 5}, 24_860, id="pxp-6-6-g3"),
    # no declared maps: every root and branch searched
    pytest.param("pxp-bare", 6, 6, 3, {3: 5}, 53_477, id="pxp-bare-6-6-g3"),
    # vertex-transitive: one root, its stabiliser prunes
    pytest.param("cxc", 6, 6, 0, {0: 12}, 201_871, id="cxc-6-6-g0"),
    # not regular, so searched in an order other than the ids'
    pytest.param("cxp", 6, 5, 2, {}, 15_318, id="cxp-6-5-g2"),
])
def test_fragment_node_counts(family, m, n, extra, seeds, nodes):
    # node counts do not depend on the machine, so a search change shows here
    graph = family_product(family.removesuffix("-bare"), m, n).graph
    if family.endswith("-bare"):
        graph = Graph(graph.n, graph.masks)
    res = fragment_solve_many(graph, [extra], seeds)[extra]
    assert res.stats.nodes == nodes


@given(st.sampled_from(FAMILIES), st.integers(3, 4), st.integers(3, 4), st.data())
@settings(max_examples=30, deadline=None)
def test_a_relabelled_product_has_the_same_cuts_mapped_back(family, m, n, data):
    # the search order follows the labels, so a relabelling changes the
    # path to the answer but not the answer
    graph = family_product(family, m, n).graph
    perm = data.draw(st.permutations(range(graph.n)))  # vertex v becomes perm[v]
    back = sorted(range(graph.n), key=perm.__getitem__)  # back[perm[v]] == v
    relabelled = from_edges(graph.n, [(perm[u], perm[v]) for u, v in graph.edges],
                            automorphisms=[[perm[p[back[i]]] for i in range(graph.n)]
                                           for p in graph.automorphisms])
    gs = [0, 1, 2]
    ours = fragment_solve_many(graph, gs)
    theirs = fragment_solve_many(relabelled, gs)
    for g in gs:
        assert theirs[g].value == ours[g].value
        assert sorted(tuple(sorted(back[v] for v in cut)) for cut in theirs[g].cuts) \
            == list(ours[g].cuts)
