import json
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import connected_graphs
from xconn.graph import (Graph, components, from_edges, induced_subgraph, is_complete,
                         make_cycle, make_path, min_degree)
from xconn.products import (FAMILIES, cartesian_product, classify_cut, family_product,
                            from_json, layer, make_i_set, make_l_set, render_coords,
                            slice_of_set, strong_product, to_json, verify_product_structure)
from xconn.solver import enumerate_min_cuts, fragment_solve_many


def brute_force_product_edges(g1: Graph, g2: Graph, strong: bool) -> set[tuple[int, int]]:
    """Independent oracle: test the adjacency conditions pair by pair."""
    n = g2.n
    edges = set()
    for i1 in range(g1.n):
        for j1 in range(n):
            for i2 in range(g1.n):
                for j2 in range(n):
                    if (i1, j1) >= (i2, j2):
                        continue
                    r1 = i1 == i2 and j2 in g2.adj[j1]
                    r2 = j1 == j2 and i2 in g1.adj[i1]
                    r3 = strong and i2 in g1.adj[i1] and j2 in g2.adj[j1]
                    if r1 or r2 or r3:
                        edges.add((i1 * n + j1, i2 * n + j2))
    return edges


def test_p2_strong_p2_is_k4():
    pg = strong_product(make_path(2), make_path(2))
    assert pg.graph.n == 4 and pg.graph.edge_count == 6
    assert is_complete(pg.graph) and min_degree(pg.graph) == 3


def test_p3_strong_p3_counts():
    pg = strong_product(make_path(3), make_path(3))
    assert pg.graph.n == 9
    # 20 = |E1|*|V2| + |E2|*|V1| + 2*|E1|*|E2| = 2*3 + 2*3 + 2*2*2
    assert pg.graph.edge_count == 20
    oracle = brute_force_product_edges(make_path(3), make_path(3), strong=True)
    assert set(pg.graph.edges) == oracle


def test_c4_strong_p3_min_degree():
    pg = strong_product(make_cycle(4), make_path(3))
    assert pg.graph.n == 12
    # vertex (x0, y1) has degree 2 + 1 + 2*1 = 5
    assert pg.graph.degree(pg.id(0, 0)) == 5
    assert min_degree(pg.graph) == 5


@pytest.mark.parametrize("build1", [lambda k: make_path(k), lambda k: make_cycle(max(k, 3))])
@pytest.mark.parametrize("build2", [lambda k: make_path(k), lambda k: make_cycle(max(k, 3))])
@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (3, 4), (5, 5), (8, 6)])
def test_edge_count_formula_on_grid(build1, build2, a, b):
    g1, g2 = build1(a), build2(b)
    e1, e2 = g1.edge_count, g2.edge_count
    strong = strong_product(g1, g2)
    cart = cartesian_product(g1, g2)
    assert strong.graph.edge_count == e1 * g2.n + e2 * g1.n + 2 * e1 * e2
    assert cart.graph.edge_count == e1 * g2.n + e2 * g1.n
    # degree identity d(u,v) = d1 + d2 + d1*d2 in the strong product
    for i in range(g1.n):
        for j in range(g2.n):
            d1, d2 = g1.degree(i), g2.degree(j)
            assert strong.graph.degree(strong.id(i, j)) == d1 + d2 + d1 * d2


def test_cartesian_examples():
    c4ish = cartesian_product(make_path(2), make_path(2))
    assert c4ish.graph.edge_count == 4
    assert all(c4ish.graph.degree(v) == 2 for v in range(4))
    grid = cartesian_product(make_path(3), make_path(3))
    assert grid.graph.n == 9 and grid.graph.edge_count == 12
    torus = cartesian_product(make_cycle(4), make_cycle(4))
    assert torus.graph.n == 16 and torus.graph.edge_count == 32
    assert all(torus.graph.degree(v) == 4 for v in range(16))


@given(connected_graphs(max_n=5), connected_graphs(max_n=5))
@settings(max_examples=40)
def test_strong_product_commutes_via_coordinate_swap(g1, g2):
    a = strong_product(g1, g2)
    b = strong_product(g2, g1)
    assert a.graph.n == b.graph.n and a.graph.edge_count == b.graph.edge_count
    assert sorted(map(len, a.graph.adj)) == sorted(map(len, b.graph.adj))
    # (i,j) -> (j,i) is an explicit isomorphism
    swapped = {tuple(sorted((b.id(j1, i1), b.id(j2, i2))))
               for (u, v) in a.graph.edges
               for (i1, j1), (i2, j2) in [(a.coords(u), a.coords(v))]}
    assert swapped == set(b.graph.edges)


@given(connected_graphs(max_n=5), connected_graphs(max_n=5))
@settings(max_examples=40)
def test_cartesian_edges_subset_of_strong(g1, g2):
    strong = set(strong_product(g1, g2).graph.edges)
    cart = set(cartesian_product(g1, g2).graph.edges)
    assert cart <= strong


def test_layers():
    pg = family_product("pxp", 3, 3)
    assert layer(pg, "factor2", 0) == (0, 1, 2)
    cxp = family_product("cxp", 4, 3)
    row = layer(cxp, "factor1", 1)
    assert len(row) == 4
    # the factor-1 layer induces a copy of C4
    sub, _ = induced_subgraph(cxp.graph, row)
    assert sub.edge_count == 4 and all(sub.degree(v) == 2 for v in range(4))
    # layers at distinct indices partition the vertex set
    seen = set()
    for j in range(3):
        lay = set(layer(cxp, "factor1", j))
        assert not lay & seen
        seen |= lay
    assert seen == set(range(12))
    with pytest.raises(ValueError):
        layer(pg, "factor1", 7)


def test_factor_recovery():
    pg = family_product("cxp", 5, 4)
    f1, f2 = pg.factor1(), pg.factor2()
    assert f1.adj == make_cycle(5).adj
    assert f2.adj == make_path(4).adj


@pytest.mark.parametrize("family,m,n", [("pxp", 3, 5), ("cxp", 5, 4), ("cxc", 4, 6)])
@pytest.mark.parametrize("kind", ["strong", "cartesian"])
def test_cached_factors_are_the_layers(family, m, n, kind):
    pg = family_product(family, m, n, kind)
    f1, f2 = pg.factor1(), pg.factor2()
    assert f1 == induced_subgraph(pg.graph, layer(pg, "factor1", 0))[0]
    assert f2 == induced_subgraph(pg.graph, layer(pg, "factor2", 0))[0]
    assert pg.factor1() is f1 and pg.factor2() is f2  # recovered once per product
    fresh = family_product(family, m, n, kind)
    assert pg == fresh and hash(pg) == hash(fresh) and to_json(pg) == to_json(fresh)


def test_slice_of_set():
    pg = family_product("pxp", 3, 3)
    column = tuple(pg.id(1, j) for j in range(3))
    assert slice_of_set(pg, column, "factor2", 1) == column
    assert slice_of_set(pg, column, "factor2", 0) == ()


def test_make_i_set():
    pg = family_product("pxp", 3, 3)
    cut = make_i_set(pg, {1}, "factor2")
    assert cut == (1, 4, 7)
    cxc = family_product("cxc", 4, 4)
    assert len(make_i_set(cxc, {0, 2}, "factor1")) == 8
    with pytest.raises(ValueError):
        make_i_set(pg, {0}, "factor1")  # endpoint of P3 is no cut


def test_make_l_set_isolates_corner():
    pg = family_product("pxp", 3, 3)
    cut = make_l_set(pg, s1={1}, a1={0}, s2={1}, a2={0})
    assert cut == (1, 3, 4)
    comps = components(pg.graph, cut)
    assert comps[0] == (0,) and len(comps) == 2
    with pytest.raises(ValueError):
        make_l_set(pg, s1={1}, a1={2, 0}, s2={1}, a2={0})  # A1 not a component


def test_classify_constructed_cuts():
    pg = family_product("pxp", 3, 3)
    i_cut = make_i_set(pg, {1}, "factor2")
    cls = classify_cut(pg, i_cut)
    assert cls.verdict == "i_set" and cls.axis == "factor2" and cls.factor_cut == (1,)
    assert cls.rebuild(pg) == i_cut

    l_cut = make_l_set(pg, {1}, {0}, {1}, {0})
    cls = classify_cut(pg, l_cut)
    assert cls.verdict == "l_set"
    assert (cls.s1, cls.a1, cls.s2, cls.a2) == ((1,), (0,), (1,), (0,))
    assert cls.rebuild(pg) == l_cut


def test_classify_rejects_non_cut():
    pg = family_product("pxp", 3, 3)
    with pytest.raises(ValueError):
        classify_cut(pg, {0})


@pytest.mark.parametrize("family,m,n,counts", [
    ("pxp", 3, 3, {"i_set": 2, "l_set": 4, "neither": 117}),
    ("pxp", 3, 4, {"i_set": 6, "l_set": 20, "neither": 1441}),
    ("cxp", 4, 3, {"i_set": 3, "l_set": 8, "neither": 490}),
    ("cxc", 4, 4, {"i_set": 4, "l_set": 16, "neither": 2020}),
])
def test_classify_every_vertex_cut_of_small_products(family, m, n, counts):
    pg = family_product(family, m, n)
    verdicts = Counter()
    for k in range(1, pg.graph.n - 1):
        for cut in combinations(range(pg.graph.n), k):
            if len(components(pg.graph, cut)) < 2:
                continue
            cls = classify_cut(pg, cut)
            verdicts[cls.verdict] += 1
            if cls.verdict != "neither":
                assert cls.rebuild(pg) == cut
    assert verdicts == counts


def test_classify_all_min_cuts_of_small_products():
    for fam, m, n in [("pxp", 3, 4), ("cxp", 4, 3)]:
        pg = family_product(fam, m, n)
        for cut in enumerate_min_cuts(pg.graph, 0):
            assert classify_cut(pg, cut).verdict in ("i_set", "l_set")


@given(st.sampled_from([("pxp", 3, 4), ("cxp", 4, 3), ("cxc", 4, 4)]),
       st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_constructed_sets_classify_as_built(fam_mn, seed_idx):
    fam, m, n = fam_mn
    pg = family_product(fam, m, n)
    f2 = pg.factor2()
    cuts2 = [c for c in ({1}, {0, 2}, {1, 3 % f2.n}) if
             len(components(f2, c)) >= 2 and len(c) < f2.n]
    if not cuts2:
        return
    cut = make_i_set(pg, sorted(cuts2[seed_idx % len(cuts2)]), "factor2")
    assert classify_cut(pg, cut).verdict == "i_set"


def test_product_json_round_trip_and_validation():
    pg = family_product("cxp", 4, 3)
    text = to_json(pg)
    back = from_json(text)
    assert back.graph.adj == pg.graph.adj and back.kind == "strong"
    assert verify_product_structure(pg)

    doc = json.loads(text)
    doc["edges"] = doc["edges"][:-1]  # drop an edge: structure no longer a product
    with pytest.raises(ValueError):
        from_json(json.dumps(doc))


def test_family_product_labels():
    pg = family_product("pxp", 2, 2)
    assert pg.graph.labels == ("(x1,y1)", "(x1,y2)", "(x2,y1)", "(x2,y2)")
    cxc = family_product("cxc", 3, 3)
    assert cxc.graph.labels[0] == "(x0,y0)"


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", ["strong", "cartesian"])
@pytest.mark.parametrize("m,n", [(4, 5), (5, 4), (5, 5)])
def test_family_product_generators_map_the_edge_set_onto_itself(family, kind, m, n):
    pg = family_product(family, m, n, kind)
    edges = {frozenset(e) for e in pg.graph.edges}
    # two per cycle factor, one per path factor, and the swap of equal factors
    per_factor = {"p": 1, "c": 2}
    expected = per_factor[family[0]] + per_factor[family[2]]
    expected += m == n and family[0] == family[2]
    assert len(pg.graph.automorphisms) == expected
    for p in pg.graph.automorphisms:
        assert sorted(p) == list(range(pg.graph.n))
        assert {frozenset((p[u], p[v])) for u, v in pg.graph.edges} == edges


def test_product_generators_take_no_part_in_equality_or_json():
    pg = family_product("cxc", 4, 4)
    bare = Graph(pg.graph.n, pg.graph.adj, pg.graph.labels)
    assert pg.graph == bare and hash(pg.graph) == hash(bare)
    text = to_json(pg)
    assert "automorphisms" not in json.loads(text)
    back = from_json(text)  # re-derived from the path and cycle factors
    assert back == pg and back.graph.automorphisms == pg.graph.automorphisms


@pytest.mark.parametrize("family,m,n", [("pxp", 4, 5), ("cxp", 5, 4), ("cxc", 5, 5),
                                        ("cxc", 4, 6)])
def test_product_json_round_trip_keeps_the_search(family, m, n):
    pg = family_product(family, m, n)
    back = from_json(to_json(pg))
    assert back.graph.labels == pg.graph.labels
    assert fragment_solve_many(back.graph, [0, 1, 2]) == fragment_solve_many(pg.graph, [0, 1, 2])


def test_product_json_declares_generators_only_for_path_and_cycle_factors():
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    for pg, declared in [(strong_product(star, make_path(3)), False),
                         (strong_product(star, star), False),
                         (strong_product(make_path(3), make_cycle(4)), True)]:
        back = from_json(to_json(pg))
        assert back == pg and bool(back.graph.automorphisms) == declared


def test_family_product_rejects_unknown_kind():
    assert family_product("pxp", 3, 3, "cartesian").kind == "cartesian"
    for kind in ("Strong", "tensor", ""):
        with pytest.raises(ValueError):
            family_product("pxp", 3, 3, kind)


def test_render_coords_labelled_and_unlabelled():
    labelled = family_product("cxp", 4, 3)
    assert render_coords(labelled, [5, 0, 5]) == "(x0,y1) (x1,y3)"
    unlabelled = strong_product(from_edges(2, [(0, 1)]), from_edges(3, [(0, 1), (1, 2)]))
    assert unlabelled.graph.labels is None
    assert render_coords(unlabelled, [4, 1]) == "(0,1) (1,1)"
