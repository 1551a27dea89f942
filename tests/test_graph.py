import dataclasses

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import connected_graphs, graphs_with_vertex_sets
from xconn.graph import (Graph, components, from_edges, from_json, induced_subgraph,
                         is_complete, is_connected, make_cycle, make_path,
                         min_degree, neighborhood, to_dot, to_json)


def test_make_path_basics():
    assert make_path(1).n == 1 and make_path(1).edge_count == 0
    assert make_path(2).edge_count == 1
    p5 = make_path(5)
    assert p5.edge_count == 4
    assert sorted(p5.degree(v) for v in range(5)) == [1, 1, 2, 2, 2]
    assert p5.labels == ("x1", "x2", "x3", "x4", "x5")


def test_make_path_rejects_zero():
    with pytest.raises(ValueError):
        make_path(0)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_make_cycle_is_two_regular(n):
    c = make_cycle(n)
    assert c.edge_count == n
    assert all(c.degree(v) == 2 for v in range(n))


def test_make_cycle_labels_zero_based():
    assert make_cycle(4).labels == ("x0", "x1", "x2", "x3")


@pytest.mark.parametrize("n", [0, 1, 2])
def test_make_cycle_rejects_small(n):
    with pytest.raises(ValueError):
        make_cycle(n)


def test_neighborhood_examples():
    p5 = make_path(5)
    assert neighborhood(p5, {2}) == (1, 3)
    assert neighborhood(p5, {0, 1, 2, 3, 4}) == ()
    assert neighborhood(make_cycle(4), {0}) == (1, 3)


def test_neighborhood_rejects_out_of_range():
    with pytest.raises(ValueError):
        neighborhood(make_path(3), {5})


def test_components_examples():
    p5 = make_path(5)
    assert components(p5, {2}) == [(0, 1), (3, 4)]
    assert components(p5) == [(0, 1, 2, 3, 4)]
    assert components(make_cycle(4), {0, 2}) == [(1,), (3,)]


def test_induced_subgraph_examples():
    c4 = make_cycle(4)
    sub, remap = induced_subgraph(c4, {0, 1, 2})
    assert remap == (0, 1, 2)
    assert sub.edge_count == 2 and sorted(sub.degree(v) for v in range(3)) == [1, 1, 2]

    p5 = make_path(5)
    whole, _ = induced_subgraph(p5, range(5))
    assert whole.adj == p5.adj

    indep, remap = induced_subgraph(p5, {0, 2, 4})
    assert indep.edge_count == 0 and remap == (0, 2, 4)


def test_min_degree_and_completeness():
    assert min_degree(make_cycle(4)) == 2 and not is_complete(make_cycle(4))
    assert min_degree(make_path(5)) == 1
    k4 = from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert is_complete(k4) and min_degree(k4) == 3
    assert is_complete(make_path(1))


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])


def test_json_round_trip():
    for g in (make_path(6), make_cycle(5), from_edges(4, [(0, 2), (1, 3)])):
        back = from_json(to_json(g))
        assert back.adj == g.adj and back.labels == g.labels


def mapped_edges(g, p):
    return {frozenset((p[u], p[v])) for u, v in g.edges}


@pytest.mark.parametrize("g", [make_path(1), make_path(2), make_path(5),
                               make_cycle(3), make_cycle(4), make_cycle(7)])
def test_declared_generators_map_the_edge_set_onto_itself(g):
    assert g.automorphisms
    for p in g.automorphisms:
        assert sorted(p) == list(range(g.n))
        assert mapped_edges(g, p) == {frozenset(e) for e in g.edges}


def test_path_and_cycle_generators():
    assert make_path(4).automorphisms == ((3, 2, 1, 0),)
    assert make_cycle(5).automorphisms == ((1, 2, 3, 4, 0), (0, 4, 3, 2, 1))


def test_declared_generators_are_validated():
    edges = [(0, 1), (1, 2)]
    assert from_edges(3, edges, automorphisms=[[2, 1, 0]]).automorphisms == ((2, 1, 0),)
    for bad in [(0, 1), (0, 0, 1), (0, 1, 3), (1, 2, 0)]:  # not permutations of range(3)
        with pytest.raises(ValueError):
            from_edges(3, edges, automorphisms=[bad])
    with pytest.raises(ValueError):  # a permutation, but it maps edge 1-2 to 0-2
        from_edges(3, edges, automorphisms=[(1, 0, 2)])
    path = make_path(3)
    with pytest.raises(ValueError):
        Graph(3, path.adj, None, ((1, 0, 2),))


def test_declared_generators_take_no_part_in_equality_or_json():
    g = make_cycle(5)
    bare = Graph(g.n, g.adj, g.labels)
    assert g == bare and hash(g) == hash(bare) and bare.automorphisms == ()
    back = from_json(to_json(g))
    assert back == g and back.automorphisms == ()
    assert induced_subgraph(g, range(4))[0].automorphisms == ()


def test_cached_masks_take_no_part_in_equality_hash_json_or_replace():
    g = make_cycle(5)
    bare = Graph(g.n, g.adj, g.labels)
    before = (hash(g), to_json(g))
    assert "masks" not in vars(g)
    masks = g.masks
    assert vars(g)["masks"] is masks and g.masks is masks  # built once, then kept
    assert g == bare and "masks" not in vars(bare)
    assert (hash(g), to_json(g)) == before == (hash(bare), to_json(bare))
    relabelled = dataclasses.replace(g, labels=None)
    assert "masks" not in vars(relabelled) and relabelled.masks == masks
    assert dataclasses.replace(g) == g
    assert "masks" not in repr(g)


@given(connected_graphs())
def test_masks_hold_exactly_the_neighbours(g):
    assert len(g.masks) == g.n
    for v in range(g.n):
        assert tuple(u for u in range(g.n) if g.masks[v] >> u & 1) == g.adj[v]
        assert g.masks[v] >> g.n == 0


def test_dot_contains_labels_and_highlight():
    dot = to_dot(make_path(3), highlight={1})
    assert 'label="x2"' in dot
    assert "0 -- 1;" in dot
    assert dot.count("filled") == 1


@given(graphs_with_vertex_sets())
def test_neighborhood_disjoint_from_set(gv):
    g, vs = gv
    assert not set(neighborhood(g, vs)) & vs


@given(graphs_with_vertex_sets())
def test_components_partition_remainder(gv):
    g, removed = gv
    comps = components(g, removed)
    members = [v for c in comps for v in c]
    assert len(members) == len(set(members)) == g.n - len(removed)
    assert all(min(comps[i]) < min(comps[i + 1]) for i in range(len(comps) - 1))


@given(connected_graphs())
def test_connected_iff_single_component(g):
    assert is_connected(g) and len(components(g)) == 1


@given(graphs_with_vertex_sets())
def test_induced_subgraph_preserves_adjacency(gv):
    g, vs = gv
    sub, remap = induced_subgraph(g, vs)
    for a in range(sub.n):
        for b in range(a + 1, sub.n):
            assert (b in sub.adj[a]) == (remap[b] in g.adj[remap[a]])


@given(connected_graphs(max_n=10), st.data())
def test_components_match_networkx(g, data):
    removed = data.draw(st.sets(st.integers(0, g.n - 1)))
    rest = nx.Graph(g.edges)
    rest.add_nodes_from(range(g.n))
    rest.remove_nodes_from(removed)
    expected = sorted(tuple(sorted(c)) for c in nx.connected_components(rest))
    assert components(g, removed) == expected


def test_components_rejects_out_of_range_vertices():
    with pytest.raises(ValueError):
        components(make_path(3), {3})
    with pytest.raises(ValueError):
        components(make_path(3), {-1})
