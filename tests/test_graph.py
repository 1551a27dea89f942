import re

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import connected_graphs, graphs_with_vertex_sets
from xconn.graph import (Graph, components, from_edges, from_json, induced_subgraph,
                         is_complete, is_connected, make_cycle, make_path, map_mask,
                         mask_to_tuple, min_degree, neighborhood, to_dot, to_json)
from xconn.solver import kappa_extra_fragment


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


@pytest.mark.parametrize("v, message", [
    (-1, "vertex -1 out of range for graph of order 4"),  # no wrap to the last vertex
    (4, "vertex 4 out of range for graph of order 4"),
    (True, "vertex must be an integer, got True"),
    (1.0, "vertex must be an integer, got 1.0"),
    ("1", "vertex must be an integer, got '1'"),
])
@pytest.mark.parametrize("labelled", [True, False])
def test_degree_and_label_refuse_a_bad_vertex(v, message, labelled):
    g = make_path(4) if labelled else from_edges(4, [(0, 1), (1, 2), (2, 3)])
    for accessor in (g.degree, g.label):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            accessor(v)
    assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]
    assert g.label(3) == ("x4" if labelled else "3")


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


@pytest.mark.parametrize("n, edges", [(3, [(0, 1.0)]), (3, [(0, True)]), (3, [("0", 1)]),
                                      (3.0, [(0, 1)]), (True, [])])
def test_from_edges_rejects_non_integers(n, edges):
    with pytest.raises(ValueError, match="not an integer|must be an integer"):
        from_edges(n, edges)


def test_graph_rejects_non_integer_order_or_neighbours():
    with pytest.raises(ValueError, match="must be an integer"):
        Graph(0.0, ())
    with pytest.raises(ValueError, match="not a bitmask"):
        Graph(2, (0b10, 1.0))


PATH3 = (0b010, 0b101, 0b010)  # the masks of the path 0-1-2


@pytest.mark.parametrize("masks, automorphisms, message", [
    ((True, 0b01), (), r"mask of 0 is not a bitmask over range\(2\): True"),
    ((0b010, 0b101, -1), (), r"mask of 2 is not a bitmask over range\(3\): -1"),
    ((0b010, 0b101, 0b1010), (), r"mask of 2 is not a bitmask over range\(3\): 10"),
    ((0b011, 0b101, 0b010), (), "self-loop at 0"),
    ((0b110, 0b101, 0b010), (), "edge 0-2 not symmetric"),
    (PATH3, ((1, 0, 2),), "does not map the neighbours of 0 onto those of 1"),
])
def test_graph_refuses_masks_that_are_not_a_simple_graph(masks, automorphisms, message):
    with pytest.raises(ValueError, match=message):
        Graph(len(masks), masks, None, automorphisms)


def test_a_graph_keeps_its_masks_and_nothing_else():
    assert Graph._fields == ("n", "masks", "labels", "automorphisms")
    g = Graph(3, PATH3, None, ((2, 1, 0),))
    assert g.masks == PATH3 and g.adj == ((1,), (0, 2), (1,))
    assert g == from_edges(3, [(1, 2), (0, 1), (1, 0)])
    assert not hasattr(g, "__dict__")


def test_a_graph_built_from_lists_is_not_changed_through_them():
    c6 = make_cycle(6)
    masks, labels = list(c6.masks), list(c6.labels)
    autos = [list(p) for p in c6.automorphisms]
    g = Graph(6, masks, labels, autos)
    before = hash(g)
    # were this list kept, the solver would trust a map that is not an
    # automorphism and report 15 cuts, among them (0, 5), which is not a cut
    autos[1][:] = [1, 0, 2, 3, 4, 5]
    masks[0], labels[0] = 0b000011, 7
    cuts = kappa_extra_fragment(g, 0).cuts
    assert len(cuts) == 9 and (0, 2) in cuts and (0, 5) not in cuts
    assert hash(g) == before and g == c6 and g.automorphisms == c6.automorphisms


@pytest.mark.parametrize("labels, message", [
    ("ab", "labels must be a sequence of strings, got 'ab'"),
    (["a", 1], "label of 1 is not a string: 1"),
])
def test_labels_must_be_strings(labels, message):
    with pytest.raises(ValueError, match=message):
        from_edges(2, [(0, 1)], labels=labels)
    with pytest.raises(ValueError, match=message):
        Graph(2, (0b10, 0b01), labels)


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))) if n else st.just(set()),
    st.none() | st.text(min_size=n, max_size=n)
    | st.lists(st.text(max_size=3) | st.integers(), min_size=n, max_size=n))))
def test_every_graph_the_constructor_accepts_reads_back_equal(case):
    n, pairs, labels = case
    masks = [0] * n
    for u, v in pairs:
        if u != v:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    try:
        g = Graph(n, masks, labels)
    except ValueError:
        return
    assert from_json(to_json(g)) == g


def test_json_round_trip():
    for g in (make_path(6), make_cycle(5), from_edges(4, [(0, 2), (1, 3)])):
        back = from_json(to_json(g))
        assert back.adj == g.adj and back.labels == g.labels


def test_json_document_is_pinned_byte_for_byte():
    # keys sorted, labels written because the path has them
    assert to_json(make_path(3)) == \
        '{"edges": [[0, 1], [1, 2]], "labels": ["x1", "x2", "x3"], "n": 3}'


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
        Graph(3, path.masks, None, ((1, 0, 2),))


def test_declared_generators_take_no_part_in_equality_or_json():
    g = make_cycle(5)
    bare = Graph(g.n, g.masks, g.labels)
    assert g == bare and hash(g) == hash(bare) and bare.automorphisms == ()
    back = from_json(to_json(g))
    assert back == g and back.automorphisms == ()
    assert induced_subgraph(g, range(4))[0].automorphisms == ()


def test_cached_masks_take_no_part_in_equality_hash_json_or_replace():
    g = make_cycle(5)
    bare = Graph(g.n, g.masks, g.labels)
    before = (hash(g), to_json(g))
    assert g == bare
    assert (hash(g), to_json(g)) == before == (hash(bare), to_json(bare))
    relabelled = Graph(g.n, g.masks, None, g.automorphisms)
    assert relabelled.masks == g.masks
    assert Graph(g.n, g.masks, g.labels, g.automorphisms) == g


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


@given(st.data())
def test_map_mask_moves_each_bit_to_its_image(data):
    n = data.draw(st.integers(1, 12))
    p = data.draw(st.permutations(range(n)))
    q = data.draw(st.permutations(range(n)))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    image = map_mask(mask, p)
    assert image.bit_count() == mask.bit_count()
    inverse = {v: i for i, v in enumerate(p)}
    assert map_mask(image, inverse) == mask
    assert map_mask(image, q) == map_mask(mask, [q[p[v]] for v in range(n)])
    # the product's row spread: vertex i of an order-n factor goes to the
    # first vertex of row i, rows being `width` vertices long
    width = data.draw(st.integers(1, 12))
    assert (map_mask(mask, range(0, n * width, width))
            == sum(1 << i * width for i in mask_to_tuple(mask)))
