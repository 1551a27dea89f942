"""Strong and Cartesian products with layer/slice queries and cut structure.

Product vertices are pairs (i, j) of factor ids, packed row-major as
``i * n + j``.  Two product vertices are adjacent when

  (i)   i1 == i2 and j1 ~ j2            (both products)
  (ii)  j1 == j2 and i1 ~ i2            (both products)
  (iii) i1 ~ i2 and j1 ~ j2             (strong product only)

An I-set is a product cut of the form S1 x V2 or V1 x S2 with S_i a vertex
cut of its factor; an L-set is (S1 x A2) u (S1 x S2) u (A1 x S2) with A_i a
component of G_i - S_i.  Every minimum vertex cut of a strong product of
connected graphs is one of the two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

from .formulas import FAMILIES, family_cycles  # FAMILIES is re-exported
from .graph import (Graph, components, from_edges, induced_subgraph, make_cycle, make_path)
from .graph import from_doc as graph_from_doc


@dataclass(frozen=True)
class ProductGraph:
    """A product graph plus the factor metadata needed for layer queries.

    Each factor is recovered from its layer on first use and kept with the
    product; the cache takes no part in equality or hashing.
    """

    graph: Graph
    m: int
    n: int
    kind: str  # "strong" | "cartesian"

    def __post_init__(self) -> None:
        if self.kind not in ("strong", "cartesian"):
            raise ValueError(f"unknown product kind {self.kind!r}")
        if self.graph.n != self.m * self.n:
            raise ValueError("vertex count does not match factor orders")

    def id(self, i: int, j: int) -> int:
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise ValueError(f"coordinate ({i},{j}) out of range")
        return i * self.n + j

    def coords(self, v: int) -> tuple[int, int]:
        if not 0 <= v < self.graph.n:
            raise ValueError(f"vertex {v} out of range")
        return divmod(v, self.n)

    def factor1(self) -> Graph:
        """Factor 1 recovered from the layer at j=0 (isomorphic by construction)."""
        return self._factor1

    def factor2(self) -> Graph:
        """Factor 2 recovered from the layer at i=0."""
        return self._factor2

    @cached_property
    def _factor1(self) -> Graph:
        return induced_subgraph(self.graph, [self.id(i, 0) for i in range(self.m)])[0]

    @cached_property
    def _factor2(self) -> Graph:
        return induced_subgraph(self.graph, [self.id(0, j) for j in range(self.n)])[0]


def _product(g1: Graph, g2: Graph, kind: str) -> ProductGraph:
    if g1.n == 0 or g2.n == 0:
        raise ValueError("product factors must be nonempty")
    m, n = g1.n, g2.n
    edges: list[tuple[int, int]] = []
    for i in range(m):
        for j in range(n):
            v = i * n + j
            for j2 in g2.adj[j]:
                if j2 > j:
                    edges.append((v, i * n + j2))
            for i2 in g1.adj[i]:
                if i2 > i:
                    edges.append((v, i2 * n + j))
                if kind == "strong":
                    for j2 in g2.adj[j]:
                        if i2 > i:
                            edges.append((v, i2 * n + j2))
    labels = None
    if g1.labels is not None and g2.labels is not None:
        labels = tuple(f"({g1.labels[i]},{g2.labels[j]})"
                       for i in range(m) for j in range(n))
    # factor automorphisms act on their own coordinate; equal factors also
    # swap coordinates.  Each map preserves all three adjacency rules.
    autos = [tuple(sigma[i] * n + j for i in range(m) for j in range(n))
             for sigma in g1.automorphisms]
    autos += [tuple(i * n + tau[j] for i in range(m) for j in range(n))
              for tau in g2.automorphisms]
    if g1.adj == g2.adj:
        autos.append(tuple(j * n + i for i in range(m) for j in range(n)))
    graph = from_edges(m * n, edges, labels, autos)
    return ProductGraph(graph, m, n, kind)


def _as_path_or_cycle(g: Graph) -> Graph | None:
    """``make_path`` or ``make_cycle`` of g's order when g has its edges."""
    shapes = [make_path(g.n)] + ([make_cycle(g.n)] if g.n >= 3 else [])
    return next((shape for shape in shapes if shape.adj == g.adj), None)


def strong_product(g1: Graph, g2: Graph) -> ProductGraph:
    return _product(g1, g2, "strong")


def cartesian_product(g1: Graph, g2: Graph) -> ProductGraph:
    return _product(g1, g2, "cartesian")


def family_product(family: str, m: int, n: int, kind: str = "strong") -> ProductGraph:
    """Build a path/cycle product: 'pxp' = Pm x Pn, 'cxp' = Cm x Pn, 'cxc' = Cm x Cn.
    Each factor is a cycle or a path as the family's ``CYCLES`` flags say."""
    c1, c2 = family_cycles(family)
    f1 = (make_cycle if c1 else make_path)(m, "x")
    f2 = (make_cycle if c2 else make_path)(n, "y")
    return _product(f1, f2, kind)


def layer(pg: ProductGraph, axis: str, index: int) -> tuple[int, ...]:
    """Vertex set of the factor-``axis`` layer at ``index`` in the other factor.

    axis='factor1' gives a copy of factor 1 at a fixed factor-2 vertex;
    axis='factor2' a copy of factor 2 at a fixed factor-1 vertex.
    """
    if axis == "factor1":
        if not 0 <= index < pg.n:
            raise ValueError(f"layer index {index} out of range")
        return tuple(pg.id(i, index) for i in range(pg.m))
    if axis == "factor2":
        if not 0 <= index < pg.m:
            raise ValueError(f"layer index {index} out of range")
        return tuple(pg.id(index, j) for j in range(pg.n))
    raise ValueError(f"axis must be 'factor1' or 'factor2', got {axis!r}")


def slice_of_set(pg: ProductGraph, s: Iterable[int], axis: str, index: int) -> tuple[int, ...]:
    """Intersection of ``s`` with the indicated layer."""
    return tuple(sorted(set(s) & set(layer(pg, axis, index))))


def _is_vertex_cut(factor: Graph, cut: frozenset[int]) -> bool:
    if not cut or cut == frozenset(range(factor.n)):
        return False
    return len(components(factor, cut)) >= 2


def make_i_set(pg: ProductGraph, factor_cut: Iterable[int], axis: str) -> tuple[int, ...]:
    """S1 x V2 (axis='factor1') or V1 x S2 (axis='factor2') for a factor vertex cut."""
    cut = frozenset(factor_cut)
    if axis == "factor1":
        if not _is_vertex_cut(pg.factor1(), cut):
            raise ValueError("factor 1 set is not a vertex cut of factor 1")
        return tuple(sorted(pg.id(i, j) for i in cut for j in range(pg.n)))
    if axis == "factor2":
        if not _is_vertex_cut(pg.factor2(), cut):
            raise ValueError("factor 2 set is not a vertex cut of factor 2")
        return tuple(sorted(pg.id(i, j) for i in range(pg.m) for j in cut))
    raise ValueError(f"axis must be 'factor1' or 'factor2', got {axis!r}")


def make_l_set(pg: ProductGraph, s1: Iterable[int], a1: Iterable[int],
               s2: Iterable[int], a2: Iterable[int]) -> tuple[int, ...]:
    """(S1 x A2) u (S1 x S2) u (A1 x S2) with A_i a component of factor_i - S_i."""
    f1, f2 = pg.factor1(), pg.factor2()
    s1, a1, s2, a2 = frozenset(s1), frozenset(a1), frozenset(s2), frozenset(a2)
    if not _is_vertex_cut(f1, s1):
        raise ValueError("S1 is not a vertex cut of factor 1")
    if not _is_vertex_cut(f2, s2):
        raise ValueError("S2 is not a vertex cut of factor 2")
    if tuple(sorted(a1)) not in components(f1, s1):
        raise ValueError("A1 is not a component of factor 1 minus S1")
    if tuple(sorted(a2)) not in components(f2, s2):
        raise ValueError("A2 is not a component of factor 2 minus S2")
    out = {pg.id(i, j) for i in s1 for j in a2 | s2}
    out |= {pg.id(i, j) for i in a1 for j in s2}
    return tuple(sorted(out))


@dataclass(frozen=True)
class CutClassification:
    """Structure verdict for a product vertex cut, with a rebuild certificate."""

    verdict: str  # "i_set" | "l_set" | "neither"
    axis: str | None = None                      # i_set only
    factor_cut: tuple[int, ...] | None = None    # i_set only
    s1: tuple[int, ...] | None = None            # l_set only
    a1: tuple[int, ...] | None = None
    s2: tuple[int, ...] | None = None
    a2: tuple[int, ...] | None = None

    def rebuild(self, pg: ProductGraph) -> tuple[int, ...]:
        if self.verdict == "i_set":
            return make_i_set(pg, self.factor_cut, self.axis)
        if self.verdict == "l_set":
            return make_l_set(pg, self.s1, self.a1, self.s2, self.a2)
        raise ValueError("no certificate for verdict 'neither'")


def classify_cut(pg: ProductGraph, cut: Iterable[int]) -> CutClassification:
    """Classify a vertex cut of the product as i_set, l_set, or neither.

    Candidate certificates are tried in a fixed order (I on factor 1, I on
    factor 2, then L recovered from the two distinct row slices), and the
    first that rebuilds to the cut is returned, so verdicts are deterministic.
    """
    s = frozenset(cut)
    for v in s:
        if not 0 <= v < pg.graph.n:
            raise ValueError(f"cut vertex {v} out of range")
    if len(components(pg.graph, s)) < 2:
        raise ValueError("set is not a vertex cut of the product")

    rows = [tuple(j for j in range(pg.n) if pg.id(i, j) in s) for i in range(pg.m)]
    full_cols = tuple(j for j in range(pg.n) if all(pg.id(i, j) in s for i in range(pg.m)))
    candidates = [
        CutClassification("i_set", axis="factor1",
                          factor_cut=tuple(i for i in range(pg.m) if len(rows[i]) == pg.n)),
        CutClassification("i_set", axis="factor2", factor_cut=full_cols),
    ]
    distinct = sorted({r for r in rows if r}, key=len)
    if len(distinct) == 2:
        cut2, big = distinct
        candidates.append(CutClassification(
            "l_set",
            s1=tuple(i for i in range(pg.m) if rows[i] == big),
            a1=tuple(i for i in range(pg.m) if rows[i] == cut2),
            s2=cut2, a2=tuple(sorted(set(big) - set(cut2)))))
    for cert in candidates:
        try:
            if frozenset(cert.rebuild(pg)) == s:
                return cert
        except ValueError:  # a certificate whose preconditions fail
            continue
    return CutClassification("neither")


def verify_product_structure(pg: ProductGraph) -> bool:
    """Re-derive the product from its layer-recovered factors and compare."""
    rebuilt = _product(pg.factor1(), pg.factor2(), pg.kind)
    return rebuilt.graph.adj == pg.graph.adj


def to_json(pg: ProductGraph) -> str:
    doc = {
        "n": pg.graph.n,
        "edges": [list(e) for e in pg.graph.edges],
        "product": {"kind": pg.kind, "m": pg.m, "n": pg.n},
    }
    if pg.graph.labels is not None:
        doc["labels"] = list(pg.graph.labels)
    return json.dumps(doc, sort_keys=True)


def from_json(text: str) -> ProductGraph:
    """Parse a product document; a malformed one raises ValueError."""
    return from_doc(json.loads(text))


def from_doc(doc: object) -> ProductGraph:
    """Build a product from an already parsed product document."""
    graph = graph_from_doc(doc)
    try:
        meta = doc["product"]
        m, n, kind = meta["m"], meta["n"], meta["kind"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed product JSON ({type(exc).__name__}: {exc})") from None
    if type(m) is not int or type(n) is not int:
        raise ValueError("malformed product JSON (factor orders must be integers)")
    pg = ProductGraph(graph, m, n, kind)
    if not verify_product_structure(pg):
        raise ValueError("edge set inconsistent with declared product structure")
    # path and cycle factors declare their maps, as in family_product
    f1, f2 = _as_path_or_cycle(pg.factor1()), _as_path_or_cycle(pg.factor2())
    if f1 is None or f2 is None:
        return pg
    autos = _product(f1, f2, kind).graph.automorphisms
    return ProductGraph(replace(graph, automorphisms=autos), m, n, kind)


def render_coords(pg: ProductGraph, vertices: Iterable[int]) -> str:
    """Human-readable coordinate listing for a set of product vertices."""
    parts = []
    for v in sorted(set(vertices)):
        i, j = pg.coords(v)
        parts.append(pg.graph.label(v) if pg.graph.labels is not None else f"({i},{j})")
    return " ".join(parts)
