"""Undirected simple graphs over integer vertex ids 0..n-1.

Graphs are immutable after construction and every operation here is a pure
function, so values can be shared freely across parallel sweeps.  The only
cache is ``Graph.masks``, built from the immutable adjacency on first use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Graph:
    """Immutable adjacency-list graph.

    ``adj[v]`` is the sorted tuple of neighbours of ``v``.  ``labels``, when
    present, carries one display string per vertex (paths use 1-based names
    x1..xn, cycles 0-based x0..x(n-1), matching the usual conventions).
    ``automorphisms`` optionally declares generators of a symmetry group:
    each is a permutation ``p`` of the vertices mapping every edge u-v to
    the edge p[u]-p[v].  They are checked here, so solvers may trust them;
    they take no part in equality, hashing or serialization, and neither
    does the cached ``masks``.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None
    automorphisms: tuple[tuple[int, ...], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError(f"adjacency length {len(self.adj)} != n={self.n}")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length mismatch")
        for v, nbrs in enumerate(self.adj):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"adjacency of {v} not sorted/duplicate-free")
            for u in nbrs:
                if not 0 <= u < self.n:
                    raise ValueError(f"neighbour {u} of {v} out of range")
                if u == v:
                    raise ValueError(f"self-loop at {v}")
                if v not in self.adj[u]:
                    raise ValueError(f"edge {v}-{u} not symmetric")
        for p in self.automorphisms:
            if len(p) != self.n or set(p) != set(range(self.n)):
                raise ValueError("declared automorphism is not a permutation of "
                                 f"range({self.n})")
            for v, nbrs in enumerate(self.adj):
                if tuple(sorted(p[u] for u in nbrs)) != self.adj[p[v]]:
                    raise ValueError("declared permutation does not map the "
                                     f"neighbours of {v} onto those of {p[v]}")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u in range(self.n) for v in self.adj[u] if u < v)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per-vertex neighbour bitmasks (bit u set in masks[v] iff u ~ v),
        built on first use and kept with the graph."""
        return tuple(sum(1 << u for u in nbrs) for nbrs in self.adj)


def from_edges(n: int, edges: Iterable[tuple[int, int]],
               labels: Sequence[str] | None = None,
               automorphisms: Iterable[Sequence[int]] = ()) -> Graph:
    """Build a Graph from an edge list, deduplicating and sorting."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop ({u},{v})")
        nbrs[u].add(v)
        nbrs[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in nbrs)
    return Graph(n, adj, tuple(labels) if labels is not None else None,
                 tuple(tuple(p) for p in automorphisms))


def make_path(n: int, letter: str = "x") -> Graph:
    """Path on n >= 1 vertices; labels use 1-based indices (x1..xn).

    Declares its reversal i -> n-1-i as an automorphism.
    """
    if n < 1:
        raise ValueError(f"path order must be >= 1, got {n}")
    labels = tuple(f"{letter}{i + 1}" for i in range(n))
    reversal = tuple(range(n - 1, -1, -1))
    return from_edges(n, [(i, i + 1) for i in range(n - 1)], labels, [reversal])


def make_cycle(n: int, letter: str = "x") -> Graph:
    """Cycle on n >= 3 vertices; labels use 0-based indices (x0..x(n-1)).

    Declares the rotation i -> i+1 and the reflection i -> -i (mod n), which
    generate its whole automorphism group.
    """
    if n < 3:
        raise ValueError(f"cycle order must be >= 3, got {n}")
    labels = tuple(f"{letter}{i}" for i in range(n))
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple(-i % n for i in range(n))
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)], labels,
                      [rotation, reflection])


def _check_vertex_set(g: Graph, vs: Iterable[int]) -> frozenset[int]:
    s = frozenset(vs)
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for graph of order {g.n}")
    return s


def neighborhood(g: Graph, vs: Iterable[int]) -> tuple[int, ...]:
    """Vertices outside ``vs`` adjacent to at least one member of ``vs``."""
    s = _check_vertex_set(g, vs)
    out: set[int] = set()
    for v in s:
        out.update(g.adj[v])
    return tuple(sorted(out - s))


def remaining_mask(g: Graph, removed: Iterable[int]) -> int:
    """The bitmask of the vertices not in ``removed``; a removed vertex
    outside range(g.n) raises ValueError."""
    rest = (1 << g.n) - 1
    for v in _check_vertex_set(g, removed):
        rest ^= 1 << v
    return rest


def components(g: Graph, removed: Iterable[int] = ()) -> list[tuple[int, ...]]:
    """Connected components of g minus ``removed``, ordered by smallest member."""
    return [mask_to_tuple(comp)
            for comp, _ in mask_components(g.masks, remaining_mask(g, removed))]


def is_connected(g: Graph) -> bool:
    return g.n > 0 and len(mask_components(g.masks, (1 << g.n) - 1)) == 1


def induced_subgraph(g: Graph, vs: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on ``vs``.

    Returns the new graph and the id remapping: position i of the returned
    tuple holds the original id of the new vertex i.
    """
    keep = sorted(_check_vertex_set(g, vs))
    index = {old: new for new, old in enumerate(keep)}
    adj = tuple(tuple(index[u] for u in g.adj[old] if u in index) for old in keep)
    labels = tuple(g.label(old) for old in keep) if g.labels is not None else None
    return Graph(len(keep), adj, labels), tuple(keep)


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("empty graph has no minimum degree")
    return min(len(nbrs) for nbrs in g.adj)


def is_complete(g: Graph) -> bool:
    return all(len(nbrs) == g.n - 1 for nbrs in g.adj)


def mask_components(masks: Sequence[int], sub: int) -> list[tuple[int, int]]:
    """Connected components of the vertices in bitmask ``sub``, as (mask, size)
    pairs ordered by smallest member; ``masks`` as ``Graph.masks``."""
    comps = []
    while sub:
        frontier = sub & -sub
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            f = frontier
            while f:
                vb = f & -f
                f ^= vb
                nxt |= masks[vb.bit_length() - 1]
            frontier = nxt & sub & ~comp
        sub &= ~comp
        comps.append((comp, comp.bit_count()))
    return comps


def mask_to_tuple(mask: int) -> tuple[int, ...]:
    """The vertex ids set in ``mask``, ascending."""
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return tuple(out)


def to_json(g: Graph) -> str:
    """Serialize to the interchange format {"n", "edges", "labels"?}.

    Declared automorphisms are not written, so a graph read back declares none.
    """
    doc: dict = {"n": g.n, "edges": [list(e) for e in g.edges]}
    if g.labels is not None:
        doc["labels"] = list(g.labels)
    return json.dumps(doc, sort_keys=True)


def from_json(text: str) -> Graph:
    """Parse the interchange format; a malformed document raises ValueError."""
    return from_doc(json.loads(text))


def from_doc(doc: object) -> Graph:
    """Build a graph from an already parsed interchange document."""
    try:
        return from_edges(doc["n"], [tuple(e) for e in doc["edges"]], doc.get("labels"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON ({type(exc).__name__}: {exc})") from None


def to_dot(g: Graph, highlight: Iterable[int] = ()) -> str:
    """DOT export for visual inspection; ``highlight`` vertices are filled."""
    marked = _check_vertex_set(g, highlight)
    lines = ["graph G {"]
    for v in range(g.n):
        label = str(g.label(v)).replace("\\", "\\\\").replace('"', '\\"')
        attrs = [f'label="{label}"']
        if v in marked:
            attrs.append('style=filled fillcolor=lightcoral')
        lines.append(f'  {v} [{" ".join(attrs)}];')
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
