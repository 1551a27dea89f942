"""Undirected simple graphs over integer vertex ids 0..n-1.

Graphs are immutable after construction and every operation here is a pure
function, so values can be shared freely across parallel sweeps.  A graph
stores its edges once, as per-vertex neighbour bitmasks, and keeps no cache.

``Record`` is the base of the package's validated records (``Graph`` here,
``ProductGraph``, ``FamilyParams`` and ``ExtraConnResult`` elsewhere); the
plain records are ``typing.NamedTuple`` classes.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence


def check_int(value: object, name: str, least: int | None = None) -> int:
    """``value`` if it is an ``int``, not a ``bool``, of at least ``least`` when
    given; else ValueError naming ``name``.  The one check of every order, g,
    vertex, budget and count a caller passes in."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} {value} is negative" if least == 0
                         else f"{name} must be at least {least}, got {value}")
    return value


class Record:
    """An immutable record that checks its fields in ``__init__``.

    A subclass names its constructor arguments, in order, in ``_fields`` and
    stores them with ``_init``.  Records are equal and hash alike when their
    ``_key`` values are, which are all the fields unless the subclass leaves
    some out.  Pickling and ``copy`` go through the constructor, so every
    copy passes the same checks.  Assigning or deleting a field raises
    AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def _init(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _key(self) -> tuple:
        return self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Graph(Record):
    """Immutable graph stored as per-vertex neighbour bitmasks.

    Bit u of ``masks[v]`` is set when u ~ v.  ``labels``, when present,
    carries one display string per vertex (paths use 1-based names x1..xn,
    cycles 0-based x0..x(n-1), matching the usual conventions).
    ``automorphisms`` optionally declares generators of a symmetry group:
    each is a permutation ``p`` of the vertices mapping every edge u-v to
    the edge p[u]-p[v].  They are checked here, so solvers may trust them;
    they take no part in equality, hashing or serialization.

    The constructor copies ``masks``, ``labels`` and each map into tuples
    before it checks them, so a caller's list cannot change a checked graph.
    Labels must be strings; a single ``str`` is refused, not split.
    """

    n: int
    masks: tuple[int, ...]
    labels: tuple[str, ...] | None
    automorphisms: tuple[tuple[int, ...], ...]
    _fields = ("n", "masks", "labels", "automorphisms")
    __slots__ = _fields

    def __init__(self, n: int, masks: Iterable[int],
                 labels: Iterable[str] | None = None,
                 automorphisms: Iterable[Iterable[int]] = ()) -> None:
        masks = tuple(masks)
        if isinstance(labels, str):
            raise ValueError(f"labels must be a sequence of strings, got {labels!r}")
        labels = tuple(labels) if labels is not None else None
        automorphisms = tuple(map(tuple, automorphisms))
        if len(masks) != check_int(n, "n", 0):
            raise ValueError(f"{len(masks)} masks for n={n}")
        if labels is not None and len(labels) != n:
            raise ValueError("labels length mismatch")
        for v, label in enumerate(labels or ()):
            if type(label) is not str:
                raise ValueError(f"label of {v} is not a string: {label!r}")
        for v, mask in enumerate(masks):
            if type(mask) is not int or not 0 <= mask < 1 << n:
                raise ValueError(f"mask of {v} is not a bitmask over range({n}): {mask!r}")
        for v, mask in enumerate(masks):
            if mask >> v & 1:
                raise ValueError(f"self-loop at {v}")
            for u in mask_to_tuple(mask):
                if not masks[u] >> v & 1:
                    raise ValueError(f"edge {v}-{u} not symmetric")
        for p in automorphisms:
            if len(p) != n or set(p) != set(range(n)):
                raise ValueError("declared automorphism is not a permutation of "
                                 f"range({n})")
            for v, mask in enumerate(masks):
                if map_mask(mask, p) != masks[p[v]]:
                    raise ValueError("declared permutation does not map the "
                                     f"neighbours of {v} onto those of {p[v]}")
        self._init(n, masks, labels, automorphisms)

    def _key(self) -> tuple:
        return self.n, self.masks, self.labels

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """``adj[v]`` is the sorted tuple of neighbours of ``v``."""
        return tuple(map(mask_to_tuple, self.masks))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, mask in enumerate(self.masks)
                     for v in mask_to_tuple(mask) if u < v)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

    def degree(self, v: int) -> int:
        return self.masks[_check_vertex(self, v)].bit_count()

    def label(self, v: int) -> str:
        _check_vertex(self, v)
        return self.labels[v] if self.labels is not None else str(v)


def from_edges(n: int, edges: Iterable[tuple[int, int]],
               labels: Iterable[str] | None = None,
               automorphisms: Iterable[Iterable[int]] = ()) -> Graph:
    """Build a Graph from an edge list, ignoring repeated edges.  The masks
    come first, so an order too large to allocate fails before the rest is read."""
    masks = [0] * check_int(n, "n", 0)
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge ({u!r},{v!r}) has an end that is not an integer")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop ({u},{v})")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(n, masks, labels, automorphisms)


def make_path(n: int, letter: str = "x") -> Graph:
    """Path on n >= 1 vertices; labels use 1-based indices (x1..xn).

    Declares its reversal i -> n-1-i as an automorphism.
    """
    check_int(n, "path order", 1)
    return from_edges(n, ((i, i + 1) for i in range(n - 1)),
                      (f"{letter}{i + 1}" for i in range(n)), [range(n - 1, -1, -1)])


def make_cycle(n: int, letter: str = "x") -> Graph:
    """Cycle on n >= 3 vertices; labels use 0-based indices (x0..x(n-1)).

    Declares the rotation i -> i+1 and the reflection i -> -i (mod n), which
    generate its whole automorphism group.
    """
    check_int(n, "cycle order", 3)
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)),
                      (f"{letter}{i}" for i in range(n)),
                      [((i + 1) % n for i in range(n)), (-i % n for i in range(n))])


def _check_vertex(g: Graph, v: int) -> int:
    """``v`` if it is an ``int`` vertex of ``g``, else ValueError."""
    if not 0 <= check_int(v, "vertex") < g.n:
        raise ValueError(f"vertex {v} out of range for graph of order {g.n}")
    return v


def _check_vertex_set(g: Graph, vs: Iterable[int]) -> frozenset[int]:
    """``vs`` as a set, once each member is an ``int`` vertex of ``g``."""
    s = frozenset(check_int(v, "vertex") for v in vs)
    for v in s:
        _check_vertex(g, v)
    return s


def neighborhood(g: Graph, vs: Iterable[int]) -> tuple[int, ...]:
    """Vertices outside ``vs`` adjacent to at least one member of ``vs``."""
    s = _check_vertex_set(g, vs)
    out = 0
    for v in s:
        out |= g.masks[v]
    return tuple(u for u in mask_to_tuple(out) if u not in s)


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
    kept = sum(1 << old for old in keep)
    masks = (map_mask(g.masks[old] & kept, index) for old in keep)
    labels = tuple(g.label(old) for old in keep) if g.labels is not None else None
    return Graph(len(keep), masks, labels), tuple(keep)


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("empty graph has no minimum degree")
    return min(mask.bit_count() for mask in g.masks)


def is_complete(g: Graph) -> bool:
    return all(mask.bit_count() == g.n - 1 for mask in g.masks)


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


def map_mask(mask: int, p: Sequence[int] | Mapping[int, int]) -> int:
    """The image of the vertex set ``mask`` under the vertex map ``p``, a tuple,
    dict or range one-to-one on ``mask``: bit v goes to bit ``p[v]``."""
    return sum(1 << p[v] for v in mask_to_tuple(mask))


def _doc(g: Graph) -> dict:
    """The interchange document {"n", "edges", "labels"?} of ``g``; declared
    automorphisms are not written, so a graph read back declares none."""
    doc: dict = {"n": g.n, "edges": [list(e) for e in g.edges]}
    if g.labels is not None:
        doc["labels"] = list(g.labels)
    return doc


def to_json(g: Graph) -> str:
    """Serialize ``g`` to its interchange document (see ``_doc``)."""
    return json.dumps(_doc(g), sort_keys=True)


def from_json(text: str) -> Graph:
    """Parse the interchange format; a malformed document raises ValueError."""
    return from_doc(parse_json(text))


def parse_json(text: str) -> object:
    """``json.loads``, raising ValueError also for a document nested too
    deeply for the parser's recursion limit."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def from_doc(doc: object) -> Graph:
    """Build a graph from an already parsed interchange document.

    The document must be an object whose ``n`` is a non-negative integer,
    ``edges`` a list of integer pairs and ``labels``, when present, a list
    of strings; JSON booleans and floats are not integers.  Anything else
    raises ValueError naming the offending field."""
    if type(doc) is not dict:
        raise ValueError("malformed graph JSON (the document must be an object)")
    try:
        n, edges, labels = doc["n"], doc["edges"], doc.get("labels")
    except KeyError as exc:
        raise ValueError(f"malformed graph JSON (KeyError: {exc})") from None
    if type(n) is not int or n < 0:
        raise ValueError("malformed graph JSON (n must be a non-negative integer)")
    if type(edges) is not list:
        raise ValueError("malformed graph JSON (edges must be a list)")
    for i, e in enumerate(edges):
        if type(e) is not list or len(e) != 2 or any(type(x) is not int for x in e):
            raise ValueError(f"malformed graph JSON (edges[{i}] must be a pair of integers)")
    if labels is not None and (type(labels) is not list
                               or any(type(x) is not str for x in labels)):
        raise ValueError("malformed graph JSON (labels must be a list of strings)")
    return from_edges(n, [tuple(e) for e in edges], labels)


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
