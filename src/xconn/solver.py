"""Exact g-extra connectivity solvers and cut checking.

Two independent routes compute the same quantity:

* ``kappa_extra_subset`` scans vertex subsets by increasing cardinality and
  returns the first valid g-extra cut.  Trivially exact, budget-capped so it
  never silently lies.

* ``kappa_extra_fragment`` enumerates connected induced subgraphs H
  ("fragments") once each, via extension-with-forbidden-set, and evaluates
  the cut obtained from N(H).  For a minimum cut whose smallest side is H,
  N(H) plus the undersized components of G - H - N(H) reconstructs the cut
  exactly, so taking the minimum over all fragments with
  g+1 <= |H| <= floor(|V|/2) is exact on every connected graph.  (The
  absorption step matters: for g >= 1 a minimum cut may contain vertices
  with no neighbour outside the cut, so N(H) alone can undershoot.)

Both return the lexicographically smallest minimum cut as witness; a
fragment result also carries every minimum cut.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .graph import (Graph, adjacency_masks, components, is_complete, is_connected,
                    mask_components, mask_to_tuple)
from .products import ProductGraph

INFINITY = math.inf


class InconclusiveError(Exception):
    """Search budget exhausted before an exact answer was established."""

    def __init__(self, message: str, checks_done: int = 0):
        super().__init__(message)
        self.checks_done = checks_done


@dataclass(frozen=True)
class CutVerdict:
    is_cut: bool
    min_component_size: int
    is_g_extra: bool
    component_sizes: tuple[int, ...]


@dataclass(frozen=True)
class SolverStats:
    nodes: int


@dataclass(frozen=True)
class ExtraConnResult:
    extra: int
    value: int | float  # finite int or INFINITY
    witness: tuple[int, ...] | None
    solver: str  # "subset" | "fragment"
    stats: SolverStats
    # every minimum cut in lexicographic order (fragment solver); None when
    # the solver stopped at its first cut
    cuts: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.value is not INFINITY and self.witness is not None:
            if len(self.witness) != self.value:
                raise ValueError("witness size does not match value")


def result_to_json_dict(res: ExtraConnResult) -> dict:
    return {
        "g": res.extra,
        "value": "infinity" if res.value is INFINITY else res.value,
        "witness": list(res.witness) if res.witness is not None else None,
        "solver": res.solver,
        "stats": {"nodes": res.stats.nodes},
    }


def check_g_extra_cut(graph: Graph, cut: Iterable[int], extra: int) -> CutVerdict:
    """Judge whether ``cut`` is a g-extra cut: removal disconnects the graph
    and every remaining component keeps at least extra+1 vertices."""
    if extra < 0:
        raise ValueError("extra must be non-negative")
    s = frozenset(cut)
    if len(s) >= graph.n:
        raise ValueError("cut must leave at least one vertex")
    comps = components(graph, s)
    sizes = tuple(len(c) for c in comps)
    is_cut = len(comps) >= 2
    mn = min(sizes)
    return CutVerdict(is_cut, mn, is_cut and mn >= extra + 1, sizes)


def _validate_solver_input(graph: Graph, extra: int) -> None:
    if extra < 0:
        raise ValueError("extra must be non-negative")
    if graph.n < 2:
        raise ValueError("g-extra connectivity needs at least two vertices")
    if not is_connected(graph):
        raise ValueError("graph must be connected")


def _is_g_extra_mask(masks: Sequence[int], full: int, cut: int, extra: int) -> bool:
    comps = mask_components(masks, full & ~cut)
    return len(comps) >= 2 and all(size > extra for _, size in comps)


def _subset_cuts(graph: Graph, extra: int, ks: Iterable[int], budget: int
                 ) -> Iterator[tuple[int, tuple[int, ...] | None]]:
    """Scan the subsets of each cardinality in ``ks``, in lexicographic order.

    Yields ``(checks, cut)`` for every g-extra cut found, and
    ``(checks, None)`` once each cardinality is done; ``checks`` counts the
    subsets tested so far.  Raises InconclusiveError at check ``budget + 1``.
    """
    masks = adjacency_masks(graph)
    full = (1 << graph.n) - 1
    checks = 0
    for k in ks:
        for combo in combinations(range(graph.n), k):
            checks += 1
            if checks > budget:
                raise InconclusiveError(
                    f"subset budget {budget} exhausted at cardinality {k}", checks)
            cut = 0
            for v in combo:
                cut |= 1 << v
            if _is_g_extra_mask(masks, full, cut, extra):
                yield checks, combo
        yield checks, None


def kappa_extra_subset(graph: Graph, extra: int, budget: int = 10 ** 8) -> ExtraConnResult:
    """Exact kappa_g by subset enumeration in increasing cardinality.

    Raises InconclusiveError once ``budget`` validity checks are spent; a
    returned value is always exact.
    """
    _validate_solver_input(graph, extra)
    checks = 0
    # a cut must leave two components of size >= extra+1
    ks = range(1, graph.n - 2 * (extra + 1) + 1)
    for checks, combo in _subset_cuts(graph, extra, ks, budget):
        if combo is not None:
            return ExtraConnResult(extra, len(combo), combo, "subset", SolverStats(checks))
    return ExtraConnResult(extra, INFINITY, None, "subset", SolverStats(checks))


def _close_under(cuts: set[int], automorphisms: Sequence[Sequence[int]]) -> set[int]:
    """``cuts`` plus every image of its masks under the generated group."""
    closed = set(cuts)
    frontier = list(cuts)
    while frontier:
        mask = frontier.pop()
        for p in automorphisms:
            image = 0
            for v in mask_to_tuple(mask):
                image |= 1 << p[v]
            if image not in closed:
                closed.add(image)
                frontier.append(image)
    return closed


def _fragment_search(masks: Sequence[int], n: int, extras: Sequence[int],
                     seeds: dict[int, int], automorphisms: Sequence[Sequence[int]] = ()
                     ) -> tuple[dict[int, set[int]], dict[int, float], int]:
    """One enumeration pass shared by all requested ``extras``.

    Returns per-extra tie sets, per-extra best sizes, and the node count.
    ``ties[g]`` ends as the set of every cut mask of size ``best[g]`` (empty
    when no cut within the seed was found).  ``seeds[g]`` must be a certified
    upper bound on kappa_g (from a validated cut); candidates above it are
    pruned but a seed never becomes the answer unless an actual cut of that
    size is found.  Pruning never lets its bound fall below kappa_g and keeps
    ties, so every minimum g-extra cut ends in ``ties[g]``.

    ``automorphisms`` (validated generators, e.g. ``Graph.automorphisms``)
    restrict the roots to the smallest vertex of each orbit; the tie sets
    are then closed under the generators.  This is exact: let S be a
    minimum cut, H its smallest component, r(x) the smallest vertex in the
    orbit of x, u in H with the least r(u), and phi an automorphism with
    phi(u) = r(u).  Every x in phi(H) has x >= r(x) >= r(u), so phi(H) has
    its smallest vertex at the root r(u), and the pass finds phi(S) there
    (pruning keeps ties and commits only boundary vertices inside the cut).
    The closure maps phi(S) back to S and adds only images of minimum cuts,
    which are minimum cuts themselves, so the sets are the same as from
    rooting at every vertex.

    A fragment deeper than the interpreter's recursion limit raises
    InconclusiveError.
    """
    full = (1 << n) - 1
    best: dict[int, float] = {g: seeds.get(g, INFINITY) for g in extras}
    ties: dict[int, set[int]] = {g: set() for g in extras}
    ub = max(best.values())
    min_size = min(extras) + 1
    nodes = 0

    def evaluate(s_mask: int, size: int, nb_mask: int, nb_size: int) -> None:
        nonlocal ub
        todo = [g for g in extras if size >= g + 1 and nb_size <= best[g]]
        if not todo:
            return
        comps = mask_components(masks, full & ~s_mask & ~nb_mask)
        for g in todo:
            small_mask = 0
            small = 0
            keep = False
            for cm, cs in comps:
                if cs >= g + 1:
                    keep = True
                else:
                    small_mask |= cm
                    small += cs
            if not keep:
                continue
            csize = nb_size + small
            if csize > best[g]:
                continue
            w = nb_mask | small_mask
            if csize < best[g] or not ties[g]:
                best[g] = csize
                ties[g] = {w}
                ub = max(best.values())
            else:
                ties[g].add(w)

    def grow(s_mask: int, size: int, nb_mask: int, ext: int, forb: int) -> None:
        nonlocal nodes
        nodes += 1
        # a necessary condition for a non-empty ``todo`` in evaluate
        if size >= min_size:
            nb_size = nb_mask.bit_count()
            if nb_size <= ub:
                evaluate(s_mask, size, nb_mask, nb_size)
        while ext:
            u_bit = ext & -ext
            ext ^= u_bit
            u = u_bit.bit_length() - 1
            s2 = s_mask | u_bit
            nb2 = (nb_mask | masks[u]) & ~s2
            bound = (nb2 & forb).bit_count()
            # committed boundary already too big, or fragment can no longer
            # be the smaller side of any cut within the bound
            if bound <= ub and (size + 1) * 2 <= n - bound:
                grow(s2, size + 1, nb2, (ext | masks[u]) & ~s2 & ~forb, forb)
            forb |= u_bit
    roots = range(n)
    if automorphisms:
        roots, seen = [], 0
        for v in range(n):
            if not seen >> v & 1:  # v is the smallest vertex of a new orbit
                roots.append(v)
                seen |= sum(_close_under({1 << v}, automorphisms))
    try:
        for v in roots:
            forb0 = (1 << v) - 1
            grow(1 << v, 1, masks[v], masks[v] & ~forb0, forb0)
    except RecursionError:
        raise InconclusiveError(
            f"fragment search deeper than the recursion limit "
            f"({sys.getrecursionlimit()}) after {nodes} nodes", nodes) from None
    if automorphisms:
        ties = {g: _close_under(cuts, automorphisms) for g, cuts in ties.items()}
    return ties, best, nodes


def fragment_solve_many(graph: Graph, extras: Sequence[int],
                        upper_bounds: dict[int, int] | None = None
                        ) -> dict[int, ExtraConnResult]:
    """Fragment solver for several ``extra`` values in one enumeration pass.

    ``upper_bounds`` seeds pruning with certified cut sizes (e.g. validated
    witness constructions); if a seed turns out too small the affected values
    are recomputed unseeded, so results never depend on seed correctness.
    Each result carries every minimum cut of its g, so ``min_cuts_grouped``
    can read them without a second search.
    """
    extras = sorted(set(extras))
    for g in extras:
        _validate_solver_input(graph, g)
    masks = adjacency_masks(graph)
    seeds = dict(upper_bounds or {})
    autos = graph.automorphisms
    ties, best, nodes = _fragment_search(masks, graph.n, extras, seeds, automorphisms=autos)
    retry = [g for g in extras if not ties[g] and g in seeds]
    if retry:
        ties2, best2, nodes2 = _fragment_search(masks, graph.n, retry, {},
                                                automorphisms=autos)
        nodes += nodes2
        for g in retry:
            ties[g], best[g] = ties2[g], best2[g]
    out: dict[int, ExtraConnResult] = {}
    for g in extras:
        stats = SolverStats(nodes)
        if not ties[g]:
            out[g] = ExtraConnResult(g, INFINITY, None, "fragment", stats, ())
        else:
            cuts = tuple(sorted(map(mask_to_tuple, ties[g])))
            out[g] = ExtraConnResult(g, int(best[g]), cuts[0], "fragment", stats, cuts)
    return out


def kappa_extra_fragment(graph: Graph, extra: int,
                         upper_bound: int | None = None) -> ExtraConnResult:
    """Exact kappa_g by connected-fragment enumeration (always terminates)."""
    bounds = {extra: upper_bound} if upper_bound is not None else None
    return fragment_solve_many(graph, [extra], bounds)[extra]


def enumerate_min_cuts(graph: Graph, extra: int, known_value: int | None = None,
                       max_checks: int = 50_000_000) -> list[tuple[int, ...]]:
    """All minimum-cardinality g-extra cuts, in lexicographic order.

    ``known_value`` (e.g. from a solver) restricts the scan to that
    cardinality; without it, cardinalities are scanned from 1 upward.
    Returns [] when no g-extra cut exists.  Raises InconclusiveError before
    starting a cardinality whose C(n, k) subsets would take the total past
    ``max_checks``, so every cardinality it starts is scanned to the end.
    """
    _validate_solver_input(graph, extra)
    ks = [known_value] if known_value is not None else range(1, graph.n - 2 * (extra + 1) + 1)
    done = 0
    for k in ks:
        if done + math.comb(graph.n, k) > max_checks:
            raise InconclusiveError(f"C({graph.n}, {k}) subsets after {done} exceed "
                                    f"max_checks {max_checks}", done)
        done += math.comb(graph.n, k)
        found = [c for _, c in _subset_cuts(graph, extra, [k], max_checks) if c is not None]
        if found:
            return found
    return []


def min_cuts_grouped(graph: Graph, value_by_extra: dict[int, int],
                     solved: dict[int, ExtraConnResult] | None = None
                     ) -> dict[int, list[tuple[int, ...]]]:
    """Minimum g-extra cuts for several extras at once, in lexicographic order.

    ``value_by_extra[g]`` must be the known kappa_g (from a solver).  When
    ``solved`` (``fragment_solve_many`` results for ``graph``) covers every
    requested g, its cuts are the answer and no search runs.  Otherwise one
    fragment pass seeded with these values collects every cut of that size,
    because each minimum cut is reconstructed from its smallest component.
    Output matches ``enumerate_min_cuts(graph, g, known_value=...)`` per g.
    Raises ValueError when a value is not kappa_g.
    """
    if not value_by_extra:
        return {}
    extras = sorted(value_by_extra)
    if solved is None or not all(g in solved and solved[g].cuts is not None for g in extras):
        solved = fragment_solve_many(graph, extras, value_by_extra)
    for g in extras:
        if not solved[g].cuts or solved[g].value != value_by_extra[g]:
            raise ValueError(f"{value_by_extra[g]} is not kappa_{g} of the graph")
    return {g: list(solved[g].cuts) for g in extras}


def classical_connectivity(graph: Graph) -> int:
    """Vertex connectivity; |V|-1 for complete graphs by convention."""
    if graph.n == 0:
        raise ValueError("empty graph")
    if is_complete(graph):
        return graph.n - 1
    if not is_connected(graph):
        return 0
    value = kappa_extra_fragment(graph, 0).value
    assert value is not INFINITY  # non-complete connected graphs always have a cut
    return int(value)


def check_layer_bounds(pg: ProductGraph, cuts: Iterable[Iterable[int]], extra: int) -> bool:
    """Check the per-layer lower bounds that minimum g-extra cuts must satisfy:
    every nonempty slice of a cut in a factor-2 layer has at least
    kappa(factor 2) vertices, and symmetrically for factor-1 layers.

    True when every cut in ``cuts`` passes (so True for none); the factor
    connectivities are computed once per call.  Minimality is the caller's
    responsibility; a cut that is not a g-extra cut raises ValueError.
    """
    cuts = [frozenset(cut) for cut in cuts]
    if not all(check_g_extra_cut(pg.graph, cut, extra).is_g_extra for cut in cuts):
        raise ValueError("set is not a g-extra cut of the product")
    k1 = classical_connectivity(pg.factor1())
    k2 = classical_connectivity(pg.factor2())
    for cut in cuts:
        coords = [pg.coords(v) for v in cut]
        # a row i is the slice inside the factor-2 layer at x_i: bound kappa(G2);
        # a column j is the slice inside the factor-1 layer at y_j: bound kappa(G1)
        if (any(c < k2 for c in Counter(i for i, _ in coords).values())
                or any(c < k1 for c in Counter(j for _, j in coords).values())):
            return False
    return True
