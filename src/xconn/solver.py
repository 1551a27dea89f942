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
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .graph import (Graph, Record, check_int, is_complete, is_connected, map_mask,
                    mask_components, mask_to_tuple, min_degree, remaining_mask)

INFINITY = math.inf
SUBSET_BUDGET = 10 ** 8  # default subset checks of the brute-force scans


class InconclusiveError(Exception):
    """Search budget exhausted before an exact answer was established."""

    def __init__(self, message: str, checks_done: int = 0):
        super().__init__(message)
        self.checks_done = checks_done


class CutVerdict(NamedTuple):
    is_cut: bool
    min_component_size: int
    is_g_extra: bool
    component_sizes: tuple[int, ...]


class SolverStats(NamedTuple):
    nodes: int


class ExtraConnResult(Record):
    """A solver's answer: a finite witness must have ``value`` vertices.
    ``witness`` and ``cuts`` are copied into tuples, as a ``Graph``'s are."""

    extra: int
    value: int | float  # finite int or INFINITY
    witness: tuple[int, ...] | None
    solver: str  # "subset" | "fragment"
    stats: SolverStats
    # every minimum cut in lexicographic order (fragment solver); None when
    # the solver stopped at its first cut
    cuts: tuple[tuple[int, ...], ...] | None
    _fields = ("extra", "value", "witness", "solver", "stats", "cuts")
    __slots__ = _fields

    def __init__(self, extra: int, value: int | float, witness: Iterable[int] | None,
                 solver: str, stats: SolverStats,
                 cuts: Iterable[Iterable[int]] | None = None) -> None:
        witness = tuple(witness) if witness is not None else None
        cuts = tuple(map(tuple, cuts)) if cuts is not None else None
        check_int(extra, "extra", 0)
        if value is not INFINITY and witness is not None and len(witness) != value:
            raise ValueError("witness size does not match value")
        self._init(extra, value, witness, solver, stats, cuts)


def check_g_extra_cut(graph: Graph, cut: Iterable[int], extra: int) -> CutVerdict:
    """Judge whether ``cut`` is a g-extra cut: removal disconnects the graph
    and every remaining component keeps at least extra+1 vertices.  A cut
    vertex outside range(graph.n) raises ValueError."""
    check_int(extra, "extra", 0)
    rest = remaining_mask(graph, cut)
    if not rest:
        raise ValueError("cut must leave at least one vertex")
    sizes = tuple(size for _, size in mask_components(graph.masks, rest))
    is_cut = len(sizes) >= 2
    mn = min(sizes)
    return CutVerdict(is_cut, mn, is_cut and mn >= extra + 1, sizes)


def _validate_solver_input(graph: Graph, extra: int) -> None:
    check_int(extra, "extra", 0)
    if graph.n < 2:
        raise ValueError("g-extra connectivity needs at least two vertices")
    if not is_connected(graph):
        raise ValueError("graph must be connected")


def _subset_scan(graph: Graph, extra: int, budget: int,
                 first_only: bool) -> tuple[list[tuple[int, ...]], int]:
    """The g-extra cuts of the first cardinality that has one, scanned from 1
    upward in lexicographic order, and the subsets checked.

    ``first_only`` stops at the first cut.  Raises InconclusiveError, with
    the checks made, before starting a cardinality whose C(n, k) subsets
    would take the total past ``budget``.  The caller validates the input.
    """
    masks = graph.masks
    full = (1 << graph.n) - 1
    bits = [1 << v for v in range(graph.n)]
    checks = 0
    # a cut must leave two components of size >= extra+1
    for k in range(1, graph.n - 2 * (extra + 1) + 1):
        if checks + math.comb(graph.n, k) > budget:
            raise InconclusiveError(f"C({graph.n}, {k}) subsets after {checks} checks "
                                    f"exceed subset budget {budget}", checks)
        cuts = []
        for combo in combinations(bits, k):
            checks += 1
            cut = sum(combo)
            comps = mask_components(masks, full - cut)
            if len(comps) >= 2 and all(size > extra for _, size in comps):
                cuts.append(mask_to_tuple(cut))
                if first_only:
                    break
        if cuts:
            return cuts, checks
    return [], checks


def kappa_extra_subset(graph: Graph, extra: int, budget: int = SUBSET_BUDGET) -> ExtraConnResult:
    """Exact kappa_g by subset enumeration in increasing cardinality.

    Raises InconclusiveError rather than exceed ``budget`` checks; a
    returned value is always exact.
    """
    _validate_solver_input(graph, extra)
    check_int(budget, "subset budget", 0)
    cuts, checks = _subset_scan(graph, extra, budget, first_only=True)
    witness = cuts[0] if cuts else None
    value = len(witness) if cuts else INFINITY
    return ExtraConnResult(extra, value, witness, "subset", SolverStats(checks))


def _close_under(cuts: set[int], automorphisms: Sequence[Sequence[int]]) -> set[int]:
    """``cuts`` plus every image of its masks under the generated group."""
    closed = set(cuts)
    frontier = list(cuts)
    while frontier:
        mask = frontier.pop()
        for p in automorphisms:
            image = map_mask(mask, p)
            if image not in closed:
                closed.add(image)
                frontier.append(image)
    return closed


def _orbit_minima(mask: int, automorphisms: Sequence[Sequence[int]]) -> int:
    """The vertices of ``mask`` that are the smallest of their orbit under the
    generated group; ``mask`` must be a union of orbits."""
    if not automorphisms:  # every orbit is a single vertex
        return mask
    minima = seen = 0
    for v in mask_to_tuple(mask):
        if not seen >> v & 1:
            minima |= 1 << v
            seen |= sum(_close_under({1 << v}, automorphisms))
    return minima


def _fragment_search(masks: Sequence[int], n: int, extras: Sequence[int],
                     seeds: dict[int, int], automorphisms: Sequence[Sequence[int]] = ()
                     ) -> tuple[dict[int, set[int]], int]:
    """One enumeration pass shared by all requested ``extras``.

    Returns per-extra tie sets and the node count.  ``ties[g]`` ends as the
    set of every cut mask of the smallest size found (empty when no cut
    within the seed was found), so kappa_g is the size of any of them.
    ``seeds[g]`` must be a certified upper bound on kappa_g (from a
    validated cut); candidates above it are pruned but a seed never becomes
    the answer unless an actual cut of that size is found.  Pruning never
    lets its bound fall below kappa_g and keeps ties, so every minimum
    g-extra cut ends in ``ties[g]``.

    A node holds a fragment H, its neighbourhood N(H) and a forbidden set F
    that no descendant may take; its extension set N(H) - F is derived on
    entry.  That is the set extension with a forbidden set would carry
    down: the branch on u starts once the siblings popped before u are in
    F, so the carried (N(H) - F - popped) | N(u), less H + u and F, equals
    N(H + u) - F.

    The branch on u, with the siblings popped before u in F, is pruned when
    its committed boundary |N(H + u) & F| exceeds cap = min(ub, n - 2|H + u|)
    (ub is the largest best size; past n - 2|H + u|, H + u cannot be the
    smaller side).  The loop reads that count off the child's neighbourhood
    and hands it down as the child's |N(H) & F| at entry.  The entry count
    grows by one per popped sibling (each lies in N(H)) and bounds every
    later sibling's count from below, since N(H + u) holds N(H) but u, and u
    is not in F; so once it passes cap the loop ends.  Only an evaluation
    lowers ub, so cap is read after the node's own and after each child.

    A child that passes is entered only if it does work there: it is
    evaluated (|H + u| >= min g + 1 and |N(H + u)| <= ub), or it can branch
    (N(H + u) - F is not empty and its committed boundary is at most
    n - 2|H + u| - 2) into a grandchild H + u + w that could itself branch
    (the boundary is at most n - 2|H + u| - 4) or be evaluated
    (|H + u| >= min g and |N(H + u)| <= ub + 1).  A grandchild's committed
    boundary is at least the child's (N(H + u + w) holds N(H + u) but w, w
    is not in F, and F only grows), its neighbourhood has at least
    |N(H + u)| - 1 vertices (|N[H]| never shrinks as H grows), and ub
    cannot fall before something is evaluated, so a skipped child would
    evaluate nothing and enter no child: skipping it changes the node count
    and nothing else.

    ``automorphisms`` (validated generators, e.g. ``Graph.automorphisms``)
    restrict the roots to the smallest vertex of each orbit; the tie sets
    are then closed under the generators.  This is exact: let S be a
    minimum cut, H its smallest component, r(x) the smallest vertex in the
    orbit of x, u in H with the least r(u), and phi an automorphism with
    phi(u) = r(u).  Every x in phi(H) has x >= r(x) >= r(u), so phi(H) has
    its smallest vertex at the root r(u), and the pass finds phi(S) there
    (pruning keeps ties and commits only boundary vertices inside the cut).
    At a root r the first extensions are pruned too (canonical augmentation
    at one level; McKay, "Isomorph-free exhaustive generation", J.
    Algorithms 26, 1998): with K the generators that fix r, the root's
    ``grow`` call skips the neighbours of r that are not the smallest vertex
    of their K-orbit, and a skipped neighbour stays forbidden in the later
    branches, as a searched one does.  Still S is found: if |H| >= 2, let
    A = phi(H) & N(r) and psi, in the group K generates, minimise
    a = min psi(A).  No k in that group has k(a) < a (k psi would give
    less), so a is kept.  psi fixes r and keeps every vertex in its orbit,
    so psi phi(H) still has its smallest vertex at r, a is its smallest
    neighbour of r, and the branch on a finds psi phi(S).  The closure maps
    the cut found back to S and adds only images of minimum cuts, which are
    minimum cuts themselves, so the sets are the same as from rooting at
    every vertex and branching on every neighbour.

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

    def grow(s_mask: int, size: int, nb_mask: int, forb: int, committed: int,
             skip: int = 0) -> None:
        nonlocal nodes
        nodes += 1
        # a necessary condition for a non-empty ``todo`` in evaluate
        if size >= min_size:
            nb_size = nb_mask.bit_count()
            if nb_size <= ub:
                evaluate(s_mask, size, nb_mask, nb_size)
        ext = nb_mask & ~forb
        limit = n - (size + 1) * 2
        cap = ub if ub < limit else limit
        while ext:
            # ``committed`` is |N(H) & F|, a floor on every later child's bound
            if committed > cap:
                return
            u_bit = ext & -ext
            ext ^= u_bit
            if not skip & u_bit:  # a skipped vertex is forbidden all the same
                s2 = s_mask | u_bit
                nb2 = (nb_mask | masks[u_bit.bit_length() - 1]) & ~s2
                bound = (nb2 & forb).bit_count()
                # enter only a child within the bound that is evaluated, or that
                # branches into a grandchild able to branch or be evaluated
                if bound <= cap and ((bound <= limit - 2 and nb2 & ~forb
                                      and (bound <= limit - 4
                                           or (size >= min_size - 2
                                               and nb2.bit_count() <= ub + 1)))
                                     or (size >= min_size - 1 and nb2.bit_count() <= ub)):
                    grow(s2, size + 1, nb2, forb, bound)
                    cap = ub if ub < limit else limit  # the child may lower ub
            forb |= u_bit
            committed += 1
    try:
        for v in mask_to_tuple(_orbit_minima(full, automorphisms)):
            fixers = [p for p in automorphisms if p[v] == v]
            skip = masks[v] & ~_orbit_minima(masks[v], fixers)
            forb = (1 << v) - 1
            grow(1 << v, 1, masks[v], forb, (masks[v] & forb).bit_count(), skip)
    except RecursionError:
        raise InconclusiveError(
            f"fragment search deeper than the recursion limit "
            f"({sys.getrecursionlimit()}) after {nodes} nodes", nodes) from None
    if automorphisms:
        ties = {g: _close_under(cuts, automorphisms) for g, cuts in ties.items()}
    return ties, nodes


def fragment_solve_many(graph: Graph, extras: Sequence[int],
                        upper_bounds: dict[int, int] | None = None
                        ) -> dict[int, ExtraConnResult]:
    """Fragment solver for several ``extra`` values in one enumeration pass.

    ``upper_bounds`` seeds pruning with certified cut sizes (e.g. validated
    witness constructions); if a seed turns out too small the affected values
    are recomputed unseeded, so results never depend on seed correctness.
    Each result carries every minimum cut of its g, which is all
    ``min_cuts_grouped`` reads.

    The search, and any retry, runs on an isomorphic copy whose vertices
    are sorted by ascending degree (a stable sort, so a regular graph keeps
    its ids), with the declared maps conjugated to match.  Roots and
    branches come in id order, so low-degree vertices, whose fragments have
    small boundaries, come first and lower the bound early.  The tie sets
    are the minimum cuts of the copy; each is mapped back to the original
    ids once with ``map_mask``, which lists them ascending, so values,
    witnesses and cut lists do not depend on the order, only node counts do.
    """
    extras = sorted({check_int(g, "extra", 0) for g in extras})
    if not extras:
        return {}
    _validate_solver_input(graph, extras[0])
    # the copy's vertex i is the graph's vertex order[i]; the graph's v is pos[v]
    order = sorted(range(graph.n), key=graph.degree)
    pos = {v: i for i, v in enumerate(order)}
    masks = [map_mask(graph.masks[v], pos) for v in order]
    autos = [tuple(pos[p[v]] for v in order) for p in graph.automorphisms]
    seeds = {check_int(g, "g of an upper bound", 0): check_int(bound, "upper bound", 0)
             for g, bound in (upper_bounds or {}).items()}
    ties, nodes = _fragment_search(masks, graph.n, extras, seeds, automorphisms=autos)
    retry = [g for g in extras if not ties[g] and g in seeds]
    if retry:
        ties2, nodes2 = _fragment_search(masks, graph.n, retry, {}, automorphisms=autos)
        nodes += nodes2
        for g in retry:
            ties[g] = ties2[g]
    # one cut tuple per mask, in the original ids, shared by every g it is minimum at
    cut_of = {mask: mask_to_tuple(map_mask(mask, order))
              for mask in set().union(*ties.values())}
    out: dict[int, ExtraConnResult] = {}
    stats = SolverStats(nodes)  # the pass total, shared by every g
    for g in extras:
        if not ties[g]:
            out[g] = ExtraConnResult(g, INFINITY, None, "fragment", stats, ())
        else:
            cuts = sorted(cut_of[mask] for mask in ties[g])
            out[g] = ExtraConnResult(g, len(cuts[0]), cuts[0], "fragment", stats, cuts)
    return out


def kappa_extra_fragment(graph: Graph, extra: int) -> ExtraConnResult:
    """Exact kappa_g by connected-fragment enumeration (always terminates)."""
    return fragment_solve_many(graph, [extra])[extra]


def enumerate_min_cuts(graph: Graph, extra: int, known_value: int | float | None = None,
                       max_checks: int = SUBSET_BUDGET) -> list[tuple[int, ...]]:
    """All minimum-cardinality g-extra cuts, in lexicographic order, by the
    subset scan of ``kappa_extra_subset`` with budget ``max_checks``.

    Returns [] when no g-extra cut exists.  ``known_value`` (e.g. from a
    solver) is checked, not trusted: the scan refuses up front, with no
    check made, when the cardinalities up to it would take more than
    ``max_checks`` subsets, and raises ValueError when the first
    cardinality holding a cut is not ``known_value``.
    """
    _validate_solver_input(graph, extra)
    check_int(max_checks, "subset budget", 0)
    if known_value is not None:
        if known_value != INFINITY:
            check_int(known_value, "known value", 0)
        # every cardinality up to known_value
        last = min(known_value, graph.n - 2 * (extra + 1))
        need = sum(math.comb(graph.n, k) for k in range(1, last + 1))
        if max_checks < need:
            raise InconclusiveError(f"{need} subsets of up to {last} vertices exceed "
                                    f"subset budget {max_checks}", 0)
    cuts, _ = _subset_scan(graph, extra, max_checks, first_only=False)
    if known_value is not None and (len(cuts[0]) if cuts else INFINITY) != known_value:
        raise ValueError(f"{known_value} is not kappa_{extra} of the graph")
    return cuts


def min_cuts_grouped(graph: Graph, value_by_extra: dict[int, int],
                     solved: dict[int, ExtraConnResult]) -> dict[int, list[tuple[int, ...]]]:
    """Minimum g-extra cuts for several extras at once, in lexicographic order.

    ``value_by_extra[g]`` is the claimed kappa_g and ``solved`` holds the
    ``fragment_solve_many`` results for ``graph``, whose cuts are the answer;
    no search runs.  Raises ValueError when a value is not ``solved[g]``'s.
    """
    for g, value in value_by_extra.items():
        if g not in solved or not solved[g].cuts or solved[g].value != value:
            raise ValueError(f"{value} is not kappa_{g} of the graph")
    return {g: list(solved[g].cuts) for g in sorted(value_by_extra)}


def classical_connectivity(graph: Graph) -> int:
    """Vertex connectivity; |V|-1 for complete graphs by convention."""
    if graph.n == 0:
        raise ValueError("empty graph")
    if is_complete(graph):
        return graph.n - 1
    if not is_connected(graph):
        return 0
    if max(mask.bit_count() for mask in graph.masks) <= 2:  # a path, cut by one vertex, or a cycle
        return 1 if min_degree(graph) == 1 else 2
    value = kappa_extra_fragment(graph, 0).value
    assert value is not INFINITY  # non-complete connected graphs always have a cut
    return int(value)


def check_layer_bounds(pg: ProductGraph, cuts: Iterable[Iterable[int]], extra: int) -> bool:
    """Check the per-layer lower bounds that minimum g-extra cuts must satisfy:
    every nonempty slice of a cut in a factor-2 layer has at least
    kappa(factor 2) vertices, and symmetrically for factor-1 layers.

    True when every cut in ``cuts`` passes (so True for none).  The factors
    are the product's own, recovered once per product.  Minimality is the
    caller's responsibility; a cut that is not a g-extra cut raises ValueError.
    """
    check_int(extra, "extra", 0)
    cuts = [tuple(cut) for cut in cuts]
    if not all(check_g_extra_cut(pg.graph, cut, extra).is_g_extra for cut in cuts):
        raise ValueError("set is not a g-extra cut of the product")
    k1 = classical_connectivity(pg.factor1)
    k2 = classical_connectivity(pg.factor2)
    for cut in cuts:
        # a row i is the slice inside the factor-2 layer at x_i: bound kappa(G2);
        # a column j is the slice inside the factor-1 layer at y_j: bound kappa(G1)
        rows, cols = [0] * pg.m, [0] * pg.n
        for v in set(cut):  # in range: checked above
            i, j = pg.coords(v)
            rows[i] += 1
            cols[j] += 1
        if any(0 < c < k2 for c in rows) or any(0 < c < k1 for c in cols):
            return False
    return True
