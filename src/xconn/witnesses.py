"""Explicit g-extra cuts certifying the upper-bound half of each closed form.

Every witness is the neighbourhood N(B) of one block B = I x J of the
product, where I and J are intervals of the two factors.  A whole factor is
taken as it is; any other interval is placed at vertex 0 on a path and at
vertex 1 on a cycle, and it fits when it ends before the factor's last
vertex, so a placed interval never wraps.  The three kinds are named after
the formula term they realise:

  layers1  the whole factor 1 times the first (n-1-c2)//2 vertices of
           factor 2 (c2 = 1 for a cycle factor 2, else 0; see ``CYCLES``),
           so N(B) is one factor-1 layer for a path factor 2 and two for a cycle;
  layers2  the same with the factors swapped;
  block    an a x b block of at least g+1 vertices, realising the ceiling
           term.

When both factors are paths or both cycles (c1 == c2), the block is the
square split q = ceil(sqrt(g+1)) by ceil((g+1)/q).  Otherwise (Cm x Pn) it
is the first a x ceil((g+1)/a) that fits among those with the least boundary
a + 2*ceil((g+1)/a) + 2, in increasing a; the square split overshoots there
because the cyclic dimension pays twice per column.  On Cm x Cn the square
split's size 2q+2p+4 exceeds the formula's ceiling term for some g (first at
g=2), so callers comparing sizes against the closed form must be prepared for
that mismatch outside the verified grids.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .formulas import (CYCLES, TERMS, DomainError, FamilyParams, ceil_div, ceil_sqrt,
                       formula_terms, guard)
from .products import ProductGraph, _neighbourhood
from .solver import CutVerdict, check_g_extra_cut

WITNESS_KINDS = TERMS


class WitnessError(ValueError):
    """Requested witness is not constructible for these parameters."""


class WitnessSpec(NamedTuple):
    params: FamilyParams
    which: str  # "layers1" | "layers2" | "block"
    predicted_size: int


def plan_witness(params: FamilyParams, which: str) -> WitnessSpec:
    if which not in WITNESS_KINDS:
        raise ValueError(f"unknown witness kind {which!r}")
    if not guard(params):
        raise DomainError(f"g={params.g} out of guard for {params.family} "
                          f"(m={params.m}, n={params.n})")
    terms = formula_terms(params)
    # the block cut is only asserted when its term is strictly minimal
    if which == "block" and terms["block"] >= min(terms["layers1"], terms["layers2"]):
        raise WitnessError("block term is not strictly minimal; "
                           "the block cut is not asserted here")
    return WitnessSpec(params, which, terms[which])


def _place(size: int, cycle: int, length: int) -> range | None:
    """An interval of a factor: it starts at vertex 0 on a path and 1 on a
    cycle, and it fits (else None) when it ends before the last vertex, so it
    never wraps."""
    start = int(cycle)
    return range(start, start + length) if start + length <= size - 1 else None


def _block_shapes(g: int, cycle1: int, cycle2: int) -> list[tuple[int, int]]:
    """The a x b block sizes to try for the block cut, in order."""
    x = g + 1
    if cycle1 == cycle2:
        q = ceil_sqrt(x)
        return [(q, ceil_div(x, q))]
    # with r = ceil(sqrt(2x)), a least size s has a + 2 <= s <= size(r) < 2r + 2
    sizes = {a: a + 2 * ceil_div(x, a) for a in range(1, 2 * ceil_sqrt(2 * x))}
    best = min(sizes.values())
    return [(a, ceil_div(x, a)) for a, size in sizes.items() if size == best]


def build_witness(spec: WitnessSpec) -> tuple[int, ...]:
    """The witness vertex set as sorted product ids, numbered as in ``products``."""
    params = spec.params
    m, n = params.m, params.n
    cycle1, cycle2 = CYCLES[params.family]
    if spec.which == "layers1":
        blocks = [(range(m), _place(n, cycle2, (n - 1 - cycle2) // 2))]
    elif spec.which == "layers2":
        blocks = [(_place(m, cycle1, (m - 1 - cycle1) // 2), range(n))]
    else:
        blocks = [(_place(m, cycle1, a), _place(n, cycle2, b))
                  for a, b in _block_shapes(params.g, cycle1, cycle2)]
    for rows, cols in blocks:
        if rows is not None and cols is not None:
            return _neighbourhood(m, n, rows, cols)
    raise WitnessError(f"{spec.which} does not fit the grid")


def validate_witness(pg: ProductGraph, cut: Iterable[int], extra: int) -> CutVerdict:
    """Check the constructed set really is a g-extra cut and report side sizes."""
    return check_g_extra_cut(pg.graph, cut, extra)


def build_witnesses(params: FamilyParams) -> dict[str, tuple[int, ...] | None]:
    """Every witness kind's cut for these parameters (None where refused)."""
    out: dict[str, tuple[int, ...] | None] = {}
    for which in WITNESS_KINDS:
        try:
            out[which] = build_witness(plan_witness(params, which))
        except (WitnessError, DomainError):
            out[which] = None
    return out

