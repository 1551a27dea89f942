"""Explicit g-extra cuts certifying the upper-bound half of each closed form.

Three cut shapes exist per family, named after the formula term they realise:

  layers1  whole factor-1 layers (one for a path factor 2, two for a cycle),
           taken at the middle so both sides stay large enough;
  layers2  whole factor-2 layers, symmetrically;
  block    the neighbourhood of an a x b corner/interval block of at least
           g+1 vertices, realising the ceiling term.

Paths are indexed 1-based and cycles 0-based in the usual notation; this
module is the single place where those conventions are converted to internal
0-based ids (paths shift down by one, cycles map through unchanged).

For 'cxp' the block parameters are chosen by minimising the true boundary
size a + 2*ceil((g+1)/a) + 2 over the interval length a; the naive square
split overshoots because the cyclic dimension pays twice per column.  For
'cxc' the square split q = ceil(sqrt(g+1)), p = ceil((g+1)/q) minimises
2(a+b)+4, but the resulting size 2q+2p+4 exceeds the formula's ceiling term
for some g (first at g=2), so callers comparing sizes against the closed
form must be prepared for that mismatch outside the verified grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .formulas import DomainError, FamilyParams, ceil_div, ceil_mul_sqrt, ceil_sqrt, \
    formula_terms, guard
from .products import ProductGraph
from .solver import CutVerdict, check_g_extra_cut

WITNESS_KINDS = ("layers1", "layers2", "block")


class WitnessError(ValueError):
    """Requested witness is not constructible for these parameters."""


@dataclass(frozen=True)
class WitnessSpec:
    params: FamilyParams
    which: str  # "layers1" | "layers2" | "block"
    predicted_size: int


def block_constructible(params: FamilyParams) -> bool:
    """The block cut is only asserted when its term is strictly minimal."""
    terms = dict(formula_terms(params))
    return terms["block"] < min(terms["layers1"], terms["layers2"])


def plan_witness(params: FamilyParams, which: str) -> WitnessSpec:
    if which not in WITNESS_KINDS:
        raise ValueError(f"unknown witness kind {which!r}")
    if not guard(params):
        raise DomainError(f"g={params.g} out of guard for {params.family} "
                          f"(m={params.m}, n={params.n})")
    if which == "block" and not block_constructible(params):
        raise WitnessError("block term is not strictly minimal; "
                           "the block cut is not asserted here")
    return WitnessSpec(params, which, dict(formula_terms(params))[which])


def _ids(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    return tuple(sorted(i * n + j for i, j in pairs))


def _layers1(params: FamilyParams) -> tuple[int, ...]:
    m, n = params.m, params.n
    if params.family in ("pxp", "cxp"):
        col = (n - 1) // 2       # path y_{floor((n-1)/2)+1}, shifted to 0-based
        cols = [col]
    else:
        cols = [0, (n - 2) // 2 + 1]   # cycle y_0 and y_{floor((n-2)/2)+1}
    return _ids(n, ((i, j) for i in range(m) for j in cols))


def _layers2(params: FamilyParams) -> tuple[int, ...]:
    m, n = params.m, params.n
    if params.family == "pxp":
        rows = [(m - 1) // 2]
    else:
        rows = [0, (m - 2) // 2 + 1]
    return _ids(n, ((i, j) for i in rows for j in range(n)))


def _block_pxp(params: FamilyParams) -> tuple[int, ...]:
    x = params.g + 1
    q = ceil_sqrt(x)
    p = ceil_div(x, q)
    if q > params.m - 1 or p > params.n - 1:
        raise WitnessError("block does not fit the grid")
    pairs = [(q, j) for j in range(p + 1)] + [(i, p) for i in range(q)]
    return _ids(params.n, pairs)


def _block_cxp(params: FamilyParams) -> tuple[int, ...]:
    x = params.g + 1
    best_size, candidates = None, []
    for a in range(1, ceil_mul_sqrt(2, 2 * x) + 3):
        b = ceil_div(x, a)
        size = a + 2 * b + 2
        if best_size is None or size < best_size:
            best_size, candidates = size, []
        if size == best_size:
            candidates.append((a, b))
    for a, b in candidates:
        if a + 1 <= params.m - 1 and b <= params.n - 1:
            pairs = [(r, j) for r in (0, a + 1) for j in range(b + 1)]
            pairs += [(i, b) for i in range(1, a + 1)]
            return _ids(params.n, pairs)
    raise WitnessError("block does not fit the cylinder")


def _block_cxc(params: FamilyParams) -> tuple[int, ...]:
    x = params.g + 1
    q = ceil_sqrt(x)
    p = ceil_div(x, q)
    if q + 1 > params.m - 1 or p + 1 > params.n - 1:
        raise WitnessError("block does not fit the torus")
    pairs = [(r, j) for r in (0, q + 1) for j in range(p + 2)]
    pairs += [(i, j) for i in range(1, q + 1) for j in (0, p + 1)]
    return _ids(params.n, pairs)


def build_witness(spec: WitnessSpec) -> tuple[int, ...]:
    """The witness vertex set as internal product ids (row-major i*n+j)."""
    params = spec.params
    if spec.which == "layers1":
        return _layers1(params)
    if spec.which == "layers2":
        return _layers2(params)
    if params.family == "pxp":
        return _block_pxp(params)
    if params.family == "cxp":
        return _block_cxp(params)
    return _block_cxc(params)


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


def witness_sizes(params: FamilyParams) -> dict[str, int | None]:
    """Actual sizes of all constructible witnesses (None where refused)."""
    return {which: None if cut is None else len(cut)
            for which, cut in build_witnesses(params).items()}
