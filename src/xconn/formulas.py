"""Closed-form kappa_g evaluators for path/cycle strong products.

Families and their formulas (valid only inside the stated g guard):

  pxp  Pm x Pn, m,n >= 3:  min{ m, n, ceil(2*sqrt(g+1)) + 1 }
       guard  g <= min{ n*floor((m-1)/2) - 1, m*floor((n-1)/2) - 1 }
  cxp  Cm x Pn, m >= 4, n >= 3:  min{ m, 2n, ceil(2*sqrt(2(g+1))) + 2 }
       guard  g <= min{ n*floor((m-2)/2) - 1, m*floor((n-1)/2) - 1 }
  cxc  Cm x Cn, m,n >= 4:  min{ 2m, 2n, ceil(4*sqrt(g+1)) + 4 }
       guard  g <= min{ n*floor((m-2)/2) - 1, m*floor((n-2)/2) - 1 }

They differ only in which factors are cycles: with the ``CYCLES`` flags c1,
c2 (1 for a cycle factor) and p = (1+c1)(1+c2), each line above is

  m >= 3+c1, n >= 3+c2:  min{ (1+c2)m, (1+c1)n, ceil(2*sqrt(p(g+1))) + p }
       guard  g <= min{ n*floor((m-1-c1)/2) - 1, m*floor((n-1-c2)/2) - 1 }

The three min-terms are named after the witness cuts that realise them:
'layers1' (whole factor-1 layers), 'layers2' (whole factor-2 layers) and
'block' (the boundary of a corner/interval block).  All ceilings are computed
with integer square roots, never floating point.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .graph import Record, check_int

# whether factor 1 and factor 2 are cycles (1) or paths (0)
CYCLES = {"pxp": (0, 0), "cxp": (1, 0), "cxc": (1, 1)}
FAMILIES = tuple(CYCLES)
FAMILY_MINS = {family: (3 + c1, 3 + c2) for family, (c1, c2) in CYCLES.items()}
TERMS = ("layers1", "layers2", "block")
# below the least orders: the family and the order k of its factor 1
SMALL_CASES = {"p1p": ("pxp", 1), "p2p": ("pxp", 2), "c3p": ("cxp", 3), "c3c": ("cxc", 3)}


class DomainError(ValueError):
    """Parameters outside the region where a closed form is asserted."""


def family_cycles(family: str) -> tuple[int, int]:
    """The (c1, c2) cycle flags of a family; ValueError for an unknown one."""
    if family not in FAMILIES:  # a tuple, so an unhashable family is unknown too
        raise ValueError(f"unknown family {family!r}")
    return CYCLES[family]


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def ceil_sqrt(x: int) -> int:
    """ceil(sqrt(x)) for x >= 0, exactly."""
    if x < 0:
        raise ValueError("negative argument")
    r = isqrt(x)
    return r if r * r == x else r + 1


def ceil_mul_sqrt(c: int, x: int) -> int:
    """ceil(c * sqrt(x)): the least k with k*k >= c*c*x."""
    if c < 0 or x < 0:
        raise ValueError("negative argument")
    return ceil_sqrt(c * c * x)


class FamilyParams(Record):
    """One cell of a family's grid and one g; the orders and g must be
    ``int`` (not ``bool``) and within the family's least orders."""

    family: str  # a key of CYCLES
    m: int
    n: int
    g: int
    _fields = ("family", "m", "n", "g")
    __slots__ = _fields

    def __init__(self, family: str, m: int, n: int, g: int) -> None:
        min_m, min_n = (3 + c for c in family_cycles(family))
        if check_int(m, "m") < min_m or check_int(n, "n") < min_n:
            raise ValueError(
                f"family {family} needs m >= {min_m}, n >= {min_n}; "
                f"got m={m}, n={n}")
        check_int(g, "g", 0)
        self._init(family, m, n, g)


def guard_limit(family: str, m: int, n: int) -> int:
    """Largest g for which the family's closed form is asserted."""
    c1, c2 = family_cycles(family)
    check_int(m, "m")
    check_int(n, "n")
    return min(n * ((m - 1 - c1) // 2) - 1, m * ((n - 1 - c2) // 2) - 1)


def guard(params: FamilyParams) -> bool:
    return params.g <= guard_limit(params.family, params.m, params.n)


def formula_terms(params: FamilyParams) -> dict[str, int]:
    c1, c2 = CYCLES[params.family]
    p = (1 + c1) * (1 + c2)
    values = ((1 + c2) * params.m, (1 + c1) * params.n,
              ceil_mul_sqrt(2, p * (params.g + 1)) + p)
    return dict(zip(TERMS, values))


class FormulaResult(NamedTuple):
    value: int
    terms: tuple[tuple[str, int], ...]
    active_terms: tuple[str, ...]


def kappa_formula(params: FamilyParams) -> FormulaResult:
    """Closed-form kappa_g with the attaining term(s); DomainError out of guard."""
    if not guard(params):
        raise DomainError(
            f"g={params.g} exceeds the guard "
            f"{guard_limit(params.family, params.m, params.n)} for "
            f"{params.family} (m={params.m}, n={params.n})")
    terms = formula_terms(params)
    value = min(terms.values())
    active = tuple(name for name, t in terms.items() if t == value)
    return FormulaResult(value, tuple(terms.items()), active)


def small_case_limit(which: str, n: int) -> int:
    """Largest g for which the degenerate-family value is asserted; n must
    be at least 1 for a path and 3 for a cycle."""
    if which not in tuple(SMALL_CASES):  # a tuple, so an unhashable name is unknown too
        raise ValueError(f"unknown small case {which!r}")
    family, k = SMALL_CASES[which]
    c = CYCLES[family][1]
    check_int(n, f"n of {which}", 1 + 2 * c)
    return k * ((n - 1 - c) // 2) - 1


def kappa_small_case(which: str, n: int, g: int) -> int:
    """kappa_g for the families below the main theorems' order thresholds:
    P1 x Pn -> 1, P2 x Pn -> 2, C3 x Pn -> 3, C3 x Cn -> 6, that is k(1+c)
    for g <= k*floor((n-1-c)/2) - 1, where ``SMALL_CASES`` gives the family
    and the order k of factor 1 and c is the family's factor-2 cycle flag."""
    check_int(g, "g", 0)
    limit = small_case_limit(which, n)
    if g > limit:
        raise DomainError(f"g={g} exceeds the stated bound {limit} for {which} with n={n}")
    family, k = SMALL_CASES[which]
    return k * (1 + CYCLES[family][1])


def kappa_closed_form(family: str, m: int, n: int, g: int) -> int:
    """Closed-form kappa_g for any covered family instance.  A family whose
    factors are alike takes the smaller order as factor 1; a factor 1 below
    its least order routes to its small case, and a factor 2 below its least
    order has no asserted form."""
    c1, c2 = cycles = family_cycles(family)
    for order, cycle in zip((m, n), cycles):
        check_int(order, "cycle order" if cycle else "path order", 1 + 2 * cycle)
    first, second = sorted((m, n)) if c1 == c2 else (m, n)
    if first < 3 + c1:
        which = next(w for w, case in SMALL_CASES.items() if case == (family, first))
        return kappa_small_case(which, second, g)
    if second < 3 + c2:
        raise DomainError(f"{'PC'[c1]}_m x {'PC'[c2]}_n with n={n} < {3 + c2} "
                          "has no asserted closed form")
    return kappa_formula(FamilyParams(family, m, n, g)).value


IDENTITY_KINDS = ("path_path", "cycle_path", "cycle_cycle")


def ceiling_identity(kind: str, g: int) -> bool:
    """Check one family's block-size ceiling identity at g.

    path_path:    ceil(sqrt(x)) + ceil(x/ceil(sqrt(x))) + 1 == ceil(2*sqrt(x)) + 1
    cycle_path:   with y = 2x, ceil(sqrt(y)) + ceil(y/ceil(sqrt(y))) + 2 == ceil(2*sqrt(y)) + 2
    cycle_cycle:  2*ceil(sqrt(x)) + 2*ceil(x/ceil(sqrt(x))) + 4 == ceil(4*sqrt(x)) + 4

    where x = g+1.  The first two hold for every g; the cycle_cycle variant
    fails whenever 2*ceil(2*sqrt(x)) > ceil(4*sqrt(x)) (first at g=2), which
    is why callers must treat a False return as meaningful, not as a bug here.
    """
    check_int(g, "g", 0)
    if kind not in IDENTITY_KINDS:
        raise ValueError(f"unknown identity kind {kind!r}")
    x = g + 1
    if kind == "cycle_cycle":
        q = ceil_sqrt(x)
        return 2 * q + 2 * ceil_div(x, q) + 4 == ceil_mul_sqrt(4, x) + 4
    p = 1 if kind == "path_path" else 2  # so p*x is x or y
    q = ceil_sqrt(p * x)
    return q + ceil_div(p * x, q) + p == ceil_mul_sqrt(2, p * x) + p


def verify_ceiling_identities(max_g: int) -> dict[str, list[int]]:
    """Failing g values per identity kind over 0..max_g, ascending.

    The same answer as ``ceiling_identity`` at every kind and g, checked once
    per run of x = g+1 on which all seven ceilings are constant.  Each ceiling
    taken at the start of a run, such as q = ceil(sqrt(x)) or p = ceil(x/q),
    keeps its value while its defining inequality (q*q >= x, p*q >= x, and
    so on, with y = 2x) holds, so the run ends at the least of those bounds.
    """
    check_int(max_g, "max_g")
    fails: dict[str, list[int]] = {k: [] for k in IDENTITY_KINDS}
    x = 1
    while x <= max_g + 1:
        y = x + x
        q, qy = ceil_sqrt(x), ceil_sqrt(y)
        p, py = ceil_div(x, q), ceil_div(y, qy)
        c2, c2y, c4 = ceil_mul_sqrt(2, x), ceil_mul_sqrt(2, y), ceil_mul_sqrt(4, x)
        end = min(q * q, p * q, qy * qy // 2, py * qy // 2, c2 * c2 // 4,
                  c2y * c2y // 8, c4 * c4 // 16, max_g + 1)
        holds = (q + p == c2, qy + py == c2y, 2 * (q + p) == c4)
        for kind, ok in zip(IDENTITY_KINDS, holds):
            if not ok:
                fails[kind].extend(range(x - 1, end))
        x = end + 1
    return fails
