"""Closed-form kappa_g evaluators for path/cycle strong products.

Families and their formulas (valid only inside the stated g guard):

  pxp  Pm x Pn, m,n >= 3:  min{ m, n, ceil(2*sqrt(g+1)) + 1 }
       guard  g <= min{ n*floor((m-1)/2) - 1, m*floor((n-1)/2) - 1 }
  cxp  Cm x Pn, m >= 4, n >= 3:  min{ m, 2n, ceil(2*sqrt(2(g+1))) + 2 }
       guard  g <= min{ n*floor((m-2)/2) - 1, m*floor((n-1)/2) - 1 }
  cxc  Cm x Cn, m,n >= 4:  min{ 2m, 2n, ceil(4*sqrt(g+1)) + 4 }
       guard  g <= min{ n*floor((m-2)/2) - 1, m*floor((n-2)/2) - 1 }

The three min-terms are named after the witness cuts that realise them:
'layers1' (whole factor-1 layers), 'layers2' (whole factor-2 layers) and
'block' (the boundary of a corner/interval block).  All ceilings are computed
with integer square roots, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

FAMILY_MINS = {"pxp": (3, 3), "cxp": (4, 3), "cxc": (4, 4)}


class DomainError(ValueError):
    """Parameters outside the region where a closed form is asserted."""


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


@dataclass(frozen=True)
class FamilyParams:
    family: str  # "pxp" | "cxp" | "cxc"
    m: int
    n: int
    g: int

    def __post_init__(self) -> None:
        if self.family not in FAMILY_MINS:
            raise ValueError(f"unknown family {self.family!r}")
        min_m, min_n = FAMILY_MINS[self.family]
        if self.m < min_m or self.n < min_n:
            raise ValueError(
                f"family {self.family} needs m >= {min_m}, n >= {min_n}; "
                f"got m={self.m}, n={self.n}")
        if self.g < 0:
            raise ValueError("g must be non-negative")


def guard_limit(family: str, m: int, n: int) -> int:
    """Largest g for which the family's closed form is asserted."""
    if family == "pxp":
        return min(n * ((m - 1) // 2) - 1, m * ((n - 1) // 2) - 1)
    if family == "cxp":
        return min(n * ((m - 2) // 2) - 1, m * ((n - 1) // 2) - 1)
    if family == "cxc":
        return min(n * ((m - 2) // 2) - 1, m * ((n - 2) // 2) - 1)
    raise ValueError(f"unknown family {family!r}")


def guard(params: FamilyParams) -> bool:
    return params.g <= guard_limit(params.family, params.m, params.n)


def formula_terms(params: FamilyParams) -> dict[str, int]:
    m, n, g = params.m, params.n, params.g
    if params.family == "pxp":
        return {"layers1": m, "layers2": n, "block": ceil_mul_sqrt(2, g + 1) + 1}
    if params.family == "cxp":
        return {"layers1": m, "layers2": 2 * n, "block": ceil_mul_sqrt(2, 2 * (g + 1)) + 2}
    return {"layers1": 2 * m, "layers2": 2 * n, "block": ceil_mul_sqrt(4, g + 1) + 4}


@dataclass(frozen=True)
class FormulaResult:
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
    """Largest g for which the degenerate-family value is asserted."""
    if which == "p1p":
        return (n - 1) // 2 - 1
    if which == "p2p":
        return 2 * ((n - 1) // 2) - 1
    if which == "c3p":
        return 3 * ((n - 1) // 2) - 1
    if which == "c3c":
        return 3 * ((n - 2) // 2) - 1
    raise ValueError(f"unknown small case {which!r}")


def kappa_small_case(which: str, n: int, g: int) -> int:
    """kappa_g for the families below the main theorems' order thresholds:
    P1 x Pn -> 1, P2 x Pn -> 2, C3 x Pn -> 3, C3 x Cn -> 6."""
    if g < 0:
        raise ValueError("g must be non-negative")
    min_n = 3 if which == "c3c" else 1
    if n < min_n:
        raise ValueError(f"small case {which} needs n >= {min_n}")
    if g > small_case_limit(which, n):
        raise DomainError(
            f"g={g} exceeds the stated bound {small_case_limit(which, n)} "
            f"for {which} with n={n}")
    return {"p1p": 1, "p2p": 2, "c3p": 3, "c3c": 6}[which]


def kappa_closed_form(family: str, m: int, n: int, g: int) -> int:
    """Closed-form kappa_g for any covered family instance, routing orders
    below the main-theorem thresholds to their small-case values."""
    if family == "pxp":
        lo, hi = min(m, n), max(m, n)
        if lo < 1:
            raise ValueError("path order must be >= 1")
        if lo == 1:
            return kappa_small_case("p1p", hi, g)
        if lo == 2:
            return kappa_small_case("p2p", hi, g)
        return kappa_formula(FamilyParams("pxp", m, n, g)).value
    if family == "cxp":
        if m < 3:
            raise ValueError("cycle order must be >= 3")
        if m == 3:
            return kappa_small_case("c3p", n, g)
        if n < 3:
            raise DomainError(f"C_m x P_n with n={n} < 3 has no asserted closed form")
        return kappa_formula(FamilyParams("cxp", m, n, g)).value
    if family == "cxc":
        if min(m, n) < 3:
            raise ValueError("cycle order must be >= 3")
        if min(m, n) == 3:
            return kappa_small_case("c3c", max(m, n), g)
        return kappa_formula(FamilyParams("cxc", m, n, g)).value
    raise ValueError(f"unknown family {family!r}")


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
    if g < 0:
        raise ValueError("g must be non-negative")
    x = g + 1
    if kind == "path_path":
        q = ceil_sqrt(x)
        return q + ceil_div(x, q) + 1 == ceil_mul_sqrt(2, x) + 1
    if kind == "cycle_path":
        y = 2 * x
        q = ceil_sqrt(y)
        return q + ceil_div(y, q) + 2 == ceil_mul_sqrt(2, y) + 2
    if kind == "cycle_cycle":
        q = ceil_sqrt(x)
        return 2 * q + 2 * ceil_div(x, q) + 4 == ceil_mul_sqrt(4, x) + 4
    raise ValueError(f"unknown identity kind {kind!r}")


def verify_ceiling_identities(max_g: int) -> dict[str, list[int]]:
    """Failing g values per identity kind over 0..max_g, in one fast pass.

    All square-root ceilings are tracked incrementally through integer
    thresholds (no per-g root extraction and no division in the hot loop),
    which keeps the million-g sweep well under a second.
    """
    fails: dict[str, list[int]] = {k: [] for k in IDENTITY_KINDS}
    f_pp, f_cp, f_cc = (fails["path_path"], fails["cycle_path"],
                        fails["cycle_cycle"])
    # running values for x = g+1: q = ceil(sqrt(x)), px = ceil(x/q),
    # plus the squared thresholds deciding ceil(2*sqrt(x)) and ceil(4*sqrt(x))
    q, q_sq = 1, 1
    t2 = 1            # (2q-1)^2
    t41, t42, t43 = 1, 4, 9   # (4q-3)^2, (4q-2)^2, (4q-1)^2
    px, px_at = 1, 1  # px valid while x <= px_at
    # same for y = 2x: qy = ceil(sqrt(y)), py = ceil(y/qy)
    qy, qy_sq, t2y = 1, 1, 1
    py, py_at = 1, 1
    for x in range(1, max_g + 2):
        if x > q_sq:
            q += 1
            q_sq = q * q
            c = 2 * q - 1
            t2 = c * c
            c = 4 * q - 3
            t41 = c * c
            c = 4 * q - 2
            t42 = c * c
            c = 4 * q - 1
            t43 = c * c
            px = -(-x // q)
            px_at = px * q
        elif x > px_at:
            px += 1
            px_at += q
        y = x + x
        if y > qy_sq:
            qy += 1
            qy_sq = qy * qy
            c = 2 * qy - 1
            t2y = c * c
            py = -(-y // qy)
            py_at = py * qy
        elif y > py_at:
            py += 1
            py_at += qy
        fx = 4 * x
        c2x = 2 * q - 1 if fx <= t2 else 2 * q
        c2y = 2 * qy - 1 if 4 * y <= t2y else 2 * qy
        sx = 4 * fx
        if sx <= t41:
            c4x = 4 * q - 3
        elif sx <= t42:
            c4x = 4 * q - 2
        elif sx <= t43:
            c4x = 4 * q - 1
        else:
            c4x = 4 * q
        s = q + px
        if s != c2x:
            f_pp.append(x - 1)
        if qy + py != c2y:
            f_cp.append(x - 1)
        if s + s != c4x:
            f_cc.append(x - 1)
    return fails
