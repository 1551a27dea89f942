#!/usr/bin/env python3
"""Probe the torus family's ceiling term beyond the verified grids.

For Cm x Cn the closed form's third term ceil(4*sqrt(g+1)) + 4 is claimed to
equal the size of the optimal block-boundary cut 2a + 2b + 4 with a*b >= g+1,
but the integer minimum of 2(a+b) + 4 is 2*ceil(2*sqrt(g+1)) + 4, which is
strictly larger whenever frac(2*sqrt(g+1)) lies in (0, 1/2].  The first such
g is 2.  On the default verified grids (m, n <= 5) the term is never active
at an affected g, so every grid row still agrees; this script runs the exact
solver on larger cells where the term IS active and reports the gap.  The
formula column is blank at a g beyond the guard, as in ``xconn sweep``.

Warning: C6 x C6 at g=2 takes about 2 s of exact solving (0.9 million
fragment nodes) on a 2-core x86 machine running Python 3.11.

Usage:
    python scripts/probe_formula_gap.py [--m 6] [--n 6] [--g-list 2]
"""

import argparse
import sys
import time

from xconn.formulas import (FamilyParams, ceil_div, ceil_mul_sqrt, ceil_sqrt, guard,
                            kappa_formula)
from xconn.products import family_product
from xconn.solver import fragment_solve_many
from xconn.witnesses import witness_sizes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--m", type=int, default=6)
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--g-list", default="2",
                        help="comma-separated g values (default: 2, the first gap)")
    args = parser.parse_args()

    try:
        gs = sorted({int(p) for p in args.g_list.split(",")})
    except ValueError:
        parser.error(f"--g-list {args.g_list!r} is not a comma-separated list of integers")
    try:
        params = {g: FamilyParams("cxc", args.m, args.n, g) for g in gs}
    except ValueError as exc:
        parser.error(str(exc))
    pg = family_product("cxc", args.m, args.n)
    print(f"C{args.m} x C{args.n}: {pg.graph.n} vertices")
    print(f"{'g':>3} {'term':>5} {'formula':>8} {'oracle':>7} {'best block':>11} "
          f"{'witnesses':>24} {'time':>7}")

    gaps = 0
    seeds = {}
    all_sizes = {}
    for g in gs:
        sizes = witness_sizes(params[g])
        all_sizes[g] = sizes
        known = [v for v in sizes.values() if v is not None]
        if known:
            seeds[g] = min(known)
    t0 = time.time()
    results = fragment_solve_many(pg.graph, gs, seeds)
    for g in gs:
        x = g + 1
        term = ceil_mul_sqrt(4, x) + 4
        q = ceil_sqrt(x)
        best_block = 2 * (q + ceil_div(x, q)) + 4
        formula = kappa_formula(params[g]).value if guard(params[g]) else None
        oracle = results[g].value
        mark = ""
        if formula is not None and oracle != formula:
            gaps += 1
            mark = "  <-- closed form unattainable here"
        print(f"{g:>3} {term:>5} {'' if formula is None else formula:>8} {str(oracle):>7} "
              f"{best_block:>11} {str(all_sizes[g]):>24} {time.time() - t0:6.1f}s{mark}")
    if gaps:
        print(f"\n{gaps} of {len(gs)} cells show the gap: the ceiling term "
              "undercounts the doubled boundary, and the exact minimum is "
              "2*ceil(2*sqrt(g+1)) + 4 at those g.", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
