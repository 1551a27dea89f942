"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Criteria 1-3 compare the closed forms against the
fragment solver over their full grids; the remaining criteria cover the
degenerate families, witness certification, solver cross-validation, the
ceiling identities (the two path identities hold for every g; the torus one
fails exactly where frac(2*sqrt(g+1)) lies in (0, 1/2], and criterion 7
asserts that exact counterexample set), minimum-cut structure, layer bounds,
the Cartesian connectivity cross-check, monotonicity, and report determinism.
"""

import math
import random
import time

import pytest

from xconn.formulas import (FamilyParams, guard_limit, kappa_formula, kappa_small_case,
                            small_case_limit, verify_ceiling_identities)
from xconn.graph import from_edges, make_cycle, make_path
from xconn.products import classify_cut, family_product
from xconn.solver import (INFINITY, check_g_extra_cut, check_layer_bounds,
                          fragment_solve_many, kappa_extra_fragment,
                          kappa_extra_subset, min_cuts_grouped)
from xconn.verifier import SweepConfig, check_cartesian_connectivity, sweep, to_csv
from xconn.witnesses import witness_sizes

GRIDS = {
    "pxp": [(m, n) for m in range(3, 7) for n in range(3, 7)],
    "cxp": [(m, n) for m in range(4, 7) for n in range(3, 6)],
    "cxc": [(m, n) for m in (4, 5) for n in (4, 5)],
}

TIME_LIMITS = {1: 120.0, 2: 180.0, 3: 300.0, 7: 1.0}

_cells: dict[tuple[str, int, int], dict] = {}


def cell_data(family: str, m: int, n: int) -> dict:
    """Formula, witness, and oracle data for one grid cell (computed once)."""
    key = (family, m, n)
    if key not in _cells:
        pg = family_product(family, m, n)
        limit = guard_limit(family, m, n)
        gs = list(range(limit + 1))
        formula = {g: kappa_formula(FamilyParams(family, m, n, g)) for g in gs}
        sizes = {g: witness_sizes(FamilyParams(family, m, n, g)) for g in gs}
        seeds = {}
        for g in gs:
            known = [s for s in sizes[g].values() if s is not None]
            if known:
                seeds[g] = min(known)
        oracle = fragment_solve_many(pg.graph, gs, seeds)
        _cells[key] = {"pg": pg, "gs": gs, "formula": formula,
                       "sizes": sizes, "oracle": oracle}
    return _cells[key]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} {detail}")


def grid_agreement(num: int, family: str) -> None:
    t0 = time.perf_counter()
    mismatches = []
    points = 0
    for m, n in GRIDS[family]:
        data = cell_data(family, m, n)
        for g in data["gs"]:
            points += 1
            want = data["formula"][g].value
            got = data["oracle"][g].value
            if got != want:
                mismatches.append(f"(m={m},n={n},g={g}): oracle {got} != formula {want}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < TIME_LIMITS[num]
    report(num, ok, f"{family} grid, {points} in-guard points, {elapsed:.1f}s")
    assert not mismatches, mismatches
    assert elapsed < TIME_LIMITS[num], f"{elapsed:.1f}s over the {TIME_LIMITS[num]:.0f}s budget"


def test_criterion_01_path_path_grid():
    grid_agreement(1, "pxp")


def test_criterion_02_cycle_path_grid():
    grid_agreement(2, "cxp")


def test_criterion_03_cycle_cycle_grid():
    grid_agreement(3, "cxc")


def test_criterion_04_small_cases():
    checked = 0
    bad = []
    cases = [
        ("p1p", lambda n: family_product("pxp", 1, n), range(2, 9)),
        ("p2p", lambda n: family_product("pxp", 2, n), range(2, 9)),
        ("c3p", lambda n: family_product("cxp", 3, n), range(1, 9)),
        ("c3c", lambda n: family_product("cxc", 3, n), range(3, 9)),
    ]
    for which, build, ns in cases:
        for n in ns:
            limit = small_case_limit(which, n)
            if limit < 0:
                continue
            graph = build(n).graph
            results = fragment_solve_many(graph, list(range(limit + 1)))
            for g in range(limit + 1):
                checked += 1
                want = kappa_small_case(which, n, g)
                if results[g].value != want:
                    bad.append(f"{which} n={n} g={g}: oracle {results[g].value} != {want}")
    report(4, not bad, f"{checked} degenerate-family points, n <= 8")
    assert not bad, bad


def test_criterion_05_witness_certification():
    bad = []
    points = 0
    for family, cells in GRIDS.items():
        for m, n in cells:
            data = cell_data(family, m, n)
            pg = data["pg"]
            for g in data["gs"]:
                points += 1
                res = data["formula"][g]
                terms = dict(res.terms)
                from xconn.witnesses import build_witness, plan_witness, \
                    validate_witness, WitnessError
                built = {}
                for which in ("layers1", "layers2", "block"):
                    try:
                        spec = plan_witness(FamilyParams(family, m, n, g), which)
                    except WitnessError:
                        continue  # block not strictly minimal: refused by design
                    cut = build_witness(spec)
                    built[which] = len(cut)
                    where = f"{family} m={m} n={n} g={g} {which}"
                    if len(cut) != spec.predicted_size or len(cut) != terms[which]:
                        bad.append(f"{where}: size {len(cut)} != predicted "
                                   f"{spec.predicted_size}")
                    if not validate_witness(pg, cut, g).is_g_extra:
                        bad.append(f"{where}: not a valid g-extra cut")
                if not any(built.get(name) == res.value for name in res.active_terms):
                    bad.append(f"{family} m={m} n={n} g={g}: no witness achieves "
                               f"the active term value {res.value}")
    report(5, not bad, f"witnesses over {points} grid points")
    assert not bad, bad


def _random_connected_graph(rng: random.Random, n: int):
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    target = rng.randint(0, n)
    while len(edges) < n - 1 + target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return from_edges(n, edges)


def test_criterion_06_oracle_cross_validation():
    bad = []
    rng = random.Random(190405)
    comparisons = 0
    for i in range(200):
        g = _random_connected_graph(rng, 6 + i % 7)
        for extra in (0, 1, 2):
            comparisons += 1
            sub = kappa_extra_subset(g, extra)
            frag = kappa_extra_fragment(g, extra)
            if sub.value != frag.value or sub.witness != frag.witness:
                bad.append(f"random graph #{i} extra={extra}: subset "
                           f"{sub.value}/{sub.witness} vs fragment "
                           f"{frag.value}/{frag.witness}")
            elif sub.value is not INFINITY:
                if not check_g_extra_cut(g, sub.witness, extra).is_g_extra:
                    bad.append(f"random graph #{i} extra={extra}: invalid witness")
    for family, cells in GRIDS.items():
        for m, n in cells:
            if m * n > 16:
                continue
            graph = family_product(family, m, n).graph
            for extra in (0, 1, 2):
                comparisons += 1
                sub = kappa_extra_subset(graph, extra)
                frag = kappa_extra_fragment(graph, extra)
                if sub.value != frag.value or sub.witness != frag.witness:
                    bad.append(f"{family} m={m} n={n} extra={extra}: solver mismatch")
    report(6, not bad, f"{comparisons} solver comparisons (200 random + families)")
    assert not bad, bad


def torus_identity_gap(max_g: int) -> list[int]:
    """The g in [0, max_g] where the cycle_cycle identity must fail.

    With x = g+1 and t = 2*sqrt(x), the path_path identity turns the left
    side into 2*ceil(t) + 4, while the right side is ceil(2t) + 4; the two
    differ exactly when 0 < frac(t) <= 1/2, i.e. when
    2*ceil(sqrt(4x)) != ceil(sqrt(16x)).  Integer roots only, so this is
    independent of the formulas module.
    """
    def ceil_isqrt(n: int) -> int:
        return math.isqrt(n - 1) + 1

    return [g for g in range(max_g + 1)
            if 2 * ceil_isqrt(4 * (g + 1)) != ceil_isqrt(16 * (g + 1))]


def test_criterion_07_ceiling_identities():
    max_g = 10 ** 6
    expected_gap = torus_identity_gap(max_g)
    t0 = time.process_time()
    fails = verify_ceiling_identities(max_g)
    elapsed = time.process_time() - t0
    gap = fails["cycle_cycle"]
    ok = (not fails["path_path"] and not fails["cycle_path"] and gap == expected_gap
          and elapsed < TIME_LIMITS[7])
    report(7, ok, f"g in [0, 1e6], {elapsed:.2f}s CPU -- path_path: {len(fails['path_path'])} "
                  f"failures, cycle_path: {len(fails['cycle_path'])} failures, "
                  f"cycle_cycle: {len(gap)} failures, first at g={gap[:8]} "
                  f"(expected {len(expected_gap)}: frac(2*sqrt(g+1)) in (0, 1/2])")
    assert not fails["path_path"], f"path_path counterexamples {fails['path_path'][:5]}"
    assert not fails["cycle_path"], f"cycle_path counterexamples {fails['cycle_path'][:5]}"
    assert gap == expected_gap, (
        "cycle_cycle counterexamples differ from frac(2*sqrt(g+1)) in (0, 1/2]: "
        f"unexpected {sorted(set(gap) - set(expected_gap))[:5]}, "
        f"missing {sorted(set(expected_gap) - set(gap))[:5]}")
    assert elapsed < TIME_LIMITS[7], f"{elapsed:.2f}s CPU over the 1s budget"


def test_criterion_08_min_cut_classification():
    bad = []
    cases = [("pxp", 3, 3), ("pxp", 3, 4), ("pxp", 4, 4), ("cxp", 4, 3), ("cxc", 4, 4)]
    total = 0
    for family, m, n in cases:
        pg = family_product(family, m, n)
        value = int(kappa_extra_fragment(pg.graph, 0).value)
        cuts = min_cuts_grouped(pg.graph, {0: value})[0]
        total += len(cuts)
        for cut in cuts:
            if classify_cut(pg, cut).verdict not in ("i_set", "l_set"):
                bad.append(f"{family} m={m} n={n}: unclassified cut {cut}")
    report(8, not bad, f"{total} minimum vertex cuts across 5 products, all I/L")
    assert not bad, bad


def test_criterion_09_layer_bounds():
    bad = []
    cuts_checked = 0
    for family, cells in GRIDS.items():
        for m, n in cells:
            if m * n > 25:
                continue
            data = cell_data(family, m, n)
            pg = data["pg"]
            finite = {g: int(data["oracle"][g].value) for g in data["gs"]
                      if data["oracle"][g].value is not INFINITY}
            all_cuts = min_cuts_grouped(pg.graph, finite)
            for g, cuts in all_cuts.items():
                if not cuts:
                    bad.append(f"{family} m={m} n={n} g={g}: no cuts enumerated")
                for cut in cuts:
                    cuts_checked += 1
                    if not check_layer_bounds(pg, [cut], g):
                        bad.append(f"{family} m={m} n={n} g={g}: {cut} violates "
                                   "layer bounds")
    report(9, not bad, f"{cuts_checked} minimum cuts checked on both axes")
    assert not bad, bad


def test_criterion_10_cartesian_cross_check():
    pairs = [(make_path(3), make_path(3)), (make_cycle(4), make_cycle(4)),
             (make_path(2), make_path(5)), (make_cycle(5), make_path(4))]
    results = [check_cartesian_connectivity(g1, g2) for g1, g2 in pairs]
    report(10, all(results), "Cartesian connectivity min-formula on 4 products")
    assert all(results), results


def test_criterion_11_monotonicity():
    bad = []
    pairs = 0
    for family, cells in GRIDS.items():
        for m, n in cells:
            data = cell_data(family, m, n)
            values = {g: data["oracle"][g].value for g in data["gs"]}
            for g in data["gs"][:-1]:
                lo, hi = values[g], values[g + 1]
                if lo is INFINITY or hi is INFINITY:
                    continue
                pairs += 1
                if lo > hi:
                    bad.append(f"{family} m={m} n={n}: kappa_{g}={lo} > "
                               f"kappa_{g + 1}={hi}")
    report(11, not bad, f"{pairs} consecutive in-guard pairs")
    assert not bad, bad


def test_criterion_12_sweep_determinism():
    config = SweepConfig()
    first = to_csv(sweep(config))
    second = to_csv(sweep(config))
    ok = first == second
    report(12, ok, f"two full sweeps, {len(first)} bytes each")
    assert ok
    assert first.count("\n") > 100  # the default grids produce a real report
