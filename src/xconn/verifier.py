"""Batch reconciliation: closed forms vs. exact solvers vs. witness cuts.

A sweep walks a parameter grid, and for every cell (family, m, n) and every
requested g it records the formula value, the fragment-solver value, the
witness sizes, the per-layer lower-bound check on all enumerated minimum
cuts, and (at g=0, small cells) whether every minimum vertex cut classifies
as an I-set or L-set.  Reports are canonically ordered and the CSV rendering
contains no timing data, so identical configurations produce identical bytes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

from .formulas import FAMILIES, FAMILY_MINS, FamilyParams, guard_limit, kappa_formula
from .graph import Graph, min_degree
from .products import ProductGraph, cartesian_product, classify_cut, family_product
from .solver import (INFINITY, check_layer_bounds, classical_connectivity, fragment_solve_many,
                     kappa_extra_fragment, min_cuts_grouped)
from .witnesses import WITNESS_KINDS, build_witnesses, validate_witness

DEFAULT_GRIDS: dict[str, tuple[tuple[int, int], tuple[int, int]]] = {
    "pxp": ((3, 6), (3, 6)),
    "cxp": ((4, 6), (3, 5)),
    "cxc": ((4, 5), (4, 5)),
}

MAX_VERTICES = 36       # cells above this are inconclusive
CLASSIFY_LIMIT = 16     # I/L classification vertex cap


@dataclass(frozen=True)
class SweepConfig:
    families: tuple[str, ...] = FAMILIES
    m_range: tuple[int, int] | None = None   # None: family default grid
    n_range: tuple[int, int] | None = None
    explicit_g: tuple[int, ...] | None = None  # None: every in-guard g


@dataclass(frozen=True, slots=True)
class SweepRow:
    family: str
    m: int
    n: int
    g: int
    in_guard: bool
    formula_value: int | None
    oracle_value: int | float | None         # int, INFINITY, or None=inconclusive
    agree: bool | None
    witness_sizes: tuple[int | None, ...]    # in WITNESS_KINDS order
    witnesses_valid: bool | None
    layer_bounds_pass: bool | None
    cut_classes: str | None                  # "pass" | "fail" | "skip" (g=0 only)


@dataclass(frozen=True, slots=True)
class SweepReport:
    rows: tuple[SweepRow, ...]


def _cell_grid(config: SweepConfig, family: str) -> list[tuple[int, int]]:
    (dm, dn) = DEFAULT_GRIDS[family]
    m_lo, m_hi = config.m_range or dm
    n_lo, n_hi = config.n_range or dn
    min_m, min_n = FAMILY_MINS[family]
    return [(m, n)
            for m in range(max(m_lo, min_m), m_hi + 1)
            for n in range(max(n_lo, min_n), n_hi + 1)]


def _evaluate_cell(args: tuple[str, int, int, SweepConfig]) -> list[SweepRow]:
    family, m, n, config = args
    pg = family_product(family, m, n)
    limit = guard_limit(family, m, n)
    if config.explicit_g is not None:
        gs = sorted(set(config.explicit_g))
    else:
        gs = list(range(0, limit + 1))

    formula: dict[int, int | None] = {}
    sizes: dict[int, tuple[int | None, ...]] = {}
    valid: dict[int, bool | None] = {}
    seeds: dict[int, int] = {}
    for g in gs:
        params = FamilyParams(family, m, n, g)
        formula[g] = kappa_formula(params).value if g <= limit else None
        cuts = build_witnesses(params)   # all None beyond the guard
        sizes[g] = tuple(None if c is None else len(c) for c in cuts.values())
        built = [c for c in cuts.values() if c is not None]
        ok = True
        for cut in built:
            if validate_witness(pg, cut, g).is_g_extra:
                seeds[g] = min(seeds.get(g, len(cut)), len(cut))
            else:
                ok = False
        valid[g] = ok if built else None

    oracle: dict[int, int | float | None] = {g: None for g in gs}
    min_cuts: dict[int, list[tuple[int, ...]]] = {}
    layer_pass: dict[int, bool] = {}
    if pg.graph.n <= MAX_VERTICES:
        results = fragment_solve_many(pg.graph, gs, seeds)
        oracle = {g: results[g].value for g in gs}
        finite = {g: int(v) for g, v in oracle.items() if v is not INFINITY}
        min_cuts = min_cuts_grouped(pg.graph, finite, results)
        layer_pass = {g: check_layer_bounds(pg, cuts, g) for g, cuts in min_cuts.items()}

    rows: list[SweepRow] = []
    for g in gs:
        ov = oracle[g]
        fv = formula[g]
        agree = None if fv is None or ov is None else ov == fv
        classes: str | None = None
        if g == 0 and g in min_cuts and pg.graph.n <= CLASSIFY_LIMIT:
            classes = "pass" if _all_i_or_l_sets(pg, min_cuts[g]) else "fail"
        if classes is None and g == 0:
            classes = "skip"
        rows.append(SweepRow(
            family, m, n, g, g <= limit, fv, ov, agree,
            sizes[g], valid[g], layer_pass.get(g), classes))
    return rows


def sweep(config: SweepConfig = SweepConfig(), threads: int = 1) -> SweepReport:
    """Evaluate the whole grid; cells are independent and may run in parallel.

    Each named family runs once, in ``FAMILIES`` order.  A thread count
    below 1, an unknown family, a grid with no cell (a reversed range
    selects none) or an empty ``explicit_g`` raises ValueError.
    Cells are built in report order (family, m, n, g sorted within a cell)
    and ``pool.map`` keeps it, so the thread count never changes the report."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    for family in config.families:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
    if config.explicit_g is not None and not config.explicit_g:
        raise ValueError(f"explicit_g {config.explicit_g!r} selects no g; "
                         "None selects every in-guard g")
    cells = [(family, m, n, config)
             for family in FAMILIES if family in config.families
             for m, n in _cell_grid(config, family)]
    if not cells:
        least = ", ".join(f"{f} {FAMILY_MINS[f]}" for f in config.families) or "none"
        raise ValueError(f"the sweep grid selects no cell: m_range {config.m_range}, "
                         f"n_range {config.n_range}, least orders (m, n) {least}")
    if threads > 1 and len(cells) > 1:
        # the fork start method starts every worker up front
        with ProcessPoolExecutor(max_workers=min(threads, len(cells))) as pool:
            results = list(pool.map(_evaluate_cell, cells))
    else:
        results = [_evaluate_cell(c) for c in cells]
    return SweepReport(tuple(row for cell_rows in results for row in cell_rows))


CSV_HEADER = ("family,m,n,g,in_guard,formula,oracle,agree,"
              "w_layers1,w_layers2,w_block,w_valid,layer_bounds,cut_classes")


def _fmt(value) -> str:
    if value is None:
        return ""
    if value is INFINITY:
        return "inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def to_csv(report: SweepReport) -> str:
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(",".join([
            r.family, str(r.m), str(r.n), str(r.g), _fmt(r.in_guard),
            _fmt(r.formula_value), _fmt(r.oracle_value), _fmt(r.agree),
            *map(_fmt, r.witness_sizes),
            _fmt(r.witnesses_valid), _fmt(r.layer_bounds_pass), _fmt(r.cut_classes),
        ]))
    return "\n".join(lines) + "\n"


def to_json_dict(report: SweepReport) -> dict:
    return {
        "rows": [
            {
                "family": r.family, "m": r.m, "n": r.n, "g": r.g,
                "in_guard": r.in_guard,
                "formula": r.formula_value,
                "oracle": ("infinity" if r.oracle_value is INFINITY
                           else r.oracle_value),
                "agree": r.agree,
                "witness_sizes": dict(zip(WITNESS_KINDS, r.witness_sizes)),
                "witnesses_valid": r.witnesses_valid,
                "layer_bounds_pass": r.layer_bounds_pass,
                "cut_classes": r.cut_classes,
            }
            for r in report.rows
        ],
    }


def report_failures(report: SweepReport) -> list[str]:
    """Human-readable list of every asserted property that failed."""
    fails = []
    for r in report.rows:
        where = f"{r.family} m={r.m} n={r.n} g={r.g}"
        if r.agree is False:
            fails.append(f"{where}: formula {r.formula_value} != oracle {r.oracle_value}")
        if r.witnesses_valid is False:
            fails.append(f"{where}: a constructed witness failed validation")
        if r.layer_bounds_pass is False:
            fails.append(f"{where}: a minimum cut violates the layer lower bounds")
        if r.cut_classes == "fail":
            fails.append(f"{where}: a minimum vertex cut is neither I-set nor L-set")
    return fails


def _all_i_or_l_sets(pg: ProductGraph, cuts: Iterable[tuple[int, ...]]) -> bool:
    return all(classify_cut(pg, c).verdict in ("i_set", "l_set") for c in cuts)


def check_min_cut_classification(pg: ProductGraph) -> bool:
    """True iff every minimum vertex cut (g=0) is an I-set or an L-set
    (Spacapan, Graphs Combin. 26, 2010); True when there is none.

    The cuts come from one fragment solve.  There is no budget:
    InconclusiveError from the search propagates, as from every fragment
    entry point."""
    # a complete graph has no vertex cut, so its cuts are empty
    return _all_i_or_l_sets(pg, kappa_extra_fragment(pg.graph, 0).cuts)


def check_cartesian_connectivity(g1: Graph, g2: Graph) -> bool:
    """Cross-check the classical min-formula for Cartesian-product connectivity
    kappa(G1 [] G2) = min{kappa(G1)|V2|, kappa(G2)|V1|, delta} against the solver."""
    pg = cartesian_product(g1, g2)
    predicted = min(classical_connectivity(g1) * g2.n,
                    classical_connectivity(g2) * g1.n,
                    min_degree(pg.graph))
    return predicted == classical_connectivity(pg.graph)
