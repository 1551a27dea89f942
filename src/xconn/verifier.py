"""Batch reconciliation: closed forms vs. exact solvers vs. witness cuts.

A sweep walks a parameter grid, and for every cell (family, m, n) and every
requested g it records the formula value, the fragment-solver value, the
witness sizes, the per-layer lower-bound check on all enumerated minimum
cuts, and (at g=0, small cells) whether every minimum vertex cut classifies
as an I-set or L-set.  Reports are canonically ordered and the CSV rendering
contains no timing data, so identical configurations produce identical bytes.
"""

from __future__ import annotations

import sys
from typing import Iterable, NamedTuple

from .formulas import FAMILIES, FAMILY_MINS, FamilyParams, guard_limit, kappa_formula
from .graph import Graph, check_int, min_degree
from .products import ProductGraph, cartesian_product, classify_cut, family_product
from .solver import (INFINITY, ExtraConnResult, InconclusiveError, check_layer_bounds,
                     classical_connectivity, fragment_solve_many, kappa_extra_fragment,
                     min_cuts_grouped)
from .witnesses import WITNESS_KINDS, build_witnesses, validate_witness

DEFAULT_GRIDS: dict[str, tuple[tuple[int, int], tuple[int, int]]] = {
    "pxp": ((3, 6), (3, 6)),
    "cxp": ((4, 6), (3, 5)),
    "cxc": ((4, 5), (4, 5)),
}

MAX_VERTICES = 36       # cells above this are inconclusive
CLASSIFY_LIMIT = 16     # I/L classification vertex cap


def __getattr__(name: str):
    """``ProcessPoolExecutor`` is imported on first access (PEP 562), so a
    process that never runs a pooled sweep never loads ``multiprocessing``.
    A class set on this module attribute replaces the pool in ``sweep``."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SweepConfig(NamedTuple):
    families: tuple[str, ...] = FAMILIES
    m_range: tuple[int, int] | None = None   # None: family default grid
    n_range: tuple[int, int] | None = None
    explicit_g: tuple[int, ...] | None = None  # None: every in-guard g


class SweepRow(NamedTuple):
    family: str
    m: int
    n: int
    g: int
    in_guard: bool
    formula_value: int | None
    oracle_value: int | float | None         # int, INFINITY, or None=inconclusive
    witness_sizes: tuple[int | None, ...]    # in WITNESS_KINDS order
    witnesses_valid: bool | None
    layer_bounds_pass: bool | None
    cut_classes: str | None                  # "pass" | "fail" | "skip" (g=0 only)

    @property
    def agree(self) -> bool | None:
        """Whether the oracle meets the formula; None when either is missing."""
        if self.formula_value is None or self.oracle_value is None:
            return None
        return self.oracle_value == self.formula_value


def _cell_grid(config: SweepConfig, family: str) -> list[tuple[int, int]]:
    m_lo, m_hi = config.m_range or DEFAULT_GRIDS[family][0]
    n_lo, n_hi = config.n_range or DEFAULT_GRIDS[family][1]
    min_m, min_n = FAMILY_MINS[family]
    if m_hi >= min_m and n_hi >= min_n:
        [0] * (m_hi * n_hi)  # the largest order, allocated first as in from_edges
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

    # per g, every witness kind's cut (None where refused) with its verdict;
    # the smallest valid cut seeds the solve
    witnesses: dict[int, list[tuple[tuple[int, ...] | None, bool]]] = {}
    seeds: dict[int, int] = {}
    for g in gs:
        cuts = build_witnesses(FamilyParams(family, m, n, g))   # all None beyond the guard
        witnesses[g] = [(c, c is not None and validate_witness(pg, c, g).is_g_extra)
                        for c in cuts.values()]
        valid = [len(c) for c, ok in witnesses[g] if ok]
        if valid:
            seeds[g] = min(valid)

    results: dict[int, ExtraConnResult] = {}
    min_cuts: dict[int, list[tuple[int, ...]]] = {}
    if pg.graph.n <= MAX_VERTICES:
        results = fragment_solve_many(pg.graph, gs, seeds)
        finite = {g: int(r.value) for g, r in results.items() if r.value is not INFINITY}
        min_cuts = min_cuts_grouped(pg.graph, finite, results)

    rows: list[SweepRow] = []
    for g in gs:
        formula = kappa_formula(FamilyParams(family, m, n, g)).value if g <= limit else None
        oracle = results[g].value if g in results else None
        sizes = tuple(None if c is None else len(c) for c, _ in witnesses[g])
        verdicts = [ok for c, ok in witnesses[g] if c is not None]
        cuts = min_cuts.get(g)
        layer_ok = None if cuts is None else check_layer_bounds(pg, cuts, g)
        classes: str | None = None
        if g == 0:
            classes = "skip"
            if cuts is not None and pg.graph.n <= CLASSIFY_LIMIT:
                classes = "pass" if _all_i_or_l_sets(pg, cuts) else "fail"
        rows.append(SweepRow(family, m, n, g, g <= limit, formula, oracle, sizes,
                             all(verdicts) if verdicts else None, layer_ok, classes))
    return rows


def sweep(config: SweepConfig = SweepConfig(), threads: int = 1) -> tuple[SweepRow, ...]:
    """Evaluate the whole grid and return its rows, the report; cells are
    independent and may run in parallel.

    Each named family runs once, in ``FAMILIES`` order.  A thread count
    below 1, an unknown family, a range not None or a pair, a grid with no
    cell (a reversed range selects none), an empty ``explicit_g``, or a
    thread count, range end or g that is not an ``int`` raises ValueError.
    Cells are built in report order (family, m, n, g sorted within a cell).
    With more than one thread they are dispatched largest first (by m*n,
    ties in report order), so the costliest cell does not start last, and
    their rows are put back in report order, so the thread count never
    changes the report.

    An order too large to allocate raises ``MemoryError`` or ``OverflowError``
    before any cell is listed, and a worker process of a pooled sweep that
    dies raises ``InconclusiveError`` with the pool's message."""
    check_int(threads, "threads", 1)
    if not isinstance(config.families, (tuple, list)):
        raise ValueError(f"families must be a tuple or a list, got {config.families!r}")
    for family in config.families:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
    for name in ("m_range", "n_range"):
        ends = getattr(config, name)
        if ends is not None and (not isinstance(ends, (tuple, list)) or len(ends) != 2):
            raise ValueError(f"{name} must be None or a pair (lo, hi), got {ends!r}")
        for end in ends or ():
            check_int(end, name)
    if config.explicit_g is not None and not config.explicit_g:
        raise ValueError(f"explicit_g {config.explicit_g!r} selects no g; "
                         "None selects every in-guard g")
    for g in config.explicit_g or ():
        check_int(g, "g", 0)
    cells = [(family, m, n, config)
             for family in FAMILIES if family in config.families
             for m, n in _cell_grid(config, family)]
    if not cells:
        least = ", ".join(f"{f} {FAMILY_MINS[f]}" for f in config.families) or "none"
        raise ValueError(f"the sweep grid selects no cell: m_range {config.m_range}, "
                         f"n_range {config.n_range}, least orders (m, n) {least}")
    if threads > 1 and len(cells) > 1:
        # longest first (Graham 1969); sorted() is stable, so ties keep report order
        order = sorted(range(len(cells)), key=lambda i: -cells[i][1] * cells[i][2])
        results: list[list[SweepRow]] = [[] for _ in cells]
        from concurrent.futures.process import BrokenProcessPool
        pool_class = sys.modules[__name__].ProcessPoolExecutor  # a stand-in set here wins
        try:
            # the fork start method starts every worker up front
            with pool_class(max_workers=min(threads, len(cells))) as pool:
                for i, rows in zip(order, pool.map(_evaluate_cell, [cells[i] for i in order])):
                    results[i] = rows
        except BrokenProcessPool as exc:
            raise InconclusiveError(str(exc)) from exc
    else:
        results = [_evaluate_cell(c) for c in cells]
    return tuple(row for cell_rows in results for row in cell_rows)


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


def to_csv(rows: Iterable[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.family, str(r.m), str(r.n), str(r.g), _fmt(r.in_guard),
            _fmt(r.formula_value), _fmt(r.oracle_value), _fmt(r.agree),
            *map(_fmt, r.witness_sizes),
            _fmt(r.witnesses_valid), _fmt(r.layer_bounds_pass), _fmt(r.cut_classes),
        ]))
    return "\n".join(lines) + "\n"


def to_json_dict(rows: Iterable[SweepRow]) -> dict:
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
            for r in rows
        ],
    }


def report_failures(rows: Iterable[SweepRow]) -> list[str]:
    """Human-readable list of every asserted property that failed."""
    fails = []
    for r in rows:
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
