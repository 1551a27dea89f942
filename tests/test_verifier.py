import dataclasses
import pickle
from pathlib import Path

import pytest

from xconn import solver, verifier
from xconn.cli import run
from xconn.graph import make_cycle, make_path
from xconn.products import classify_cut, family_product
from xconn.solver import INFINITY, enumerate_min_cuts
from xconn.verifier import (SweepConfig, SweepReport, _evaluate_cell,
                            check_cartesian_connectivity, check_min_cut_classification,
                            report_failures, sweep, to_csv, to_json_dict)
from xconn.witnesses import WITNESS_KINDS

SMALL = SweepConfig(families=("pxp",), m_range=(3, 4), n_range=(3, 4))
GOLDEN_CSV = Path(__file__).resolve().parent / "data" / "sweep_default.csv"
BENCHMARK_CSV = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "sweep_default.csv"


def test_small_sweep_all_agree():
    report = sweep(SMALL)
    assert report.rows
    for row in report.rows:
        assert row.in_guard and row.agree is True
        assert row.witnesses_valid is True
        assert row.oracle_value == row.formula_value
    assert report_failures(report) == []


def test_sweep_rows_cover_every_in_guard_g():
    report = sweep(SMALL)
    cells = {(r.m, r.n) for r in report.rows}
    assert cells == {(3, 3), (3, 4), (4, 3), (4, 4)}
    gs_33 = [r.g for r in report.rows if (r.m, r.n) == (3, 3)]
    assert gs_33 == [0, 1, 2]


def test_sweep_csv_is_deterministic_and_timing_free():
    a = to_csv(sweep(SMALL))
    b = to_csv(sweep(SMALL))
    assert a == b
    header = a.splitlines()[0]
    assert header.startswith("family,m,n,g,")
    assert "runtime" not in header and "ms" not in header


def test_sweep_parallel_matches_serial():
    serial = to_csv(sweep(SMALL, threads=1))
    parallel = to_csv(sweep(SMALL, threads=2))
    assert serial == parallel


def test_sweep_runs_each_named_family_once(capsys):
    grid = ["--m-range", "3:3", "--n-range", "3:3", "--threads", "1"]
    assert run(["sweep", "--families", "pxp,pxp"] + grid) == 0
    twice = capsys.readouterr().out
    assert run(["sweep", "--families", "pxp"] + grid) == 0
    assert twice == capsys.readouterr().out
    assert len(twice.splitlines()) == 1 + 3  # header and g = 0, 1, 2


def test_sweep_rejects_an_unknown_family():
    with pytest.raises(ValueError, match="unknown family 'bogus'"):
        sweep(SweepConfig(families=("bogus",)))


@pytest.mark.parametrize("config, message", [
    (SweepConfig(families=("pxp",), m_range=(5, 3)),
     "m_range (5, 3), n_range None, least orders (m, n) pxp (3, 3)"),
    (SweepConfig(families=("cxc", "pxp"), n_range=(6, 4)),
     "m_range None, n_range (6, 4), least orders (m, n) cxc (4, 4), pxp (3, 3)"),
    (SweepConfig(families=("pxp",), m_range=(1, 2)),
     "m_range (1, 2), n_range None, least orders (m, n) pxp (3, 3)"),
    (SweepConfig(families=("cxp", "cxc"), m_range=(3, 3)),
     "m_range (3, 3), n_range None, least orders (m, n) cxp (4, 3), cxc (4, 4)"),
    (SweepConfig(families=()), "m_range None, n_range None, least orders (m, n) none"),
])
def test_sweep_rejects_a_grid_without_cells(config, message):
    with pytest.raises(ValueError) as info:
        sweep(config)
    assert str(info.value) == f"the sweep grid selects no cell: {message}"


def test_sweep_rejects_an_empty_explicit_g():
    config = SweepConfig(families=("pxp",), m_range=(3, 3), n_range=(3, 3), explicit_g=())
    with pytest.raises(ValueError, match=r"explicit_g \(\) selects no g"):
        sweep(config)


@pytest.mark.parametrize("threads", [0, -3])
def test_sweep_rejects_a_thread_count_below_one(threads):
    with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
        sweep(SMALL, threads=threads)


def test_sweep_explicit_g_records_out_of_guard_observationally():
    config = SweepConfig(families=("pxp",), m_range=(3, 3), n_range=(3, 3),
                         explicit_g=(0, 5))
    report = sweep(config)
    by_g = {r.g: r for r in report.rows}
    assert by_g[0].in_guard and by_g[0].agree is True
    row = by_g[5]
    assert not row.in_guard and row.formula_value is None and row.agree is None
    assert row.oracle_value is INFINITY or isinstance(row.oracle_value, int)
    assert report_failures(report) == []


def test_json_report_shape():
    doc = to_json_dict(sweep(SweepConfig(families=("pxp",), m_range=(3, 3),
                                         n_range=(3, 3))))
    row = doc["rows"][0]
    assert {"family", "m", "n", "g", "formula", "oracle", "agree",
            "witness_sizes"} <= set(row)
    assert "runtime_ms" not in row
    assert list(row["witness_sizes"]) == list(WITNESS_KINDS)


def test_kept_records_have_no_instance_dict():
    row = _evaluate_cell(("pxp", 3, 3, SweepConfig()))[0]
    assert len(row.witness_sizes) == len(WITNESS_KINDS)
    res = solver.kappa_extra_fragment(family_product("pxp", 3, 3).graph, 0)
    for record in (row, SweepReport((row,)), res, res.stats):
        assert not hasattr(record, "__dict__")
    # the process pool pickles rows
    for record in (row, res):
        assert pickle.loads(pickle.dumps(record)) == record
    moved = dataclasses.replace(row, g=9)
    assert (moved.g, row.g) == (9, 0) and moved.witness_sizes == row.witness_sizes
    assert dataclasses.replace(res) == res


def test_min_cut_classification_small_products():
    for family, m, n in (("pxp", 3, 3), ("cxp", 4, 3), ("cxc", 4, 4)):
        pg = family_product(family, m, n)
        brute = all(classify_cut(pg, c).verdict in ("i_set", "l_set")
                    for c in enumerate_min_cuts(pg.graph, 0))
        assert check_min_cut_classification(pg) is brute is True
    # 25 vertices, above the sweep's classification cap of 16
    assert check_min_cut_classification(family_product("cxc", 5, 5)) is True


def test_cartesian_connectivity_formula():
    assert check_cartesian_connectivity(make_path(3), make_path(3))
    assert check_cartesian_connectivity(make_path(2), make_path(5))
    assert check_cartesian_connectivity(make_cycle(4), make_cycle(4))


def test_default_sweep_matches_reference_csv():
    # the committed output of `xconn sweep --threads 1 --format csv`
    assert to_csv(sweep(SweepConfig(), threads=1)) == GOLDEN_CSV.read_text()


def test_pooled_cli_sweep_matches_reference_csv(capsys):
    assert run(["sweep", "--threads", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == GOLDEN_CSV.read_text()


def csv_rows(path: Path) -> dict[tuple[str, ...], dict[str, str]]:
    header, *lines = path.read_text().splitlines()
    columns = header.split(",")
    return {tuple(line.split(",")[:4]): dict(zip(columns, line.split(","))) for line in lines}


def test_golden_csv_keeps_every_field_of_the_benchmark_reference():
    # the benchmark's rule: a blank reference field may gain a value, and
    # every other field must come out the same
    golden = csv_rows(GOLDEN_CSV)
    for key, row in csv_rows(BENCHMARK_CSV).items():
        assert key in golden, key
        changed = {col: (want, golden[key][col]) for col, want in row.items()
                   if want and golden[key][col] != want}
        assert not changed, (key, changed)


def test_every_solved_row_with_a_cut_checks_the_layer_bounds():
    # the cell's one solve holds every minimum cut, so no solved row goes unchecked
    for row in sweep(SweepConfig()).rows:
        has_cut = row.m * row.n <= verifier.MAX_VERTICES and row.oracle_value is not INFINITY
        assert (row.layer_bounds_pass is not None) is has_cut, row


def count_fragment_searches(monkeypatch) -> list[int]:
    """Record the vertex count of every fragment search from now on."""
    orders = []
    search = solver._fragment_search

    def counted(masks, n, *args, **kwargs):
        orders.append(n)
        return search(masks, n, *args, **kwargs)

    monkeypatch.setattr(solver, "_fragment_search", counted)
    return orders


def test_each_cell_runs_one_fragment_search_of_the_product(monkeypatch):
    orders = count_fragment_searches(monkeypatch)
    for family, m, n in (("cxc", 4, 4), ("pxp", 4, 5)):
        orders.clear()
        _evaluate_cell((family, m, n, SweepConfig()))
        # the path and cycle factors' connectivity needs no search
        assert orders == [m * n], (family, m, n, orders)


def test_a_cell_repeats_the_same_searches(monkeypatch):
    # nothing carries over from an earlier cell, so serial and pooled sweeps
    # do the same work per cell
    orders = count_fragment_searches(monkeypatch)
    runs = []
    for _ in range(2):
        orders.clear()
        _evaluate_cell(("pxp", 3, 4, SweepConfig()))
        runs.append(list(orders))
    assert runs[0] == runs[1] == [12]


def test_sweep_pool_has_no_more_workers_than_cells(monkeypatch):
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verifier, "ProcessPoolExecutor", SerialPool)
    config = SweepConfig(families=("pxp",), m_range=(3, 3), n_range=(3, 4))
    assert to_csv(sweep(config, threads=64)) == to_csv(sweep(config, threads=1))
    assert asked == [2]
