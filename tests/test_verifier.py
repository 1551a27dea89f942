from pathlib import Path

from xconn import solver
from xconn.cli import run
from xconn.graph import make_cycle, make_path
from xconn.products import classify_cut, family_product
from xconn.solver import INFINITY, enumerate_min_cuts
from xconn.verifier import (SweepConfig, _evaluate_cell, check_cartesian_connectivity,
                            check_min_cut_classification, report_failures, sweep,
                            to_csv, to_json_dict)

SMALL = SweepConfig(families=("pxp",), m_range=(3, 4), n_range=(3, 4))
REFERENCE_CSV = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "sweep_default.csv"


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
    assert to_csv(sweep(SweepConfig(), threads=1)) == REFERENCE_CSV.read_text()


def test_pooled_cli_sweep_matches_reference_csv(capsys):
    assert run(["sweep", "--threads", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == REFERENCE_CSV.read_text()


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
        # factor graphs (classical_connectivity) have fewer vertices
        assert orders.count(m * n) == 1, (family, m, n, orders)


def test_a_cell_repeats_the_same_searches(monkeypatch):
    # nothing carries over from an earlier cell, so serial and pooled sweeps
    # do the same work per cell
    orders = count_fragment_searches(monkeypatch)
    runs = []
    for _ in range(2):
        orders.clear()
        _evaluate_cell(("pxp", 3, 4, SweepConfig()))
        runs.append(list(orders))
    assert runs[0] == runs[1] and len(runs[0]) > 1
