import concurrent.futures
import os
import pickle
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import xconn
from xconn import solver, verifier
from xconn.cli import run
from xconn.formulas import guard_limit
from xconn.graph import make_cycle, make_path
from xconn.products import classify_cut, family_product
from xconn.solver import INFINITY, ExtraConnResult, InconclusiveError, enumerate_min_cuts
from xconn.verifier import (SweepConfig, _evaluate_cell,
                            check_cartesian_connectivity, check_min_cut_classification,
                            report_failures, sweep, to_csv, to_json_dict)
from xconn.witnesses import WITNESS_KINDS

SMALL = SweepConfig(families=("pxp",), m_range=(3, 4), n_range=(3, 4))
GOLDEN_CSV = Path(__file__).resolve().parent / "data" / "sweep_default.csv"
BENCHMARK_CSV = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "sweep_default.csv"


def test_small_sweep_all_agree():
    report = sweep(SMALL)
    assert report
    for row in report:
        assert row.in_guard and row.agree is True
        assert row.witnesses_valid is True
        assert row.oracle_value == row.formula_value
    assert report_failures(report) == []


def test_sweep_rows_cover_every_in_guard_g():
    report = sweep(SMALL)
    cells = {(r.m, r.n) for r in report}
    assert cells == {(3, 3), (3, 4), (4, 3), (4, 4)}
    gs_33 = [r.g for r in report if (r.m, r.n) == (3, 3)]
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


@pytest.mark.parametrize("families", ["pxp", None])
def test_sweep_rejects_families_that_are_not_a_tuple_or_a_list(families):
    # a string once ran as its characters: "unknown family 'p'"
    with pytest.raises(ValueError, match="^families must be a tuple or a list, got "):
        sweep(SMALL._replace(families=families))


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


@pytest.mark.parametrize("threads", [3.0, True, "2", None])
def test_sweep_rejects_a_thread_count_that_is_not_an_int(threads):
    with pytest.raises(ValueError, match=f"threads must be an integer, got {threads!r}"):
        sweep(SMALL, threads=threads)


@pytest.mark.parametrize("config", [SMALL._replace(m_range=(3, 3.5)),
                                    SMALL._replace(n_range=(3.0, 3)),
                                    SMALL._replace(m_range=(True, 3)),
                                    SMALL._replace(explicit_g=(0, 0.5))])
def test_sweep_rejects_grid_ends_and_g_that_are_not_ints(config):
    with pytest.raises(ValueError, match="must be an integer"):
        sweep(config)


@pytest.mark.parametrize("name, config", [
    ("m_range", SweepConfig(("pxp",), 3, (3, 3))),
    ("m_range", SweepConfig(("pxp",), (3, 4, 5))),
    ("n_range", SMALL._replace(n_range=(3,))),
    ("m_range", SMALL._replace(m_range=())),
    ("n_range", SMALL._replace(n_range="34")),
])
def test_sweep_rejects_a_range_that_is_not_a_pair(name, config):
    # a non-pair once raised a raw TypeError or "too many values to unpack"
    with pytest.raises(ValueError, match=f"^{name} must be None or a pair"):
        sweep(config)


def test_sweep_takes_a_list_pair_as_a_range():
    one_cell = SweepConfig(("pxp",), (3, 3), (3, 3))
    assert sweep(one_cell._replace(m_range=[3, 3], n_range=[3, 3])) == sweep(one_cell)


def test_guard_limit_rejects_a_non_integer_order():
    # it once returned 2.0
    with pytest.raises(ValueError, match="m must be an integer, got 3.5"):
        guard_limit("pxp", 3.5, 3)


def test_sweep_explicit_g_records_out_of_guard_observationally():
    config = SweepConfig(families=("pxp",), m_range=(3, 3), n_range=(3, 3),
                         explicit_g=(0, 5))
    report = sweep(config)
    by_g = {r.g: r for r in report}
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
    for record in (row, res, res.stats):
        assert not hasattr(record, "__dict__")
    # the process pool pickles rows
    for record in (row, res):
        assert pickle.loads(pickle.dumps(record)) == record
    moved = row._replace(g=9)
    assert (moved.g, row.g) == (9, 0) and moved.witness_sizes == row.witness_sizes
    assert ExtraConnResult(res.extra, res.value, res.witness, res.solver, res.stats,
                           res.cuts) == res


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
    for row in sweep(SweepConfig()):
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


def record_calls(monkeypatch, module, names: tuple[str, ...]) -> dict[str, list]:
    """Record the arguments of every call to each named attribute of
    ``module`` from now on, with the call's result."""
    calls: dict[str, list] = {name: [] for name in names}
    for name in names:
        def recorded(*args, _name=name, _call=getattr(module, name)):
            result = _call(*args)
            calls[_name].append((args, result))
            return result
        monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("family,m,n,gs", [
    ("pxp", 3, 3, (0, 1, 2, 3, 5)),   # guard 2; g=3 and g=5 have no cut
    ("pxp", 4, 5, None),              # a block witness at g=0
    ("cxp", 6, 3, None),
])
def test_a_cell_makes_each_call_once_where_it_is_used(monkeypatch, family, m, n, gs):
    calls = record_calls(monkeypatch, verifier, (
        "build_witnesses", "validate_witness", "kappa_formula",
        "fragment_solve_many", "min_cuts_grouped", "check_layer_bounds"))
    rows = _evaluate_cell((family, m, n, SweepConfig(explicit_g=gs)))
    assert [params.g for (params,), _ in calls["build_witnesses"]] == [r.g for r in rows]
    built = [cut for _, cuts in calls["build_witnesses"] for cut in cuts.values()
             if cut is not None]
    assert [cut for (_, cut, _), _ in calls["validate_witness"]] == built
    assert [params.g for (params,), _ in calls["kappa_formula"]] == \
        [r.g for r in rows if r.in_guard]
    assert len(calls["fragment_solve_many"]) == len(calls["min_cuts_grouped"]) == 1
    assert [g for (_, _, g), _ in calls["check_layer_bounds"]] == \
        [r.g for r in rows if r.oracle_value is not INFINITY]


def test_agree_is_read_from_the_formula_and_oracle():
    row = _evaluate_cell(("pxp", 3, 3, SweepConfig()))[0]
    assert row.agree is True
    assert row._replace(oracle_value=row.formula_value + 1).agree is False
    assert row._replace(oracle_value=INFINITY).agree is False
    assert row._replace(oracle_value=None).agree is None
    assert row._replace(formula_value=None).agree is None


def serial_pool(monkeypatch):
    """Replace the sweep's process pool with an in-process one that runs
    ``map`` serially and records its worker count and the cells it gets."""
    class SerialPool:
        workers: list[int] = []
        cells: list[tuple[str, int, int]] = []

        def __init__(self, max_workers):
            self.workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            self.cells.extend((family, m, n) for family, m, n, _ in items)
            return map(fn, items)

    monkeypatch.setattr(verifier, "ProcessPoolExecutor", SerialPool)
    return SerialPool


def test_sweep_pool_has_no_more_workers_than_cells(monkeypatch):
    pool = serial_pool(monkeypatch)
    config = SweepConfig(families=("pxp",), m_range=(3, 3), n_range=(3, 4))
    assert to_csv(sweep(config, threads=64)) == to_csv(sweep(config, threads=1))
    assert pool.workers == [2]


def test_parallel_sweep_dispatches_largest_cells_first(monkeypatch):
    pool = serial_pool(monkeypatch)
    serial = sweep(SweepConfig(), threads=1)
    assert sweep(SweepConfig(), threads=2) == serial
    report_order = list(dict.fromkeys((r.family, r.m, r.n) for r in serial))
    # descending m*n, ties in report order: the stable sort of the report order
    assert pool.cells == sorted(report_order, key=lambda cell: -cell[1] * cell[2])
    assert pool.cells[0] == ("pxp", 6, 6)

    small = SweepConfig(families=("pxp", "cxp"), m_range=(3, 5), n_range=(3, 4))
    assert to_csv(sweep(small, threads=3)) == to_csv(sweep(small, threads=1))


def test_process_pool_is_imported_on_first_pooled_use():
    # a fresh interpreter, as every other test may already have loaded the pool
    code = "\n".join([
        "import concurrent.futures, sys, xconn.cli",
        "from xconn import verifier",
        "pool = {'multiprocessing', 'concurrent.futures.process'}",
        "print(sorted(pool & set(sys.modules)))",
        "print(verifier.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor)",
        "print(hasattr(verifier, 'no_such_name'))",
        "print(sorted(pool & set(sys.modules)))",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(xconn.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.splitlines() == ["[]", "True", "False",
                                "['concurrent.futures.process', 'multiprocessing']"]


def test_dead_worker_makes_a_pooled_sweep_inconclusive(monkeypatch):
    class DeadPool:
        """Stands in for the process pool; no worker process is started."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            raise BrokenProcessPool("a worker died")

    monkeypatch.setattr(verifier, "ProcessPoolExecutor", DeadPool)
    with pytest.raises(InconclusiveError, match="^a worker died$"):
        sweep(SMALL, threads=2)
