"""Self-tests of the benchmark harness.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import signal
import sys
import time
import types
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
from tracing import Span, Tracer, covered, layer_metrics, self_times, unit_of  # noqa: E402
from workloads import (REFERENCE_CSV, RANDOM_STRATA, Pass, SweepParallel,  # noqa: E402
                       compare_cell, parse_csv, random_graph_specs)


@pytest.fixture(scope="module")
def xc():
    return run.import_xconn()


# -- the percentile that leaves ten samples beyond it -----------------------

def test_tail_leaves_ten_samples_beyond():
    samples = [float(x) for x in range(100, 0, -1)]
    assert run.tail(samples) == (90.0, 90.0)
    value, pct = run.tail([float(x) for x in range(1, 41)])
    assert value == 30.0 and pct == 75.0
    assert sum(1 for x in range(1, 41) if x > value) == 10


def test_tail_with_eleven_samples_is_the_smallest():
    assert run.tail([5.0, 1.0, 9.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 10.0, 11.0])[0] == 1.0


def test_tail_without_enough_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(x) for x in range(10)]) == (9.0, 100.0)


# -- self time ---------------------------------------------------------------

def _span(i, parent, name, t0, t1, counts=None):
    return Span((0, i), None if parent is None else (0, parent), name, t0, t1, counts)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered([], 0, 10) == 0
    assert covered([(0, 4), (1, 2)], 0, 10) == 4


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, "verifier.sweep", 0.0, 10.0),
        _span(2, 1, "verifier.cell", 1.0, 3.0),        # parallel children overlap
        _span(3, 1, "verifier.cell", 2.0, 5.0),
        _span(4, 2, "solver.fragment", 1.5, 2.0, {"nodes": 7}),
    ]
    selfs = self_times(spans)
    assert selfs[(0, 1)] == pytest.approx(6.0)       # 10 - |[1, 5]|
    assert selfs[(0, 2)] == pytest.approx(1.5)
    assert selfs[(0, 3)] == pytest.approx(3.0)
    assert selfs[(0, 4)] == pytest.approx(0.5)
    m = layer_metrics(spans, traced_wall=12.0, untraced_wall=11.0)
    assert m["verifier.sweep_self_s"] == pytest.approx(6.0 + 1.5 + 3.0)
    assert m["solver.fragment_s"] == pytest.approx(0.5)
    assert m["solver.fragment_nodes"] == 7
    assert m["solver.fragment_nodes_per_s"] == pytest.approx(14.0)
    assert m["verifier.cell_max_ms"] == pytest.approx(3000.0)
    assert m["verifier.straggler_share"] == pytest.approx(3.0 / 5.0)
    assert m["bench.unattributed_s"] == pytest.approx(2.0)
    assert m["bench.trace_overhead_s"] == pytest.approx(1.0)


def test_traced_serial_and_pooled_sweeps_agree(xc):
    config = xc.verifier.SweepConfig(families=("pxp",), m_range=(3, 4), n_range=(3, 3))
    original = xc.verifier.min_cuts_grouped
    layers = {}
    for threads in (1, 2):
        tracer = Tracer(vars(xc))
        tracer.install()
        try:
            report = xc.verifier.sweep(config, threads=threads)
        finally:
            tracer.uninstall()
        assert xc.verifier.min_cuts_grouped is original
        assert not xc.verifier.report_failures(report)
        names = [s.name for s in tracer.spans]
        assert names.count("verifier.cell") == 2
        assert names.count("verifier.sweep") == 1
        layers[threads] = layer_metrics(tracer.spans, 1.0, 1.0)
    for key in ("solver.fragment_nodes", "solver.mincut_checks", "solver.mincut_cuts",
                "solver.fragment_calls", "graph.components_calls"):
        assert layers[1][key] == layers[2][key] > 0


# -- host speed ----------------------------------------------------------------

def _busy(seconds: float) -> int:
    end, total = time.process_time() + seconds, 0
    while time.process_time() < end:
        total += 1
    return total


def test_speed_is_the_mean_of_reference_over_samples():
    ref = hostspeed.REF_SECONDS
    assert hostspeed.speed([ref, ref / 2, ref * 2]) == pytest.approx((1 + 2 + 0.5) / 3)


def test_host_speed_samples_this_process_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as host:
        _busy(0.2)
        assert len(host.samples) >= 5
        assert host.take() > 0 and host.samples == []
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_host_speed_samples_pool_workers_only():
    module = types.SimpleNamespace(ProcessPoolExecutor=ProcessPoolExecutor)
    with hostspeed.HostSpeed(module) as host:
        assert module.ProcessPoolExecutor is not ProcessPoolExecutor
        with module.ProcessPoolExecutor(max_workers=1) as pool:
            assert list(pool.map(_busy, [0.3])) != [0]
        assert host.samples == [] and host._count.value >= 5
        assert host.take() > 0 and host._count.value == 0
    assert module.ProcessPoolExecutor is ProcessPoolExecutor


# -- inputs from the seed ----------------------------------------------------

def test_same_seed_gives_identical_graphs():
    first, again, other = random_graph_specs(7), random_graph_specs(7), random_graph_specs(8)
    assert first == again
    assert first != other
    assert len(first) == sum(count for _, _, count in RANDOM_STRATA)


def test_random_graphs_are_connected(xc):
    for n, edges in random_graph_specs(3):
        assert xc.graph.is_connected(xc.graph.from_edges(n, edges))


# -- reference answers -------------------------------------------------------

def _reference_text():
    return REFERENCE_CSV.read_text()


def _edit_field(text, cell, g, column, value):
    lines = text.splitlines()
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:], start=1):
        row = line.split(",")
        if (row[0], int(row[1]), int(row[2]), int(row[3])) == (*cell, g):
            row[header.index(column)] = value
            lines[i] = ",".join(row)
    return "\n".join(lines) + "\n"


def test_tampered_row_counts_as_an_error():
    text = _reference_text()
    workload = SweepParallel(None, 0)
    clean = workload.check(Pass(1.0, [1.0], [(0, text, "")]))
    assert (clean.attempted, clean.failed, clean.problems) == (29, 0, [])
    tampered = _edit_field(text, ("cxc", 5, 5), 2, "oracle", "11")
    result = workload.check(Pass(1.0, [1.0], [(0, tampered, "")]))
    assert result.failed == 1
    assert any("oracle" in p for p in result.problems)


def test_value_to_blank_is_an_error_and_blank_to_value_is_not():
    cells = parse_csv(_reference_text())
    cell = ("pxp", 3, 3)
    blanked = parse_csv(_edit_field(_reference_text(), cell, 0, "agree", ""))
    assert compare_cell(cell, cells[cell], blanked[cell])
    filled = parse_csv(_edit_field(_reference_text(), cell, 1, "cut_classes", "pass"))
    assert cells[cell][1]["cut_classes"] == ""
    assert compare_cell(cell, cells[cell], filled[cell]) == []


def test_failed_command_fails_every_cell():
    workload = SweepParallel(None, 0)
    result = workload.check(Pass(1.0, [1.0], [(4, _reference_text(), "FAIL x")]))
    assert result.failed == result.attempted == 29


# -- the benchmark definition ------------------------------------------------

def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = {**layer_metrics([], 1.0, 1.0), **run.task_metrics([1.0])[0]}
    assert per_layer == {name: unit_of(name) for name in names}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
