"""The benchmark's four workloads: inputs, one timed pass, answer checks.

Each workload builds its inputs in ``__init__`` (the set-up), runs the timed
work in ``run_pass`` and checks every answer in ``check``, outside the timed
section.  xconn is reached only through module attributes looked up at call
time (``self.xc.verifier.sweep(...)``), so a ``tracing.Tracer`` can wrap them.

* ``sweep-serial``   one ``verifier.sweep`` call per cell of the default
                     grids, in a closed loop in one process; the seed sets the
                     cell order.  A task is one cell.
* ``sweep-parallel`` ``cli.run(["sweep", "--threads", "2", ...])`` over the
                     default grids.  A task is one command.  No seed input.
* ``torus-probe``    C5 x C6 at g=2, seeded with the validated witness sizes
                     and solved by ``fragment_solve_many``.  A task is one
                     probe.  No seed input.
* ``random-graphs``  seeded random connected graphs (not products), solved
                     unseeded for g = 0..3, plus ``enumerate_min_cuts`` at
                     g=0.  A task is one graph.
"""

from __future__ import annotations

import io
import random
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

REFERENCE_CSV = Path(__file__).resolve().parent / "reference" / "sweep_default.csv"
SWEEP_THREADS = 2

TORUS = ("cxc", 5, 6, 2)            # family, m, n, g
TORUS_VALUE = 10                    # exact kappa_2(C5 x C6); the closed form agrees

RANDOM_EXTRAS = (0, 1, 2, 3)
# (vertices, edge probability, graphs per pass): every seed draws the same
# mix, so the work per pass hardly depends on the seed.  The graphs are
# sparse so that kappa_0 stays small: enumerate_min_cuts scans C(n, kappa_0)
# subsets, and a few dense graphs would otherwise decide a pass's time.
RANDOM_STRATA = tuple((n, p, 16) for n in (18, 20, 22) for p in (0.10, 0.14, 0.18))


class Pass(NamedTuple):
    wall: float                 # seconds in the timed section
    task_times: list[float]     # seconds per task
    outputs: list               # per task: the answer, or the traceback text


class Checked(NamedTuple):
    attempted: int
    failed: int
    problems: list[str]
    counts: dict                # machine-independent counts that must repeat exactly


def _timed_tasks(tasks, run_one) -> Pass:
    """Run ``run_one`` on every task in a closed loop and time each one."""
    times, outputs = [], []
    start = time.perf_counter()
    for task in tasks:
        t0 = time.perf_counter()
        try:
            outputs.append(run_one(task))
        except Exception:   # a failed task is counted, the loop goes on
            outputs.append(traceback.format_exc())
        times.append(time.perf_counter() - t0)
    return Pass(time.perf_counter() - start, times, outputs)


# -- reference CSV ---------------------------------------------------------

def parse_csv(text: str) -> dict:
    """(family, m, n) -> {g: {column: field}} for a sweep CSV."""
    lines = text.splitlines()
    header = lines[0].split(",")
    cells: dict = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        cell = (row["family"], int(row["m"]), int(row["n"]))
        cells.setdefault(cell, {})[int(row["g"])] = row
    return cells


def compare_cell(cell, reference: dict, produced: dict) -> list[str]:
    """Problems with one cell's rows: a non-empty reference field that is
    missing, blank or different.  A blank reference field may gain a value."""
    problems = []
    for g, ref_row in sorted(reference.items()):
        row = produced.get(g)
        if row is None:
            problems.append(f"{cell} g={g}: row missing")
            continue
        for column, want in ref_row.items():
            got = row.get(column, "")
            if want and got != want:
                problems.append(f"{cell} g={g}: {column} is {got!r}, reference {want!r}")
    return problems


class SweepSerial:
    name = "sweep-serial"
    count_key = "sweep"         # both sweeps cover the default grid, so count alike
    pool_module = None          # the work runs in this process

    def __init__(self, xc, seed: int):
        self.xc = xc
        self.reference = parse_csv(REFERENCE_CSV.read_text())
        self.cells = sorted(self.reference)
        random.Random(seed).shuffle(self.cells)

    def _run_cell(self, cell):
        family, m, n = cell
        verifier = self.xc.verifier
        config = verifier.SweepConfig(families=(family,), m_range=(m, m), n_range=(n, n))
        report = verifier.sweep(config)
        return report, verifier.to_csv(report)

    def run_pass(self) -> Pass:
        return _timed_tasks(self.cells, self._run_cell)

    def check(self, p: Pass) -> Checked:
        failed, problems = 0, []
        for cell, out in zip(self.cells, p.outputs):
            if isinstance(out, str):
                failed += 1
                problems.append(f"{cell}: raised\n{out}")
                continue
            report, text = out
            issues = compare_cell(cell, self.reference[cell], parse_csv(text).get(cell, {}))
            issues += [f"{cell}: {line}" for line in self.xc.verifier.report_failures(report)]
            if issues:
                failed += 1
                problems.extend(issues)
        return Checked(len(self.cells), failed, problems, {})


class SweepParallel:
    name = "sweep-parallel"
    count_key = "sweep"
    pool_module = "verifier"    # the work runs in this module's process pool
    argv = ["sweep", "--threads", str(SWEEP_THREADS), "--format", "csv"]

    def __init__(self, xc, seed: int):
        self.xc = xc
        self.reference = parse_csv(REFERENCE_CSV.read_text())

    def _run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.xc.cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    def run_pass(self) -> Pass:
        return _timed_tasks([self.argv], self._run_cli)

    def check(self, p: Pass) -> Checked:
        cells = sorted(self.reference)
        out = p.outputs[0]
        if isinstance(out, str):
            return Checked(len(cells), len(cells), [f"cli.run raised\n{out}"], {})
        code, text, err = out
        produced = parse_csv(text)
        failed, problems = 0, []
        for cell in cells:
            issues = compare_cell(cell, self.reference[cell], produced.get(cell, {}))
            if issues:
                failed += 1
                problems.extend(issues)
        if code != 0 or err.strip():
            failed = len(cells)
            problems.append(f"cli.run exit code {code}, stderr {err.strip()!r}")
        return Checked(len(cells), failed, problems, {})


class TorusProbe:
    name = "torus-probe"
    count_key = "torus-probe"
    pool_module = None

    def __init__(self, xc, seed: int):
        self.xc = xc

    def _probe(self, _):
        family, m, n, g = TORUS
        xc = self.xc
        pg = xc.products.family_product(family, m, n)
        params = xc.formulas.FamilyParams(family, m, n, g)
        seeds = {}
        for which in xc.witnesses.WITNESS_KINDS:
            try:
                cut = xc.witnesses.build_witness(xc.witnesses.plan_witness(params, which))
            except (xc.witnesses.WitnessError, xc.formulas.DomainError):
                continue
            if xc.witnesses.validate_witness(pg, cut, g).is_g_extra:
                seeds[g] = min(seeds.get(g, len(cut)), len(cut))
        result = xc.solver.fragment_solve_many(pg.graph, [g], seeds)[g]
        formula = xc.formulas.kappa_formula(params).value
        return pg.graph, result, formula

    def run_pass(self) -> Pass:
        return _timed_tasks([TORUS], self._probe)

    def check(self, p: Pass) -> Checked:
        out = p.outputs[0]
        if isinstance(out, str):
            return Checked(1, 1, [f"torus probe raised\n{out}"], {})
        graph, result, formula = out
        g = TORUS[3]
        problems = []
        if result.value != TORUS_VALUE or formula != TORUS_VALUE:
            problems.append(f"torus value {result.value}, formula {formula}, "
                            f"expected {TORUS_VALUE}")
        problems += cut_problems(graph, result.witness, g, TORUS_VALUE, "torus witness")
        return Checked(1, 1 if problems else 0, problems,
                       {"fragment_nodes": result.stats.nodes})


# -- random graphs ---------------------------------------------------------

def random_connected_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """A random spanning tree on shuffled labels plus each other pair with
    probability p, so the graph is always connected."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return sorted(edges)


def random_graph_specs(seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    rng = random.Random(seed)
    return [(n, random_connected_edges(rng, n, p))
            for n, p, count in RANDOM_STRATA for _ in range(count)]


def cut_problems(graph, cut, g: int, size: int, what: str) -> list[str]:
    """Independent check (networkx) that ``cut`` is a g-extra cut of ``size``."""
    import networkx as nx
    if cut is None:
        return [f"{what}: missing"]
    problems = []
    if len(cut) != size or len(set(cut)) != len(cut):
        problems.append(f"{what}: size {len(cut)}, expected {size}")
    rest = nx.Graph()
    rest.add_nodes_from(v for v in range(graph.n) if v not in set(cut))
    rest.add_edges_from((u, v) for u, v in graph.edges if u in rest and v in rest)
    sizes = [len(c) for c in nx.connected_components(rest)]
    if len(sizes) < 2 or min(sizes) < g + 1:
        problems.append(f"{what}: leaves components {sorted(sizes)} at g={g}")
    return problems


class RandomGraphs:
    name = "random-graphs"
    pool_module = None

    def __init__(self, xc, seed: int):
        self.xc = xc
        self.count_key = f"random-graphs-seed{seed}"
        self.graphs = [xc.graph.from_edges(n, edges) for n, edges in random_graph_specs(seed)]

    def _solve(self, graph):
        solver = self.xc.solver
        results = solver.fragment_solve_many(graph, list(RANDOM_EXTRAS))
        cuts = solver.enumerate_min_cuts(graph, 0, known_value=results[0].value)
        return results, cuts

    def run_pass(self) -> Pass:
        return _timed_tasks(self.graphs, self._solve)

    def check(self, p: Pass) -> Checked:
        import networkx as nx
        check_cut = self.xc.solver.check_g_extra_cut
        failed, problems, nodes = 0, [], []
        for i, (graph, out) in enumerate(zip(self.graphs, p.outputs)):
            where = f"graph {i} (n={graph.n}, m={graph.edge_count})"
            if isinstance(out, str):
                failed += 1
                problems.append(f"{where}: raised\n{out}")
                continue
            results, cuts = out
            issues = []
            values = [results[g].value for g in RANDOM_EXTRAS]
            if any(not isinstance(v, int) for v in values):
                issues.append(f"{where}: values {values} not all finite")
            elif values != sorted(values):
                issues.append(f"{where}: values {values} decrease with g")
            else:
                for g in RANDOM_EXTRAS:
                    w = results[g].witness
                    if w is None or not check_cut(graph, w, g).is_g_extra or len(w) != values[g]:
                        issues.append(f"{where}: g={g} witness fails check_g_extra_cut")
                    issues += cut_problems(graph, w, g, values[g], f"{where} g={g} witness")
                kappa0 = nx.node_connectivity(nx.Graph(list(graph.edges)))
                if values[0] != kappa0:
                    issues.append(f"{where}: kappa_0 {values[0]} != networkx {kappa0}")
                if not cuts or len(set(cuts)) != len(cuts) or results[0].witness not in cuts:
                    issues.append(f"{where}: enumerated minimum cuts incomplete")
                for c in cuts:
                    issues += cut_problems(graph, c, 0, values[0], f"{where} min cut {c}")
            nodes.append(results[0].stats.nodes)
            if issues:
                failed += 1
                problems.extend(issues)
        return Checked(len(self.graphs), failed, problems, {"fragment_nodes": sum(nodes)})


WORKLOADS = {w.name: w for w in (SweepSerial, SweepParallel, TorusProbe, RandomGraphs)}
