"""Per-layer tracing of xconn from outside the package.

A ``Tracer`` replaces module attributes that callers look up at call time
(for example ``xconn.verifier.min_cuts_grouped``, which ``_evaluate_cell``
resolves as a global of ``xconn.verifier``) with wrappers that record one
span per call: id, parent id, layer name, start, end and optional counts.
Nothing under ``src/`` is edited, and ``uninstall`` puts every original back.

Spans stay in memory.  When the verifier runs cells in a forked process
pool, each worker returns its cell's spans beside the rows, and the pool
class the verifier looks up is replaced by one that takes them back out, so
the parent sees every span.

A span's self time is its duration minus the part of its interval covered by
its children (the union, so parallel children are not counted twice).
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: tuple[int, int]
    parent: tuple[int, int] | None
    name: str
    t0: float
    t1: float
    counts: dict | None


def _fragment_counts(args, kwargs, results) -> dict:
    extras = args[1] if len(args) > 1 else kwargs["extras"]
    seeds = (args[2] if len(args) > 2 else kwargs.get("upper_bounds")) or {}
    first = next(iter(results.values()), None)
    seeded = [g for g in set(extras) if g in seeds]
    return {
        "nodes": first.stats.nodes if first is not None else 0,
        "seeded": len(seeded),
        "tight": sum(1 for g in seeded if results[g].value == seeds[g]),
    }


def _mincut_counts(args, kwargs, out) -> dict:
    graph = args[0]
    values = args[1] if len(args) > 1 else kwargs["value_by_extra"]
    return {
        "checks": sum(math.comb(graph.n, k) for k in set(values.values())),
        "cuts": sum(len(cuts) for cuts in out.values()),
    }


# (module, attribute, span name, count hook).  Each layer is wrapped in every
# namespace its callers resolve it from; attributes that do not exist in the
# program being measured are skipped.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli", "run", "cli.run", None),
    ("cli", "sweep", "verifier.sweep", None),
    ("cli", "to_csv", "verifier.render", None),
    ("verifier", "sweep", "verifier.sweep", None),
    ("verifier", "_evaluate_cell", "verifier.cell", None),
    ("verifier", "to_csv", "verifier.render", None),
    ("verifier", "family_product", "products.build", None),
    ("verifier", "classify_cut", "products.classify", None),
    ("verifier", "kappa_formula", "formulas.eval", None),
    ("verifier", "guard_limit", "formulas.eval", None),
    ("verifier", "plan_witness", "witnesses.plan", None),
    ("verifier", "build_witness", "witnesses.build", None),
    ("verifier", "validate_witness", "witnesses.validate", None),
    ("verifier", "fragment_solve_many", "solver.fragment", _fragment_counts),
    ("verifier", "min_cuts_grouped", "solver.mincut", _mincut_counts),
    ("verifier", "check_layer_bounds", "solver.layer_bounds", None),
    ("products", "family_product", "products.build", None),
    ("products", "components", "graph.components", None),
    ("formulas", "kappa_formula", "formulas.eval", None),
    ("witnesses", "plan_witness", "witnesses.plan", None),
    ("witnesses", "build_witness", "witnesses.build", None),
    ("witnesses", "validate_witness", "witnesses.validate", None),
    ("solver", "fragment_solve_many", "solver.fragment", _fragment_counts),
    ("solver", "enumerate_min_cuts", "solver.enumerate", None),
    ("solver", "classical_connectivity", "solver.classical", None),
    ("solver", "is_connected", "graph.components", None),
    ("solver", "components", "graph.components", None),
)


class Tracer:
    """Records spans for calls into xconn while installed."""

    def __init__(self, modules: dict):
        self.modules = modules          # short name -> imported xconn module
        self.home = os.getpid()         # process that installed the wrappers
        self.spans: list[Span] = []
        self._owner = self.home
        self._stack: list[tuple[int, int]] = []
        self._next = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span_name, count in TARGETS:
            module = self.modules[mod_name]
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original, count))
        verifier = self.modules["verifier"]
        if hasattr(verifier, "ProcessPoolExecutor"):
            base = verifier.ProcessPoolExecutor
            self._saved.append((verifier, "ProcessPoolExecutor", base))
            verifier.ProcessPoolExecutor = self.pool_class(base)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._owner != os.getpid():      # first call in a forked worker
                self._owner = os.getpid()
                self.spans, self._stack = [], []
            sid = (self._owner, self._next)
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._stack.pop()
                self.spans.append(Span(sid, parent, name, t0, time.perf_counter(), None))
                raise
            t1 = time.perf_counter()
            self._stack.pop()
            counts = count(args, kwargs, result) if count is not None else None
            self.spans.append(Span(sid, parent, name, t0, t1, counts))
            if self._owner != self.home and not self._stack:
                shipped, self.spans = self.spans, []
                return result, shipped
            return result
        return traced

    def adopt(self, spans: list) -> None:
        """Take spans shipped from a worker; its root spans become children
        of the span open in this process."""
        parent = self._stack[-1] if self._stack else None
        for s in spans:
            self.spans.append(s if s.parent is not None else s._replace(parent=parent))

    def pool_class(self, base: type) -> type:
        tracer = self

        class TracedPool(base):
            def map(self, fn, *iterables, **kwargs):
                for item in super().map(fn, *iterables, **kwargs):
                    if isinstance(item, tuple):     # (rows, spans) from a traced worker
                        item, shipped = item
                        tracer.adopt(shipped)
                    yield item

        return TracedPool


# -- arithmetic over spans -------------------------------------------------

def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[Span]) -> dict:
    """Span id -> duration minus the time its child spans cover."""
    children: dict = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    return {s.sid: (s.t1 - s.t0) - covered(children[s.sid], s.t0, s.t1) for s in spans}


# per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "solver.mincut_s": ("solver.mincut",),
    "solver.fragment_s": ("solver.fragment",),
    "solver.enumerate_s": ("solver.enumerate",),
    "solver.layer_bounds_s": ("solver.layer_bounds",),
    "solver.classical_s": ("solver.classical",),
    "products.build_s": ("products.build",),
    "products.classify_s": ("products.classify",),
    "graph.components_s": ("graph.components",),
    "formulas.eval_s": ("formulas.eval",),
    "witnesses.build_s": ("witnesses.plan", "witnesses.build"),
    "witnesses.validate_s": ("witnesses.validate",),
    "verifier.sweep_self_s": ("verifier.sweep", "verifier.cell"),
    "verifier.render_s": ("verifier.render",),
    "cli.self_s": ("cli.run",),
}

# per-layer metric -> span name whose calls it counts
CALLS = {
    "solver.fragment_calls": "solver.fragment",
    "solver.layer_bounds_calls": "solver.layer_bounds",
    "solver.classical_calls": "solver.classical",
    "products.build_calls": "products.build",
    "products.classify_calls": "products.classify",
    "graph.components_calls": "graph.components",
    "formulas.eval_calls": "formulas.eval",
    "witnesses.calls": "witnesses.build",
}


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_yield", "_ratio", "_share")):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric, from the spans of one traced pass."""
    selfs = self_times(spans)
    by_name: dict = defaultdict(list)
    counts: dict = defaultdict(int)
    for s in spans:
        by_name[s.name].append(s)
        for key, value in (s.counts or {}).items():
            counts[key] += value
    out: dict = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(selfs[s.sid] for name in names for s in by_name[name])
    for metric, name in CALLS.items():
        out[metric] = len(by_name[name])
    out["solver.mincut_checks"] = counts["checks"]
    out["solver.mincut_cuts"] = counts["cuts"]
    out["solver.mincut_yield"] = _ratio(counts["cuts"], counts["checks"])
    out["solver.fragment_nodes"] = counts["nodes"]
    out["solver.fragment_nodes_per_s"] = _ratio(counts["nodes"], out["solver.fragment_s"])
    out["witnesses.seed_tight_ratio"] = _ratio(counts["tight"], counts["seeded"])
    cells = [s.t1 - s.t0 for s in by_name["verifier.cell"]]
    out["verifier.cell_max_ms"] = max(cells, default=0.0) * 1000.0
    out["verifier.straggler_share"] = _ratio(max(cells, default=0.0), sum(cells))
    top = [(s.t0, s.t1) for s in spans if s.parent is None]
    out["bench.unattributed_s"] = traced_wall - covered(top, -math.inf, math.inf)
    out["bench.trace_overhead_s"] = traced_wall - untraced_wall
    return out
