#!/usr/bin/env python3
"""xconn benchmark: run one workload, check every answer, print its metrics.

Usage (from the root of a source checkout; xconn is imported from ./src):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-serial, sweep-parallel, torus-probe, random-graphs (see
workloads.py and NOTES.md).

--trace 0  measures with tracing off: whole timed passes are repeated while
           another one fits in --seconds (at least one), and the end-to-end
           metrics are printed.  setup_s is the median over fresh
           interpreters, each timed from spawn until its set-up is done.
           Both times are taken at the reference host speed: the host's
           speed is sampled while each is measured (hostspeed.py), and the
           raw wall times are printed beside them.
--trace 1  runs one untraced pass and one traced pass and prints the
           per-layer metrics; the difference between the two walls is
           bench.trace_overhead_s.

Every answer is checked outside the timed section.  Fragment-search node
counts and min-cut subset counts must repeat exactly: each run records them
under .bench_counts/, keyed by the workload inputs and a digest of src/xconn
and workloads.py, and a run that counts differently from an earlier run of
the same source and inputs is not correct.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 0 when that line was printed, 1 when the
benchmark could not run (for example, no xconn sources).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COUNT_LEDGER = ROOT / ".bench_counts"
SETUP_PROBES = 9
TAIL_BEYOND = 10
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

sys.path.insert(0, str(HERE))
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer, layer_metrics, unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_xconn() -> SimpleNamespace:
    if not (SRC / "xconn" / "__init__.py").is_file():
        raise SystemExit(f"error: no xconn sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from xconn import cli, formulas, graph, products, solver, verifier, witnesses
    return SimpleNamespace(cli=cli, formulas=formulas, graph=graph, products=products,
                           solver=solver, verifier=verifier, witnesses=witnesses)


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest-ranked sample that leaves at least
    ``beyond`` samples above it.  With ``beyond`` or fewer samples none
    qualifies, and the maximum is returned as the 100th percentile."""
    xs = sorted(samples)
    if len(xs) <= beyond:
        return xs[-1], 100.0
    rank = len(xs) - beyond
    return xs[rank - 1], 100.0 * rank / len(xs)


def measure(workload, seconds: float) -> tuple[list, list[float]]:
    """Repeat whole timed passes while another one still fits in ``seconds``;
    return the passes and the host speed during each."""
    passes, speeds = [], []
    start = time.perf_counter()
    pooled = workload.pool_module and getattr(workload.xc, workload.pool_module)
    with HostSpeed(pooled) as host:
        while True:
            passes.append(workload.run_pass())
            speeds.append(host.take())
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p.wall for p in passes) > seconds:
                return passes, speeds


def setup_times(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it has imported xconn
    and built the workload's inputs and reference answers, and the host
    speed each interpreter measured while it set up."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    times, speeds = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.wait(timeout=120)
        word, _, speed = line.decode().partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        speeds.append(float(speed))
    return times, speeds


def source_digest() -> str:
    """Digest of the program and of the workload definitions."""
    digest = hashlib.sha256()
    for path in [*sorted((SRC / "xconn").rglob("*.py")), HERE / "workloads.py"]:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def count_problems(key: str, counts: dict) -> list[str]:
    """Record ``counts`` under ``key``; report any that differ from an
    earlier record of the same key."""
    if not counts:
        return []
    path = COUNT_LEDGER / f"{key}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    problems = [f"{name} = {value}, but an earlier run of the same source counted {seen[name]}"
                for name, value in sorted(counts.items())
                if name in seen and seen[name] != value]
    COUNT_LEDGER.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({**seen, **counts}, sort_keys=True))
    os.replace(tmp, path)
    return problems


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def task_metrics(task_times: list[float]) -> tuple[dict, str]:
    """Per-task p50 and tail in ms, and a note naming the tail percentile."""
    tail_s, tail_pct = tail(task_times)
    metrics = {"bench.task_p50_ms": statistics.median(task_times) * 1000.0,
               "bench.task_tail_ms": tail_s * 1000.0}
    return metrics, f"task tail is p{tail_pct:.1f} of {len(task_times)} tasks"


def run_untraced(workload, args) -> tuple[dict, list, list]:
    passes, speeds = measure(workload, args.seconds)
    rss = peak_rss_mb(with_children=args.workload == "sweep-parallel")
    checks = [workload.check(p) for p in passes]
    setups, setup_speeds = setup_times(args.workload, args.seed)
    tasks, tail_note = task_metrics([t for p in passes for t in p.task_times])
    values = {
        "setup_s": statistics.median(t * v for t, v in zip(setups, setup_speeds)),
        "wall_s": statistics.median(p.wall * v for p, v in zip(passes, speeds)),
        "peak_rss_mb": rss,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    notes = [f"{len(passes)} timed pass(es), raw wall at host speed: "
             + ", ".join(f"{p.wall:.4f} s at {v:.3f}" for p, v in zip(passes, speeds)),
             f"{tail_note}: p50 {tasks['bench.task_p50_ms']:.4f} ms, "
             f"tail {tasks['bench.task_tail_ms']:.4f} ms (raw)",
             f"setup_s is the median of {len(setups)} fresh interpreters, raw wall at "
             "host speed: " + ", ".join(f"{t:.4f} s at {v:.3f}"
                                        for t, v in zip(setups, setup_speeds))]
    return metrics, checks, notes


def run_traced(workload, args, xc) -> tuple[dict, list, list]:
    untraced = workload.run_pass()
    tracer = Tracer(vars(xc))
    tracer.install()
    try:
        traced = workload.run_pass()
    finally:
        tracer.uninstall()
    checks = [workload.check(untraced), workload.check(traced)]
    layers = layer_metrics(tracer.spans, traced.wall, untraced.wall)
    tasks, tail_note = task_metrics(untraced.task_times)
    layers.update(tasks)
    checks[1].counts.update({
        "fragment_nodes": layers["solver.fragment_nodes"],
        "mincut_checks": layers["solver.mincut_checks"],
        "mincut_cuts": layers["solver.mincut_cuts"],
    })
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    notes = [f"{len(tracer.spans)} spans; untraced wall {untraced.wall:.4f} s, "
             f"traced wall {traced.wall:.4f} s",
             f"bench.task_* come from the untraced pass; {tail_note}"]
    return metrics, checks, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        with HostSpeed() as host:
            WORKLOADS[args.workload](import_xconn(), args.seed)
            print(f"ready {host.take()!r}", flush=True)
        return 0
    xc = import_xconn()
    workload = WORKLOADS[args.workload](xc, args.seed)

    if args.trace:
        metrics, checks, notes = run_traced(workload, args, xc)
    else:
        metrics, checks, notes = run_untraced(workload, args)

    problems = [p for c in checks for p in c.problems]
    key = f"{workload.count_key}-{source_digest()}"
    for c in checks:
        problems += count_problems(key, c.counts)
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    counts = checks[-1].counts

    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, value in sorted(counts.items()):
        print(f"  count {name} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"error_rate {failed / attempted} ({failed} of {attempted} tasks)")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
