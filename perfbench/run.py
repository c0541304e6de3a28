"""Benchmark of the three product paths: the lattice sweep, the serve
stream and the hierarchy simulation.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-lattice --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints per-layer metrics from a traced run (see
``workloads.py``).  Log lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 on a completed run (check
``correct``), 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_PROBES = 5


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_seconds(modules: tuple[str, ...]) -> float:
    """Median import time of ``modules`` in fresh interpreters."""
    code = (
        "import importlib, sys, time\n"
        "t = time.perf_counter()\n"
        "for m in sys.argv[1:]: importlib.import_module(m)\n"
        "print(time.perf_counter() - t)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code, *modules],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    """This process's plus its largest reaped child's RSS high-water mark."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _stop_children() -> None:
    """Stop and reap every process this run started that is still
    around.  The shared-memory resource tracker ``multiprocessing``
    starts on demand is meant to outlive its parent; stop it through
    its own shutdown path, then terminate anything else left over."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    me = str(os.getpid())
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] != me:
            continue
        pid = int(stat.parent.name)
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main() -> None:
    try:
        _run()
    finally:
        _stop_children()


def _run() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        _die("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        _die(f"no program source at {SRC}; run from a repository checkout")

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r} (choose from {', '.join(workloads.WORKLOADS)})")
    cpus = len(os.sched_getaffinity(0))
    if workloads.JOBS > cpus:
        _die(f"pool size {workloads.JOBS} exceeds the {cpus} CPU(s) this process may use")
    env = {
        "cpus": cpus,
        "python": platform.python_version(),
        "jobs": workloads.JOBS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(f"# env {json.dumps(env)}", flush=True)

    modules = workloads.IMPORTS[args.workload]
    for module in modules:
        importlib.import_module(module)
    t0 = time.perf_counter()
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    wall = time.perf_counter() - t0
    metrics = dict(outcome.metrics)
    if args.trace:
        metrics["trace_overhead_ratio"] = metrics["traced_wall_s"] / metrics["untraced_wall_s"]
        catalogue = workloads.PER_LAYER
    else:
        metrics["peak_rss_mb"] = _peak_rss_mb()
        metrics["setup_s"] = _import_seconds(modules) + statistics.median(outcome.setups)
        catalogue = workloads.END_TO_END
    mismatch = {name for name, _, _ in catalogue} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metric set differs from the catalogue: {sorted(mismatch)}")

    print(f"# inputs {outcome.notes.pop('inputs')}")
    print(f"# notes {json.dumps(outcome.notes, default=str)} wall_s={wall:.2f}")
    for problem in outcome.problems:
        print(f"# problem {problem}")
    for name, unit, _ in catalogue:
        print(f"# {name} {metrics[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in catalogue
                },
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()
