"""Registry of unified benchmark entrypoints for ``repro bench``.

Every ``bench_*.py`` in this directory that participates in the
performance ledger exposes::

    def run(check: bool = True, quick: bool = False) -> dict

The runner (:func:`repro.cli._cmd_bench`) times whole ``run`` calls
(warmup + repeats) and stores the returned dict's numeric values as the
ledger record's ``counters``.  ``check=True`` keeps the reproduction
assertions on (a benchmark run doubles as a reproduction run);
``quick=True`` shrinks problem sizes for CI smoke and must not write
artifact files.  Every ``bench_*.py`` module is named in
:data:`MANIFEST`: a module nothing runs is caught by
``tests/test_cli.py::TestBench::test_every_bench_module_is_registered``.

The manifest is explicit rather than glob-discovered: importing a bench
module is not free (some unfold thousand-node computations at import
time), a broken experiment should not take the whole runner down, and
the ``order`` field pins a stable ledger ordering.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class BenchmarkSpec:
    """One ledger benchmark: a stable name bound to a module's ``run``."""

    name: str
    module: str
    order: int
    description: str


MANIFEST = (
    BenchmarkSpec(
        "parallel-sweep",
        "bench_parallel_sweep",
        10,
        "Figure-1/Theorem-23 battery: seed path vs the sharded engine",
    ),
    BenchmarkSpec(
        "races",
        "bench_races",
        20,
        "race detection scaling: the witness pass vs the all-pairs oracle",
    ),
    BenchmarkSpec(
        "fig1-lattice",
        "bench_fig1_lattice",
        30,
        "the Figure 1 lattice battery (inclusions, witnesses, Thm 12)",
    ),
    BenchmarkSpec(
        "streaming-verifier",
        "bench_streaming_verifier",
        40,
        "streaming vs batch LC verification on long traces",
    ),
    BenchmarkSpec(
        "backer-overhead",
        "bench_backer_overhead",
        50,
        "BACKER speedup shape and protocol traffic vs processors",
    ),
    BenchmarkSpec(
        "thm23-lc-equals-nn-star",
        "bench_thm23_lc_equals_nn_star",
        60,
        "Theorem 23: LC ⊆ NN sweep + one-step pruning of NN \\ LC",
    ),
    BenchmarkSpec(
        "thm19-sc-lc-constructible",
        "bench_thm19_sc_lc_constructible",
        70,
        "Theorem 19: completeness/monotonicity/constructibility of SC, LC",
    ),
    BenchmarkSpec(
        "fig2-fig3-witnesses",
        "bench_fig2_fig3_witnesses",
        80,
        "Figures 2–3: separating-witness searches between dag models",
    ),
    BenchmarkSpec(
        "fig4-nonconstructibility",
        "bench_fig4_nonconstructibility",
        90,
        "Figure 4: the Theorem-12 search that finds NN stuck",
    ),
    BenchmarkSpec(
        "litmus",
        "bench_litmus",
        100,
        "litmus-outcome table: the model zoo on classical litmus shapes",
    ),
    BenchmarkSpec(
        "checkers-scaling",
        "bench_checkers_scaling",
        110,
        "polynomial checkers (LC membership, trace verify) at scale",
    ),
    BenchmarkSpec(
        "lint-throughput",
        "bench_lint_throughput",
        120,
        "findings/s of the multi-rule lint engine over a program corpus",
    ),
    BenchmarkSpec(
        "serve-throughput",
        "bench_serve_throughput",
        130,
        "items/s and dedupe rate of the batch trace-checking service",
    ),
    BenchmarkSpec(
        "profiler-overhead",
        "bench_profiler_overhead",
        140,
        "wall-clock cost of the SIGPROF sampler on the serve workload",
    ),
    BenchmarkSpec(
        "hier-sweep",
        "bench_hier_sweep",
        150,
        "multi-level BACKER traffic grid, every run LC-verified",
    ),
    BenchmarkSpec(
        "false-sharing",
        "bench_false_sharing",
        160,
        "page granularity: clobber corruption vs diff reconciliation",
    ),
    BenchmarkSpec(
        "timed-backer",
        "bench_timed_backer",
        170,
        "timed BACKER curves: makespan vs processors and miss cost",
    ),
    BenchmarkSpec(
        "protocol-comparison",
        "bench_protocol_comparison",
        180,
        "lazy LC (BACKER) vs eager SC (MSI directory) message counts",
    ),
)


def select(names: list[str] | None = None) -> list[BenchmarkSpec]:
    """Manifest entries in ledger order, optionally filtered by name."""
    specs = sorted(MANIFEST, key=lambda s: s.order)
    if names is None:
        return specs
    known = {s.name for s in specs}
    unknown = [n for n in names if n not in known]
    if unknown:
        raise ValueError(
            f"unknown benchmark(s) {', '.join(sorted(unknown))} "
            f"(choose from {', '.join(s.name for s in specs)})"
        )
    wanted = set(names)
    return [s for s in specs if s.name in wanted]


def load(spec: BenchmarkSpec) -> Callable[..., dict]:
    """Import the spec's module and return its ``run`` entrypoint."""
    mod = importlib.import_module(spec.module)
    run = getattr(mod, "run", None)
    if not callable(run):
        raise ValueError(
            f"benchmark module {spec.module!r} has no run(check, quick) "
            "entrypoint"
        )
    return run
