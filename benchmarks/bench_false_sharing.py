"""Page granularity, false sharing, and diff reconciliation (extension).

The real BACKER moved pages, not words.  This bench quantifies the
consequence and its classical fix, with the LC verifier as the judge.
A page-granular BACKER is a one-level hierarchy whose line holds one
page (``line_size = ceil(locations / pages)``):

* **clobber** (whole-page writeback, the hierarchy's
  ``clobber_probability=1.0`` fault): once several locations share a
  page, concurrent disjoint writes destroy each other at reconcile time
  — the verifier rejects essentially every contended execution;
* **diff** (the faithful protocol's location-granular dirty sets):
  concurrent disjoint writes merge, and LC holds on every run;
* granularity sweep: fewer pages ⇒ fewer store fetches but (in clobber
  mode) more corruption; diff mode keeps correctness flat while the
  transfer counts drop — the coarse-granularity bargain made safe.

Registered in ``registry.py`` as ``false-sharing`` via :func:`run`.
"""

import math

from repro.lang import matmul_computation
from repro.runtime import (
    HierarchicalBackerMemory,
    HierarchyConfig,
    LevelConfig,
    execute,
    work_stealing_schedule,
)
from repro.verify import trace_admits_lc

COMP = matmul_computation(2)[0]
RUNS = 15


def paged_shape(num_pages: int) -> HierarchyConfig:
    """One unbounded level with ``COMP``'s locations split into pages."""
    line_size = math.ceil(len(COMP.locations) / num_pages)
    return HierarchyConfig(
        levels=(LevelConfig(capacity=None, line_size=line_size),),
        name=f"page{line_size}",
    )


def violation_count(
    mode: str, num_pages: int, runs: int = RUNS
) -> tuple[int, int, int]:
    shape = paged_shape(num_pages)
    clobber = {"clobber": 1.0, "diff": 0.0}[mode]
    violations = fetches = 0
    for seed in range(runs):
        sched = work_stealing_schedule(COMP, 4, rng=seed)
        mem = HierarchicalBackerMemory(shape, clobber_probability=clobber)
        trace = execute(sched, mem)
        violations += not trace_admits_lc(trace.partial_observer())
        fetches += mem.stats.fetches
    return violations, fetches, runs


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Contrasts clobber and diff reconciliation at page granularity
    (fewer seeds in quick mode) and sweeps the page count, reporting
    violation rates and store-fetch totals.
    """
    import time

    runs = 5 if quick else RUNS
    pages_sweep = (1, 8) if quick else (1, 2, 8, 64)

    t0 = time.perf_counter()
    v_clobber, f_clobber, _ = violation_count("clobber", 2, runs)
    v_diff, f_diff, _ = violation_count("diff", 2, runs)
    diff_curve = [violation_count("diff", pages, runs) for pages in pages_sweep]
    diff_viol_curve = [v for v, _f, _r in diff_curve]
    diff_fetch_curve = [f for _v, f, _r in diff_curve]
    sweep_seconds = time.perf_counter() - t0

    if check:
        assert v_clobber > runs // 2, "clobber hazard must be pervasive"
        assert v_diff == 0, "diff reconciliation must always verify"
        assert all(v == 0 for v in diff_viol_curve)
        assert diff_fetch_curve[0] <= diff_fetch_curve[-1]

    return {
        "runs": runs,
        "clobber_violations": v_clobber,
        "diff_violations": v_diff,
        "clobber_page_fetches": f_clobber,
        "diff_page_fetches": f_diff,
        "diff_fetches_coarsest": diff_fetch_curve[0],
        "diff_fetches_finest": diff_fetch_curve[-1],
        "sweep_seconds": round(sweep_seconds, 6),
    }
