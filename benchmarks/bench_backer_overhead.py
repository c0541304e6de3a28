"""BACKER performance shape (the [BFJ+96a] analysis the paper builds on).

The paper's §7 recalls that dag consistency was attractive because
BACKER "has provably good performance": execution time
``T_P ≤ O(T₁/P + T∞)`` up to protocol costs, with communication
proportional to steals.  Our simulator reproduces the *shape* of that
analysis:

* makespan respects the work and span laws (``T_P ≥ T₁/P``,
  ``T_P ≥ T∞``) and the Graham/Brent upper bound for greedy schedules;
* speedup grows with P and saturates near the dag's parallelism;
* protocol traffic (fetches + reconciles) grows with the number of
  cross-processor edges, staying near zero at P = 1.

Absolute numbers are simulator-specific; the monotone shapes are the
reproduction target (see EXPERIMENTS.md).
"""

from repro.dag.metrics import span, work
from repro.lang import fib_computation
from repro.runtime import BackerMemory, execute, greedy_schedule


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Sweeps processor counts over the fib workload (fib(8) quick,
    fib(10) full), asserting the work/span laws and the Graham bound at
    every point, and reports makespan/traffic at the widest machine.
    """
    import time

    comp = fib_computation(8 if quick else 10)[0]
    t1, tinf = work(comp.dag), span(comp.dag)
    procs_list = (1, 2, 4) if quick else (1, 2, 4, 8, 16)

    rows = []
    t0 = time.perf_counter()
    for procs in procs_list:
        sched = greedy_schedule(comp, procs, rng=procs)
        mem = BackerMemory()
        execute(sched, mem)
        rows.append(
            (procs, sched.makespan, mem.stats.fetches, mem.stats.reconciles)
        )
    sweep_seconds = time.perf_counter() - t0

    if check:
        prev = None
        for procs, makespan, _fetches, _reconciles in rows:
            assert makespan >= max(tinf, -(-t1 // procs))
            assert makespan <= t1 / procs + tinf
            if prev is not None:
                assert makespan <= prev + tinf
            prev = makespan
        assert rows[0][3] == 0, "single processor must never reconcile"
        assert rows[-1][3] > 0, "wide machine must show coherence traffic"

    widest = rows[-1]
    return {
        "nodes": comp.num_nodes,
        "work": t1,
        "span": tinf,
        "sweep_seconds": round(sweep_seconds, 6),
        "widest_procs": widest[0],
        "widest_makespan": widest[1],
        "widest_fetches": widest[2],
        "widest_reconciles": widest[3],
    }
