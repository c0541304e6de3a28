"""Timed BACKER curves — the [BFJ+96b] experiments' shape, LC-verified.

Section 7 of the paper: "the algorithmic analysis of [BFJ+96a] and the
experimental results from [BFJ+96b] apply to location consistency with
no change."  This bench regenerates the *shape* of those experiments on
the event-driven simulator: execution time ``T_P`` as a function of the
processor count and the cache-miss service time ``m``, with every run's
trace verified location consistent post mortem.

The reproduced shapes:

* ``m = 0`` (communication free): near-linear speedup up to the dag's
  parallelism — the greedy/work-stealing regime of the Cilk bounds.
* ``m > 0``: a compute-bound → communication-bound crossover.  For a
  fine-grained workload (fib's unit-cost nodes) large ``m`` makes
  multi-processor runs *slower* than serial — precisely why [BFJ+96b]
  evaluate BACKER on coarse-grained applications and why protocol
  traffic terms (``m·C·T∞``) appear in the [BFJ+96a] bounds.
* ``T_1`` is independent of ``m`` (a lone processor never communicates).

Registered in ``registry.py`` as ``timed-backer`` via :func:`run`.
"""

from repro.dag.metrics import span, work
from repro.lang import fib_computation
from repro.runtime import simulate_timed
from repro.verify import trace_admits_lc

PROCS = (1, 2, 4, 8)
MISS_COSTS = (0, 2, 8)


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Regenerates the [BFJ+96b]-shaped curves on the event-driven
    simulator — makespan versus processor count and miss cost — with
    every run's trace verified location consistent, and measures the
    communication-bound crossover at the widest machine.
    """
    import time

    comp = fib_computation(8 if quick else 10)[0]
    procs_list = (1, 2, 4) if quick else PROCS
    miss_costs = (0, 8) if quick else MISS_COSTS
    t1, tinf = work(comp.dag), span(comp.dag)

    t0 = time.perf_counter()
    table = {}
    for m in miss_costs:
        row = []
        for p in procs_list:
            res = simulate_timed(comp, p, miss_cost=m, rng=p)
            if check:
                assert trace_admits_lc(res.partial_observer())
            row.append(res.makespan)
        table[m] = row
    widest = procs_list[-1]
    crossover_m = 16
    cheap = simulate_timed(comp, widest, miss_cost=0, rng=widest).makespan
    expensive = simulate_timed(
        comp, widest, miss_cost=crossover_m, rng=widest
    ).makespan
    serial = simulate_timed(comp, 1, miss_cost=crossover_m, rng=1).makespan
    sweep_seconds = time.perf_counter() - t0

    if check:
        free = table[0]
        assert free[0] == t1
        assert all(v >= tinf for v in free)
        for m in miss_costs:
            assert table[m][0] == t1, "T_1 must be miss-cost independent"
        for i_p in range(len(procs_list)):
            col = [table[m][i_p] for m in miss_costs]
            assert col == sorted(col), "makespan must grow with miss cost"
        assert cheap < serial, "free communication: parallelism wins"
        assert expensive > serial, "costly communication: serial wins"

    return {
        "nodes": comp.num_nodes,
        "work": t1,
        "span": tinf,
        "widest_procs": widest,
        "t_free_widest": table[0][-1],
        "t_costly_widest": table[miss_costs[-1]][-1],
        "crossover_cheap": cheap,
        "crossover_expensive": expensive,
        "crossover_serial": serial,
        "sweep_seconds": round(sweep_seconds, 6),
    }
