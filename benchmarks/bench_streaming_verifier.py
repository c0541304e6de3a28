"""Streaming vs batch verification (extension).

The batch LC checker needs the whole trace; the streaming verifier
(THEORY.md §1's blocks maintained incrementally) works event by event
and *localizes* the first violating event.  This bench measures both on
long executions and checks the localization property: the verdicts
always agree, and on faulty traces the stream truncated before the
reported event is still consistent.
"""

from repro.lang import fib_computation, racy_counter_computation
from repro.runtime import BackerMemory, execute, work_stealing_schedule
from repro.verify import StreamingLCVerifier, trace_admits_lc


def make_trace(comp, procs, seed, drop=0.0):
    sched = work_stealing_schedule(comp, procs, rng=seed)
    mem = BackerMemory(
        drop_reconcile_probability=drop, drop_flush_probability=drop, rng=seed
    )
    return execute(sched, mem)


def _prefix_replays_clean(trace, before) -> bool:
    """The trace's events before node ``before`` trip no violation."""
    comp = trace.comp
    observed = {e.node: e.observed for e in trace.reads}
    order = trace.schedule.execution_order()
    verifier = StreamingLCVerifier()
    for u in order[: order.index(before)]:
        if verifier.on_node(
            u, comp.op(u), comp.dag.predecessors(u), observed.get(u)
        ):
            return False
    return True


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Streams a long healthy trace (fib(10) quick / fib(13) full) through
    the streaming verifier and the batch checker, then localizes faults
    across a drop-injected campaign (5 seeds quick / 25 full).
    """
    import time

    n = 10 if quick else 13
    comp = fib_computation(n)[0]
    trace = make_trace(comp, 8, seed=1)

    t0 = time.perf_counter()
    violation = StreamingLCVerifier.check_trace(trace)
    stream_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    batch_ok = trace_admits_lc(trace.partial_observer())
    batch_seconds = time.perf_counter() - t0
    if check:
        assert violation is None and batch_ok

    racy = racy_counter_computation(6, 4)[0]
    seeds = 5 if quick else 25
    hits = 0
    t0 = time.perf_counter()
    for seed in range(seeds):
        faulty = make_trace(racy, 4, seed=seed, drop=0.9)
        v = StreamingLCVerifier.check_trace(faulty)
        if check:
            assert (v is None) == trace_admits_lc(faulty.partial_observer())
        if v is not None:
            hits += 1
            if check:
                assert _prefix_replays_clean(faulty, v.node)
    localize_seconds = time.perf_counter() - t0
    if check:
        assert hits > 0, "drop=0.9 campaign produced no violations"

    return {
        "events": comp.num_nodes,
        "stream_seconds": round(stream_seconds, 6),
        "batch_seconds": round(batch_seconds, 6),
        "localize_seconds": round(localize_seconds, 6),
        "faults_flagged": hits,
        "fault_seeds": seeds,
    }
