"""Checker scaling: membership cost vs. computation size.

Not a figure of the paper, but the claim implicit throughout Sections
4–6: LC membership and dag-consistency membership are tractable (our
block/fiber algorithms are polynomial), while SC verification needs
search.  This bench measures the polynomial checkers on computations
three orders of magnitude beyond the universes used for the theorems —
the scale a practical post-mortem verifier must handle.
"""

from repro.core import last_writer_function
from repro.lang import fib_computation, stencil_computation
from repro.models import LC
from repro.runtime import BackerMemory, execute, work_stealing_schedule
from repro.verify import trace_admits_lc

SIZES = {
    "fib(10)": fib_computation(10)[0],
    "fib(13)": fib_computation(13)[0],
    "stencil-16x8": stencil_computation(16, 8)[0],
}


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Times the polynomial checkers (LC membership and post-mortem trace
    verification) on the larger bundled computations.  Quick mode uses
    fib(10) only; full mode adds fib(13) and the 16×8 stencil.
    """
    import time

    names = ["fib(10)"] if quick else sorted(SIZES)
    lc_seconds = trace_seconds = 0.0
    nodes = constraints = 0
    for name in names:
        comp = SIZES[name]
        nodes += comp.num_nodes
        phi = last_writer_function(comp, comp.dag.topological_order)
        t0 = time.perf_counter()
        ok = LC.contains(comp, phi)
        lc_seconds += time.perf_counter() - t0
        if check:
            assert ok, f"{name}: last-writer observer must be in LC"
        sched = work_stealing_schedule(comp, 8, rng=1)
        trace = execute(sched, BackerMemory())
        po = trace.partial_observer()
        constraints += po.num_constraints()
        t0 = time.perf_counter()
        ok = trace_admits_lc(po)
        trace_seconds += time.perf_counter() - t0
        if check:
            assert ok, f"{name}: BACKER trace must verify against LC"
    return {
        "lc_membership_seconds": round(lc_seconds, 4),
        "trace_verify_seconds": round(trace_seconds, 4),
        "nodes": nodes,
        "trace_constraints": constraints,
    }
