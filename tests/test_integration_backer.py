"""Integration tests: program → schedule → memory → trace → verifier.

The end-to-end statement under test is the paper's §7 payoff: BACKER
maintains location consistency (Luchangco 1997), which Theorem 23
identifies with NN*.  Every workload, scheduler, processor count and
seed must produce an LC-verifiable trace under the faithful protocol;
the serialized memory must additionally be SC; and fault injection must
produce violations that the verifier catches (never false positives at
drop probability zero).
"""

import pytest

from repro.lang import (
    fib_computation,
    iriw_computation,
    matmul_computation,
    racy_counter_computation,
    scan_computation,
    stencil_computation,
    store_buffer_computation,
    tree_sum_computation,
)
from repro.runtime import (
    BackerMemory,
    SerialMemory,
    execute,
    greedy_schedule,
    serial_schedule,
    work_stealing_schedule,
)
from repro.verify import lc_completion, trace_admits_lc, trace_admits_sc

WORKLOADS = [
    ("fib", lambda: fib_computation(6)[0]),
    ("matmul", lambda: matmul_computation(2)[0]),
    ("scan", lambda: scan_computation(4)[0]),
    ("stencil", lambda: stencil_computation(4, 2)[0]),
    ("tree_sum", lambda: tree_sum_computation(8)[0]),
    ("racy", lambda: racy_counter_computation(3, 2)[0]),
    ("sb", lambda: store_buffer_computation()[0]),
    ("iriw", lambda: iriw_computation()[0]),
]


@pytest.mark.parametrize("name,factory", WORKLOADS)
@pytest.mark.parametrize("procs", [1, 2, 4])
def test_backer_always_lc(name, factory, procs):
    comp = factory()
    for seed in range(3):
        sched = work_stealing_schedule(comp, procs, rng=seed)
        trace = execute(sched, BackerMemory())
        po = trace.partial_observer()
        assert trace_admits_lc(po), (name, procs, seed)
        # And the completion certificate is a genuine LC member.
        phi = lc_completion(po)
        assert phi is not None


@pytest.mark.parametrize("name,factory", WORKLOADS)
def test_serial_memory_always_sc(name, factory):
    comp = factory()
    sched = greedy_schedule(comp, 3, rng=1)
    trace = execute(sched, SerialMemory())
    assert trace_admits_sc(trace.partial_observer()) is not None, name


@pytest.mark.parametrize("name,factory", WORKLOADS)
def test_single_processor_backer_is_sc(name, factory):
    """With one processor there are no cross edges: BACKER degenerates to
    a single cache, and every trace is sequentially consistent."""
    comp = factory()
    trace = execute(serial_schedule(comp), BackerMemory())
    assert trace_admits_sc(trace.partial_observer()) is not None, name


def test_backer_spontaneous_reconciles_still_lc():
    comp = racy_counter_computation(4, 2)[0]
    for seed in range(5):
        sched = work_stealing_schedule(comp, 4, rng=seed)
        mem = BackerMemory(spontaneous_reconcile_probability=0.7, rng=seed)
        trace = execute(sched, mem)
        assert trace_admits_lc(trace.partial_observer())


def test_store_buffer_weak_behaviour_reachable_and_lc():
    comp = store_buffer_computation()[0]
    weak_seen = False
    for seed in range(10):
        sched = work_stealing_schedule(comp, 2, rng=seed)
        trace = execute(sched, BackerMemory())
        po = trace.partial_observer()
        assert trace_admits_lc(po)
        if trace_admits_sc(po) is None:
            weak_seen = True
    assert weak_seen, "SB under BACKER should exhibit non-SC outcomes"


def test_fault_injection_caught_often():
    comp = racy_counter_computation(4, 3)[0]
    violations = 0
    runs = 30
    for seed in range(runs):
        sched = work_stealing_schedule(comp, 4, rng=seed)
        mem = BackerMemory(
            drop_reconcile_probability=0.9,
            drop_flush_probability=0.9,
            rng=seed,
        )
        trace = execute(sched, mem)
        if not trace_admits_lc(trace.partial_observer()):
            violations += 1
    assert violations > runs // 3


def test_no_false_positives_at_zero_drop():
    comp = stencil_computation(4, 2)[0]
    for seed in range(10):
        sched = work_stealing_schedule(comp, 4, rng=seed)
        mem = BackerMemory(
            drop_reconcile_probability=0.0, drop_flush_probability=0.0, rng=seed
        )
        trace = execute(sched, mem)
        assert trace_admits_lc(trace.partial_observer())


def _verdicts_and_reads_from(comp):
    verdicts = set()
    reads_from = set()
    for procs in (1, 2, 4, 8):
        for seed in range(3):
            for schedule in (work_stealing_schedule, greedy_schedule):
                trace = execute(schedule(comp, procs, rng=seed), BackerMemory())
                verdicts.add(trace_admits_lc(trace.partial_observer()))
                reads_from.add(
                    frozenset((e.node, e.loc, e.observed) for e in trace.reads)
                )
    return verdicts, reads_from


def test_schedule_independence_of_verdicts():
    """The paper's thesis: semantics attach to the computation, not the
    schedule.  A dataflow-correct program's reads-from relation — hence
    its verification verdict — is schedule-invariant under BACKER when
    every read is dataflow-determined (single writer per location).  A
    racy program's reads-from varies with the schedule, but its LC
    verdict does not."""
    verdicts, reads_from = _verdicts_and_reads_from(tree_sum_computation(16)[0])
    assert verdicts == {True}
    assert len(reads_from) == 1  # deterministic dataflow program
    verdicts, reads_from = _verdicts_and_reads_from(
        racy_counter_computation(4, 2)[0]
    )
    assert verdicts == {True}
    assert len(reads_from) > 1  # the race is real; the guarantee holds
