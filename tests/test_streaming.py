"""The streaming LC verifier: one incremental engine, post-mortem and live.

Four properties anchor the module:

* its verdict agrees with the batch ``trace_admits_lc`` on every trace,
  faulty or faithful, whether it replays a completed trace or rides
  inside the executor as a sanitizer;
* a violation is localized: the execution before the reported event
  replays clean, and the live run stops at the same event;
* every violation carries a minimal witness of trace node ids ending
  with the violating node;
* ``keep_going`` reports every violating event, the first of them being
  exactly the halting verdict; a faithful memory never trips it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import N, R, W
from repro.lang import (
    racy_counter_computation,
    stencil_computation,
    store_buffer_computation,
)
from repro.runtime import (
    BackerMemory,
    SerialMemory,
    execute,
    work_stealing_schedule,
)
from repro.verify import (
    StreamingLCVerifier,
    find_races,
    racy_locations,
    trace_admits_lc,
)
from tests.conftest import computations


def _run(comp, drop, seed, sanitizer=None):
    sched = work_stealing_schedule(comp, 4, rng=seed)
    mem = BackerMemory(
        drop_reconcile_probability=drop,
        drop_flush_probability=drop,
        rng=seed,
    )
    return execute(sched, mem, sanitizer=sanitizer)


def _replays_clean(trace, before):
    """The trace's events before node ``before`` trip no violation."""
    comp = trace.comp
    observed = {e.node: e.observed for e in trace.reads}
    order = trace.schedule.execution_order()
    v = StreamingLCVerifier()
    for u in order[: order.index(before)]:
        if v.on_node(u, comp.op(u), comp.dag.predecessors(u), observed.get(u)):
            return False
    return True


class TestEventInterface:
    def test_empty_consistent(self):
        v = StreamingLCVerifier()
        assert v.consistent_so_far

    def test_simple_chain_ok(self):
        v = StreamingLCVerifier()
        assert v.on_node(0, W("x"), []) is None
        assert v.on_node(1, R("x"), [0], observed=0) is None
        assert v.consistent_so_far

    def test_stale_bottom_detected(self):
        v = StreamingLCVerifier()
        v.on_node(0, W("x"), [])
        violation = v.on_node(1, R("x"), [0], observed=None)
        assert violation is not None
        assert violation.loc == "x"
        assert "⊥" in violation.reason

    def test_stale_read_detected(self):
        # W0 -> W1 -> R(observes W0): serialization cycle.
        v = StreamingLCVerifier()
        v.on_node(0, W("x"), [])
        v.on_node(1, W("x"), [0])
        violation = v.on_node(2, R("x"), [1], observed=0)
        assert violation is not None
        assert "cycle" in violation.reason

    def test_cross_observation_detected(self):
        # Figure 4's shape, streamed.
        v = StreamingLCVerifier()
        v.on_node(0, W("x"), [])
        v.on_node(1, W("x"), [])
        assert v.on_node(2, R("x"), [0], observed=1) is None  # sees other
        violation = v.on_node(3, R("x"), [1], observed=0)  # cycle
        assert violation is not None

    def test_violation_latches(self):
        v = StreamingLCVerifier()
        v.on_node(0, W("x"), [])
        first = v.on_node(1, R("x"), [0], observed=None)
        later = v.on_node(2, N, [])
        assert later is first
        assert v.events == 2  # a halted verifier ignores later events

    def test_nops_unconstrained(self):
        v = StreamingLCVerifier()
        v.on_node(0, W("x"), [])
        v.on_node(1, N, [0])
        assert v.on_node(2, R("x"), [1], observed=0) is None

    def test_independent_locations(self):
        v = StreamingLCVerifier()
        v.on_node(0, W("x"), [])
        v.on_node(1, W("y"), [0])
        assert v.on_node(2, R("y"), [1], observed=1) is None
        # ⊥ read of x after the x-write: violation at x, not y.
        violation = v.on_node(3, R("x"), [2], observed=None)
        assert violation is not None and violation.loc == "x"


class TestTraceAgreement:
    @given(computations(max_nodes=8), st.integers(1, 4), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_matches_batch_on_faithful_backer(self, comp, procs, seed):
        sched = work_stealing_schedule(comp, procs, rng=seed)
        trace = execute(sched, BackerMemory())
        assert StreamingLCVerifier.check_trace(trace) is None
        assert trace_admits_lc(trace.partial_observer())

    @given(computations(max_nodes=8), st.integers(2, 4), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_matches_batch_on_faulty_backer(self, comp, procs, seed):
        sched = work_stealing_schedule(comp, procs, rng=seed)
        mem = BackerMemory(
            drop_reconcile_probability=0.7,
            drop_flush_probability=0.7,
            rng=seed,
        )
        trace = execute(sched, mem)
        streaming = StreamingLCVerifier.check_trace(trace)
        batch = trace_admits_lc(trace.partial_observer())
        assert (streaming is None) == batch

    def test_localizes_violating_node(self):
        """The reported node really is a witness: the trace truncated
        just before it is still LC."""
        comp = racy_counter_computation(4, 3)[0]
        found = False
        for seed in range(40):
            sched = work_stealing_schedule(comp, 4, rng=seed)
            mem = BackerMemory(
                drop_reconcile_probability=0.9,
                drop_flush_probability=0.9,
                rng=seed,
            )
            trace = execute(sched, mem)
            violation = StreamingLCVerifier.check_trace(trace)
            if violation is None:
                continue
            found = True
            assert _replays_clean(trace, violation.node)
        assert found

    def test_serial_memory_never_flagged(self):
        comp = store_buffer_computation()[0]
        for seed in range(5):
            sched = work_stealing_schedule(comp, 2, rng=seed)
            trace = execute(sched, SerialMemory())
            assert StreamingLCVerifier.check_trace(trace) is None


class TestWitnessIds:
    """Witnesses name trace node ids: the engine works on them
    directly, whatever the execution order."""

    def _violating_trace(self):
        # Execution order ≠ node ids: node 2 runs first, then 0, then 1.
        # Node 1 reads x observing node 2's write while node 0's write
        # sits between them in the dag — a serialization cycle between
        # the blocks of writes 0 and 2.
        from repro.core import Computation
        from repro.dag import Dag
        from repro.runtime import ExecutionTrace, ReadEvent
        from repro.runtime.scheduler import Schedule

        comp = Computation(
            Dag(3, [(2, 0), (0, 1)]), (W("x"), R("x"), W("x"))
        )
        sched = Schedule(comp, (0, 0, 0), (1, 2, 0), 1)
        assert sched.execution_order() == [2, 0, 1]
        return ExecutionTrace(
            comp, sched, "hand-built", [ReadEvent(1, "x", 2)]
        )

    def test_cycle_witness_blocks_are_trace_node_ids(self):
        violation = StreamingLCVerifier.check_trace(self._violating_trace())
        assert violation is not None
        assert violation.node == 1  # the read, in trace ids
        # Structured block ids are writer *trace* ids (feed-order ids
        # would have been 1 and 0 here).
        assert violation.blocks == (0, 2)
        assert violation.observed == 2
        assert violation.event_index == 2
        # Node 0's write added the edge 2 → 0; the read closes 0 → 2.
        assert violation.witness == (0, 1)
        assert "write 0" in violation.reason
        assert "write 2" in violation.reason
        assert "1" not in violation.reason.replace(
            "write 0", ""
        ).replace("write 2", "")

    def test_bottom_witness_carries_none_block(self):
        v = StreamingLCVerifier()
        v.on_node(7, W("x"), [])
        v.on_node(8, W("x"), [7])
        # Both writes precede the ⊥ read; the earliest-fed one is named.
        violation = v.on_node(9, R("x"), [8], observed=None)
        assert violation is not None
        assert violation.node == 9
        assert violation.blocks == (7, None)
        assert violation.observed is None
        assert violation.witness == (7, 9)
        assert "write 7" in violation.reason
        assert "⊥" in violation.reason


class TestFaultInjection:
    def test_total_fault_flagged_at_first_bad_read(self):
        comp, _ = racy_counter_computation(4, 3)
        flagged = 0
        for seed in range(20):
            trace = _run(comp, 1.0, seed, sanitizer=StreamingLCVerifier())
            if trace.violation is None:
                continue
            flagged += 1
            v = trace.violation
            # Halting sanitizer: the run stops at the violating event,
            # so the last recorded read IS the flagged one.
            assert trace.reads[-1].node == v.node
            assert v.witness[-1] == v.node
            assert all(0 <= w < comp.num_nodes for w in v.witness)
            # The prefix up to (excluding) the violation was consistent.
            assert _replays_clean(trace, v.node)
        assert flagged >= 10, "total fault injection must usually trip"

    def test_faithful_backer_never_flagged(self):
        for comp, _ in (
            racy_counter_computation(4, 3),
            stencil_computation(6, 3),
        ):
            for seed in range(10):
                san = StreamingLCVerifier()
                trace = _run(comp, 0.0, seed, sanitizer=san)
                assert trace.violation is None
                assert san.consistent_so_far
                assert san.events == comp.num_nodes

    def test_serial_memory_never_flagged(self):
        comp, _ = racy_counter_computation(4, 2)
        sched = work_stealing_schedule(comp, 2, rng=0)
        trace = execute(
            sched, SerialMemory(), sanitizer=StreamingLCVerifier()
        )
        assert trace.violation is None


class TestAgreement:
    def test_fault_battery_matches_batch_checker(self):
        """Same verdict as the batch checker on 180 traces."""
        workloads = [
            racy_counter_computation(4, 3)[0],
            stencil_computation(6, 3)[0],
        ]
        flagged = 0
        for comp in workloads:
            for drop in (0.0, 0.5, 1.0):
                for seed in range(30):
                    trace = _run(comp, drop, seed)
                    batch_ok = trace_admits_lc(trace.partial_observer())
                    v = StreamingLCVerifier.check_trace(trace)
                    assert (v is None) == batch_ok
                    if v is not None:
                        flagged += 1
        assert flagged >= 40

    def test_keep_going_agrees_on_fault_battery(self):
        """Keep-going collection on the same 180 traces.

        No violation collected ⇔ LC, and the first collected violation
        is the halting one.  A faithful memory (drop 0) trips nothing.
        Per workload, the all-pairs sweep and the location mask test
        name the same racy locations.
        """
        workloads = [
            racy_counter_computation(4, 3),
            stencil_computation(6, 3),
        ]
        flagged = 0
        for comp, info in workloads:
            assert {r.loc for r in find_races(comp)} == set(
                racy_locations(comp)
            )
            for drop in (0.0, 0.5, 1.0):
                for seed in range(30):
                    trace = _run(comp, drop, seed)
                    batch_ok = trace_admits_lc(trace.partial_observer())
                    v = StreamingLCVerifier.check_trace(trace)
                    violations = StreamingLCVerifier.collect_violations(trace)
                    assert (not violations) == batch_ok
                    if v is not None:
                        flagged += 1
                        first = violations[0]
                        assert (first.node, first.loc, first.event_index) == (
                            v.node,
                            v.loc,
                            v.event_index,
                        )
                    else:
                        assert not violations
                    if drop == 0.0:
                        assert not violations
        assert flagged >= 40

    def test_halting_run_matches_post_mortem_event(self):
        comp, _ = racy_counter_computation(4, 3)
        for seed in range(10):
            full = _run(comp, 0.7, seed)
            post = StreamingLCVerifier.check_trace(full)
            live = _run(comp, 0.7, seed, sanitizer=StreamingLCVerifier())
            if post is None:
                assert live.violation is None
            else:
                assert live.violation == post


class TestViolationShape:
    def test_latches_first_violation(self):
        comp, _ = racy_counter_computation(4, 3)
        san = StreamingLCVerifier(keep_going=True)
        trace = _run(comp, 1.0, 1, sanitizer=san)
        assert trace.violation is not None
        # Keep-going: execution ran to completion but the violation
        # stayed latched at the first event.
        assert san.violation is trace.violation is san.violations[0]
        assert len(trace.reads) == sum(
            1 for u in comp.nodes() if comp.op(u).is_read
        )

    def test_witness_is_contradictory_chain(self):
        comp, _ = racy_counter_computation(4, 3)
        for seed in range(20):
            v = StreamingLCVerifier.check_trace(_run(comp, 0.8, seed))
            if v is None:
                continue
            assert v.node == v.witness[-1]
            assert len(v.witness) >= 2
            assert len(set(v.witness)) == len(v.witness)
            assert v.reason


class TestKeepGoing:
    """``keep_going`` mode: every violating event reported, each with
    its own minimal witness, first one matching the halting verdict."""

    def test_collects_all_violations(self):
        comp, _ = racy_counter_computation(4, 3)
        total = 0
        for seed in range(20):
            trace = _run(comp, 1.0, seed)
            violations = StreamingLCVerifier.collect_violations(trace)
            first = StreamingLCVerifier.check_trace(trace)
            if first is None:
                assert violations == []
                continue
            total += len(violations)
            assert violations[0] == first
            # One violation per event, in event order, each witnessed.
            indices = [v.event_index for v in violations]
            assert indices == sorted(indices)
            assert len(set(indices)) == len(indices)
            for v in violations:
                assert v.witness[-1] == v.node
                assert all(0 <= w < comp.num_nodes for w in v.witness)
                assert v.reason
        assert total >= 20, "total fault injection must violate repeatedly"

    @given(computations(max_nodes=8), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_first_collected_is_the_halting_violation(self, comp, seed):
        trace = _run(comp, 0.7, seed)
        first = StreamingLCVerifier.check_trace(trace)
        violations = StreamingLCVerifier.collect_violations(trace)
        if first is None:
            assert violations == []
            return
        head = violations[0]
        assert (
            head.node,
            head.loc,
            head.event_index,
            head.witness,
            head.reason,
        ) == (
            first.node,
            first.loc,
            first.event_index,
            first.witness,
            first.reason,
        )

    def test_rejected_edge_does_not_cascade(self):
        # Node 2's stale read would add the edge 1 → 0 against 0 → 1;
        # had it gone in, node 4's consistent edge 3 → 1 would close
        # 1 → 0 → 3 → 1 and be reported too.
        v = StreamingLCVerifier(keep_going=True)
        v.on_node(0, W("x"), [])
        v.on_node(1, W("x"), [0])
        v.on_node(2, R("x"), [1], observed=0)
        v.on_node(3, W("x"), [0])
        v.on_node(4, R("x"), [3], observed=1)
        assert [x.node for x in v.violations] == [2]

    def test_halts_unless_keep_going(self):
        comp, _ = racy_counter_computation(4, 3)
        reads = sum(1 for u in comp.nodes() if comp.op(u).is_read)
        halting = _run(comp, 1.0, 1, sanitizer=StreamingLCVerifier())
        assert halting.violation is not None
        assert len(halting.reads) < reads
        kept = _run(
            comp, 1.0, 1, sanitizer=StreamingLCVerifier(keep_going=True)
        )
        assert len(kept.reads) == reads

    def test_keep_going_live_matches_replay(self):
        comp, _ = racy_counter_computation(4, 3)
        for seed in range(10):
            san = StreamingLCVerifier(keep_going=True)
            trace = _run(comp, 1.0, seed, sanitizer=san)
            replayed = StreamingLCVerifier.collect_violations(trace)
            assert [
                (v.node, v.loc, v.event_index) for v in san.violations
            ] == [
                (v.node, v.loc, v.event_index) for v in replayed
            ]

    def test_clean_trace_collects_nothing(self):
        comp, _ = racy_counter_computation(4, 2)
        for seed in range(5):
            trace = _run(comp, 0.0, seed)
            assert StreamingLCVerifier.collect_violations(trace) == []
