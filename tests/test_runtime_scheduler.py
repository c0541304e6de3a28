"""Tests for the greedy and work-stealing schedulers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Computation, N
from repro.dag import Dag, chain_dag, fork_join_dag
from repro.errors import ScheduleError
from repro.runtime import (
    Schedule,
    greedy_schedule,
    serial_schedule,
    work_stealing_schedule,
)
from tests.conftest import computations


def nop_computation(dag: Dag) -> Computation:
    return Computation(dag, (N,) * dag.num_nodes)


class TestScheduleValidation:
    def test_precedence_violation_rejected(self):
        comp = nop_computation(Dag(2, [(0, 1)]))
        with pytest.raises(ScheduleError):
            Schedule(comp, (0, 0), (0, 0), 1)  # both at t=0 on same proc

    def test_processor_collision_rejected(self):
        comp = nop_computation(Dag(2))
        with pytest.raises(ScheduleError):
            Schedule(comp, (0, 0), (0, 0), 1)

    def test_wrong_lengths_rejected(self):
        comp = nop_computation(Dag(2))
        with pytest.raises(ScheduleError):
            Schedule(comp, (0,), (0,), 1)

    def test_valid_schedule(self):
        comp = nop_computation(Dag(2, [(0, 1)]))
        s = Schedule(comp, (0, 0), (0, 1), 1)
        assert s.makespan == 2


class TestSerialSchedule:
    def test_one_processor(self):
        comp = nop_computation(fork_join_dag(2))
        s = serial_schedule(comp)
        assert s.num_procs == 1
        assert s.makespan == comp.num_nodes

    def test_empty(self):
        comp = nop_computation(Dag(0))
        assert serial_schedule(comp).makespan == 0


class TestGreedy:
    def test_requires_processor(self):
        with pytest.raises(ScheduleError):
            greedy_schedule(nop_computation(Dag(1)), 0)

    def test_chain_ignores_extra_procs(self):
        comp = nop_computation(chain_dag(6))
        s = greedy_schedule(comp, 4, rng=0)
        assert s.makespan == 6  # critical path dominates

    def test_parallel_speedup(self):
        comp = nop_computation(Dag(8))
        s = greedy_schedule(comp, 4, rng=0)
        assert s.makespan == 2  # 8 independent nodes on 4 procs

    def test_graham_bound(self):
        """Greedy is within T1/P + T_inf of optimal (classic bound)."""
        comp = nop_computation(fork_join_dag(4))
        t1 = comp.num_nodes
        # Critical path length of the fork/join skeleton:
        tinf = 1 + max(
            (len(list(comp.dag.ancestors(u))) for u in comp.nodes()),
            default=0,
        )
        for p in (1, 2, 4, 8):
            s = greedy_schedule(comp, p, rng=1)
            assert s.makespan <= t1 / p + tinf

    @given(computations(max_nodes=6))
    @settings(max_examples=40, deadline=None)
    def test_always_valid(self, comp):
        for p in (1, 3):
            greedy_schedule(comp, p, rng=0)  # Schedule validates on init


class TestWorkStealing:
    def test_requires_processor(self):
        with pytest.raises(ScheduleError):
            work_stealing_schedule(nop_computation(Dag(1)), 0)

    @given(computations(max_nodes=6))
    @settings(max_examples=40, deadline=None)
    def test_always_valid(self, comp):
        for p in (1, 2, 4):
            work_stealing_schedule(comp, p, rng=3)

    def test_deterministic_by_seed(self):
        comp = nop_computation(fork_join_dag(3))
        a = work_stealing_schedule(comp, 4, rng=9)
        b = work_stealing_schedule(comp, 4, rng=9)
        assert a.proc_of == b.proc_of and a.start_of == b.start_of

    def test_seed_variation_spreads_work(self):
        comp = nop_computation(fork_join_dag(4))
        placements = {
            work_stealing_schedule(comp, 4, rng=s).proc_of for s in range(5)
        }
        assert len(placements) > 1

    def test_single_proc_serializes(self):
        comp = nop_computation(fork_join_dag(3))
        s = work_stealing_schedule(comp, 1, rng=0)
        assert s.makespan == comp.num_nodes
        assert set(s.proc_of) == {0}

    def test_steals_happen(self):
        comp = nop_computation(Dag(8))
        s = work_stealing_schedule(comp, 4, rng=2)
        assert len(set(s.proc_of)) > 1  # someone stole from proc 0


class TestScheduleQueries:
    def test_execution_order_valid(self):
        comp = nop_computation(fork_join_dag(3))
        s = greedy_schedule(comp, 2, rng=0)
        order = s.execution_order()
        pos = {u: i for i, u in enumerate(order)}
        for (u, v) in comp.dag.edges:
            assert pos[u] < pos[v]

    def test_nodes_on(self):
        comp = nop_computation(Dag(4))
        s = greedy_schedule(comp, 2, rng=0)
        all_nodes = sorted(
            n for p in range(s.num_procs) for n in s.nodes_on(p)
        )
        assert all_nodes == [0, 1, 2, 3]


class TestSchedulePlan:
    """The order and cross-processor flags a schedule computes once
    equal their definitions, recomputed naively."""

    @given(
        computations(max_nodes=10, locations=("x", "y")),
        st.integers(1, 4),
        st.integers(0, 10**6),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_plan_matches_naive_definitions(self, comp, procs, seed, steal):
        make = work_stealing_schedule if steal else greedy_schedule
        s = make(comp, procs, rng=seed)
        proc_of, start_of = s.proc_of, s.start_of
        naive = sorted(comp.nodes(), key=lambda u: (start_of[u], proc_of[u]))
        assert list(s.order) == naive == s.execution_order()
        cross_pred, cross_succ = s.cross_flags
        assert list(cross_pred) == [
            any(proc_of[u] != proc_of[v] for u in comp.dag.predecessors(v))
            for v in comp.nodes()
        ]
        assert list(cross_succ) == [
            any(proc_of[u] != proc_of[v] for v in comp.dag.successors(u))
            for u in comp.nodes()
        ]
        for p in range(s.num_procs):
            assert s.nodes_on(p) == sorted(
                (u for u in comp.nodes() if proc_of[u] == p),
                key=lambda u: start_of[u],
            )

    def test_processor_ids_need_not_be_dense(self):
        # Loaded traces may name processors outside range(num_procs).
        comp = nop_computation(Dag(3, [(0, 2)]))
        s = Schedule(comp, (7, 2, 7), (0, 0, 1), 2)
        assert s.order == (1, 0, 2)
        assert s.cross_flags == ((False, False, False), (False, False, False))

    def test_plan_is_computed_once(self):
        comp = nop_computation(fork_join_dag(3))
        s = work_stealing_schedule(comp, 2, rng=1)
        assert s.order is s.order
        assert s.cross_flags is s.cross_flags
        assert comp.dag.predecessor_tuples is comp.dag.predecessor_tuples
