"""Tests for the event-driven timed simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Computation, N
from repro.dag import Dag, chain_dag, fork_join_dag
from repro.dag.metrics import span, work
from repro.errors import ScheduleError
from repro.runtime import SerialMemory, simulate_timed
from repro.verify import trace_admits_lc
from tests.conftest import computations


def nops(dag: Dag) -> Computation:
    return Computation(dag, (N,) * dag.num_nodes)


class TestBasics:
    def test_empty(self):
        res = simulate_timed(nops(Dag(0)), 2)
        assert res.makespan == 0.0

    def test_requires_processor(self):
        with pytest.raises(ScheduleError):
            simulate_timed(nops(Dag(1)), 0)

    def test_unit_cost_chain(self):
        res = simulate_timed(nops(chain_dag(5)), 2, miss_cost=0, rng=0)
        assert res.makespan == 5.0

    def test_unit_cost_parallel(self):
        res = simulate_timed(nops(Dag(8)), 4, miss_cost=0, rng=0)
        assert res.makespan <= 8.0
        assert res.makespan >= 2.0

    def test_precedence_validated(self):
        comp = nops(fork_join_dag(3))
        res = simulate_timed(comp, 4, rng=1)
        res.validate()  # must not raise
        for (u, v) in comp.dag.edges:
            assert res.start_of[v] >= res.finish_of[u]

    def test_all_nodes_executed(self):
        comp = nops(fork_join_dag(2))
        res = simulate_timed(comp, 3, rng=2)
        assert all(f > 0 for f in res.finish_of)


class TestCostModel:
    def test_zero_miss_cost_bounds(self):
        comp = nops(fork_join_dag(3))
        t1, tinf = work(comp.dag), span(comp.dag)
        for p in (1, 2, 4):
            res = simulate_timed(comp, p, miss_cost=0, rng=0)
            assert res.makespan >= max(tinf, t1 / p)

    def test_free_communication_speeds_up(self):
        """m = 0: at least 2× on 8 processors, the work-stealing regime
        of the Cilk bounds that [BFJ+96b]'s curves start from."""
        from repro.lang import fib_computation, stencil_computation

        for comp in (fib_computation(10)[0], stencil_computation(8, 4)[0]):
            t1 = simulate_timed(comp, 1, miss_cost=0, rng=1).makespan
            assert t1 == work(comp.dag)
            assert simulate_timed(comp, 8, miss_cost=0, rng=8).makespan < t1 / 2

    def test_lazy_protocol_never_loses_timed_race(self):
        """BACKER against the eager MSI directory with time-priced
        transfers: under true sharing lazy LC is never slower."""
        from repro.lang import racy_counter_computation
        from repro.runtime import DirectoryMemory

        comp = racy_counter_computation(4, 3)[0]
        for m in (2, 8):
            backer = simulate_timed(comp, 4, miss_cost=m, rng=1).makespan
            directory = simulate_timed(
                comp, 4, memory=DirectoryMemory(), miss_cost=m, rng=1
            ).makespan
            assert backer <= directory, m

    def test_single_processor_pays_no_protocol(self):
        from repro.lang import fib_computation

        comp = fib_computation(7)[0]
        res0 = simulate_timed(comp, 1, miss_cost=0, rng=0)
        res8 = simulate_timed(comp, 1, miss_cost=8, rng=0)
        assert res0.makespan == res8.makespan == comp.num_nodes

    def test_miss_cost_monotone(self):
        from repro.lang import fib_computation

        comp = fib_computation(7)[0]
        spans = [
            simulate_timed(comp, 4, miss_cost=m, rng=3).makespan
            for m in (0, 2, 8)
        ]
        assert spans[0] <= spans[1] <= spans[2]

    def test_steals_counted(self):
        comp = nops(Dag(12))
        res = simulate_timed(comp, 4, rng=0)
        assert res.steals > 0  # everything starts on proc 0


class TestCorrectness:
    @given(computations(max_nodes=8), st.integers(1, 4), st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_backer_timed_always_lc(self, comp, procs, seed):
        res = simulate_timed(comp, procs, miss_cost=3, rng=seed)
        assert trace_admits_lc(res.partial_observer())

    def test_workloads_lc(self):
        from repro.lang import matmul_computation, racy_counter_computation

        for comp in (
            matmul_computation(2)[0],
            racy_counter_computation(3, 2)[0],
        ):
            for p in (2, 4):
                res = simulate_timed(comp, p, miss_cost=5, rng=p)
                assert trace_admits_lc(res.partial_observer())

    def test_serial_memory_also_works(self):
        from repro.verify import trace_admits_sc

        comp = nops(fork_join_dag(2))
        res = simulate_timed(comp, 2, memory=SerialMemory(), rng=0)
        assert trace_admits_sc(res.partial_observer()) is not None

    def test_deterministic_by_seed(self):
        from repro.lang import fib_computation

        comp = fib_computation(6)[0]
        a = simulate_timed(comp, 4, rng=11)
        b = simulate_timed(comp, 4, rng=11)
        assert a.makespan == b.makespan
        assert a.proc_of == b.proc_of


class TestObsWiring:
    """simulate_timed reports spans, counters and the node-latency
    histogram so all four memory backends observe on identical terms."""

    def _clean(self):
        from repro import obs

        obs.disable()
        obs.reset()

    def test_span_counters_and_histogram(self):
        from repro import obs
        from repro.lang import fib_computation

        self._clean()
        obs.enable()
        try:
            comp = fib_computation(6)[0]
            res = simulate_timed(comp, 3, miss_cost=2, rng=1)
            o = obs.get()
            assert o.counters.get("timed.runs") == 1
            assert o.counters.get("timed.nodes") == comp.num_nodes
            hist = o.histograms.get("timed.node_latency")
            assert hist is not None
            assert hist.count == comp.num_nodes
            assert o.gauges.get("timed.makespan") == res.makespan
            roots = [sp.name for sp in o.roots]
            assert "timed.simulate" in roots
            sim = next(sp for sp in o.roots if sp.name == "timed.simulate")
            assert sim.attrs["makespan"] == res.makespan
            assert "steals" in sim.attrs
        finally:
            self._clean()

    def test_memory_backend_publishes_through_timed(self):
        from repro import obs
        from repro.lang import fib_computation
        from repro.runtime import HierarchicalBackerMemory

        self._clean()
        obs.enable()
        try:
            comp = fib_computation(6)[0]
            mem = HierarchicalBackerMemory("l1")
            simulate_timed(comp, 3, memory=mem, miss_cost=2, rng=1)
            counters = obs.get().counters
            assert counters.get("hier.L1.fetches") == mem.stats.levels[0].fetches
        finally:
            self._clean()

    def test_disabled_leaves_no_state(self):
        from repro import obs
        from repro.lang import fib_computation

        self._clean()
        comp = fib_computation(5)[0]
        simulate_timed(comp, 2, rng=0)
        assert obs.get().counters == {}
        assert obs.get().roots == []
