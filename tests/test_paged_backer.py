"""Tests for page-granular BACKER (false sharing, the clobber fault, diff).

Page-granular BACKER is a one-level :class:`HierarchicalBackerMemory`
whose lines are pages (``LevelConfig(capacity=None, line_size=P)``).
The faithful protocol writes back only the dirty words of a page (the
twin/diff fix); the ``clobber_probability`` fault writes back the whole
cached page, which loses concurrent disjoint updates and breaks LC.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Computation
from repro.lang import matmul_computation, tree_sum_computation
from repro.runtime import (
    BackerMemory,
    HIERARCHY_PRESETS,
    HierarchicalBackerMemory,
    HierarchyConfig,
    LevelConfig,
    execute,
    simulate_timed,
    work_stealing_schedule,
)
from repro.verify import trace_admits_lc
from repro.verify.streaming import StreamingLCVerifier
from tests.conftest import computations

ONE_PAGE = HierarchyConfig(
    levels=(LevelConfig(capacity=None, line_size=64),), name="one-page"
)


def _paged(comp: Computation, pages: int) -> HierarchyConfig:
    """One unbounded level whose lines split ``comp``'s locations into
    ``pages`` pages: page-granular BACKER."""
    line_size = max(1, math.ceil(len(comp.locations) / pages))
    return HierarchyConfig(
        levels=(LevelConfig(capacity=None, line_size=line_size),),
        name=f"page{line_size}",
    )


def _lc_verdicts(comp: Computation, pages: int, clobber: float, seeds):
    verdicts = []
    for seed in seeds:
        sched = work_stealing_schedule(comp, 4, rng=seed)
        mem = HierarchicalBackerMemory(
            _paged(comp, pages), clobber_probability=clobber
        )
        verdicts.append(trace_admits_lc(execute(sched, mem).partial_observer()))
    return verdicts


def _disjoint_writers(
    shape, clobber: float, fault_level: int = 1
) -> HierarchicalBackerMemory:
    # p0 and p1 both fetch the shared line, then write disjoint words;
    # p2 synchronizes after both reconciles.
    mem = HierarchicalBackerMemory(
        shape, clobber_probability=clobber, fault_level=fault_level
    )
    mem.attach(3)
    assert mem.read(0, 0, "a") is None
    assert mem.read(1, 0, "b") is None
    mem.write(0, 1, "a")
    mem.write(1, 2, "b")
    mem.node_completed(0, 1, cross_succ=True)
    mem.node_completed(1, 2, cross_succ=True)
    mem.node_starting(2, 3, cross_pred=True)
    return mem


class TestUnit:
    def test_invalid_mode(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError, match="clobber_probability"):
                HierarchicalBackerMemory(ONE_PAGE, clobber_probability=bad)

    def test_read_own_write(self):
        m = HierarchicalBackerMemory(ONE_PAGE)
        m.attach(2)
        m.write(0, 1, "x")
        assert m.read(0, 2, "x") == 1

    def test_diff_preserves_concurrent_updates_on_one_page(self):
        """Two processors write different locations of one page; diff
        reconciliation merges both into the backing store."""
        m = _disjoint_writers(ONE_PAGE, 0.0)
        assert m.read(2, 3, "a") == 1
        assert m.read(2, 3, "b") == 2
        assert m.stats.writebacks == 2  # only the written words moved

    def test_clobber_loses_concurrent_update(self):
        """Whole-page writeback: the second reconcile destroys the first
        processor's update to the shared page."""
        m = _disjoint_writers(ONE_PAGE, 1.0)
        assert m.read(2, 3, "b") == 2
        # p1's reconcile wrote back its stale copy of "a" over p0's update.
        assert m.read(2, 3, "a") is None
        assert m.stats.writebacks == 3  # p1's whole page: "a" and "b"

    def test_stats_tracked(self):
        m = HierarchicalBackerMemory(ONE_PAGE)
        m.attach(2)
        assert m.read(0, 0, "y") is None
        m.write(0, 1, "x")
        m.node_completed(0, 1, cross_succ=True)
        assert m.stats.reconciles == 1
        assert m.stats.writebacks == 1  # the dirty word, not the page
        assert m.stats.fetches == 1


class TestSharedSecondLevel:
    """The same hazard one level down: the shared line is L2 of l1l2."""

    L1L2 = HIERARCHY_PRESETS["l1l2"]

    def test_diff_preserves_concurrent_updates(self):
        m = _disjoint_writers(self.L1L2, 0.0, fault_level=2)
        assert m.read(2, 3, "a") == 1
        assert m.read(2, 3, "b") == 2
        assert m.stats.writebacks == 2

    def test_clobber_loses_concurrent_update(self):
        m = _disjoint_writers(self.L1L2, 1.0, fault_level=2)
        assert m.read(2, 3, "b") == 2
        assert m.read(2, 3, "a") is None
        assert m.stats.writebacks == 3

    def test_clobber_at_second_level_caught(self):
        comp = matmul_computation(2)[0]
        violations = 0
        for seed in range(10):
            sched = work_stealing_schedule(comp, 4, rng=seed)
            mem = HierarchicalBackerMemory(
                self.L1L2, clobber_probability=1.0, fault_level=2
            )
            trace = execute(sched, mem)
            violations += StreamingLCVerifier.check_trace(trace) is not None
        assert violations > 0


class TestEquivalenceWithPlainBacker:
    @given(computations(max_nodes=8), st.integers(1, 4), st.integers(0, 30))
    @settings(max_examples=30, deadline=None)
    def test_per_location_pages_match_plain_backer(self, comp, procs, seed):
        """One location per page (the flat preset) reproduces BACKER's
        reads exactly, with or without the clobber fault: a unit page
        holds only its dirty word."""
        sched = work_stealing_schedule(comp, procs, rng=seed)
        plain = execute(sched, BackerMemory())
        for clobber in (0.0, 1.0):
            paged = execute(
                sched,
                HierarchicalBackerMemory("flat", clobber_probability=clobber),
            )
            assert [
                (e.node, e.loc, e.observed) for e in paged.reads
            ] == [(e.node, e.loc, e.observed) for e in plain.reads]


class TestFalseSharing:
    def test_clobber_violates_lc_under_false_sharing(self):
        comp = matmul_computation(2)[0]
        assert not all(_lc_verdicts(comp, 2, 1.0, range(10)))

    def test_diff_maintains_lc_under_false_sharing(self):
        for comp in (matmul_computation(2)[0], tree_sum_computation(8)[0]):
            assert all(_lc_verdicts(comp, 2, 0.0, range(10)))

    @given(
        computations(max_nodes=8, locations=("x", "y", "z")),
        st.integers(2, 4),
        st.integers(0, 30),
    )
    @settings(max_examples=30, deadline=None)
    def test_diff_lc_on_random_dags(self, comp, procs, seed):
        sched = work_stealing_schedule(comp, procs, rng=seed)
        trace = execute(sched, HierarchicalBackerMemory(_paged(comp, 2)))
        assert trace_admits_lc(trace.partial_observer())


class TestTimedIntegration:
    def test_timed_simulation_prices_paged_transfers(self):
        comp = tree_sum_computation(8)[0]
        cheap = simulate_timed(
            comp, 4,
            memory=HierarchicalBackerMemory(_paged(comp, 4)),
            miss_cost=0, rng=1,
        )
        costly = simulate_timed(
            comp, 4,
            memory=HierarchicalBackerMemory(_paged(comp, 4)),
            miss_cost=8, rng=1,
        )
        assert costly.makespan > cheap.makespan  # transfers were priced
        assert trace_admits_lc(costly.partial_observer())
