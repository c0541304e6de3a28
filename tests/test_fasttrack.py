"""FastTrack-on-dags: detector agreement and chain-decomposition laws.

The differential property anchoring rule ``RACE002``: the epoch/
vector-clock detector reports the same racy-location set as the exact
closure sweep and SP-bags — on every series-parallel computation in
the exhaustive ≤4-node universes, on hundreds of random SP dags, on
random *general* dags (where SP-bags does not even apply), and on every
bundled program — and every pair it reports is a genuine race.  On
recorded executions the sweep runs in execution order, where the
verdict must be order-independent; on fault-injected traces the
sanitizer's violating locations must be racy locations FastTrack sees.
"""

import itertools
import random

from repro.analysis import (
    chain_decomposition,
    fasttrack_races,
    fasttrack_trace_races,
)
from repro.core import Computation, N, R, W
from repro.dag import Dag
from repro.dag.sp import all_sp_trees, random_sp, sp_to_dag
from repro.lang import (
    deadlock_computation,
    fib_computation,
    iriw_computation,
    locked_counter_computation,
    matmul_computation,
    racy_counter_computation,
    scan_computation,
    stencil_computation,
    store_buffer_computation,
    tree_sum_computation,
)
from repro.runtime import (
    BackerMemory,
    execute,
    work_stealing_schedule,
)
from repro.verify import (
    StreamingLCVerifier,
    find_races,
    spbags_races,
    trace_admits_lc,
)

OPS = (R("x"), W("x"), R("y"), W("y"), N)

ALL_PROGRAMS = (
    lambda: fib_computation(6),
    lambda: matmul_computation(2),
    lambda: scan_computation(8),
    lambda: stencil_computation(),
    lambda: tree_sum_computation(8),
    lambda: racy_counter_computation(),
    lambda: locked_counter_computation(),
    lambda: deadlock_computation(),
    lambda: store_buffer_computation(),
    lambda: iriw_computation(),
)


def assert_agrees(comp: Computation) -> None:
    exact = {(repr(r.loc), r.u, r.v, r.kind) for r in find_races(comp)}
    reported = {
        (repr(r.loc), r.u, r.v, r.kind) for r in fasttrack_races(comp)
    }
    assert reported <= exact, "FastTrack reported a non-race"
    assert {t[0] for t in reported} == {t[0] for t in exact}, (
        "racy-location sets differ"
    )


def _random_general_dag(rng: random.Random, n: int) -> Dag:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.25
    ]
    return Dag(n, edges)


class TestChainDecomposition:
    def test_chains_are_hb_paths(self):
        """Within a chain, clock order must coincide with dag precedence."""
        for factory in ALL_PROGRAMS:
            comp, _ = factory()
            chain_of, clock_of = chain_decomposition(comp)
            by_chain: dict[int, list[int]] = {}
            for u in comp.nodes():
                by_chain.setdefault(chain_of[u], []).append(u)
            for members in by_chain.values():
                members.sort(key=lambda u: clock_of[u])
                assert [clock_of[u] for u in members] == list(
                    range(1, len(members) + 1)
                )
                for a, b in zip(members, members[1:]):
                    assert comp.dag.precedes(a, b)

    def test_chain_count_bounded_by_width(self):
        """No more chains than nodes; a path collapses to one chain."""
        path = Dag(5, [(i, i + 1) for i in range(4)])
        comp = Computation(path, (W("x"), R("x"), N, R("x"), W("x")))
        chain_of, _ = chain_decomposition(comp)
        assert set(chain_of) == {0}


class TestAgreement:
    def test_exhaustive_sp_universes(self):
        """Every SP shape × op labelling with ≤ 4 nodes (26k cases)."""
        checked = 0
        for n in range(1, 5):
            for tree in all_sp_trees(n):
                dag, _ = sp_to_dag(tree)
                for ops in itertools.product(OPS, repeat=n):
                    assert_agrees(Computation(dag, ops))
                    checked += 1
        assert checked >= 26000

    def test_random_sp_dags(self):
        """≥200 random SP dags, up to 40 nodes, three locations."""
        alphabet = OPS + (R("z"), W("z"))
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(2, 40)
            tree = random_sp(n, rng_seed=seed)
            dag, _ = sp_to_dag(tree)
            ops = tuple(rng.choice(alphabet) for _ in range(n))
            assert_agrees(Computation(dag, ops))

    def test_random_general_dags(self):
        """Non-SP dags — beyond what SP-bags can analyze at all."""
        alphabet = OPS + (R("z"), W("z"))
        for seed in range(100):
            rng = random.Random(1000 + seed)
            n = rng.randint(2, 30)
            dag = _random_general_dag(rng, n)
            ops = tuple(rng.choice(alphabet) for _ in range(n))
            assert_agrees(Computation(dag, ops))

    def test_unfolded_programs(self):
        for factory in ALL_PROGRAMS:
            comp, _ = factory()
            assert_agrees(comp)

    def test_three_detectors_same_locations(self):
        """FastTrack, SP-bags, closure: one racy-location set."""
        for factory in ALL_PROGRAMS:
            comp, info = factory()
            exact = {repr(r.loc) for r in find_races(comp)}
            assert {
                repr(r.loc) for r in fasttrack_races(comp)
            } == exact
            assert {
                repr(r.loc) for r in spbags_races(comp, info.sp)
            } == exact


class TestTraceOrder:
    def _trace(self, comp, drop, seed):
        sched = work_stealing_schedule(comp, 4, rng=seed)
        mem = BackerMemory(
            drop_reconcile_probability=drop,
            drop_flush_probability=drop,
            rng=seed,
        )
        return execute(sched, mem)

    def test_execution_order_is_verdict_independent(self):
        """Any topological order yields the same racy locations."""
        comp, _ = racy_counter_computation(4, 3)
        exact = {repr(r.loc) for r in find_races(comp)}
        for seed in range(10):
            trace = self._trace(comp, 0.0, seed)
            races = fasttrack_trace_races(trace)
            assert {repr(r.loc) for r in races} == exact
            for r in races:
                assert not comp.dag.comparable(r.u, r.v)

    def test_agrees_with_sanitizer_on_fault_battery(self):
        """The 180 fault-injected traces from the sanitizer suite.

        Per trace, both detectors must agree with their ground truths:
        FastTrack's racy-location verdict is invariant under the
        recorded execution order (a race is a dag property — the
        interleaving, faulty memory or not, cannot change it), and the
        keep-going sanitizer's verdict matches both the halting
        sanitizer and the batch LC checker (empty ⇔ consistent, same
        first violation).  On a faithful memory neither flags anything
        race-freedom would forbid: the race-free stencil lints clean
        under FastTrack while the sanitizer stays silent at drop 0.
        """
        workloads = [
            racy_counter_computation(4, 3)[0],
            stencil_computation(6, 3)[0],
        ]
        flagged = 0
        for comp in workloads:
            racy_locs = {repr(r.loc) for r in fasttrack_races(comp)}
            for drop in (0.0, 0.5, 1.0):
                for seed in range(30):
                    trace = self._trace(comp, drop, seed)
                    assert {
                        repr(r.loc)
                        for r in fasttrack_trace_races(trace)
                    } == racy_locs
                    violations = StreamingLCVerifier.collect_violations(trace)
                    first = StreamingLCVerifier.check_trace(trace)
                    batch_ok = trace_admits_lc(trace.partial_observer())
                    assert (not violations) == batch_ok
                    if violations:
                        flagged += 1
                        assert first is not None
                        assert violations[0].node == first.node
                        assert violations[0].loc == first.loc
                        assert (
                            violations[0].event_index == first.event_index
                        )
                    else:
                        assert first is None
                    if drop == 0.0:
                        assert not violations
        assert flagged >= 40


class TestReportedPairs:
    def test_first_racing_access_per_location_caught(self):
        """The FastTrack guarantee: when the first race on a location
        happens (the earliest access in processing order that conflicts
        with a concurrent earlier one), *some* race ending at that
        access is reported — races cannot be detected late."""
        comp, _ = racy_counter_computation(3, 2)
        order = comp.dag.topological_order
        pos = {u: i for i, u in enumerate(order)}
        exact = list(find_races(comp))
        reported = fasttrack_races(comp)
        by_loc: dict[str, list] = {}
        for r in exact:
            by_loc.setdefault(repr(r.loc), []).append(r)
        for loc, rs in by_loc.items():
            first_node = min(
                (max((r.u, r.v), key=pos.__getitem__) for r in rs),
                key=pos.__getitem__,
            )
            assert any(
                repr(r.loc) == loc
                and max((r.u, r.v), key=pos.__getitem__) == first_node
                for r in reported
            )

    def test_dedup_and_normalization(self):
        comp, _ = racy_counter_computation(4, 3)
        races = fasttrack_races(comp)
        keys = [(repr(r.loc), r.u, r.v) for r in races]
        assert len(keys) == len(set(keys))
        for r in races:
            assert r.u < r.v
            assert r.kind in ("read-write", "write-write")
