"""SP-bags race detection, SP realizers/decomposition, locksets.

The central property: the near-linear SP-bags detector agrees with the
exact closure sweep — same racy-location set, and every pair it reports
is a genuine race — on *every* series-parallel computation in the
exhaustive universes and on hundreds of random SP dags.  (SP-bags
reports at least one race per racy location, not all pairs; that is the
Feng–Leiserson guarantee the agreement check encodes.)
"""

import itertools

from repro.core import Computation, N, R, W
from repro.dag import Dag
from repro.dag.sp import (
    SPNode,
    all_sp_trees,
    random_sp,
    sp_decompose,
    sp_leaves,
    sp_orders,
    sp_precedes,
    sp_to_dag,
)
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
    unfold,
)
from repro.verify import (
    classify_races,
    find_races,
    is_race_free,
    node_locksets,
    racy_locations,
    spbags_races,
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


def assert_agrees(comp: Computation, sp: SPNode | None) -> None:
    exact = {(repr(r.loc), r.u, r.v, r.kind) for r in find_races(comp)}
    reported = {
        (repr(r.loc), r.u, r.v, r.kind) for r in spbags_races(comp, sp)
    }
    assert reported <= exact, "SP-bags reported a non-race"
    assert {t[0] for t in reported} == {t[0] for t in exact}, (
        "racy-location sets differ"
    )


class TestAgreement:
    def test_exhaustive_sp_universes(self):
        """Every SP shape × op labelling with ≤ 4 nodes (26k cases)."""
        checked = 0
        for n in range(1, 5):
            for tree in all_sp_trees(n):
                dag, _ = sp_to_dag(tree)
                for ops in itertools.product(OPS, repeat=n):
                    assert_agrees(Computation(dag, ops), tree)
                    checked += 1
        assert checked >= 26000

    def test_random_sp_dags(self):
        """≥200 random SP dags, up to 40 nodes, three locations."""
        import random

        alphabet = OPS + (R("z"), W("z"))
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(2, 40)
            tree = random_sp(n, rng_seed=seed)
            dag, _ = sp_to_dag(tree)
            ops = tuple(rng.choice(alphabet) for _ in range(n))
            assert_agrees(Computation(dag, ops), tree)

    def test_unfolded_programs(self):
        for factory in ALL_PROGRAMS:
            comp, info = factory()
            assert info.sp is not None
            assert_agrees(comp, info.sp)

    def test_three_detectors_same_locations(self):
        """SP-bags, the closure sweep and the per-location mask test:
        one racy-location set on every bundled program."""
        for factory in ALL_PROGRAMS:
            comp, info = factory()
            exact = {repr(r.loc) for r in find_races(comp)}
            assert {
                repr(r.loc) for r in spbags_races(comp, info.sp)
            } == exact
            assert {repr(loc) for loc in racy_locations(comp)} == exact
            assert is_race_free(comp) == (not exact)

    def test_decomposition_fallback(self):
        """Without an SP expression, sp_decompose recovers one."""
        comp, _ = racy_counter_computation(3, 2)
        assert_agrees(comp, None)

    def test_non_sp_dag_rejected(self):
        # The N shape: 0≺2, 1≺2, 1≺3 — the forbidden substructure.
        comp = Computation(
            Dag(4, [(0, 2), (1, 2), (1, 3)]),
            (W("x"), W("x"), R("x"), R("x")),
        )
        import pytest

        with pytest.raises(ValueError, match="not series-parallel"):
            spbags_races(comp)


class TestRealizer:
    def test_exhaustive_orders_match_closure(self):
        """The 2-linear-extension realizer equals the dag order, n ≤ 5."""
        trees = 0
        for n in range(1, 6):
            for tree in all_sp_trees(n):
                dag, _ = sp_to_dag(tree)
                orders = sp_orders(tree)
                for u in range(n):
                    for v in range(n):
                        assert sp_precedes(orders, u, v) == (
                            u != v and dag.precedes(u, v)
                        )
                trees += 1
        assert trees >= 275

    def test_unfold_records_sp_matching_dag(self):
        """unfold's recorded SP expression realizes the dag's order."""
        for factory in ALL_PROGRAMS:
            comp, info = factory()
            n = comp.dag.num_nodes
            leaves = sorted(e.payload for e in sp_leaves(info.sp))
            assert leaves == list(range(n))
            assert len(info.node_paths) == n
            orders = sp_orders(info.sp)
            for u in range(n):
                for v in range(n):
                    if u != v:
                        assert sp_precedes(orders, u, v) == (
                            comp.dag.precedes(u, v)
                        )

    def test_decompose_roundtrip(self):
        for seed in range(40):
            tree = random_sp(1 + seed % 17, rng_seed=seed)
            dag, _ = sp_to_dag(tree)
            recovered = sp_decompose(dag)
            assert recovered is not None
            orders = sp_orders(recovered)
            for u in range(dag.num_nodes):
                for v in range(dag.num_nodes):
                    if u != v:
                        assert sp_precedes(orders, u, v) == dag.precedes(
                            u, v
                        )

    def test_decompose_rejects_non_sp(self):
        assert sp_decompose(Dag(4, [(0, 2), (1, 2), (1, 3)])) is None


class TestLocksets:
    def test_locked_counter_is_lock_mediated(self):
        comp, info = locked_counter_computation(3, 2)
        races = spbags_races(comp, info.sp)
        assert races, "the bare dag must still race"
        locksets = node_locksets(comp, info.lock_sections)
        classified = classify_races(races, locksets)
        assert all(c.classification == "lock-mediated" for c in classified)
        assert all("L" in c.locks_u and "L" in c.locks_v for c in classified)

    def test_unlocked_counter_is_data_race(self):
        comp, info = racy_counter_computation(3, 2)
        races = spbags_races(comp, info.sp)
        classified = classify_races(
            races, node_locksets(comp, info.lock_sections)
        )
        assert classified
        assert all(c.classification == "data-race" for c in classified)

    def test_wrong_locks_stay_data_races(self):
        """Two different locks look synchronized but are not."""

        def task(ctx, lock_name):
            with ctx.lock(lock_name):
                ctx.read("ctr")
                ctx.write("ctr")

        def main(ctx):
            ctx.write("ctr")
            ctx.spawn(task, "L1")
            ctx.spawn(task, "L2")
            ctx.sync()
            ctx.read("ctr")

        comp, info = unfold(main)
        classified = classify_races(
            spbags_races(comp, info.sp),
            node_locksets(comp, info.lock_sections),
        )
        assert classified
        assert all(c.classification == "data-race" for c in classified)
        assert any(c.locks_u and c.locks_v for c in classified), (
            "both sides hold locks — just not a common one"
        )

    def test_unsynced_spawn_escapes_section(self):
        """A child spawned inside a section is not covered by the lock."""

        def child(ctx):
            ctx.write("x")

        def main(ctx):
            with ctx.lock("L"):
                ctx.spawn(child)  # no sync before release: escapes
                ctx.write("x")
            ctx.sync()

        comp, info = unfold(main)
        locksets = node_locksets(comp, info.lock_sections)
        (escaped,) = [
            u for u in range(comp.num_nodes) if "s0" in info.node_paths[u]
        ]
        assert locksets[escaped] == frozenset()
        classified = classify_races(
            spbags_races(comp, info.sp), locksets
        )
        assert any(c.classification == "data-race" for c in classified)
