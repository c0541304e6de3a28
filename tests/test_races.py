"""Tests for determinacy-race detection, and the race-freedom theorem."""

import itertools
import random

from hypothesis import given, settings

from repro.core import Computation, N, R, W
from repro.dag import Dag, gnp_dag
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
    unfold,
)
from repro.models import LC
from repro.verify import (
    classify_races,
    find_races,
    is_race_free,
    node_locksets,
    race_witnesses,
    racy_locations,
)
from tests.conftest import computations


class TestDetection:
    def test_serial_is_race_free(self):
        c = Computation.serial([W("x"), R("x"), W("x")])
        assert is_race_free(c)

    def test_concurrent_write_write(self):
        c = Computation(Dag(2), (W("x"), W("x")))
        races = list(find_races(c))
        assert len(races) == 1
        assert races[0].kind == "write-write"
        assert (races[0].u, races[0].v) == (0, 1)

    def test_concurrent_read_write(self):
        c = Computation(Dag(2), (W("x"), R("x")))
        races = list(find_races(c))
        assert len(races) == 1
        assert races[0].kind == "read-write"

    def test_concurrent_reads_do_not_race(self):
        c = Computation(Dag(3), (W("y"), R("x"), R("x")))
        assert is_race_free(c)

    def test_different_locations_do_not_race(self):
        c = Computation(Dag(2), (W("x"), W("y")))
        assert is_race_free(c)

    def test_ordered_accesses_do_not_race(self):
        c = Computation(Dag(2, [(0, 1)]), (W("x"), W("x")))
        assert is_race_free(c)

    def test_no_duplicate_pairs(self):
        c = Computation(Dag(2), (W("x"), W("x")))
        races = list(find_races(c))
        assert len(races) == len({(r.u, r.v, repr(r.loc)) for r in races})

    def test_racy_locations(self):
        c = Computation(Dag(4), (W("x"), W("x"), W("y"), R("z")))
        assert racy_locations(c) == ["x"]


class TestWorkloads:
    def test_tree_sum_race_free(self):
        assert is_race_free(tree_sum_computation(8)[0])

    def test_racy_counter_races(self):
        comp = racy_counter_computation(3, 1)[0]
        assert not is_race_free(comp)
        kinds = {r.kind for r in find_races(comp)}
        assert "write-write" in kinds

    def test_store_buffer_read_write_races(self):
        # Each thread's read races with the other thread's write; there
        # are no write-write races.
        races = list(find_races(store_buffer_computation()[0]))
        assert len(races) == 2
        assert {r.kind for r in races} == {"read-write"}


def assert_witness_contract(comp, lock_sections=None):
    """:func:`race_witnesses` against the all-pairs oracle.

    The same racy locations; no pair twice; every reported pair is a
    real race with the oracle's kind and classification; every racy
    writer is in a reported pair; every writer with a data-race partner
    is in a reported data-race pair.
    """
    lock_sections = lock_sections or {}
    locksets = node_locksets(comp, lock_sections)
    oracle = {
        (c.race.loc, c.race.u, c.race.v): c
        for c in classify_races(find_races(comp), locksets)
    }
    witnesses = race_witnesses(comp, lock_sections)
    keys = [(c.race.loc, c.race.u, c.race.v) for c in witnesses]
    assert {k[0] for k in keys} == {k[0] for k in oracle}
    assert len(keys) == len(set(keys))
    for key, c in zip(keys, witnesses):
        assert key in oracle, key
        assert c.race.kind == oracle[key].race.kind
        assert c.classification == oracle[key].classification
        assert (c.locks_u, c.locks_v) == (
            locksets[c.race.u],
            locksets[c.race.v],
        )

    def writers(pairs):
        return {
            x
            for c in pairs
            for x in (c.race.u, c.race.v)
            if comp.ops[x].is_write
        }

    assert writers(oracle.values()) <= writers(witnesses)
    data = [c for c in witnesses if c.classification == "data-race"]
    assert writers(
        c for c in oracle.values() if c.classification == "data-race"
    ) <= writers(data)


def random_lock_sections(rng, dag, n_locks=2, max_sections=3):
    """Sections ``(a, r)`` with ``a ⪯ r`` on up to ``n_locks`` locks."""
    sections = {}
    for lock in range(n_locks):
        for _ in range(rng.randint(0, max_sections)):
            a = rng.randrange(dag.num_nodes)
            later = [a] + list(dag.descendants(a))
            sections.setdefault(f"L{lock}", []).append(
                (a, rng.choice(later))
            )
    return sections


class TestFastEqualsNaive:
    """The mask tests agree with the all-pairs oracle :func:`find_races`.

    The per-location mask test behind :func:`racy_locations` and
    :func:`is_race_free` lists no pairs, so its answers are pinned to
    the locations of the oracle's pairs; :func:`race_witnesses` lists
    one pair per racy writer, pinned by its contract.
    """

    @staticmethod
    def assert_same(comp):
        pairs = list(find_races(comp))
        locs = sorted({r.loc for r in pairs}, key=repr)
        assert racy_locations(comp) == locs
        assert is_race_free(comp) == (not locs)
        assert_witness_contract(comp)

    @given(computations(max_nodes=6, locations=("x", "y")))
    @settings(max_examples=150, deadline=None)
    def test_random_computations(self, comp):
        self.assert_same(comp)

    def test_exhaustive_sp_universes(self):
        """Every SP shape × op labelling with ≤ 4 nodes (26k cases)."""
        alphabet = (R("x"), W("x"), R("y"), W("y"), N)
        checked = 0
        for n in range(1, 5):
            for tree in all_sp_trees(n):
                dag, _ = sp_to_dag(tree)
                for ops in itertools.product(alphabet, repeat=n):
                    self.assert_same(Computation(dag, ops))
                    checked += 1
        assert checked >= 26000

    def test_random_general_dags(self):
        """100 random dags, most not series-parallel, three locations."""
        alphabet = (R("x"), W("x"), R("y"), W("y"), N, R("z"), W("z"))
        for seed in range(100):
            rng = random.Random(1000 + seed)
            n = rng.randint(2, 30)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.25
            ]
            ops = tuple(rng.choice(alphabet) for _ in range(n))
            self.assert_same(Computation(Dag(n, edges), ops))

    def test_random_sp_dags(self):
        """200 random SP dags, up to 40 nodes, three locations."""
        alphabet = (R("x"), W("x"), R("y"), W("y"), N, R("z"), W("z"))
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(2, 40)
            dag, _ = sp_to_dag(random_sp(n, rng_seed=seed))
            ops = tuple(rng.choice(alphabet) for _ in range(n))
            self.assert_same(Computation(dag, ops))

    def test_programs(self):
        for comp in (
            racy_counter_computation(4, 3)[0],
            store_buffer_computation()[0],
            matmul_computation(2)[0],
            tree_sum_computation(8)[0],
        ):
            self.assert_same(comp)

    def test_unfolded_programs(self):
        """Every bundled program, racy or not."""
        for comp in (
            fib_computation(6)[0],
            matmul_computation(2)[0],
            scan_computation(8)[0],
            stencil_computation()[0],
            tree_sum_computation(8)[0],
            racy_counter_computation(4, 3)[0],
            locked_counter_computation()[0],
            deadlock_computation()[0],
            store_buffer_computation()[0],
            iriw_computation()[0],
        ):
            self.assert_same(comp)

    def test_memoized_across_calls(self):
        """Repeated sweeps of one computation list the same pairs."""
        comp = racy_counter_computation(3, 2)[0]
        first = list(find_races(comp))
        assert list(find_races(comp)) == first


class TestWitnesses:
    """The witness contract, with and without lock sections."""

    def test_exhaustive_sp_universes_rw(self):
        """Every SP shape with ≤ 4 nodes × every R/W labelling, bare
        and under each single lock section ``(a, r)``, ``a ⪯ r``."""
        checked = 0
        for n in range(1, 5):
            for tree in all_sp_trees(n):
                dag, _ = sp_to_dag(tree)
                sections = [
                    (a, r)
                    for a in range(n)
                    for r in range(n)
                    if dag.precedes_eq(a, r)
                ]
                for ops in itertools.product((R("x"), W("x")), repeat=n):
                    comp = Computation(dag, ops)
                    assert_witness_contract(comp)
                    for sec in sections:
                        assert_witness_contract(comp, {"L": [sec]})
                    checked += 1
        assert checked == 1 * 2 + 2 * 4 + 8 * 8 + 40 * 16

    def test_random_gnp_dags_with_locks(self):
        """600 random dags, most not series-parallel, with sections."""
        alphabet = (R("x"), W("x"), R("y"), W("y"), N)
        for seed in range(600):
            rng = random.Random(seed)
            n = rng.randint(1, 16)
            dag = gnp_dag(n, rng.choice((0.1, 0.25, 0.5)), rng)
            ops = tuple(rng.choice(alphabet) for _ in range(n))
            assert_witness_contract(
                Computation(dag, ops), random_lock_sections(rng, dag)
            )

    def test_unfolded_programs_with_locks(self):
        for comp, info in (
            locked_counter_computation(3, 2),
            deadlock_computation(),
            racy_counter_computation(4, 3),
        ):
            assert_witness_contract(comp, info.lock_sections)

    def test_one_pair_per_racy_writer(self):
        """racy_counter(8, 4): 8 × 4 racy increments, one pair each."""
        comp, _ = racy_counter_computation(8, 4)
        witnesses = race_witnesses(comp)
        assert len(witnesses) == 8 * 4
        assert sum(1 for _ in find_races(comp)) > 10 * len(witnesses)


class TestLocksets:
    def test_locked_counter_is_lock_mediated(self):
        comp, info = locked_counter_computation(3, 2)
        classified = race_witnesses(comp, info.lock_sections)
        assert classified, "the bare dag must still race"
        assert all(c.classification == "lock-mediated" for c in classified)
        assert all("L" in c.locks_u and "L" in c.locks_v for c in classified)

    def test_unlocked_counter_is_data_race(self):
        comp, info = racy_counter_computation(3, 2)
        classified = race_witnesses(comp, info.lock_sections)
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
        classified = race_witnesses(comp, info.lock_sections)
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
        classified = race_witnesses(comp, info.lock_sections)
        assert any(c.classification == "data-race" for c in classified)


class TestRaceFreedomTheorem:
    """Race-free ⟹ the memory model does not matter.

    On a race-free computation, per location all accesses form a chain,
    so the last-writer function is the same for every topological sort;
    LC then admits exactly one value at every read, and all models
    coincide on reads.
    """

    @given(computations(max_nodes=5))
    @settings(max_examples=60, deadline=None)
    def test_race_free_reads_deterministic_under_lc(self, comp):
        if not is_race_free(comp):
            return
        seen_rows: dict = {}
        for phi in LC.observers(comp):
            for loc in comp.locations:
                for r in comp.readers(loc):
                    key = (loc, r)
                    v = phi.value(loc, r)
                    if key in seen_rows:
                        assert seen_rows[key] == v, (
                            "race-free computation with two LC-admissible "
                            "read outcomes"
                        )
                    else:
                        seen_rows[key] = v

    @given(computations(max_nodes=5))
    @settings(max_examples=60, deadline=None)
    def test_divergent_reader_outcomes_imply_race(self, comp):
        """Converse direction: if the last-writer value at some *read*
        differs across topological sorts, the location is racy.  (Other
        nodes' last-writer entries may vary without any race — a no-op
        concurrent with ordered writes — so the claim is about reads.)"""
        from repro.dag.toposort import all_topological_sorts
        from repro.core.last_writer import last_writer_row

        for loc in comp.locations:
            readers = comp.readers(loc)
            if not readers:
                continue
            reader_rows = {
                tuple(last_writer_row(comp, order, loc)[r] for r in readers)
                for order in all_topological_sorts(comp.dag)
            }
            if len(reader_rows) > 1:
                assert any(r.loc == loc for r in find_races(comp))
