"""Tests for determinacy-race detection, and the race-freedom theorem."""

import itertools
import random

from hypothesis import given, settings

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
from repro.models import LC
from repro.verify import (
    find_races,
    find_races_naive,
    is_race_free,
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


class TestFastEqualsNaive:
    """The bitset-row sweep is a drop-in for the historical per-pair one.

    Not just the same *set* — the same *sequence*: the rewrite dedupes
    write-write pairs by emitting from the smaller id only, which is
    exactly the first-encounter order the old seen-set produced.  The
    per-location mask test behind :func:`racy_locations` and
    :func:`is_race_free` lists no pairs, so its answers are pinned to
    the locations of the naive pairs.
    """

    @staticmethod
    def assert_same(comp):
        naive = list(find_races_naive(comp))
        assert list(find_races(comp)) == naive
        locs = sorted({r.loc for r in naive}, key=repr)
        assert racy_locations(comp) == locs
        assert is_race_free(comp) == (not locs)

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
        comp = racy_counter_computation(3, 2)[0]
        first = list(find_races(comp))
        assert list(find_races(comp)) == first


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
