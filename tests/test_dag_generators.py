"""Tests for random dag generators, SP algebra, and dag enumeration."""

import random
from itertools import permutations, product

import pytest

from repro.core import Computation, W, relabel_computation
from repro.dag import (
    Dag,
    balanced_sp,
    canonical_form,
    chain_dag,
    empty_dag,
    fork_join_dag,
    gnp_dag,
    is_series_parallel,
    layered_dag,
    leaf,
    ordered_dags,
    parallel,
    random_sp,
    series,
    sp_to_dag,
    unique_dags,
)
from repro.dag.canon import canonical_labelling
from repro.dag.enumerate import ordered_orbits


class TestGnp:
    def test_p_zero_no_edges(self):
        assert gnp_dag(10, 0.0, rng=1).num_edges == 0

    def test_p_one_complete(self):
        d = gnp_dag(6, 1.0, rng=1)
        assert d.num_edges == 15  # 6 choose 2

    def test_deterministic_by_seed(self):
        assert gnp_dag(8, 0.4, rng=5).edges == gnp_dag(8, 0.4, rng=5).edges

    def test_seed_variation(self):
        results = {frozenset(gnp_dag(8, 0.5, rng=s).edges) for s in range(5)}
        assert len(results) > 1


class TestLayered:
    def test_barrier_layers(self):
        d = layered_dag([2, 3, 2], connect_all=True)
        assert d.num_nodes == 7
        assert d.num_edges == 2 * 3 + 3 * 2

    def test_edges_only_adjacent(self):
        d = layered_dag([2, 2, 2], connect_all=True)
        # No edge skips a layer: nodes 0,1 never directly reach 4,5.
        for u in (0, 1):
            for v in (4, 5):
                assert (u, v) not in d.edges


class TestForkJoin:
    def test_depth_zero(self):
        assert fork_join_dag(0).num_nodes == 1

    def test_node_count_depth(self):
        # f(d) = 2 + fanout * f(d-1); f(0) = 1.
        d = fork_join_dag(2, fanout=2)
        assert d.num_nodes == 2 + 2 * (2 + 2 * 1)

    def test_single_source_sink(self):
        d = fork_join_dag(3)
        assert len(d.sources()) == 1
        assert len(d.sinks()) == 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            fork_join_dag(-1)
        with pytest.raises(ValueError):
            fork_join_dag(1, fanout=0)


class TestBasicShapes:
    def test_chain(self):
        d = chain_dag(4)
        assert d.precedes(0, 3)
        assert d.num_edges == 3

    def test_empty(self):
        assert empty_dag(5).num_edges == 0


class TestSPAlgebra:
    def test_leaf(self):
        d, payloads = sp_to_dag(leaf("a"))
        assert d.num_nodes == 1
        assert payloads == ["a"]

    def test_series(self):
        d, _ = sp_to_dag(series(leaf(), leaf(), leaf()))
        assert d.edges == {(0, 1), (1, 2)}

    def test_parallel(self):
        d, _ = sp_to_dag(parallel(leaf(), leaf()))
        assert d.num_edges == 0

    def test_nested(self):
        expr = series(leaf(), parallel(leaf(), leaf()), leaf())
        d, _ = sp_to_dag(expr)
        assert d.edges == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_single_part_passthrough(self):
        assert series(leaf()).kind == "leaf"
        assert parallel(leaf()).kind == "leaf"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            series()
        with pytest.raises(ValueError):
            parallel()

    def test_leaf_count(self):
        assert balanced_sp(2).leaf_count() == 2 + 2 * (2 + 2)


class TestSPRecognizer:
    def test_diamond_is_sp(self):
        d = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert is_series_parallel(d)

    def test_chain_is_sp(self):
        assert is_series_parallel(chain_dag(5))

    def test_n_graph_not_sp(self):
        # The "N" shape is the forbidden minor of SP dags.
        d = Dag(4, [(0, 2), (0, 3), (1, 3)])
        assert not is_series_parallel(d)

    def test_fork_join_is_sp(self):
        assert is_series_parallel(fork_join_dag(3))

    def test_sp_algebra_output_is_sp(self):
        for seed in range(10):
            expr = random_sp(8, rng_seed=seed)
            d, _ = sp_to_dag(expr)
            assert is_series_parallel(d)

    def test_empty_is_sp(self):
        assert is_series_parallel(Dag(0))


class TestEnumeration:
    def test_ordered_counts(self):
        assert len(list(ordered_dags(0))) == 1
        assert len(list(ordered_dags(2))) == 2
        assert len(list(ordered_dags(3))) == 8
        assert len(list(ordered_dags(4))) == 64

    def test_all_ordered(self):
        for d in ordered_dags(4):
            for (u, v) in d.edges:
                assert u < v

    def test_unique_counts(self):
        # Unlabeled dags (iso classes): 1, 1, 2, 6, 31 for n = 0..4.
        assert len(list(unique_dags(0))) == 1
        assert len(list(unique_dags(1))) == 1
        assert len(list(unique_dags(2))) == 2
        assert len(list(unique_dags(3))) == 6
        assert len(list(unique_dags(4))) == 31

    def test_unique_dags_are_first_per_canonical_form(self):
        for n in range(6):
            first = {}
            for dag in ordered_dags(n):
                first.setdefault(canonical_form(dag), dag)
            assert list(unique_dags(n)) == list(first.values())

    @pytest.mark.parametrize(
        "n, labels", [(n, "a") for n in range(6)] + [(n, "ab") for n in range(5)]
    )
    def test_ordered_orbits_match_brute_force(self, n, labels):
        """Representatives and orbit sizes against all ``n!`` renamings:
        a labelled ordered dag is kept iff no renaming onto an ordered
        dag gives a smaller ``(mask, labelling)``, and its orbit size is
        the number of distinct such renamings."""
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]

        def key(edges, labelling):
            mask = sum(1 << pairs.index(e) for e in edges)
            return mask, tuple(labels.index(x) for x in labelling)

        expected = []
        for dag in ordered_dags(n):
            for labelling in product(labels, repeat=n):
                orbit = set()
                for perm in permutations(range(n)):
                    edges = {(perm[u], perm[v]) for u, v in dag.edges}
                    if all(u < v for u, v in edges):
                        moved = [None] * n
                        for u in range(n):
                            moved[perm[u]] = labelling[u]
                        orbit.add(key(edges, moved))
                if min(orbit) == key(dag.edges, labelling):
                    expected.append((dag, labelling, len(orbit)))
        assert list(ordered_orbits(n, tuple(labels))) == expected

    def test_ordered_orbits_shards_concatenate(self):
        whole = list(ordered_orbits(4, "ab"))
        parts = [
            item
            for lo, hi in ((0, 5), (5, 40), (40, 64))
            for item in ordered_orbits(4, "ab", lo, hi)
        ]
        assert parts == whole

    def test_canonical_form_invariant(self):
        a = Dag(3, [(0, 1)])
        b = Dag(3, [(1, 2)])  # isomorphic relabelling
        assert canonical_form(a) == canonical_form(b)

    def test_canonical_form_distinguishes(self):
        a = Dag(3, [(0, 1)])
        b = Dag(3, [(0, 1), (0, 2)])
        assert canonical_form(a) != canonical_form(b)

    @pytest.mark.parametrize("n", range(6))
    def test_canonical_form_agrees_with_brute_force_on_every_ordered_dag(
        self, n
    ):
        """Two dags share a canonical form iff the oracle's forms agree,
        and each form is the edge set of an isomorphic dag."""
        pairs = set()
        for dag in ordered_dags(n):
            form = canonical_form(dag)
            oracle = brute_force_canonical_form(dag)
            assert brute_force_canonical_form(Dag(n, form)) == oracle
            pairs.add((form, oracle))
        forms = {form for form, _ in pairs}
        oracles = {oracle for _, oracle in pairs}
        assert len(pairs) == len(forms) == len(oracles)

    def test_one_cell_of_seven_identical_nodes_gets_one_key(self):
        """No edges and one op everywhere: refinement leaves a single
        7-node cell, which every relabelling must still resolve to one
        key (all ``7!`` orders tie; the nodes are twins)."""
        comp = Computation(Dag(7), (W("x"),) * 7)
        rng = random.Random(0)
        keys = set()
        for _ in range(20):
            perm = list(range(7))
            rng.shuffle(perm)
            moved = relabel_computation(comp, perm)
            labels = [(op.kind, repr(op.loc)) for op in moved.ops]
            cert, canon = canonical_labelling(7, moved.dag.edges, labels)
            assert sorted(canon) == list(range(7))
            keys.add(cert)
        assert len(keys) == 1


def brute_force_canonical_form(dag):
    """The least sorted edge tuple over all ``n!`` relabellings."""
    return min(
        tuple(sorted((perm[u], perm[v]) for u, v in dag.edges))
        for perm in permutations(range(dag.num_nodes))
    )


class TestRngCoercion:
    def test_random_instance_passthrough(self):
        from repro.dag.random_dags import as_rng

        r = random.Random(1)
        assert as_rng(r) is r

    def test_seed(self):
        from repro.dag.random_dags import as_rng

        assert as_rng(5).random() == random.Random(5).random()
