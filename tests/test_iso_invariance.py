"""Isomorphism invariance: node names never matter.

The universes enumerate only dags whose id order is topological, and
the sweep engine checks only the first computation of each isomorphism
class; both cover every behaviour *because* all the models are invariant
under node relabelling.  These property tests pin that license down for
every model the sweep checks, the Theorem-12 closure test, the race
detector, and the dag metrics.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import relabel_computation, relabel_observer
from repro.errors import InvalidComputationError
from repro.models import (
    CC,
    LC,
    NN,
    NW,
    SC,
    WN,
    WW,
    augmentation_closed_at,
    default_alphabet,
)
from tests.conftest import computations, computations_with_observer

MODELS = (SC, LC, CC, NN, NW, WN, WW)


def random_perm(n: int, seed: int) -> list[int]:
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


class TestRelabeling:
    def test_relabel_requires_permutation(self):
        from repro.core import Computation, W
        from repro.dag import Dag

        comp = Computation(Dag(2), (W("x"), W("x")))
        with pytest.raises(InvalidComputationError):
            relabel_computation(comp, [0, 0])

    @given(computations(max_nodes=6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_relabel_preserves_structure(self, comp, seed):
        perm = random_perm(comp.num_nodes, seed)
        moved = relabel_computation(comp, perm)
        assert moved.num_nodes == comp.num_nodes
        assert sorted(map(repr, moved.ops)) == sorted(map(repr, comp.ops))
        for (u, v) in comp.dag.edges:
            assert moved.precedes(perm[u], perm[v])

    @given(computations(max_nodes=6), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_double_relabel_roundtrip(self, comp, seed):
        perm = random_perm(comp.num_nodes, seed)
        inverse = [0] * comp.num_nodes
        for u, p in enumerate(perm):
            inverse[p] = u
        assert relabel_computation(relabel_computation(comp, perm), inverse) == comp


class TestModelInvariance:
    @given(computations_with_observer(max_nodes=5), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_all_models_iso_invariant(self, pair, seed):
        comp, phi = pair
        perm = random_perm(comp.num_nodes, seed)
        moved_comp = relabel_computation(comp, perm)
        moved_phi = relabel_observer(phi, perm, moved_comp)
        for m in MODELS:
            assert m.contains(comp, phi) == m.contains(
                moved_comp, moved_phi
            ), m.name

    @given(computations_with_observer(max_nodes=5), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_augmentation_blocking_op_iso_invariant(self, pair, seed):
        """The Theorem-12 test names the same blocking op after renaming,
        which the sweep's nonconstructibility witnesses and Theorem-23
        ``stuck`` counts rely on."""
        comp, phi = pair
        perm = random_perm(comp.num_nodes, seed)
        moved_comp = relabel_computation(comp, perm)
        moved_phi = relabel_observer(phi, perm, moved_comp)
        alphabet = default_alphabet(("x",))
        for m in MODELS:
            assert augmentation_closed_at(
                m, comp, phi, alphabet
            ) == augmentation_closed_at(
                m, moved_comp, moved_phi, alphabet
            ), m.name

    @given(computations(max_nodes=6), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_races_iso_invariant(self, comp, seed):
        from repro.verify import find_races

        perm = random_perm(comp.num_nodes, seed)
        moved = relabel_computation(comp, perm)
        original = {
            (repr(r.loc), frozenset((perm[r.u], perm[r.v])))
            for r in find_races(comp)
        }
        relabeled = {
            (repr(r.loc), frozenset((r.u, r.v))) for r in find_races(moved)
        }
        assert original == relabeled

    @given(computations(max_nodes=6), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_metrics_iso_invariant(self, comp, seed):
        from repro.dag.metrics import span, width, work

        perm = random_perm(comp.num_nodes, seed)
        moved = relabel_computation(comp, perm)
        assert work(moved.dag) == work(comp.dag)
        assert span(moved.dag) == span(comp.dag)
        assert width(moved.dag) == width(comp.dag)
