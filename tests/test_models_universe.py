"""Tests for bounded enumeration universes."""

import pytest

from repro.core import N, R, W
from repro.core.observer import ObserverFunction, count_observer_functions
from repro.models import LC, NN, Universe, default_alphabet
from repro.errors import UniverseError


class TestAlphabet:
    def test_default_alphabet(self):
        assert default_alphabet(["x"]) == (R("x"), W("x"), N)

    def test_without_nop(self):
        assert default_alphabet(["x"], include_nop=False) == (R("x"), W("x"))

    def test_two_locations(self):
        a = default_alphabet(["x", "y"])
        assert len(a) == 5

    def test_universe_alphabet(self):
        u = Universe(max_nodes=2, locations=("x", "y"), include_nop=False)
        assert len(u.alphabet) == 4


class TestEnumeration:
    def test_size_zero(self):
        u = Universe(max_nodes=2, locations=("x",))
        comps = list(u.computations_of_size(0))
        assert len(comps) == 1
        assert comps[0].is_empty

    def test_size_counts(self):
        u = Universe(max_nodes=3, locations=("x",))
        # n=1: 1 dag x 3 ops; n=2: 2 dags x 9; n=3: 8 x 27.
        assert len(list(u.computations_of_size(1))) == 3
        assert len(list(u.computations_of_size(2))) == 18
        assert len(list(u.computations_of_size(3))) == 216

    def test_count_computations_formula(self):
        u = Universe(max_nodes=3, locations=("x",))
        for n in range(4):
            assert u.count_computations(n) == len(
                list(u.computations_of_size(n))
            )

    def test_computations_all_sizes(self):
        u = Universe(max_nodes=2, locations=("x",))
        assert len(list(u.computations())) == 1 + 3 + 18

    def test_out_of_range(self):
        u = Universe(max_nodes=2, locations=("x",))
        with pytest.raises(UniverseError):
            list(u.computations_of_size(3))
        with pytest.raises(UniverseError):
            list(u.computations_of_size(-1))

    def test_count_pairs_matches(self):
        u = Universe(max_nodes=2, locations=("x",))
        assert u.count_pairs(2) == sum(1 for _ in u.pairs(2))


class TestModelPairs:
    def test_model_pairs_subset(self):
        u = Universe(max_nodes=2, locations=("x",))
        nn_pairs = set()
        for comp, phi in u.model_pairs(NN):
            nn_pairs.add((comp, phi))
            assert NN.contains(comp, phi)
        # LC pairs are a subset of NN pairs (Theorem 22).
        for comp, phi in u.model_pairs(LC):
            assert (comp, phi) in nn_pairs

    def test_pairs_include_empty(self):
        u = Universe(max_nodes=1, locations=("x",))
        comps = [comp for comp, _ in u.pairs()]
        assert any(c.is_empty for c in comps)


@pytest.mark.parametrize(
    "universe",
    [Universe(max_nodes=4, locations=("x",)), Universe(max_nodes=3, locations=("x", "y"))],
    ids=["n4-x", "n3-xy"],
)
def test_enumerated_observers_equal_validated_construction(universe):
    """Observers built from generated rows (no re-checks) are the ones a
    validating construction gives: equal, same hash, same locations,
    and as many per computation as ``count_observer_functions``."""
    for comp in universe.computations():
        count = 0
        for phi in universe.observers(comp):
            count += 1
            rows = {loc: phi.row(loc) for loc in comp.locations}
            checked = ObserverFunction(comp, rows, validate=True)
            assert phi == checked
            assert hash(phi) == hash(checked)
            assert phi.locations == checked.locations
        assert count == count_observer_functions(comp)
