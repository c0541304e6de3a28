"""Tests for the dag-consistency family (Definition 20)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Computation, N, ObserverFunction, R, W
from repro.dag import Dag
from repro.models import LC, NN, NW, WN, WW, QDagConsistency
from repro.paperfigures import figure2_pair, figure3_pair, figure4_pair
from tests.conftest import computations_with_observer

ALL_DAG_MODELS = (NN, NW, WN, WW)


class TestFastMatchesReference:
    """The fiber-based checkers must agree with the literal Definition 20."""

    @given(
        st.one_of(
            computations_with_observer(max_nodes=5),
            computations_with_observer(max_nodes=10),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_single_location(self, pair):
        comp, phi = pair
        for model in ALL_DAG_MODELS:
            assert model.contains(comp, phi) == model.contains_reference(
                comp, phi
            ), model.name

    @given(computations_with_observer(max_nodes=4, locations=("x", "y")))
    @settings(max_examples=50, deadline=None)
    def test_two_locations(self, pair):
        comp, phi = pair
        for model in ALL_DAG_MODELS:
            assert model.contains(comp, phi) == model.contains_reference(
                comp, phi
            ), model.name


class TestPaperFigures:
    def test_figure2_profile(self):
        comp, phi = figure2_pair()
        assert WW.contains(comp, phi)
        assert NW.contains(comp, phi)
        assert not WN.contains(comp, phi)
        assert not NN.contains(comp, phi)

    def test_figure3_profile(self):
        comp, phi = figure3_pair()
        assert WW.contains(comp, phi)
        assert WN.contains(comp, phi)
        assert not NW.contains(comp, phi)
        assert not NN.contains(comp, phi)

    def test_figure4_in_nn_not_lc(self):
        comp, phi = figure4_pair()
        assert NN.contains(comp, phi)
        assert not LC.contains(comp, phi)


class TestTheorem21:
    """NN is the strongest dag-consistent model: NN ⊆ Q-dag for any Q."""

    @given(computations_with_observer(max_nodes=5))
    @settings(max_examples=80, deadline=None)
    def test_nn_strongest(self, pair):
        comp, phi = pair
        if NN.contains(comp, phi):
            for model in (NW, WN, WW):
                assert model.contains(comp, phi)

    @given(computations_with_observer(max_nodes=4))
    @settings(max_examples=40, deadline=None)
    def test_nn_within_custom_predicate(self, pair):
        comp, phi = pair

        def exotic(c, loc, u, v, w):
            # An arbitrary predicate: the middle node reads the location.
            return c.op(v).reads(loc)

        exotic_model = QDagConsistency(exotic, "exotic")
        if NN.contains(comp, phi):
            assert exotic_model.contains(comp, phi)


class TestInclusionChain:
    @given(computations_with_observer(max_nodes=5))
    @settings(max_examples=80, deadline=None)
    def test_nw_and_wn_within_ww(self, pair):
        comp, phi = pair
        if NW.contains(comp, phi):
            assert WW.contains(comp, phi)
        if WN.contains(comp, phi):
            assert WW.contains(comp, phi)

    @given(computations_with_observer(max_nodes=5))
    @settings(max_examples=80, deadline=None)
    def test_lc_within_nn(self, pair):
        """Theorem 22: LC ⊆ NN."""
        comp, phi = pair
        if LC.contains(comp, phi):
            assert NN.contains(comp, phi)


class TestBottomFiberSemantics:
    def test_bottom_after_write_violates_nn(self):
        # W(x) -> R(x) seeing ⊥: the triple (⊥, W, R) fires for NN.
        c = Computation.serial([W("x"), R("x")])
        phi = ObserverFunction(c, {"x": (0, None)})
        assert not NN.contains(c, phi)

    def test_bottom_after_write_violates_nw(self):
        c = Computation.serial([W("x"), R("x")])
        phi = ObserverFunction(c, {"x": (0, None)})
        assert not NW.contains(c, phi)

    def test_bottom_after_write_allowed_by_wn_and_ww(self):
        # WN/WW need op(u) = W at the *source*, and a write's fiber never
        # contains ⊥-observers, so the stale-⊥ anomaly passes both.
        c = Computation.serial([W("x"), R("x")])
        phi = ObserverFunction(c, {"x": (0, None)})
        assert WN.contains(c, phi)
        assert WW.contains(c, phi)

    def test_bottom_sandwich_violates_nn(self):
        # R(⊥) -> R(w) -> R(⊥): ⊥ fiber must be ancestor-closed.
        c = Computation(
            Dag(4, [(1, 2), (2, 3)]), (W("x"), R("x"), R("x"), R("x"))
        )
        phi = ObserverFunction(c, {"x": (0, None, 0, None)})
        assert not NN.contains(c, phi)


class TestConvexitySemantics:
    def test_fiber_gap_violates_nn(self):
        # u observes A, v between observes B, w observes A again.
        c = Computation.serial([W("x"), W("x"), R("x"), R("x"), R("x")])
        # serial: 0W 1W 2R 3R 4R; rows: 2->1, 3->0 (stale), 4->1? invalid
        # Use concurrent writes for legality:
        c = Computation(
            Dag(5, [(2, 3), (3, 4)]),
            (W("x"), W("x"), R("x"), R("x"), R("x")),
        )
        phi = ObserverFunction(c, {"x": (0, 1, 0, 1, 0)})
        assert not NN.contains(c, phi)

    def test_middle_write_violates_nw(self):
        comp, phi = figure3_pair()
        assert not NW.contains(comp, phi)

    def test_source_write_gap_violates_wn(self):
        comp, phi = figure2_pair()
        assert not WN.contains(comp, phi)


class TestCustomPredicates:
    def test_true_predicate_equals_nn(self):
        from repro.models import nn_predicate

        custom = QDagConsistency(nn_predicate, "custom-NN")
        comp, phi = figure4_pair()
        assert custom.contains(comp, phi) == NN.contains(comp, phi)

    def test_false_predicate_accepts_everything(self):
        never = QDagConsistency(lambda *a: False, "never")
        comp, phi = figure2_pair()
        assert never.contains(comp, phi)

    def test_invalid_variant_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            QDagConsistency(lambda *a: True, "bad", variant="XX")

    def test_nop_nodes_carry_views(self):
        # A no-op between two same-fiber nodes still violates NN if its
        # own view differs — no-ops have memory semantics in this theory.
        c = Computation(
            Dag(4, [(1, 2), (2, 3)]), (W("x"), R("x"), N, R("x"))
        )
        phi_bad = ObserverFunction(c, {"x": (0, 0, None, 0)})
        assert not NN.contains(c, phi_bad)
        phi_good = ObserverFunction(c, {"x": (0, 0, 0, 0)})
        assert NN.contains(c, phi_good)
