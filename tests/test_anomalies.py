"""Tests for the anomaly catalog."""

from repro.analysis import catalog_anomalies, render_catalog
from repro.models import LC, NN, NW, SC, WN, WW, Universe

RW4 = Universe(max_nodes=4, locations=("x",), include_nop=False)
RW3 = Universe(max_nodes=3, locations=("x",), include_nop=False)


class TestCatalog:
    def test_wn_vs_nn_minimal_is_stale_bottom(self):
        """The smallest WN \\ NN anomaly is the stale-⊥ read: W → R(⊥).

        This is the anomaly the paper's prose criticizes in the weaker
        dag-consistency variants (a read forever missing a write that
        precedes it)."""
        cat = catalog_anomalies(NN, WN, RW3, max_witnesses=10)
        assert cat.minimal_size == 2
        comp, phi = cat.witnesses[0]
        (w,) = comp.writers("x")
        (r,) = comp.readers("x")
        assert comp.precedes(w, r)
        assert phi.value("x", r) is None  # the stale ⊥

    def test_nn_vs_lc_minimal_is_figure4_class(self):
        """All 24 minimal NN \\ LC anomalies live at 4 nodes — the
        Figure 4 shape (cross-observing concurrent reads) and its
        labelled variants."""
        cat = catalog_anomalies(LC, NN, RW4, max_witnesses=1000)
        assert cat.minimal_size == 4
        assert len(cat.witnesses) == 24
        from repro.paperfigures import figure4_pair

        comp, phi = figure4_pair()
        # The canonical figure pair is among them (up to identity ids).
        assert any(c == comp and p == phi for c, p in cat.witnesses)

    def test_minimal_anomalies_per_strict_edge(self):
        """Every strict single-location edge of Figure 1 separates at a
        fixed minimal size with a fixed number of minimal witnesses."""
        expected = {
            (LC, NN): (4, 24),
            (NN, NW): (3, 3),
            (NN, WN): (2, 1),
            (NW, WW): (2, 1),  # the stale-⊥ read: W → R(⊥)
            (WN, WW): (3, 2),
        }
        for (stronger, weaker), (size, count) in expected.items():
            cat = catalog_anomalies(stronger, weaker, RW4, max_witnesses=1000)
            assert (cat.minimal_size, len(cat.witnesses)) == (size, count), (
                stronger.name,
                weaker.name,
            )

    def test_no_separation_reports_cleanly(self):
        cat = catalog_anomalies(WW, WW, RW3)
        assert not cat.separated
        assert "none" in render_catalog(cat)

    def test_sc_lc_needs_two_locations(self):
        cat = catalog_anomalies(SC, LC, RW4)
        assert not cat.separated  # invisible at one location

    def test_sc_lc_separates_at_two_nodes_with_two_locations(self):
        """A finding the observer-function formalism makes visible: SC
        and LC separate already at *two concurrent writes to different
        locations* — each write's viewpoint misses the other's location,
        which no single serialization can explain.  (The classic
        read-observable separation, the store buffer, needs 4 nodes.)"""
        cat = catalog_anomalies(
            SC,
            LC,
            Universe(max_nodes=2, locations=("x", "y"), include_nop=False),
            max_witnesses=10,
        )
        assert cat.separated
        assert cat.minimal_size == 2
        assert len(cat.witnesses) == 4
        for comp, phi in cat.witnesses:
            assert len(comp.locations) == 2
            assert not comp.dag.num_edges  # the writes are concurrent

    def test_render_shows_witnesses(self):
        cat = catalog_anomalies(NN, WW, RW3, max_witnesses=5)
        text = render_catalog(cat)
        assert "minimal size" in text
        assert "node 0" in text
