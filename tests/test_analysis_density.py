"""Tests for the density (permissiveness) analysis."""

from repro.analysis.density import measure_density, render_density
from repro.models import LC, NN, NW, SC, WN, WW, Universe

FIGURE1 = [SC, LC, NN, NW, WN, WW]


class TestDensity:
    def setup_method(self):
        self.universe = Universe(max_nodes=2, locations=("x",))
        self.report = measure_density([SC, LC, NN, WW], self.universe)

    def test_totals(self):
        # n<=2 universe: 1 + 3 + 18 computations.
        assert self.report.total_computations == 22
        assert self.report.total_pairs == sum(
            self.universe.count_pairs(n) for n in range(3)
        )

    def test_lattice_order(self):
        c = self.report.admitted
        assert c["SC"] <= c["LC"] <= c["NN"] <= c["WW"]
        # The whole Figure 1 order, counted over every pair at n ≤ 3.
        full = measure_density(FIGURE1, Universe(max_nodes=3, locations=("x",)))
        c = full.admitted
        assert c["SC"] <= c["LC"] <= c["NN"] <= c["NW"] <= c["WW"]
        assert c["NN"] <= c["WN"] <= c["WW"]
        assert c["SC"] == c["LC"]  # one location: SC = LC exactly
        assert c["SC"] >= full.total_computations  # completeness
        assert c["WW"] > c["SC"]  # the lattice is not degenerate

    def test_fraction(self):
        assert 0 < self.report.fraction("SC") <= 1.0
        assert self.report.fraction("WW") >= self.report.fraction("SC")

    def test_widest_gap_recorded(self):
        assert self.report.widest_gap is not None
        comp, counts = self.report.widest_gap
        assert set(counts) == {"SC", "LC", "NN", "WW"}
        # Serial computations admit the same counts in every model; the
        # widest gap at n ≤ 3 needs all three nodes.
        rw = measure_density(
            FIGURE1, Universe(max_nodes=3, locations=("x",), include_nop=False)
        )
        comp, counts = rw.widest_gap
        assert comp.num_nodes == 3
        assert counts["WW"] > counts["SC"]

    def test_render(self):
        text = render_density(self.report)
        assert "permissiveness" in text
        assert "SC" in text and "WW" in text

    def test_empty_universe_fraction(self):
        from repro.analysis.density import DensityReport

        r = DensityReport(self.universe, ("SC",), admitted={"SC": 0})
        assert r.fraction("SC") == 0.0
