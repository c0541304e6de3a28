"""Tests for the open-problem exploration (NW*/WN*)."""

from repro.analysis.open_problems import (
    StarVsLcReport,
    explore_star_vs_lc,
    render_star_report,
)
from repro.models import LC, NN, NW, Universe


class TestExploreNW:
    @classmethod
    def setup_class(cls):
        cls.report = explore_star_vs_lc(
            NW, Universe(max_nodes=4, locations=("x",), include_nop=False)
        )

    def test_lc_contained(self):
        assert not self.report.soundness_violations

    def test_strictness_candidates_found(self):
        """3-node pairs in NW* \\ LC exist at n ≤ 4 and survive the n ≤ 5
        fixpoint's pruning too: bounded evidence that LC ⊊ NW* (§7's
        open problem), not an artifact of a tiny bound."""
        larger = explore_star_vs_lc(
            NW, Universe(max_nodes=5, locations=("x",), include_nop=False)
        )
        for report in (self.report, larger):
            assert not report.soundness_violations
            assert report.strictness_candidates
            assert not report.star_equals_lc_on_fragment
            assert min(c.num_nodes for c, _ in report.strictness_candidates) == 3
        assert larger.pruned_pairs > 0  # the persistence is not vacuous

    def test_candidates_are_nw_members_outside_lc(self):
        for comp, phi in self.report.strictness_candidates:
            assert NW.contains(comp, phi)
            assert not LC.contains(comp, phi)

    def test_sound_bound(self):
        assert self.report.sound_max_nodes == 3

    def test_render(self):
        text = render_star_report(self.report)
        assert "NW* vs LC" in text
        assert "strictness candidates" in text


class TestExploreNN:
    def test_nn_star_equals_lc(self):
        """For NN the same exploration confirms Theorem 23: no candidates.

        Needs the n ≤ 5 universe so the 4-node Figure-4-class pairs sit
        below the frontier and genuinely get pruned.
        """
        universe = Universe(max_nodes=5, locations=("x",), include_nop=False)
        report = explore_star_vs_lc(NN, universe)
        assert report.star_equals_lc_on_fragment
        assert report.pruned_pairs > 0  # fig-4-class pairs were pruned

    def test_report_dataclass_defaults(self):
        r = StarVsLcReport("X", 3, 2, 1, 0)
        assert r.star_equals_lc_on_fragment
        assert "no pair separates" in render_star_report(r)
