"""One-call reproduction: regenerate every paper artifact programmatically.

``python -m repro reproduce`` (or :func:`full_reproduction`) runs the
whole battery at a configurable scale and renders a single report in the
shape of EXPERIMENTS.md: Figure 1's lattice, Figures 2–4, Theorem 19,
Theorem 23, the BACKER/LC loop, and the open-problem exploration.  Each
section carries a PASS/FAIL verdict; the report ends with an overall
verdict — the artifact-evaluation entry point of this repository.

The ``quick`` profile (default) runs in seconds; ``full`` matches the
benchmark suite's bounds (a couple of minutes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.models import Universe

__all__ = ["SectionResult", "ReproductionReport", "full_reproduction", "render_report"]


@dataclass
class SectionResult:
    """One artifact's verdict and rendered detail."""

    title: str
    passed: bool
    detail: str


@dataclass
class ReproductionReport:
    """All sections plus the overall verdict."""

    profile: str
    sections: list[SectionResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff every section passed."""
        return all(s.passed for s in self.sections)


def _sec_figures() -> SectionResult:
    from repro.models import LC, NN, NW, SC, WN, WW, can_extend_to_augmentation
    from repro.paperfigures import (
        figure2_pair,
        figure3_pair,
        figure4_blocking_ops,
        figure4_pair,
        lc_not_sc_pair,
    )

    checks: list[tuple[str, bool]] = []
    c2, p2 = figure2_pair()
    checks.append(("fig2 ∈ WW∩NW", WW.contains(c2, p2) and NW.contains(c2, p2)))
    checks.append(("fig2 ∉ WN∪NN", not WN.contains(c2, p2) and not NN.contains(c2, p2)))
    c3, p3 = figure3_pair()
    checks.append(("fig3 ∈ WW∩WN", WW.contains(c3, p3) and WN.contains(c3, p3)))
    checks.append(("fig3 ∉ NW∪NN", not NW.contains(c3, p3) and not NN.contains(c3, p3)))
    c4, p4 = figure4_pair()
    checks.append(("fig4 ∈ NN ∖ LC", NN.contains(c4, p4) and not LC.contains(c4, p4)))
    checks.append((
        "fig4 stuck for non-writes",
        all(not can_extend_to_augmentation(NN, c4, p4, o) for o in figure4_blocking_ops()),
    ))
    sb, psb = lc_not_sc_pair()
    checks.append(("store buffer ∈ LC ∖ SC", LC.contains(sb, psb) and not SC.contains(sb, psb)))
    detail = "\n".join(f"  {'✓' if ok else '✗'} {label}" for label, ok in checks)
    return SectionResult("Figures 2–4 and the SC/LC separation", all(ok for _l, ok in checks), detail)


def _sec_lattice(
    sweep: Universe, witness: Universe, jobs: int | None = None
) -> SectionResult:
    from repro.analysis.lattice import compute_lattice
    from repro.analysis.report import render_lattice_result

    result = compute_lattice(sweep, witness, jobs=jobs)
    problems = result.matches_paper()
    return SectionResult(
        "Figure 1 — the model lattice",
        not problems,
        render_lattice_result(result),
    )


def _sec_theorem23(universe: Universe, jobs: int | None = None) -> SectionResult:
    from repro.core.ops import N as NOP, R
    from repro.runtime.parallel import parallel_lattice_battery

    battery, _stats = parallel_lattice_battery(
        universe, thm23_probes=(R("x"), NOP), jobs=jobs
    )
    lc_in_nn, total, stuck = battery.thm23
    ok = total > 0 and stuck == total
    detail = (
        f"  NN ∖ LC pairs: {total}; pruned by one augmentation: {stuck}\n"
        f"  (plus {lc_in_nn} LC pairs verified inside NN — Theorem 22)"
    )
    return SectionResult("Theorem 23 — LC = NN*", ok, detail)


def _sec_backer(runs: int) -> SectionResult:
    from repro.lang import racy_counter_computation, store_buffer_computation
    from repro.runtime import BackerMemory, execute, work_stealing_schedule
    from repro.verify import trace_admits_lc, trace_admits_sc

    comp = racy_counter_computation(4, 2)[0]
    lc_ok = 0
    for seed in range(runs):
        sched = work_stealing_schedule(comp, 4, rng=seed)
        trace = execute(sched, BackerMemory())
        lc_ok += trace_admits_lc(trace.partial_observer())
    sb = store_buffer_computation()[0]
    weak = 0
    for seed in range(runs):
        sched = work_stealing_schedule(sb, 2, rng=seed)
        po = execute(sched, BackerMemory()).partial_observer()
        if trace_admits_lc(po) and trace_admits_sc(po) is None:
            weak += 1
    ok = lc_ok == runs and weak > 0
    detail = (
        f"  {lc_ok}/{runs} racy-counter executions LC-verified\n"
        f"  {weak}/{runs} store-buffer executions LC-but-not-SC"
    )
    return SectionResult("BACKER maintains LC (and exactly LC)", ok, detail)


def _sec_open_problem(max_nodes: int) -> SectionResult:
    from repro.analysis.open_problems import explore_star_vs_lc, render_star_report
    from repro.models import NW

    universe = Universe(max_nodes=max_nodes, locations=("x",), include_nop=False)
    report = explore_star_vs_lc(NW, universe)
    ok = not report.soundness_violations and bool(report.strictness_candidates)
    return SectionResult(
        "§7 open problem — NW* vs LC (new data)",
        ok,
        "  " + render_star_report(report).replace("\n", "\n  "),
    )


def full_reproduction(
    profile: str = "quick", jobs: int | None = None
) -> ReproductionReport:
    """Run the battery; ``profile`` ∈ {"quick", "full"}.

    ``jobs`` is forwarded to the sharded sweep engine for the lattice and
    Theorem-23 sections (``None`` defers to ``REPRO_JOBS``, default
    serial)."""
    if profile == "quick":
        sweep = Universe(max_nodes=2, locations=("x",))
        witness = Universe(max_nodes=4, locations=("x",), include_nop=False)
        thm23_universe = Universe(max_nodes=4, locations=("x",), include_nop=False)
        runs, star_nodes = 5, 4
    elif profile == "full":
        sweep = Universe(max_nodes=3, locations=("x",))
        witness = Universe(max_nodes=4, locations=("x",), include_nop=False)
        thm23_universe = Universe(max_nodes=4, locations=("x",), include_nop=False)
        runs, star_nodes = 20, 5
    else:
        raise ValueError(f"unknown profile {profile!r}")
    report = ReproductionReport(profile=profile)
    sections: list[tuple[str, Callable[[], SectionResult]]] = [
        ("figures", _sec_figures),
        ("lattice", lambda: _sec_lattice(sweep, witness, jobs=jobs)),
        ("theorem23", lambda: _sec_theorem23(thm23_universe, jobs=jobs)),
        ("backer", lambda: _sec_backer(runs)),
        ("open-problem", lambda: _sec_open_problem(star_nodes)),
    ]
    for name, section in sections:
        with obs.span(f"reproduce.{name}", profile=profile) as sp:
            result = section()
            if sp is not None:
                sp.attrs["passed"] = result.passed
        report.sections.append(result)
    return report


def render_report(report: ReproductionReport) -> str:
    """The full text report."""
    bar = "=" * 72
    lines = [
        bar,
        f"Reproduction report — profile {report.profile!r}",
        "Computation-Centric Memory Models (Frigo & Luchangco, SPAA 1998)",
        bar,
    ]
    for sec in report.sections:
        lines.append("")
        lines.append(f"[{'PASS' if sec.passed else 'FAIL'}] {sec.title}")
        lines.append(sec.detail)
    lines.append("")
    lines.append(bar)
    lines.append(
        "OVERALL: "
        + ("all artifacts reproduced ✓" if report.ok else "FAILURES — see above")
    )
    return "\n".join(lines)
