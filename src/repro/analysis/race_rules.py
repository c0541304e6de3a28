"""The built-in analysis rules.

Registers the rule set of :mod:`repro.analysis.registry`:

* ``RACE001`` — the determinacy-race pass
  (:func:`~repro.verify.races.race_witnesses`: one lockset-classified
  witness pair per racy writer); data races are errors, lock-mediated
  pairs notes.
* ``LC001`` — trace consistency: replays a recorded execution through
  the :class:`~repro.verify.streaming.StreamingLCVerifier` in
  ``keep_going`` mode; every violating event is an error with its
  minimal witness.
* ``DL001`` — lock-order cycles (:mod:`repro.analysis.deadlock`);
  concurrent cycles are potential deadlocks (error), dag-serialized
  inversions notes.
* ``PORT001`` — SC/LC model portability
  (:mod:`repro.analysis.portability`); a proven divergence is a
  warning (the program is not wrong, its outcome just depends on the
  model), an undecided verdict a note.

This module also hosts the race pass itself —
:func:`lint_computation` with its :class:`Diagnostic` /
:class:`LintReport` output.  The detector is imported from the
``repro.verify.races`` submodule directly, not the package, so that
importing ``repro.analysis`` cannot form an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro import obs
from repro.analysis.deadlock import lock_cycles
from repro.analysis.portability import check_portability
from repro.analysis.registry import (
    AnalysisContext,
    Finding,
    register_rule,
)
from repro.core.computation import Computation
from repro.verify.races import race_witnesses

__all__ = ["Diagnostic", "LintReport", "lint_computation"]


@dataclass(frozen=True)
class Diagnostic:
    """One racing pair, fully annotated for reporting."""

    loc: str
    kind: str  # "write-write" | "read-write"
    classification: str  # "data-race" | "lock-mediated"
    u: int
    v: int
    u_path: str | None
    v_path: str | None
    locks_u: tuple[str, ...]
    locks_v: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "loc": self.loc,
            "kind": self.kind,
            "classification": self.classification,
            "u": {"node": self.u, "path": self.u_path},
            "v": {"node": self.v, "path": self.v_path},
            "locks_u": list(self.locks_u),
            "locks_v": list(self.locks_v),
        }

    def render(self) -> str:
        def side(node: int, path: str | None) -> str:
            return f"{path} (node {node})" if path else f"node {node}"

        locks = ""
        if self.locks_u or self.locks_v:
            locks = (
                f"  locks {{{', '.join(self.locks_u)}}}"
                f" vs {{{', '.join(self.locks_v)}}}"
            )
        return (
            f"{self.classification} {self.kind} at {self.loc}: "
            f"{side(self.u, self.u_path)} ∥ {side(self.v, self.v_path)}"
            f"{locks}"
        )


@dataclass
class LintReport:
    """Everything the race pass knows about one computation."""

    target: str
    num_nodes: int
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def data_races(self) -> list[Diagnostic]:
        return [
            d for d in self.diagnostics if d.classification == "data-race"
        ]

    @property
    def clean(self) -> bool:
        """True iff no *data* race was found (lock-mediated pairs pass)."""
        return not self.data_races


def lint_computation(
    comp: Computation,
    *,
    target: str = "<computation>",
    lock_sections: Mapping[object, list[tuple[int, int]]] | None = None,
    node_paths: Sequence[str] | None = None,
    names: Mapping[str, int] | None = None,
) -> LintReport:
    """Run the race pass over one computation.

    ``lock_sections``, ``node_paths`` and ``names`` are the matching
    :class:`~repro.lang.cilk.UnfoldInfo` fields when the computation
    came from ``unfold``; all optional (paths fall back to node names,
    locks to the empty set).  Reports one witness pair per racy writer
    (:func:`~repro.verify.races.race_witnesses`), so the report is
    clean exactly when no pair of conflicting accesses is both
    unordered and lock-free.
    """
    with obs.span("verify.lint", target=target, nodes=comp.num_nodes) as spn:
        classified = race_witnesses(comp, lock_sections)
        if spn is not None:
            spn.attrs["races"] = len(classified)

    label: dict[int, str | None] = {}
    if names:
        for name, u in names.items():
            label[u] = name
    if node_paths:
        for u, path in enumerate(node_paths):
            label.setdefault(u, path)

    report = LintReport(target, comp.num_nodes)
    for c in classified:
        report.diagnostics.append(
            Diagnostic(
                loc=repr(c.race.loc),
                kind=c.race.kind,
                classification=c.classification,
                u=c.race.u,
                v=c.race.v,
                u_path=label.get(c.race.u),
                v_path=label.get(c.race.v),
                locks_u=tuple(sorted(map(str, c.locks_u))),
                locks_v=tuple(sorted(map(str, c.locks_v))),
            )
        )
    if obs.enabled():
        obs.add("lint.runs")
        for d in report.diagnostics:
            key = d.classification.replace("-", "_")
            obs.add(f"lint.{key}")
    return report


# ----------------------------------------------------------------------
# Rule registrations
# ----------------------------------------------------------------------


@register_rule(
    "RACE001",
    name="determinacy-race",
    severity="error",
    engines=("closure-mask",),
    doc="Determinacy races (incomparable conflicting accesses), "
    "classified by the locks held on both sides.",
)
def _rule_determinacy_races(ctx: AnalysisContext) -> list[Finding]:
    report = lint_computation(
        ctx.comp,
        target=ctx.target,
        lock_sections=ctx.lock_sections,
        node_paths=ctx.node_paths,
        names=ctx.names,
    )
    findings: list[Finding] = []
    for d in report.diagnostics:
        severity = (
            "error" if d.classification == "data-race" else "note"
        )
        findings.append(
            Finding(
                rule="RACE001",
                severity=severity,
                message=d.render(),
                loc=d.loc,
                nodes=(d.u, d.v),
                paths=(d.u_path or "", d.v_path or ""),
                kind=d.classification,
                extra={"diagnostic": d.to_dict()},
            )
        )
    return findings


@register_rule(
    "LC001",
    name="trace-consistency",
    severity="error",
    engines=("sanitizer",),
    trace_only=True,
    doc="Replays a recorded execution through the LC sanitizer in "
    "keep-going mode; every violating read is reported with its "
    "minimal witness.",
)
def _rule_trace_consistency(ctx: AnalysisContext) -> list[Finding]:
    # Lazy import: repro.verify's package __init__ pulls in the lint
    # shim, which imports repro.analysis — importing it at module load
    # time would close that cycle.
    from repro.verify.streaming import StreamingLCVerifier

    assert ctx.trace is not None  # trace_only guarantees this
    findings: list[Finding] = []
    for v in StreamingLCVerifier.collect_violations(ctx.trace):
        findings.append(
            Finding(
                rule="LC001",
                severity="error",
                message=(
                    f"event #{v.event_index} ({ctx.side(v.node)}): "
                    f"{v.reason}; witness nodes {list(v.witness)}"
                ),
                loc=repr(v.loc),
                nodes=tuple(v.witness),
                paths=ctx.paths_for(v.witness),
                kind="lc-violation",
                extra={"event_index": v.event_index},
            )
        )
    return findings


@register_rule(
    "DL001",
    name="lock-order",
    severity="error",
    engines=("lock-graph",),
    doc="Cycles in the lock-acquisition graph; concurrent cycles are "
    "potential deadlocks, dag-serialized inversions notes.",
)
def _rule_lock_order(ctx: AnalysisContext) -> list[Finding]:
    if not ctx.lock_sections:
        return []
    findings: list[Finding] = []
    for cyc in lock_cycles(ctx.comp, ctx.lock_sections):
        ring = " → ".join(cyc.locks + (cyc.locks[0],))
        inner_acquires = tuple(a2 for (_a1, _r1, a2) in cyc.witness)
        if cyc.concurrent:
            sides = "; ".join(
                f"{lock} acquired at {ctx.side(a2)} inside "
                f"{ctx.side(a1)}..{ctx.side(r1)}"
                for lock, (a1, r1, a2) in zip(
                    cyc.locks[1:] + cyc.locks[:1], cyc.witness
                )
            )
            findings.append(
                Finding(
                    rule="DL001",
                    severity="error",
                    message=(
                        f"potential deadlock: lock-order cycle {ring} "
                        f"with concurrent sections ({sides})"
                    ),
                    nodes=inner_acquires,
                    paths=ctx.paths_for(inner_acquires),
                    kind="lock-cycle",
                    extra={"locks": list(cyc.locks)},
                )
            )
        else:
            findings.append(
                Finding(
                    rule="DL001",
                    severity="note",
                    message=(
                        f"lock-order inversion {ring}: the sections "
                        "are serialized by the dag today, but the "
                        "inverted order will deadlock if they ever "
                        "run in parallel"
                    ),
                    nodes=inner_acquires,
                    paths=ctx.paths_for(inner_acquires),
                    kind="lock-cycle-serialized",
                    extra={"locks": list(cyc.locks)},
                )
            )
    return findings


@register_rule(
    "PORT001",
    name="model-portability",
    severity="warning",
    engines=("block-quotient", "enumeration"),
    doc="Flags computations whose observable outcomes differ between "
    "SC and LC — the programmer-centric 'is SC reasoning safe here' "
    "question, decided from the dag.",
)
def _rule_portability(ctx: AnalysisContext) -> list[Finding]:
    verdict = check_portability(ctx.comp)
    if verdict.status == "divergent":
        locs = (
            ", ".join(repr(loc) for loc in verdict.witness.locations)
            if verdict.witness is not None
            else "?"
        )
        return [
            Finding(
                rule="PORT001",
                severity="warning",
                message=(
                    "not SC-portable: an observer function over "
                    f"{locs} is admitted by LC but rejected by SC — "
                    "the outcome depends on the memory model"
                ),
                kind="sc-lc-divergence",
                extra={"checked": verdict.checked},
            )
        ]
    if verdict.status == "undecided":
        return [
            Finding(
                rule="PORT001",
                severity="note",
                message=f"SC/LC portability undecided: {verdict.reason}",
                kind="portability-undecided",
            )
        ]
    return []
