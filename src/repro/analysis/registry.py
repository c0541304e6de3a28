"""The multi-rule static-analysis engine behind ``repro lint``.

PR 2's lint ran exactly one analyzer (the determinacy-race pass) with
one output shape.  This module generalizes it into a *rule registry*:
each analyzer registers itself with :func:`register_rule` under a
stable id (``RACE001``, ``DL001``, ...), a default severity, and a
one-line doc; the driver builds one :class:`AnalysisContext` per lint
target, selects rules with ``--select/--ignore`` semantics
(:func:`select_rules`), and folds every rule's :class:`Finding` records
into an :class:`AnalysisReport` that renders as text, JSON, or SARIF
(:mod:`repro.analysis.sarif`) and diffs against a baseline file
(:mod:`repro.analysis.baseline`).

Severity model (mirrors SARIF levels):

* ``error`` — fails the lint (exit 2) unless baseline-suppressed:
  data races, deadlock cycles, trace-consistency violations.
* ``warning`` — reported prominently, never fails: e.g. proven SC/LC
  divergence (the program is correct, just not model-portable).
* ``note`` — informational: lock-mediated races, serialized lock-order
  inversions.

Observability: every rule runs inside an ``analysis.<id>`` span and
bumps ``analysis.findings`` / ``analysis.<id>.findings`` counters, so
``repro lint --trace/--profile`` attributes time per rule.

The registry is populated at import time by the rule modules
(:mod:`repro.analysis.race_rules`, :mod:`repro.analysis.deadlock`,
:mod:`repro.analysis.portability`); importing :mod:`repro.analysis`
loads all of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro import obs
from repro.core.computation import Computation

if TYPE_CHECKING:
    from repro.runtime.trace import ExecutionTrace

__all__ = [
    "Finding",
    "AnalysisContext",
    "AnalysisReport",
    "Rule",
    "register_rule",
    "all_rules",
    "get_rule",
    "select_rules",
    "run_analysis",
    "SEVERITIES",
]

#: Recognized severities, strongest first.  Only ``error`` affects the
#: exit code; the order is also the rendering order within a report.
SEVERITIES = ("error", "warning", "note")


@dataclass
class Finding:
    """One diagnostic produced by one rule on one target.

    ``nodes`` are the computation node ids involved (witness order);
    ``paths`` are the matching human-readable source paths when the
    target came from ``unfold`` (empty strings when unknown).  ``kind``
    is a rule-specific subkind (``"data-race"``, ``"write-write"``,
    ``"lock-cycle"``, ...) that participates in the baseline
    fingerprint.  ``suppressed`` is set by the baseline layer; a
    suppressed error does not fail the lint.
    """

    rule: str
    severity: str
    message: str
    loc: str | None = None
    nodes: tuple[int, ...] = ()
    paths: tuple[str, ...] = ()
    kind: str = ""
    extra: dict = field(default_factory=dict)
    suppressed: bool = False

    def identity(self) -> tuple:
        """The stable identity the baseline fingerprint hashes.

        Source paths are preferred over node ids (they survive
        re-unfolding with different node numbering); node ids are the
        fallback for bare serialized computations.
        """
        where: tuple = (
            self.paths
            if self.paths and all(self.paths)
            else self.nodes
        )
        return (self.rule, self.kind, self.loc, where)

    def to_dict(self) -> dict:
        out = {
            "rule": self.rule,
            "severity": self.severity,
            "kind": self.kind,
            "loc": self.loc,
            "message": self.message,
            "nodes": list(self.nodes),
            "paths": list(self.paths),
            "suppressed": self.suppressed,
        }
        if self.extra:
            out["extra"] = dict(self.extra)
        return out

    def render(self) -> str:
        tag = f"{self.rule} {self.severity}"
        if self.suppressed:
            tag += " (baseline)"
        return f"[{tag}] {self.message}"


@dataclass
class AnalysisContext:
    """Everything the rules may inspect about one lint target.

    ``lock_sections``, ``node_paths`` and ``names`` are the
    matching :class:`~repro.lang.cilk.UnfoldInfo` fields when the
    target came from ``unfold``; ``trace`` is set when the target is a
    serialized :class:`~repro.runtime.trace.ExecutionTrace` (rules
    marked ``trace_only`` are skipped without one).  ``explicit`` holds
    the rule ids the user named in ``--select`` — opt-in rules run only
    when listed there.
    """

    comp: Computation
    target: str = "<computation>"
    lock_sections: Mapping[object, list[tuple[int, int]]] | None = None
    node_paths: Sequence[str] | None = None
    names: Mapping[str, int] | None = None
    trace: "ExecutionTrace | None" = None
    explicit: frozenset[str] = frozenset()

    def label(self, u: int) -> str | None:
        """The human-readable path of node ``u``, if one is known."""
        if self.names:
            for name, v in self.names.items():
                if v == u:
                    return name
        if self.node_paths and 0 <= u < len(self.node_paths):
            return self.node_paths[u]
        return None

    def side(self, u: int) -> str:
        """Render one node for a message: ``path (node u)`` or ``node u``."""
        path = self.label(u)
        return f"{path} (node {u})" if path else f"node {u}"

    def paths_for(self, nodes: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.label(u) or "" for u in nodes)


@dataclass(frozen=True)
class Rule:
    """One registered analyzer.

    ``engines`` names the algorithm(s) the rule may run (shown in docs
    and ``--list-rules``); ``trace_only`` rules need an execution trace
    target; ``opt_in`` rules run only when named in ``--select``.
    """

    id: str
    name: str
    severity: str
    engines: tuple[str, ...]
    doc: str
    fn: Callable[[AnalysisContext], list[Finding]]
    trace_only: bool = False
    opt_in: bool = False


_RULES: dict[str, Rule] = {}


def register_rule(
    rule_id: str,
    *,
    name: str,
    severity: str,
    engines: tuple[str, ...] = (),
    doc: str = "",
    trace_only: bool = False,
    opt_in: bool = False,
) -> Callable:
    """Class-of-service decorator: register ``fn`` as rule ``rule_id``.

    ``fn`` takes an :class:`AnalysisContext` and returns its findings
    (possibly empty).  Registering the same id twice is a programming
    error — rule ids are the stable public contract of baselines and
    SARIF output.
    """
    if severity not in SEVERITIES:
        raise ValueError(
            f"unknown severity {severity!r} (choose from {SEVERITIES})"
        )

    def deco(fn: Callable[[AnalysisContext], list[Finding]]) -> Callable:
        if rule_id in _RULES:
            raise ValueError(f"rule {rule_id!r} already registered")
        _RULES[rule_id] = Rule(
            rule_id,
            name,
            severity,
            engines,
            doc or (fn.__doc__ or "").strip().splitlines()[0],
            fn,
            trace_only=trace_only,
            opt_in=opt_in,
        )
        return fn

    return deco


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id."""
    return [_RULES[k] for k in sorted(_RULES)]


def get_rule(rule_id: str) -> Rule:
    if rule_id not in _RULES:
        raise ValueError(
            f"unknown rule {rule_id!r} "
            f"(registered: {', '.join(sorted(_RULES))})"
        )
    return _RULES[rule_id]


def _parse_selection(spec: str | Iterable[str] | None) -> list[str]:
    if spec is None:
        return []
    if isinstance(spec, str):
        return [s.strip() for s in spec.split(",") if s.strip()]
    return [s for s in spec if s]


def _matches(rule_id: str, patterns: list[str]) -> bool:
    """``--select``/``--ignore`` matching: exact id or id prefix.

    ``RACE`` selects every ``RACE*`` rule; ``RACE001`` exactly one
    rule.  Prefix matching mirrors ruff's rule-family selection.
    """
    return any(rule_id == p or rule_id.startswith(p) for p in patterns)


def select_rules(
    select: str | Iterable[str] | None = None,
    ignore: str | Iterable[str] | None = None,
) -> list[Rule]:
    """Resolve ``--select``/``--ignore`` to the rules to run, id order.

    No ``select`` means every registered rule (opt-in rules are still
    skipped at run time unless explicitly named).  Unknown patterns —
    matching no registered rule — are an error, so a typo cannot
    silently disable an analyzer.
    """
    sel = _parse_selection(select)
    ign = _parse_selection(ignore)
    known = sorted(_RULES)
    for pat in sel + ign:
        if not any(_matches(rid, [pat]) for rid in known):
            raise ValueError(
                f"unknown rule or rule prefix {pat!r} "
                f"(registered: {', '.join(known)})"
            )
    rules = all_rules()
    if sel:
        rules = [r for r in rules if _matches(r.id, sel)]
    if ign:
        rules = [r for r in rules if not _matches(r.id, ign)]
    return rules


@dataclass
class AnalysisReport:
    """Everything the rules found about one lint target."""

    target: str
    num_nodes: int
    findings: list[Finding] = field(default_factory=list)
    rules_run: tuple[str, ...] = ()

    def by_rule(self, rule_id: str) -> list[Finding]:
        return [f for f in self.findings if f.rule == rule_id]

    def by_severity(self, severity: str) -> list[Finding]:
        return [f for f in self.findings if f.severity == severity]

    @property
    def errors(self) -> list[Finding]:
        """Unsuppressed error findings — the ones that fail the lint."""
        return [
            f
            for f in self.findings
            if f.severity == "error" and not f.suppressed
        ]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def clean(self) -> bool:
        """True iff no unsuppressed error finding remains."""
        return not self.errors

    # -- PR 2 compatibility views --------------------------------------
    # ``races``/``data_races``/``diagnostics`` describe the RACE001
    # pass exactly as the old single-engine lint did.

    @property
    def race_findings(self) -> list[Finding]:
        return self.by_rule("RACE001")

    @property
    def data_races(self) -> list[Finding]:
        return [
            f for f in self.race_findings if f.kind == "data-race"
        ]

    def to_dict(self) -> dict:
        out = {
            "target": self.target,
            "nodes": self.num_nodes,
            "clean": self.clean,
            "races": len(self.race_findings),
            "data_races": len(self.data_races),
            "diagnostics": [
                f.extra["diagnostic"]
                for f in self.race_findings
                if "diagnostic" in f.extra
            ],
            "rules": list(self.rules_run),
            "findings": [f.to_dict() for f in self.findings],
            "errors": len(self.errors),
            "suppressed": len(self.suppressed),
        }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        head = f"{self.target}: {self.num_nodes} nodes"
        if not self.findings:
            return f"{head}: clean — no races"
        order = {s: i for i, s in enumerate(SEVERITIES)}
        shown = sorted(
            self.findings,
            key=lambda f: (order.get(f.severity, 99), f.rule),
        )
        counts = ", ".join(
            f"{len(self.by_severity(s))} {s}(s)"
            for s in SEVERITIES
            if self.by_severity(s)
        )
        tail = (
            f" ({len(self.suppressed)} baseline-suppressed)"
            if self.suppressed
            else ""
        )
        lines = [f"{head}: {counts}{tail}"]
        lines += [f"  {f.render()}" for f in shown]
        return "\n".join(lines)


def run_analysis(
    ctx: AnalysisContext, rules: Sequence[Rule] | None = None
) -> AnalysisReport:
    """Run ``rules`` (default: all registered) over one context.

    Per rule: ``trace_only`` rules are skipped when the context has no
    execution trace, ``opt_in`` rules unless their id is in
    ``ctx.explicit``.  Each rule runs in an ``analysis.<id>`` span;
    findings are concatenated in rule-id order.
    """
    if rules is None:
        rules = all_rules()
    findings: list[Finding] = []
    ran: list[str] = []
    with obs.span(
        "analysis.run", target=ctx.target, nodes=ctx.comp.num_nodes
    ) as spn:
        for rule in rules:
            if rule.trace_only and ctx.trace is None:
                continue
            if rule.opt_in and rule.id not in ctx.explicit:
                continue
            with obs.span(f"analysis.{rule.id}") as rspn:
                new = rule.fn(ctx)
                if rspn is not None:
                    rspn.attrs["findings"] = len(new)
            findings.extend(new)
            ran.append(rule.id)
            if obs.enabled():
                obs.add("analysis.findings", len(new))
                obs.add(f"analysis.{rule.id}.findings", len(new))
        if spn is not None:
            spn.attrs["findings"] = len(findings)
            spn.attrs["rules"] = len(ran)
    if obs.enabled():
        obs.add("analysis.runs")
    return AnalysisReport(
        target=ctx.target,
        num_nodes=ctx.comp.num_nodes,
        findings=findings,
        rules_run=tuple(ran),
    )
