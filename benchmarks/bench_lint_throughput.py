"""Lint throughput: the multi-rule analysis engine over a program corpus.

``repro lint`` runs every registered rule (race pass, deadlock
analyzer, portability pass; the trace-only LC sanitizer has no trace
here) per target; this
benchmark drives :func:`repro.analysis.run_analysis` over a generated
corpus mixing clean fork/join programs, racy counters at growing task
counts, lock-mediated counters, and ABBA deadlock fixtures, and reports
**findings per second** — the number every rule-addition PR gets gated
on.

The corpus is deliberately findings-heavy (racy counters dominate): an
engine whose per-finding overhead regresses shows up here even when its
per-node costs stay flat.  Quick mode trims sizes for CI smoke; full
mode refreshes ``BENCH_lint_throughput.json`` at the repository root.
"""

import json
import time
from pathlib import Path

from repro._caching import sweep_caching
from repro.analysis import AnalysisContext, all_rules, run_analysis
from repro.lang import (
    deadlock_computation,
    fib_computation,
    locked_counter_computation,
    racy_counter_computation,
    store_buffer_computation,
    tree_sum_computation,
)

BENCH_JSON = (
    Path(__file__).resolve().parent.parent / "BENCH_lint_throughput.json"
)

CORPUS = [
    ("racy-4", lambda: racy_counter_computation(4, 2)),
    ("racy-8", lambda: racy_counter_computation(8, 3)),
    ("racy-12", lambda: racy_counter_computation(12, 4)),
    ("locked-8", lambda: locked_counter_computation(8, 3)),
    ("deadlock", lambda: deadlock_computation(True)),
    ("deadlock-aligned", lambda: deadlock_computation(False)),
    ("store-buffer", store_buffer_computation),
    ("fib-10", lambda: fib_computation(10)),
    ("tree-sum-32", lambda: tree_sum_computation(32)),
]

QUICK_CORPUS = CORPUS[:2] + CORPUS[3:7]


def _contexts(corpus):
    out = []
    for name, factory in corpus:
        comp, info = factory()
        out.append(
            AnalysisContext(
                comp,
                target=name,
                lock_sections=info.lock_sections,
                node_paths=info.node_paths,
                names=info.names,
            )
        )
    return out


def _sweep(contexts):
    reports = []
    t0 = time.perf_counter()
    for ctx in contexts:
        reports.append(run_analysis(ctx))
    return time.perf_counter() - t0, reports


def _check(reports):
    by_target = {r.target: r for r in reports}
    racy = by_target.get("racy-4") or by_target.get("racy-8")
    assert racy is not None and not racy.clean, "racy corpus must fail lint"
    assert any(
        f.kind == "data-race" for f in racy.findings
    ), "racy corpus must carry data-race findings"
    if "deadlock" in by_target:
        assert any(
            f.rule == "DL001" and f.severity == "error"
            for f in by_target["deadlock"].findings
        ), "inverted ABBA fixture must trip DL001"
    if "deadlock-aligned" in by_target:
        assert by_target["deadlock-aligned"].clean
    if "fib-10" in by_target:
        assert by_target["fib-10"].clean
    rule_ids = {r.id for r in all_rules()}
    for rep in reports:
        assert set(rep.rules_run) <= rule_ids


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Times one cold sweep (context construction excluded — unfolding is
    the programs' cost, not the engine's) plus ``repeats`` warm sweeps,
    and reports the best warm findings/s.
    """
    from repro.obs.ledger import env_metadata, git_sha

    corpus = QUICK_CORPUS if quick else CORPUS
    repeats = 1 if quick else 3
    with sweep_caching(False):
        contexts = _contexts(corpus)
        cold_s, reports = _sweep(contexts)
        warm_s = min(_sweep(contexts)[0] for _ in range(repeats))
        if check:
            _check(reports)

    findings = sum(len(r.findings) for r in reports)
    nodes = sum(r.num_nodes for r in reports)
    metrics = {
        "targets": len(reports),
        "nodes_total": nodes,
        "findings_total": findings,
        "rules": len(all_rules()),
        "cold_seconds": round(cold_s, 6),
        "warm_seconds": round(warm_s, 6),
        "findings_per_second": round(findings / warm_s, 2),
        "nodes_per_second": round(nodes / warm_s, 2),
    }
    if quick:
        return metrics

    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "lint-throughput",
                "git_sha": git_sha(),
                "env": env_metadata(),
                "metrics": metrics,
                "targets": [
                    {
                        "target": r.target,
                        "nodes": r.num_nodes,
                        "findings": len(r.findings),
                        "errors": len(r.errors),
                        "clean": r.clean,
                    }
                    for r in reports
                ],
            },
            indent=2,
        )
        + "\n"
    )
    return metrics
