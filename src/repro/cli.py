"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``lattice``
    Regenerate the Figure 1 lattice on bounded universes and print the
    report (inclusion matrix, strict-edge witnesses, constructibility).
``figures``
    Print and verify the paper's Figures 2–4 and the store-buffer pair.
``run``
    Unfold a bundled program, schedule it with work stealing, execute it
    under a chosen memory, verify the trace, and optionally dump it as
    JSON for later re-checking.
``check``
    Load a JSON document (observer function, partial observer, or trace)
    and report which models admit it.
``lint``
    Static race analysis of a bundled program or a serialized
    computation: determinacy races, lockset classification,
    text or JSON diagnostics.  Exits 0 when data-race free, 2 otherwise
    — built for CI.
``bench``
    Unified benchmark runner: discover the entrypoints registered in
    ``benchmarks/registry.py``, run each with warmup + repeats, and
    append one schema-validated record per benchmark to the JSONL
    performance ledger (``BENCH_LEDGER.jsonl``).  ``--compare`` gates
    the run against the ledger's history (exit 2 on a noise-adjusted
    wall-clock regression) — built for CI.
``obs``
    Post-hoc telemetry tooling: ``obs replay`` reconstructs a valid
    trace from a crash-safe ``--journal`` spool (even one torn by
    ``kill -9``, dangling spans closed as aborted), ``obs export``
    re-renders a trace or journal as Prometheus text, JSON, Chrome
    trace-events, or a human profile.

Every subcommand accepts ``--trace FILE`` (``--trace-format chrome``
produces a Chrome trace-event file that ui.perfetto.dev renders as
per-process tracks) and ``--mem`` (tracemalloc attribution on spans).
The same commands take the live telemetry flags: ``--journal FILE``
(crash-safe JSONL event spool), ``--live`` (per-worker TTY status
board), and ``--metrics-port PORT`` (Prometheus endpoint for the
duration of the command).

Examples::

    python -m repro lattice --sweep-nodes 3 --witness-nodes 4 --jobs 4 --stats
    python -m repro run --program fib --size 8 --procs 4 --memory backer
    python -m repro run --program racy --procs 4 --drop-reconcile 0.9 \\
        --out /tmp/bad_trace.json
    python -m repro check /tmp/bad_trace.json
    python -m repro lint racy --format json
    python -m repro lint /tmp/computation.json
    python -m repro reproduce --jobs 2 --trace out.json --trace-format chrome
    python -m repro bench --quick --compare
    python -m repro reproduce --jobs 4 --journal sweep.jsonl --live
    python -m repro obs replay sweep.jsonl --format json --out recovered.json
    python -m repro obs export sweep.jsonl --format prom
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Sequence

from repro import obs
from repro.errors import ReproError

__all__ = ["main", "build_parser"]

#: ``bench --compare`` is tri-state: absent (no gate), bare flag (gate
#: against the ``--ledger`` file), or an explicit history file.
_NO_COMPARE = "\0no-compare"

SC_NODE_LIMIT = 64
"""Largest computation ``run`` and ``check`` decide (exponential) SC on."""

PROGRAMS = {
    "fib": ("fib_computation", "size", 8),
    "matmul": ("matmul_computation", "blocks", 2),
    "scan": ("scan_computation", "n", 8),
    "stencil": ("stencil_computation", "width", 6),
    "tree-sum": ("tree_sum_computation", "n_leaves", 8),
    "racy": ("racy_counter_computation", "n_tasks", 4),
    "locked-counter": ("locked_counter_computation", "n_tasks", 4),
    "deadlock": ("deadlock_computation", None, None),
    "store-buffer": ("store_buffer_computation", None, None),
    "iriw": ("iriw_computation", None, None),
}


def _resolve_program(name: str, size: int | None):
    """Unfold a bundled program by CLI name → (comp, info)."""
    import repro.lang as lang

    if name not in PROGRAMS:
        raise ValueError(
            f"unknown program {name!r} (choose from "
            f"{', '.join(sorted(PROGRAMS))})"
        )
    fn_name, size_param, default = PROGRAMS[name]
    factory = getattr(lang, fn_name)
    if size_param is None:
        return factory()
    return factory(size if size is not None else default)


def _add_obs_args(
    sp: argparse.ArgumentParser, profile_flag: bool = True
) -> None:
    """Attach the observability options shared by every subcommand.

    ``reproduce`` already owns ``--profile`` (quick/full), so it opts out
    of the boolean profile flag and only gains ``--trace``.
    """
    sp.add_argument(
        "--trace", metavar="FILE", default=None, dest="obs_trace",
        help="write a structured trace (spans, counters, events) as JSON",
    )
    sp.add_argument(
        "--trace-format", choices=["json", "chrome"], default="json",
        dest="obs_trace_format",
        help="trace file format: native JSON, or Chrome trace events "
             "(load the file at ui.perfetto.dev)",
    )
    sp.add_argument(
        "--mem", action="store_true", dest="obs_mem",
        help="attribute tracemalloc peak/net memory to spans "
             "(slows execution; implies nothing without --trace/--profile)",
    )
    sp.add_argument(
        "--journal", metavar="FILE", default=None, dest="obs_journal",
        help="spool every observability event to FILE as it happens "
             "(crash-safe JSONL; recover with `repro obs replay FILE`)",
    )
    sp.add_argument(
        "--live", action="store_true", dest="obs_live",
        help="render a live per-worker status board on stderr "
             "(auto-disabled when stderr is not a TTY)",
    )
    sp.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        dest="obs_metrics_port",
        help="serve Prometheus metrics at http://127.0.0.1:PORT/metrics "
             "for the duration of the command (0 = ephemeral port)",
    )
    sp.add_argument(
        "--profile-sample", nargs="?", const=97, type=int, default=None,
        metavar="HZ", dest="obs_profile_sample",
        help="sample stacks at HZ (default 97) with a SIGPROF interval "
             "timer — pool workers included — and write a collapsed-"
             "stack flamegraph plus speedscope JSON on exit",
    )
    sp.add_argument(
        "--profile-out", metavar="PREFIX", default="repro-profile",
        dest="obs_profile_out",
        help="output prefix for --profile-sample "
             "(writes PREFIX.folded and PREFIX.speedscope.json)",
    )
    sp.add_argument(
        "--trace-sample-rate", type=float, default=1.0, metavar="RATE",
        dest="obs_trace_sample_rate",
        help="head-sampling probability for generated trace contexts "
             "(requests with their own traceparent keep the caller's "
             "decision; ids are minted either way)",
    )
    if profile_flag:
        sp.add_argument(
            "--profile", action="store_true", dest="obs_profile",
            help="print a timing/counter profile to stderr when done",
        )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for shell-completion tooling)."""
    from repro.models import ZOO

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Computation-centric memory models (Frigo & Luchangco, SPAA 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="regenerate the Figure 1 lattice")
    lat.add_argument("--sweep-nodes", type=int, default=3,
                     help="inclusion-sweep universe bound (default 3)")
    lat.add_argument("--witness-nodes", type=int, default=4,
                     help="witness-search universe bound (default 4)")
    lat.add_argument("--jobs", type=int, default=None,
                     help="sweep worker processes (default: $REPRO_JOBS or 1; "
                          "0 = all cores)")
    lat.add_argument("--stats", action="store_true",
                     help="print per-shard sweep timings and cache hit rates")
    _add_obs_args(lat)

    fig = sub.add_parser("figures", help="verify and print the paper's figures")
    _add_obs_args(fig)

    run = sub.add_parser("run", help="execute a bundled program and verify")
    run.add_argument("--program", choices=sorted(PROGRAMS), default="fib")
    run.add_argument("--size", type=int, default=None,
                     help="program size parameter (meaning depends on program)")
    run.add_argument("--procs", type=int, default=4)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--memory",
                     choices=["backer", "serial", "directory", "hier"],
                     default="backer")
    run.add_argument("--hier-shape", default="l1l2", metavar="SHAPE",
                     help="hierarchy shape for --memory hier: a preset "
                          "name or @file.json (default l1l2)")
    run.add_argument("--drop-reconcile", type=float, default=0.0,
                     help="BACKER fault injection probability")
    run.add_argument("--drop-flush", type=float, default=0.0)
    run.add_argument("--out", default=None,
                     help="write the trace as JSON to this path")
    run.add_argument("--sanitize", action="store_true",
                     help="check each event against LC during execution; "
                          "halt at the first violation with a witness")
    _add_obs_args(run)

    chk = sub.add_parser("check", help="check a JSON document against the models")
    chk.add_argument("path", help="file produced by `run --out` or repro.io.dumps")
    _add_obs_args(chk)

    lint = sub.add_parser(
        "lint",
        help="multi-rule static analysis of programs or serialized "
             "computations (races, deadlocks, model portability)",
    )
    lint.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="bundled program name (see `run --program`), a path to a "
             "JSON document containing a computation or trace, or a "
             "directory scanned recursively for *.json documents; "
             "several targets aggregate into one exit code",
    )
    lint.add_argument("--size", type=int, default=None,
                      help="program size parameter (bundled programs only)")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text",
                      help="text (default), the PR 2-compatible JSON "
                           "report, or SARIF 2.1.0")
    lint.add_argument("--select", default=None, metavar="RULES",
                      help="comma-separated rule ids or prefixes to run "
                           "(e.g. RACE001 or RACE,DL); default: all")
    lint.add_argument("--ignore", default=None, metavar="RULES",
                      help="comma-separated rule ids or prefixes to skip")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="suppress findings fingerprinted in FILE; "
                           "only new findings affect the exit code")
    lint.add_argument("--write-baseline", action="store_true",
                      help="record every current finding as accepted to "
                           "the baseline file (--baseline or "
                           ".repro-lint-baseline.json) and exit 0")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rules and exit")
    _add_obs_args(lint)

    inf = sub.add_parser(
        "infer",
        help="infer the strongest model consistent with a memory's traces",
    )
    inf.add_argument("--program", choices=sorted(PROGRAMS), default="racy")
    inf.add_argument("--size", type=int, default=None)
    inf.add_argument("--procs", type=int, default=4)
    inf.add_argument("--runs", type=int, default=10)
    inf.add_argument("--memory", choices=["backer", "serial"], default="backer")
    inf.add_argument("--drop-reconcile", type=float, default=0.0)
    inf.add_argument("--drop-flush", type=float, default=0.0)
    _add_obs_args(inf)

    conf = sub.add_parser(
        "conformance",
        help="randomized conformance campaign of a memory against a model",
    )
    conf.add_argument("--target", choices=ZOO, default="LC")
    conf.add_argument("--memory", choices=["backer", "serial"], default="backer")
    conf.add_argument("--drop-reconcile", type=float, default=0.0)
    conf.add_argument("--drop-flush", type=float, default=0.0)
    conf.add_argument("--runs", type=int, default=10,
                      help="seeds per (workload, procs) cell")
    _add_obs_args(conf)

    rep = sub.add_parser(
        "reproduce",
        help="regenerate every paper artifact and print the verdict report",
    )
    rep.add_argument("--profile", choices=["quick", "full"], default="quick")
    rep.add_argument("--jobs", type=int, default=None,
                     help="sweep worker processes (default: $REPRO_JOBS or 1; "
                          "0 = all cores)")
    _add_obs_args(rep, profile_flag=False)

    from repro.obs.ledger import DEFAULT_LEDGER, DEFAULT_THRESHOLD, DEFAULT_WINDOW

    ben = sub.add_parser(
        "bench",
        help="run the registered benchmarks and append to the perf ledger",
    )
    ben.add_argument("--list", action="store_true", dest="list_benchmarks",
                     help="list registered benchmarks and exit")
    ben.add_argument("--only", default=None, metavar="NAME[,NAME...]",
                     help="run only these benchmarks (comma-separated)")
    ben.add_argument("--quick", action="store_true",
                     help="reduced problem sizes (CI smoke); quick records "
                          "are only ever compared against quick records")
    ben.add_argument("--repeats", type=int, default=3,
                     help="timed repeats per benchmark (default 3)")
    ben.add_argument("--warmup", type=int, default=1,
                     help="untimed warmup runs per benchmark (default 1)")
    ben.add_argument("--no-check", action="store_true",
                     help="skip the reproduction assertions inside benchmarks")
    ben.add_argument("--ledger", default=DEFAULT_LEDGER, metavar="FILE",
                     help=f"ledger file to append to (default {DEFAULT_LEDGER})")
    ben.add_argument("--no-append", action="store_true",
                     help="measure and report without writing the ledger")
    ben.add_argument("--compare", nargs="?", const=None, default=_NO_COMPARE,
                     metavar="FILE",
                     help="gate this run against a ledger's history "
                          "(default: the --ledger file); exit 2 on regression")
    ben.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                     help="history records per benchmark for the baseline "
                          f"(default {DEFAULT_WINDOW})")
    ben.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                     help="relative wall-p50 regression threshold "
                          f"(default {DEFAULT_THRESHOLD})")
    ben.add_argument("--format", choices=["text", "markdown"], default="text",
                     help="gate report format")
    ben.add_argument("--benchmarks-dir", default="benchmarks",
                     help="directory holding registry.py and bench_*.py "
                          "(default ./benchmarks)")
    _add_obs_args(ben)

    srv = sub.add_parser(
        "serve",
        help="long-running batch trace-checking service "
             "(JSONL over HTTP, or offline with --input)",
    )
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8533,
                     help="listen port (default 8533; 0 = ephemeral, "
                          "announced on stderr)")
    srv.add_argument("--jobs", type=int, default=None,
                     help="checker worker processes (default: $REPRO_JOBS "
                          "or 1; 0 = all cores)")
    srv.add_argument("--checks", default="lc,sc,streaming",
                     metavar="CHECK[,CHECK...]",
                     help="default checks per item among lc, sc, streaming, "
                          "nn, nw, wn, ww (per-request envelopes may override)")
    srv.add_argument("--sanitize", action="store_true",
                     help="also replay trace items through the LC sanitizer "
                          "(per-event violations with witnesses)")
    srv.add_argument("--select", default=None, metavar="RULE[,RULE...]",
                     help="also run these repro.analysis rules per item "
                          "(e.g. RACE001,DL001)")
    srv.add_argument("--sc-node-limit", type=int, default=12,
                     help="skip the (exponential) SC check above this many "
                          "nodes; verdict reads null (default 12)")
    srv.add_argument("--cache-size", type=int, default=4096,
                     help="verdict LRU capacity, deduped by canonical "
                          "fingerprint (0 disables; default 4096)")
    srv.add_argument("--clear-caches-every", type=int, default=0,
                     metavar="N",
                     help="clear the sweep memoization caches every N "
                          "batches (0 = never)")
    srv.add_argument("--input", default=None, metavar="FILE",
                     help="offline mode: check this JSONL batch file and "
                          "exit instead of serving HTTP")
    srv.add_argument("--output", default="-", metavar="FILE",
                     help="offline mode verdict file (default stdout)")
    srv.add_argument("--replay-ledger", default=None, metavar="JOURNAL",
                     help="print the completed-work ledger recovered from "
                          "a --journal spool (survives kill -9) and exit")
    _add_obs_args(srv)

    obs_p = sub.add_parser(
        "obs",
        help="offline observability tooling: re-render traces, "
             "replay crash journals",
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    exp = obs_sub.add_parser(
        "export",
        help="re-render a trace JSON or event journal in another format",
    )
    exp.add_argument("path", help="a --trace JSON file or a --journal spool")
    exp.add_argument("--format", choices=["prom", "json", "chrome", "text"],
                     default="prom",
                     help="output format (default: Prometheus text)")
    exp.add_argument("--out", default=None, metavar="FILE",
                     help="write here instead of stdout")
    rep_j = obs_sub.add_parser(
        "replay",
        help="reconstruct a trace from an event journal "
             "(tolerates a journal torn by kill -9)",
    )
    rep_j.add_argument("journal", help="JSONL file written by --journal")
    rep_j.add_argument("--format", choices=["json", "chrome"], default="json")
    rep_j.add_argument("--out", default=None, metavar="FILE",
                       help="write here instead of stdout")

    hier = sub.add_parser(
        "hier",
        help="multi-level BACKER hierarchies: verified traffic studies",
    )
    hier_sub = hier.add_subparsers(dest="hier_command", required=True)
    hsw = hier_sub.add_parser(
        "sweep",
        help="run the cache-shape × latency × workload grid; every "
             "faithful run is post-mortem LC-verified and deterministic "
             "fault probes must be rejected",
    )
    hsw.add_argument("--shapes", default="l1,l1l2,l1l2l3",
                     metavar="SHAPE[,SHAPE...]",
                     help="hierarchy shapes: preset names (flat, l1, l1l2, "
                          "l1l2l3) or @file.json configs (default "
                          "l1,l1l2,l1l2l3)")
    hsw.add_argument("--workloads", default="stencil,racy,fib",
                     metavar="NAME[,NAME...]",
                     help="sweep workloads: stencil, racy, fib, tree-sum "
                          "(default stencil,racy,fib)")
    hsw.add_argument("--procs", default="2,4", metavar="P[,P...]",
                     help="processor counts per cell (default 2,4)")
    hsw.add_argument("--seeds", type=int, default=1,
                     help="work-stealing schedule seeds per cell (default 1)")
    hsw.add_argument("--quick", action="store_true",
                     help="small workload sizes (CI smoke)")
    hsw.add_argument("--no-fault-probes", action="store_true",
                     help="skip the per-level dropped-reconcile/flush "
                          "probes (they must be rejected for exit 0)")
    hsw.add_argument("--out", default=None, metavar="FILE",
                     help="stream one JSON run record per line to FILE")
    _add_obs_args(hsw)
    return parser


def _cmd_lattice(args: argparse.Namespace) -> int:
    from repro.analysis import compute_lattice, render_lattice_result
    from repro.models import Universe

    sweep = Universe(max_nodes=args.sweep_nodes, locations=("x",))
    witness = Universe(
        max_nodes=args.witness_nodes, locations=("x",), include_nop=False
    )
    result = compute_lattice(sweep, witness, jobs=args.jobs)
    print(render_lattice_result(result))
    if args.stats:
        for stats in result.sweep_stats.values():
            print()
            print(stats.render())
    return 0 if not result.matches_paper() else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis import render_pair
    from repro.models import MODELS, ZOO
    from repro.paperfigures import (
        figure2_pair,
        figure3_pair,
        figure4_pair,
        lc_not_sc_pair,
    )

    for name, pair in [
        ("Figure 2", figure2_pair()),
        ("Figure 3", figure3_pair()),
        ("Figure 4", figure4_pair()),
        ("Store buffer (SC vs LC)", lc_not_sc_pair()),
    ]:
        comp, phi = pair
        print(f"== {name}")
        print(render_pair(comp, phi))
        verdicts = ", ".join(
            f"{m}={'∈' if MODELS[m].contains(comp, phi) else '∉'}" for m in ZOO
        )
        print(f"  {verdicts}")
        print()
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.io import dumps
    from repro.runtime import execute, work_stealing_schedule
    from repro.verify import StreamingLCVerifier, admits

    comp, info = _resolve_program(args.program, args.size)

    schedule = work_stealing_schedule(comp, args.procs, rng=args.seed)
    memory = _make_memory(args, args.seed)
    sanitizer = StreamingLCVerifier() if args.sanitize else None
    trace = execute(schedule, memory, sanitizer=sanitizer)
    if trace.violation is not None:
        v = trace.violation
        print(
            f"sanitizer: violation at event #{v.event_index} "
            f"(node {v.node}, {v.loc!r}): {v.reason}"
        )
        print(f"  witness nodes: {list(v.witness)}")
        return 2
    po = trace.partial_observer()
    lc_ok = admits("LC", po).verdict
    sc_ok = admits("SC", po, sc_node_limit=SC_NODE_LIMIT).verdict

    print(
        f"program={args.program} nodes={comp.num_nodes} "
        f"spawns={info.spawn_count} procs={args.procs} "
        f"makespan={schedule.makespan} memory={memory.name}"
    )
    print(f"reads={len(trace.reads)} constraints={po.num_constraints()}")
    print(f"location consistent: {'yes' if lc_ok else 'NO — protocol violation'}")
    if sc_ok is None:
        print("sequentially consistent: (skipped, computation too large)")
    else:
        print(f"sequentially consistent: {'yes' if sc_ok else 'no'}")
    if args.out:
        with open(args.out, "w") as f:
            f.write(dumps(trace))
        print(f"trace written to {args.out}")
    return 0 if lc_ok else 2


_MEMBERSHIP = {True: "∈", False: "∉", None: "(skipped, computation too large)"}


def _cmd_check(args: argparse.Namespace) -> int:
    """Ask :func:`repro.serve.check_object` (serve's per-document check)
    on the document loaded once here and render its verdicts."""
    from repro.core import Computation, ObserverFunction
    from repro.io import load_document, parse_json
    from repro.models import ZOO
    from repro.serve import CheckOptions, check_object

    with open(args.path) as f:
        doc = parse_json(f.read())
    obj = load_document(doc)
    if isinstance(obj, Computation):
        print(f"computation: {obj.num_nodes} nodes, "
              f"{obj.dag.num_edges} edges, locations={list(obj.locations)}")
        return 0
    observer = isinstance(obj, ObserverFunction)
    checks = tuple(m.lower() for m in ZOO) if observer else ("lc", "sc")
    verdict = check_object(obj, CheckOptions(checks=checks, sc_node_limit=SC_NODE_LIMIT))
    if not verdict["ok"]:
        raise ReproError(verdict["error"])
    verdicts = verdict["verdicts"]
    if observer:
        print(f"observer function: {obj.computation.num_nodes} nodes")
        for m in ZOO:
            print(f"  {m}: {_MEMBERSHIP[verdicts[m.lower()]]}")
        return 0
    po = obj.partial_observer() if verdict["kind"] == "trace" else obj
    print(f"partial observer: {po.comp.num_nodes} nodes, {po.num_constraints()} constraints")
    print(f"  completable within LC: {'yes' if verdicts['lc'] else 'no'}")
    if verdicts["sc"] is not None:
        print(f"  completable within SC: {'yes' if verdicts['sc'] else 'no'}")
    return 0 if verdicts["lc"] else 2


def _expand_lint_targets(targets: Sequence[str]) -> list[str]:
    """Resolve CLI lint targets: program names, files, directories.

    Directories are scanned recursively for ``*.json`` documents
    (baseline files are skipped — they are lint *state*, not input).
    """
    import os

    from repro.analysis import DEFAULT_BASELINE

    expanded: list[str] = []
    for target in targets:
        if target in PROGRAMS:
            expanded.append(target)
        elif os.path.isdir(target):
            hits = sorted(
                os.path.join(root, fn)
                for root, _dirs, files in os.walk(target)
                for fn in files
                if fn.endswith(".json")
                and fn != os.path.basename(DEFAULT_BASELINE)
            )
            if not hits:
                raise ValueError(
                    f"directory {target!r} contains no *.json documents"
                )
            expanded.extend(hits)
        elif os.path.exists(target):
            expanded.append(target)
        else:
            raise ValueError(
                f"{target!r} is neither a bundled program "
                f"({', '.join(sorted(PROGRAMS))}) nor an existing file "
                f"or directory"
            )
    return expanded


def _lint_context(
    target: str,
    size: int | None,
    explicit: frozenset,
):
    """Build one :class:`~repro.analysis.AnalysisContext` per target."""
    from repro.analysis import AnalysisContext

    if target in PROGRAMS:
        comp, info = _resolve_program(target, size)
        return AnalysisContext(
            comp,
            target=target,
            lock_sections=info.lock_sections,
            node_paths=info.node_paths,
            names=info.names,
            explicit=explicit,
        )

    from repro.core import Computation, ObserverFunction
    from repro.io import loads
    from repro.runtime import ExecutionTrace

    with open(target) as f:
        obj = loads(f.read())
    trace = obj if isinstance(obj, ExecutionTrace) else None
    if isinstance(obj, Computation):
        comp = obj
    else:  # every other document kind carries its computation
        comp = obj.computation if isinstance(obj, ObserverFunction) else obj.comp
    return AnalysisContext(
        comp, target=target, trace=trace, explicit=explicit
    )


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import (
        DEFAULT_BASELINE,
        all_rules,
        apply_baseline,
        finding_fingerprint,
        load_baseline,
        run_analysis,
        sarif_document,
        select_rules,
        write_baseline,
    )

    if args.list_rules:
        for rule in all_rules():
            flags = [
                flag
                for flag, on in (
                    ("trace-only", rule.trace_only),
                    ("opt-in", rule.opt_in),
                )
                if on
            ]
            suffix = f" [{', '.join(flags)}]" if flags else ""
            engines = ", ".join(rule.engines) or "-"
            print(
                f"{rule.id:<8}  {rule.severity:<7}  {engines:<28}  "
                f"{rule.doc}{suffix}"
            )
        return 0

    if not args.targets:
        raise ValueError(
            "no lint targets given (bundled program name, JSON file, "
            "or directory); see also --list-rules"
        )

    rules = select_rules(args.select, args.ignore)
    # Rules named in --select count as explicitly requested: opt-in
    # rules run only for users who asked for them.
    explicit = (
        frozenset(r.id for r in rules) if args.select else frozenset()
    )

    reports = [
        run_analysis(
            _lint_context(target, args.size, explicit),
            rules,
        )
        for target in _expand_lint_targets(args.targets)
    ]

    if args.write_baseline:
        path = args.baseline or DEFAULT_BASELINE
        doc = write_baseline(path, reports)
        apply_baseline(reports, set(doc["findings"]))
        print(
            f"baseline: recorded {len(doc['findings'])} finding(s) "
            f"to {path}",
            file=sys.stderr,
        )
    elif args.baseline:
        accepted = load_baseline(args.baseline)
        n = apply_baseline(reports, accepted)
        print(
            f"baseline: suppressed {n} finding(s) via {args.baseline}",
            file=sys.stderr,
        )

    if args.format == "sarif":
        fingerprints = {
            id(f): finding_fingerprint(rep.target, f)
            for rep in reports
            for f in rep.findings
        }
        doc = sarif_document(reports, rules, fingerprints=fingerprints)
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.format == "json":
        if len(reports) == 1:
            print(reports[0].to_json())
        else:
            aggregate = {
                "clean": all(r.clean for r in reports),
                "targets": len(reports),
                "errors": sum(len(r.errors) for r in reports),
                "reports": [r.to_dict() for r in reports],
            }
            print(json.dumps(aggregate, indent=2, sort_keys=True))
    else:
        for rep in reports:
            print(rep.render_text())
    return 0 if all(r.clean for r in reports) else 2


def _make_memory(args: argparse.Namespace, seed: int):
    """The ``--memory`` of ``run``, ``infer`` and ``conformance``; the
    BACKER memories take the fault-injection flags and ``seed``."""
    from repro.runtime import BackerMemory, DirectoryMemory, HierarchicalBackerMemory, SerialMemory

    if args.memory == "serial":
        return SerialMemory()
    if args.memory == "directory":
        return DirectoryMemory()
    faults = dict(
        drop_reconcile_probability=args.drop_reconcile,
        drop_flush_probability=args.drop_flush,
        rng=seed,
    )
    if args.memory == "hier":
        from repro.runtime.hier_sweep import resolve_shape

        return HierarchicalBackerMemory(resolve_shape(args.hier_shape), **faults)
    return BackerMemory(**faults)


def _cmd_infer(args: argparse.Namespace) -> int:
    from repro.runtime import execute, work_stealing_schedule
    from repro.verify import infer_models

    comp, _ = _resolve_program(args.program, args.size)

    traces = []
    for seed in range(args.runs):
        sched = work_stealing_schedule(comp, args.procs, rng=seed)
        traces.append(
            execute(sched, _make_memory(args, seed)).partial_observer()
        )
    result = infer_models(traces)
    print(f"observed {result.traces_seen} traces of {args.program} "
          f"under {args.memory}")
    for name, ok in result.consistent.items():
        note = (
            ""
            if ok
            else f"  (eliminated by trace #{result.eliminated_by[name]})"
        )
        print(f"  {name}: {'consistent' if ok else 'VIOLATED'}{note}")
    strongest = result.strongest_consistent()
    print(f"strongest consistent model: {strongest or 'none in the zoo'}")
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    import repro.lang as lang
    from repro.verify import conformance_campaign

    workloads = [
        lang.tree_sum_computation(8)[0],
        lang.racy_counter_computation(4, 3)[0],
        lang.store_buffer_computation()[0],
    ]
    report = conformance_campaign(
        lambda seed: _make_memory(args, seed),
        workloads,
        target=args.target,
        procs=(2, 4),
        seeds=range(args.runs),
    )
    print(
        f"conformance vs {args.target}: {report.runs} runs, "
        f"{len(report.violations)} violations"
    )
    for v in report.violations[:5]:
        print(
            f"  workload #{v.workload_index} procs={v.procs} seed={v.seed} "
            f"({v.num_constraints} constraints)"
        )
    if len(report.violations) > 5:
        print(f"  ... and {len(report.violations) - 5} more")
    return 0 if report.ok else 2


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.analysis import full_reproduction, render_report

    report = full_reproduction(args.profile, jobs=args.jobs)
    print(render_report(report))
    return 0 if report.ok else 1


def _load_bench_registry(benchmarks_dir: str):
    """Import ``registry.py`` from the benchmarks directory.

    Loaded by *path* (under a private module name, so an unrelated
    ``registry`` package on ``sys.path`` can't shadow it); the directory
    itself still joins ``sys.path`` because the registry resolves its
    ``bench_*`` modules by plain import.
    """
    import importlib.util
    import os

    bench_dir = os.path.abspath(benchmarks_dir)
    reg_path = os.path.join(bench_dir, "registry.py")
    if not os.path.isfile(reg_path):
        raise ValueError(
            f"no benchmark registry at {reg_path} "
            "(run from the repo root or pass --benchmarks-dir)"
        )
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    spec = importlib.util.spec_from_file_location(
        "_repro_bench_registry", reg_path
    )
    assert spec is not None and spec.loader is not None
    registry = importlib.util.module_from_spec(spec)
    sys.modules["_repro_bench_registry"] = registry
    spec.loader.exec_module(registry)
    return registry


def _cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.obs import ledger

    registry = _load_bench_registry(args.benchmarks_dir)
    only = (
        [s.strip() for s in args.only.split(",") if s.strip()]
        if args.only
        else None
    )
    specs = registry.select(only)
    if args.list_benchmarks:
        width = max(len(s.name) for s in specs)
        for spec in specs:
            print(f"{spec.name:<{width}}  {spec.description}")
        return 0
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")

    check = not args.no_check
    records = []
    for spec in specs:
        run = registry.load(spec)
        print(f"bench {spec.name}: warmup x{args.warmup}, "
              f"repeats x{args.repeats}"
              f"{' (quick)' if args.quick else ''} ...", file=sys.stderr)
        for _ in range(args.warmup):
            run(check=False, quick=args.quick)
        walls: list[float] = []
        counters: dict = {}
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            result = run(check=check, quick=args.quick)
            walls.append(time.perf_counter() - t0)
            if isinstance(result, dict):
                counters = result.get("counters", result)
        rec = ledger.make_record(
            spec.name,
            walls,
            counters=counters,
            check=check,
            quick=args.quick,
            warmup=args.warmup,
        )
        records.append(rec)
        print(f"bench {spec.name}: wall p50 "
              f"{rec['wall_seconds']['p50']:.4f}s", file=sys.stderr)

    exit_code = 0
    if args.compare != _NO_COMPARE:
        import os

        history_path = args.ledger if args.compare is None else args.compare
        # A missing history is not an error: the first gated run has
        # nothing to regress against, so every benchmark reads "new".
        history = (
            ledger.read_ledger(history_path)
            if os.path.exists(history_path)
            else []
        )
        report = ledger.compare_records(
            history, records, window=args.window, threshold=args.threshold
        )
        print(report.render(markdown=args.format == "markdown"))
        if not report.ok:
            exit_code = 2
    if not args.no_append:
        ledger.append_records(args.ledger, records)
        print(f"{len(records)} record(s) appended to {args.ledger}",
              file=sys.stderr)
    return exit_code


def _cmd_hier(args: argparse.Namespace) -> int:
    from repro.runtime.hier_sweep import (
        hier_sweep,
        render_sweep_table,
        resolve_shape,
    )

    shapes = [
        resolve_shape(s.strip())
        for s in args.shapes.split(",")
        if s.strip()
    ]
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    procs_list = [int(p) for p in args.procs.split(",") if p.strip()]
    if not shapes or not workloads or not procs_list:
        raise ValueError("need at least one shape, workload and proc count")
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")

    out_file = open(args.out, "w") if args.out else None
    try:
        import json

        def progress(record: dict) -> None:
            if out_file is not None:
                out_file.write(json.dumps(record, sort_keys=True) + "\n")

        result = hier_sweep(
            shapes,
            workloads,
            procs_list,
            seeds=range(args.seeds),
            quick=args.quick,
            fault_probes=not args.no_fault_probes,
            progress=progress,
        )
    finally:
        if out_file is not None:
            out_file.close()
    if args.out:
        print(f"{len(result.records)} run record(s) written to {args.out}",
              file=sys.stderr)
    print(render_sweep_table(result))
    return 0 if result.ok else 2


def _load_trace_or_journal(path: str):
    """Load a trace JSON *or* an event journal as an ``Observability``.

    A journal is JSONL whose first record is a ``{"kind": ...}`` object;
    anything else is treated as an ``export_json`` trace document."""
    import json

    from repro.obs.journal import observability_from_trace, replay_journal

    with open(path) as f:
        head = f.readline()
    try:
        first = json.loads(head)
    except json.JSONDecodeError:
        first = None
    if isinstance(first, dict) and "kind" in first:
        return replay_journal(path).obs
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path!r} is neither a trace document nor a journal")
    return observability_from_trace(doc)


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import export_chrome, export_json, render_text
    from repro.obs.journal import replay_journal
    from repro.obs.metrics import render_prometheus

    if args.obs_command == "replay":
        replay = replay_journal(args.journal)
        out = (
            export_chrome(replay.obs)
            if args.format == "chrome"
            else export_json(replay.obs)
        ) + "\n"
        aborted = (
            f", {len(replay.aborted)} span(s) closed as aborted "
            f"({', '.join(sorted(set(replay.aborted)))})"
            if replay.aborted
            else ""
        )
        print(
            f"replayed {replay.records} record(s) from {args.journal} "
            f"({'clean shutdown' if replay.clean else 'torn journal'}, "
            f"{replay.dropped} dropped line(s){aborted})",
            file=sys.stderr,
        )
    else:  # export
        target = _load_trace_or_journal(args.path)
        if args.format == "prom":
            out = render_prometheus(target)
        elif args.format == "json":
            out = export_json(target) + "\n"
        elif args.format == "chrome":
            out = export_chrome(target) + "\n"
        else:
            out = render_text(target) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(out)
        print(f"written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(out)
    return 0


def _obs_finish(
    trace_path: str | None, profile: bool, trace_format: str = "json"
) -> None:
    """Export the collected trace/profile and shut the collector down."""
    from repro.obs import export_chrome, export_json, render_text

    try:
        if trace_path is not None:
            doc = export_chrome() if trace_format == "chrome" else export_json()
            with open(trace_path, "w") as f:
                f.write(doc)
                f.write("\n")
            print(f"trace written to {trace_path}", file=sys.stderr)
        if profile:
            print(render_text(), file=sys.stderr)
    except OSError as exc:
        print(f"repro: error writing trace: {exc}", file=sys.stderr)
    finally:
        obs.disable()


def _start_sampling_profiler(hz: int) -> tuple[Any, str]:
    """Arm the SIGPROF sampler and publish the worker spill spec.

    Returns ``(profiler, spill_dir)``.  The spec travels to pool
    workers through the pool initializer (the same channel as the
    heartbeat queue); each worker spills folded stacks into
    ``spill_dir`` periodically, because forked children skip ``atexit``
    and can never be relied on to flush at shutdown.
    """
    import tempfile

    from repro.obs import profile as obs_profile

    spill_dir = tempfile.mkdtemp(prefix="repro-prof-")
    obs_profile.set_worker_spec({"hz": hz, "dir": spill_dir})
    profiler = obs_profile.SamplingProfiler(hz=hz)
    profiler.start()
    return profiler, spill_dir


def _finish_sampling_profiler(
    profiler: Any, spill_dir: str, out_prefix: str, hz: int
) -> None:
    """Stop sampling, merge worker spills, export both formats."""
    import json as json_mod
    import shutil

    from repro.obs import profile as obs_profile

    try:
        profiler.stop()
        profiles = {os.getpid(): profiler.folded()}
        for pid, table in obs_profile.merge_folded_dir(spill_dir).items():
            profiles.setdefault(pid, table)
        profiles = {pid: t for pid, t in profiles.items() if t}
        folded_path = f"{out_prefix}.folded"
        speedscope_path = f"{out_prefix}.speedscope.json"
        merged = obs_profile.merge_folded(profiles.values())
        with open(folded_path, "w") as f:
            f.write(obs_profile.render_collapsed(merged))
        doc = obs_profile.export_speedscope(profiles, hz)
        with open(speedscope_path, "w") as f:
            json_mod.dump(doc, f)
            f.write("\n")
        total = sum(merged.values())
        print(
            f"profile: {total} sample(s) across {len(profiles)} "
            f"process(es) at {hz} Hz -> {folded_path}, {speedscope_path}",
            file=sys.stderr,
        )
    except OSError as exc:
        print(f"repro: error writing profile: {exc}", file=sys.stderr)
    finally:
        obs_profile.set_worker_spec(None)
        shutil.rmtree(spill_dir, ignore_errors=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the batch trace-checking service.

    Three modes: ``--replay-ledger`` prints the completed-work ledger
    recovered from a crash journal; ``--input`` checks one JSONL batch
    offline; otherwise the asyncio HTTP front-end serves until
    SIGTERM/SIGINT and drains in-flight work before exiting.  The
    shared observability flags do the heavy telemetry lifting:
    ``--journal`` makes batches crash-replayable, ``--metrics-port``
    exposes the serve counters/histograms to Prometheus scrapers.
    """
    import asyncio
    import json

    from repro.serve import (
        CheckOptions,
        TraceCheckService,
        replay_serve_ledger,
        run_batch_file,
        serve_http,
    )

    if args.replay_ledger is not None:
        ledger = replay_serve_ledger(args.replay_ledger)
        print(json.dumps(ledger, indent=2))
        return 0 if ledger["clean"] or ledger["pending"] == 0 else 1

    options = CheckOptions(
        checks=tuple(
            c.strip() for c in args.checks.split(",") if c.strip()
        ),
        sanitize=args.sanitize,
        rules=tuple(
            r.strip() for r in (args.select or "").split(",") if r.strip()
        ),
        sc_node_limit=args.sc_node_limit,
    )
    service = TraceCheckService(
        options=options,
        jobs=args.jobs,
        cache_size=args.cache_size,
        clear_caches_every=args.clear_caches_every,
        trace_sample_rate=getattr(args, "obs_trace_sample_rate", 1.0),
    )
    with service:
        if args.input is not None:
            return run_batch_file(service, args.input, args.output)
        asyncio.run(serve_http(service, args.host, args.port))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "lattice": _cmd_lattice,
        "figures": _cmd_figures,
        "run": _cmd_run,
        "check": _cmd_check,
        "lint": _cmd_lint,
        "infer": _cmd_infer,
        "conformance": _cmd_conformance,
        "reproduce": _cmd_reproduce,
        "bench": _cmd_bench,
        "obs": _cmd_obs,
        "serve": _cmd_serve,
        "hier": _cmd_hier,
    }[args.command]
    trace_path: str | None = getattr(args, "obs_trace", None)
    trace_format: str = getattr(args, "obs_trace_format", "json")
    profile: bool = bool(getattr(args, "obs_profile", False))
    journal_path: str | None = getattr(args, "obs_journal", None)
    live: bool = bool(getattr(args, "obs_live", False))
    metrics_port: int | None = getattr(args, "obs_metrics_port", None)
    use_obs = (
        trace_path is not None
        or profile
        or journal_path is not None
        or live
        or metrics_port is not None
    )
    # An inherited traceparent (REPRO_TRACEPARENT, the env analog of
    # the HTTP header) roots this whole invocation in the caller's
    # distributed trace; spans, journals and serve batches inherit it.
    env_traceparent = os.environ.get("REPRO_TRACEPARENT")
    if env_traceparent:
        from repro.obs import context as trace_context

        trace_context.set_current(
            trace_context.mint(
                env_traceparent,
                getattr(args, "obs_trace_sample_rate", 1.0),
            )
        )
    profiler_state: tuple[Any, str] | None = None
    profile_hz: int | None = getattr(args, "obs_profile_sample", None)
    if profile_hz is not None:
        if profile_hz <= 0:
            print(
                f"repro: error: --profile-sample must be positive, "
                f"got {profile_hz}",
                file=sys.stderr,
            )
            return 2
        profiler_state = _start_sampling_profiler(profile_hz)
    journal = board = monitor = server = None
    if use_obs:
        obs.reset()
        obs.enable()
        if getattr(args, "obs_mem", False):
            obs.enable_memory()
        if journal_path is not None:
            from repro.obs.core import set_journal
            from repro.obs.journal import Journal

            journal = Journal(journal_path)
            set_journal(journal)
        if live:
            from repro.obs.live import LiveBoard

            board = LiveBoard()
        if journal is not None or board is not None:
            from repro.runtime.parallel import SweepMonitor, set_sweep_monitor

            monitor = SweepMonitor(
                listeners=[x for x in (journal, board) if x is not None]
            )
            set_sweep_monitor(monitor)
        if metrics_port is not None:
            from repro.obs.metrics import MetricsServer

            server = MetricsServer(metrics_port).start()
            print(f"serving metrics at {server.url}", file=sys.stderr)
    try:
        with obs.span(f"repro.{args.command}"):
            return handler(args)
    except (ValueError, OSError, ReproError) as exc:
        # Bad runtime configuration (REPRO_JOBS=banana), an unknown
        # program name, a missing/unreadable input file, or a malformed
        # JSON document (json.JSONDecodeError is a ValueError,
        # repro.io.FormatError a ReproError): a clean one-line error,
        # not a traceback.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if profiler_state is not None:
            profiler, spill_dir = profiler_state
            _finish_sampling_profiler(
                profiler,
                spill_dir,
                getattr(args, "obs_profile_out", "repro-profile"),
                profile_hz if profile_hz is not None else 97,
            )
        if use_obs:
            if monitor is not None:
                from repro.runtime.parallel import set_sweep_monitor

                set_sweep_monitor(None)
            if board is not None:
                board.finish()
            if server is not None:
                server.stop()
            if getattr(args, "obs_mem", False):
                obs.disable_memory()
            _obs_finish(trace_path, profile, trace_format)
            if journal is not None:
                from repro.obs.core import set_journal

                journal.close()
                set_journal(None)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
