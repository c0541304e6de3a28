#!/usr/bin/env python
"""CI smoke check for the observability layer.

Four checks, all exercised by the ``obs-smoke`` CI job:

1. ``python scripts/obs_smoke.py validate TRACE.json`` — the file is a
   structurally valid trace document (``repro.obs.validate_trace``),
   contains at least one sweep span with shard children, the shard
   telemetry sums to the global sweep counters (the ``--trace`` /
   ``SweepStats`` consistency contract), and no shard checked more
   pairs than it decided (``evaluated <= pairs``: each checked pair
   stands for its whole isomorphism class).  Chrome trace-event documents
   (``--trace-format chrome``) are auto-detected by their
   ``traceEvents`` key and checked with
   ``repro.obs.validate_chrome_trace`` (every event carries
   ph/ts/pid/tid, ts are non-negative and monotone, X events have a
   duration); ``--min-pids N`` additionally requires the events to span
   at least N distinct pid tracks (a multi-worker sweep must not
   collapse onto one row).
2. ``python scripts/obs_smoke.py uncached`` — the cache-propagation
   invariant: ``sweep_caching(False)`` sweeps dispatched to a process
   pool — the inclusion matrix and the question battery (separation
   edges, Theorem-12 constructibility, Theorem-23 probes) — must report
   **zero** cache consultations from their workers (the
   flag travels inside each ``ShardSpec``; before the fix workers
   silently re-enabled caching, poisoning uncached baselines).
3. ``python scripts/obs_smoke.py replay JOURNAL.jsonl [--expect-aborted]``
   — the crash-recovery contract: ``repro.obs.replay_journal`` must turn
   the journal (including one torn mid-record by ``kill -9``) into a
   trace that passes ``validate_trace`` *and* ``validate_chrome_trace``;
   with ``--expect-aborted`` the journal must additionally be a torn one
   (non-clean shutdown, at least one span recovered as ``aborted``).
4. ``python scripts/obs_smoke.py prom METRICS.txt`` — the Prometheus
   exposition shape: at least one ``# TYPE`` line, every ``# TYPE`` is
   counter/gauge/histogram, every sample line parses with a finite
   non-negative value, and histogram ``_bucket`` series are cumulative
   (monotone non-decreasing in ``le``, capped by ``+Inf``).
5. ``python scripts/obs_smoke.py sarif REPORT.sarif [--min-results N]``
   — the ``repro lint --format sarif`` artifact is structurally valid
   SARIF 2.1.0 (``repro.analysis.validate_sarif``), its driver is
   ``repro-lint``, every result carries a ``reproLint/v1``
   fingerprint, and (with ``--min-results``) the run reported at
   least N results.
6. ``python scripts/obs_smoke.py flow CHROME.json [--min-pids N]
   [--trace-id HEX]`` — the cross-process trace-stitching contract:
   the Chrome export of a traced serve/sweep run must contain spans
   annotated with ``trace_id``/``span_id``, every cross-pid
   parent link must come with a matching flow-arrow pair (``ph: "s"``
   on the parent's track, ``ph: "f"`` on the child's, shared id), the
   linked spans must cover at least N distinct pids, and (with
   ``--trace-id``) the spans must carry exactly that trace id — one
   ``traceparent``-stamped request stitches into one tree.
7. ``python scripts/obs_smoke.py speedscope PROFILE.json`` — the
   ``--profile-sample`` artifact is a structurally valid speedscope
   document (``repro.obs.profile.validate_speedscope``) with at least
   one profile containing at least one sample.
8. ``python scripts/obs_smoke.py hier RUNS.jsonl CHROME.json`` — the
   ``repro hier sweep`` contract: every faithful run record carries
   ``lc_verified: true`` (the post-mortem streaming check passed),
   every fault probe is rejected with a rendered violation, per-level
   counters are present on every record, miss-latency p50s are
   monotone in level depth within each record, and the Chrome trace is
   valid with at least two ``hier p<proc> L<level>`` process tracks
   spanning at least two levels.

Exit code 0 on success, 1 with a diagnostic on the first failure.
"""

from __future__ import annotations

import json
import sys


def _iter_spans(spans):
    stack = list(spans)
    while stack:
        sp = stack.pop()
        yield sp
        stack.extend(sp.get("children", ()))


def check_chrome_trace(doc: dict, min_pids: int) -> int:
    from repro.obs import validate_chrome_trace

    problems = validate_chrome_trace(doc)
    if problems:
        for p in problems:
            print(f"obs-smoke: invalid chrome trace: {p}", file=sys.stderr)
        return 1
    events = doc["traceEvents"]
    complete = [ev for ev in events if ev.get("ph") == "X"]
    pids = {ev["pid"] for ev in complete}
    if len(pids) < min_pids:
        print(
            f"obs-smoke: chrome trace spans only {len(pids)} pid track(s) "
            f"({sorted(pids)}); expected at least {min_pids} — worker "
            "spans did not land on their own tracks",
            file=sys.stderr,
        )
        return 1
    print(
        f"obs-smoke: chrome trace OK — {len(events)} events, "
        f"{len(complete)} complete spans across {len(pids)} pid track(s)"
    )
    return 0


def check_trace(path: str, min_pids: int = 1) -> int:
    from repro.obs import validate_trace

    with open(path) as f:
        doc = json.load(f)
    if "traceEvents" in doc:
        return check_chrome_trace(doc, min_pids)
    problems = validate_trace(doc)
    if problems:
        for p in problems:
            print(f"obs-smoke: invalid trace: {p}", file=sys.stderr)
        return 1

    spans = list(_iter_spans(doc.get("spans", [])))
    sweeps = [sp for sp in spans if sp["name"].startswith("sweep:")]
    if not sweeps:
        print("obs-smoke: trace contains no sweep spans", file=sys.stderr)
        return 1
    shards = [
        child
        for sweep in sweeps
        for child in sweep["children"]
        if child["name"] == "shard"
    ]
    if not shards:
        print("obs-smoke: sweep spans carry no shard children", file=sys.stderr)
        return 1

    counters = doc["counters"]
    for sp in shards:
        attrs = sp["attrs"]
        if not 0 <= attrs.get("evaluated", -1) <= attrs["pairs"]:
            print(
                f"obs-smoke: shard n={attrs['n']} "
                f"masks[{attrs['mask_lo']}:{attrs['mask_hi']}) evaluated "
                f"{attrs.get('evaluated')} pairs but decided {attrs['pairs']}",
                file=sys.stderr,
            )
            return 1
    shard_pairs = sum(sp["attrs"]["pairs"] for sp in shards)
    if shard_pairs != counters.get("sweep.pairs"):
        print(
            f"obs-smoke: shard spans sum to {shard_pairs} pairs but the "
            f"sweep.pairs counter says {counters.get('sweep.pairs')}",
            file=sys.stderr,
        )
        return 1
    consultations = sum(
        info["hits"] + info["misses"]
        for sp in shards
        for info in sp["attrs"]["caches"].values()
    )
    if consultations != counters.get("sweep.cache.consultations"):
        print(
            f"obs-smoke: shard telemetry sums to {consultations} cache "
            "consultations but the sweep.cache.consultations counter says "
            f"{counters.get('sweep.cache.consultations')}",
            file=sys.stderr,
        )
        return 1
    evaluated = sum(sp["attrs"]["evaluated"] for sp in shards)
    print(
        f"obs-smoke: trace OK — {len(spans)} spans, {len(sweeps)} sweeps, "
        f"{len(shards)} shards, {shard_pairs} pairs "
        f"({evaluated} evaluated), "
        f"{consultations} cache consultations"
    )
    return 0


def check_uncached() -> int:
    from repro._caching import sweep_caching
    from repro.analysis.lattice import PAPER_EDGES
    from repro.core.ops import N as NOP, R
    from repro.models import LC, NN, SC, Universe
    from repro.runtime.parallel import (
        parallel_inclusion_matrix,
        parallel_lattice_battery,
    )

    universe = Universe(max_nodes=3, locations=("x",))
    with sweep_caching(False):
        _, inclusion = parallel_inclusion_matrix(
            (SC, LC), universe, jobs=2, parallel_threshold=0
        )
        # The battery is the one kernel behind the generic augmentation
        # path (Theorem-12 closure, Theorem-23 probes), so it must honour
        # the flag in its workers too.
        _, battery = parallel_lattice_battery(
            universe,
            edges=PAPER_EDGES,
            constructibility=(NN, LC),
            thm23_probes=(R("x"), NOP),
            jobs=2,
            parallel_threshold=0,
        )
    for stats in (inclusion, battery):
        if not stats.mode.startswith("process-pool"):
            print(
                f"obs-smoke: expected a pool sweep for {stats.label!r}, "
                f"got mode {stats.mode!r}",
                file=sys.stderr,
            )
            return 1
        flags = {s.cache_enabled for s in stats.shards}
        consultations = stats.cache_consultations()
        if flags != {False} or consultations != 0:
            print(
                f"obs-smoke: sweep_caching(False) leaked in {stats.label!r} "
                f"— workers reported cache_enabled={flags}, "
                f"{consultations} consultations",
                file=sys.stderr,
            )
            return 1
        print(
            f"obs-smoke: uncached invariant OK — {stats.label}: "
            f"{stats.mode}, {len(stats.shards)} shards, "
            "0 worker cache consultations"
        )
    return 0


def check_replay(path: str, expect_aborted: bool) -> int:
    from repro.obs import (
        replay_journal,
        validate_chrome_trace,
        validate_trace,
    )
    from repro.obs.export import export_chrome

    replay = replay_journal(path)
    problems = validate_trace(replay.to_trace_dict())
    if problems:
        for p in problems:
            print(f"obs-smoke: replayed trace invalid: {p}", file=sys.stderr)
        return 1
    chrome = json.loads(export_chrome(replay.obs))
    problems = validate_chrome_trace(chrome)
    if problems:
        for p in problems:
            print(
                f"obs-smoke: replayed chrome trace invalid: {p}",
                file=sys.stderr,
            )
        return 1
    if expect_aborted:
        if replay.clean:
            print(
                "obs-smoke: journal closed cleanly but a torn (kill -9) "
                "journal was expected — the crash did not land mid-sweep",
                file=sys.stderr,
            )
            return 1
        if not replay.aborted:
            print(
                "obs-smoke: torn journal recovered but no span was marked "
                "aborted — the crash left no dangling work?",
                file=sys.stderr,
            )
            return 1
    shutdown = "clean" if replay.clean else "torn"
    print(
        f"obs-smoke: replay OK — {replay.records} records ({shutdown} "
        f"shutdown), {replay.dropped} dropped line(s), "
        f"{len(replay.aborted)} span(s) recovered as aborted "
        f"{replay.aborted}"
    )
    return 0


def check_prom(path: str) -> int:
    with open(path) as f:
        text = f.read()
    types: dict[str, str] = {}
    buckets: dict[str, list[tuple[float, float]]] = {}
    samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram"
            ):
                print(
                    f"obs-smoke: bad TYPE line {lineno}: {line!r}",
                    file=sys.stderr,
                )
                return 1
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        try:
            name_part, value_part = line.rsplit(" ", 1)
            value = float(value_part)
        except ValueError:
            print(
                f"obs-smoke: unparsable sample line {lineno}: {line!r}",
                file=sys.stderr,
            )
            return 1
        if value != value or value < 0:
            print(
                f"obs-smoke: negative/NaN sample on line {lineno}: {line!r}",
                file=sys.stderr,
            )
            return 1
        samples += 1
        if "_bucket{le=" in name_part:
            metric, le_part = name_part.split("_bucket{le=", 1)
            le_text = le_part.rstrip("}").strip('"')
            le = float("inf") if le_text == "+Inf" else float(le_text)
            buckets.setdefault(metric, []).append((le, value))
    if not types:
        print("obs-smoke: no # TYPE lines in exposition", file=sys.stderr)
        return 1
    if not samples:
        print("obs-smoke: no sample lines in exposition", file=sys.stderr)
        return 1
    for metric, series in buckets.items():
        ordered = sorted(series, key=lambda pair: pair[0])
        counts = [count for _, count in ordered]
        if counts != sorted(counts):
            print(
                f"obs-smoke: histogram {metric} buckets are not cumulative: "
                f"{ordered}",
                file=sys.stderr,
            )
            return 1
        if ordered[-1][0] != float("inf"):
            print(
                f"obs-smoke: histogram {metric} is missing its +Inf bucket",
                file=sys.stderr,
            )
            return 1
    print(
        f"obs-smoke: prometheus exposition OK — {len(types)} metrics "
        f"({sum(1 for t in types.values() if t == 'histogram')} histograms), "
        f"{samples} samples, all buckets cumulative"
    )
    return 0


def check_sarif(path: str, min_results: int = 0) -> int:
    from repro.analysis import validate_sarif

    with open(path) as f:
        doc = json.load(f)
    try:
        validate_sarif(doc)
    except ValueError as exc:
        print(f"obs-smoke: {exc}", file=sys.stderr)
        return 1
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    if driver["name"] != "repro-lint":
        print(
            f"obs-smoke: sarif driver is {driver['name']!r}, "
            "expected 'repro-lint'",
            file=sys.stderr,
        )
        return 1
    results = run["results"]
    missing_fp = [
        i
        for i, res in enumerate(results)
        if "reproLint/v1" not in res.get("partialFingerprints", {})
    ]
    if missing_fp:
        print(
            f"obs-smoke: sarif results {missing_fp} carry no "
            "reproLint/v1 fingerprint — baseline matching would break",
            file=sys.stderr,
        )
        return 1
    if len(results) < min_results:
        print(
            f"obs-smoke: sarif run has {len(results)} result(s), "
            f"expected at least {min_results}",
            file=sys.stderr,
        )
        return 1
    suppressed = sum(1 for res in results if res.get("suppressions"))
    print(
        f"obs-smoke: sarif OK — {len(driver['rules'])} rules, "
        f"{len(results)} results ({suppressed} suppressed), "
        "all fingerprinted"
    )
    return 0


def check_flow(path: str, min_pids: int, trace_id: str | None) -> int:
    from repro.obs import validate_chrome_trace

    with open(path) as f:
        doc = json.load(f)
    problems = validate_chrome_trace(doc)
    if problems:
        for p in problems:
            print(f"obs-smoke: invalid chrome trace: {p}", file=sys.stderr)
        return 1
    events = doc["traceEvents"]
    spans = [ev for ev in events if ev.get("ph") == "X"]
    traced = [
        ev for ev in spans if ev.get("args", {}).get("trace_id")
    ]
    if not traced:
        print(
            "obs-smoke: chrome trace has no trace_id-annotated spans — "
            "trace-context propagation did not reach the exporter",
            file=sys.stderr,
        )
        return 1
    if trace_id is not None:
        foreign = {
            ev["args"]["trace_id"]
            for ev in traced
            if ev["args"]["trace_id"] != trace_id
        }
        mine = [
            ev for ev in traced if ev["args"]["trace_id"] == trace_id
        ]
        if not mine:
            print(
                f"obs-smoke: no span carries trace_id {trace_id} "
                f"(saw {sorted(foreign)})",
                file=sys.stderr,
            )
            return 1
        traced = mine
    by_span = {
        ev["args"]["span_id"]: ev
        for ev in traced
        if ev.get("args", {}).get("span_id")
    }
    # Cross-pid parent links that must each be stitched by a flow pair.
    cross = []
    for ev in traced:
        parent_sid = ev.get("args", {}).get("parent_span_id")
        src = by_span.get(parent_sid) if parent_sid else None
        if src is not None and src["pid"] != ev["pid"]:
            cross.append((src, ev))
    if not cross:
        print(
            "obs-smoke: no cross-pid parent links among traced spans — "
            "the request never crossed the pool fork boundary",
            file=sys.stderr,
        )
        return 1
    starts = {
        (ev["pid"], ev["tid"], ev.get("id"))
        for ev in events
        if ev.get("ph") == "s"
    }
    finishes = {
        (ev["pid"], ev["tid"], ev.get("id"))
        for ev in events
        if ev.get("ph") == "f"
    }
    flow_ids_start = {fid for _, _, fid in starts}
    flow_ids_finish = {fid for _, _, fid in finishes}
    if flow_ids_start != flow_ids_finish:
        print(
            "obs-smoke: unpaired flow events — starts "
            f"{sorted(flow_ids_start)} vs finishes {sorted(flow_ids_finish)}",
            file=sys.stderr,
        )
        return 1
    if len(flow_ids_start) < len(cross):
        print(
            f"obs-smoke: {len(cross)} cross-pid parent link(s) but only "
            f"{len(flow_ids_start)} flow pair(s) — arrows are missing",
            file=sys.stderr,
        )
        return 1
    linked_pids = {ev["pid"] for src, ev in cross} | {
        src["pid"] for src, ev in cross
    }
    if len(linked_pids) < min_pids:
        print(
            f"obs-smoke: stitched trace covers only {len(linked_pids)} "
            f"pid(s) ({sorted(linked_pids)}); expected at least {min_pids}",
            file=sys.stderr,
        )
        return 1
    tids = {ev["args"]["trace_id"] for ev in traced}
    print(
        f"obs-smoke: flow OK — {len(traced)} traced spans "
        f"(trace ids {sorted(tids)}), {len(cross)} cross-pid link(s) "
        f"stitched by {len(flow_ids_start)} flow pair(s) across "
        f"{len(linked_pids)} pid(s)"
    )
    return 0


def check_speedscope(path: str) -> int:
    from repro.obs.profile import validate_speedscope_file

    problems = validate_speedscope_file(path)
    if problems:
        for p in problems:
            print(f"obs-smoke: invalid speedscope: {p}", file=sys.stderr)
        return 1
    with open(path) as f:
        doc = json.load(f)
    profiles = doc.get("profiles", [])
    samples = sum(len(p.get("samples", [])) for p in profiles)
    if samples == 0:
        print(
            "obs-smoke: speedscope document has zero samples — the "
            "SIGPROF sampler never fired",
            file=sys.stderr,
        )
        return 1
    frames = len(doc.get("shared", {}).get("frames", []))
    print(
        f"obs-smoke: speedscope OK — {len(profiles)} profile(s), "
        f"{samples} sample(s), {frames} distinct frame(s)"
    )
    return 0


_LEVEL_KEYS = (
    "fetches",
    "hits",
    "writebacks",
    "evictions",
    "false_sharing",
    "miss_latency_p50",
    "miss_count",
)


def check_hier(runs_path: str, chrome_path: str) -> int:
    from repro.obs import validate_chrome_trace

    with open(runs_path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    if not records:
        print("obs-smoke: hier runs file is empty", file=sys.stderr)
        return 1
    faithful = [r for r in records if r.get("faithful")]
    probes = [r for r in records if not r.get("faithful")]
    if not faithful:
        print("obs-smoke: no faithful hier runs recorded", file=sys.stderr)
        return 1
    if not probes:
        print("obs-smoke: no hier fault probes recorded", file=sys.stderr)
        return 1
    for i, rec in enumerate(records):
        levels = rec.get("levels")
        if not levels:
            print(
                f"obs-smoke: hier record {i} has no per-level counters",
                file=sys.stderr,
            )
            return 1
        for lv in levels:
            missing = [k for k in _LEVEL_KEYS if k not in lv]
            if missing:
                print(
                    f"obs-smoke: hier record {i} level {lv.get('level')} "
                    f"is missing counters {missing}",
                    file=sys.stderr,
                )
                return 1
        # Miss latency grows with depth: a deeper level only sees
        # requests that already paid every shallower level's probe.
        p50s = [
            lv["miss_latency_p50"] for lv in levels if lv["miss_count"] > 0
        ]
        if p50s != sorted(p50s):
            print(
                f"obs-smoke: hier record {i} "
                f"({rec.get('shape')}/{rec.get('workload')}) has "
                f"non-monotone per-level miss-latency p50s: {p50s}",
                file=sys.stderr,
            )
            return 1
    bad = [r for r in faithful if not r.get("lc_verified")]
    if bad:
        print(
            f"obs-smoke: {len(bad)} faithful hier run(s) failed the "
            "post-mortem LC check: "
            f"{[(r['shape'], r['workload']) for r in bad]}",
            file=sys.stderr,
        )
        return 1
    unrejected = [
        r for r in probes if r.get("lc_verified") or not r.get("violation")
    ]
    if unrejected:
        print(
            f"obs-smoke: {len(unrejected)} fault probe(s) were not "
            "rejected with a violation: "
            f"{[r['workload'] for r in unrejected]}",
            file=sys.stderr,
        )
        return 1

    with open(chrome_path) as f:
        doc = json.load(f)
    problems = validate_chrome_trace(doc)
    if problems:
        for p in problems:
            print(f"obs-smoke: invalid chrome trace: {p}", file=sys.stderr)
        return 1
    track_names = {
        ev["args"]["name"]
        for ev in doc["traceEvents"]
        if ev.get("ph") == "M" and ev.get("name") == "process_name"
    }
    hier_tracks = {n for n in track_names if n.startswith("hier p")}
    if len(hier_tracks) < 2:
        print(
            f"obs-smoke: chrome trace has {len(hier_tracks)} hier track(s) "
            f"({sorted(hier_tracks)}); expected per-(processor, level) "
            "tracks",
            file=sys.stderr,
        )
        return 1
    levels_seen = {n.rsplit("L", 1)[-1] for n in hier_tracks}
    if len(levels_seen) < 2:
        print(
            f"obs-smoke: hier tracks cover only level(s) "
            f"{sorted(levels_seen)}; expected at least two levels",
            file=sys.stderr,
        )
        return 1
    shapes = sorted({r["shape"] for r in faithful})
    workloads = sorted({r["workload"] for r in faithful})
    print(
        f"obs-smoke: hier OK — {len(faithful)} faithful run(s) "
        f"({len(shapes)} shapes × {len(workloads)} workloads) all "
        f"LC-verified, {len(probes)} fault probe(s) all rejected, "
        f"monotone per-level miss latencies, {len(hier_tracks)} hier "
        f"track(s) over {len(levels_seen)} level(s)"
    )
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "validate":
        min_pids = 1
        rest = argv[2:]
        if rest[:1] == ["--min-pids"] and len(rest) == 2 and rest[1].isdigit():
            min_pids = int(rest[1])
        elif rest:
            print(f"obs-smoke: unknown arguments {rest}", file=sys.stderr)
            return 2
        return check_trace(argv[1], min_pids)
    if argv == ["uncached"]:
        return check_uncached()
    if len(argv) >= 2 and argv[0] == "replay":
        rest = argv[2:]
        if rest not in ([], ["--expect-aborted"]):
            print(f"obs-smoke: unknown arguments {rest}", file=sys.stderr)
            return 2
        return check_replay(argv[1], expect_aborted=bool(rest))
    if len(argv) == 2 and argv[0] == "prom":
        return check_prom(argv[1])
    if len(argv) >= 2 and argv[0] == "flow":
        min_pids = 2
        trace_id: str | None = None
        rest = argv[2:]
        while rest:
            if rest[:1] == ["--min-pids"] and len(rest) >= 2 and rest[1].isdigit():
                min_pids = int(rest[1])
                rest = rest[2:]
            elif rest[:1] == ["--trace-id"] and len(rest) >= 2:
                trace_id = rest[1]
                rest = rest[2:]
            else:
                print(f"obs-smoke: unknown arguments {rest}", file=sys.stderr)
                return 2
        return check_flow(argv[1], min_pids, trace_id)
    if len(argv) == 2 and argv[0] == "speedscope":
        return check_speedscope(argv[1])
    if len(argv) == 3 and argv[0] == "hier":
        return check_hier(argv[1], argv[2])
    if len(argv) >= 2 and argv[0] == "sarif":
        min_results = 0
        rest = argv[2:]
        if (
            rest[:1] == ["--min-results"]
            and len(rest) == 2
            and rest[1].isdigit()
        ):
            min_results = int(rest[1])
        elif rest:
            print(f"obs-smoke: unknown arguments {rest}", file=sys.stderr)
            return 2
        return check_sarif(argv[1], min_results)
    print(
        "usage: obs_smoke.py validate TRACE.json [--min-pids N] | "
        "obs_smoke.py uncached | "
        "obs_smoke.py replay JOURNAL.jsonl [--expect-aborted] | "
        "obs_smoke.py prom METRICS.txt | "
        "obs_smoke.py sarif REPORT.sarif [--min-results N] | "
        "obs_smoke.py flow CHROME.json [--min-pids N] [--trace-id HEX] | "
        "obs_smoke.py speedscope PROFILE.json | "
        "obs_smoke.py hier RUNS.jsonl CHROME.json",
        file=sys.stderr,
    )
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
