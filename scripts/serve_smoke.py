#!/usr/bin/env python
"""CI smoke check for the ``repro serve`` trace-checking service.

Five subcommands, all exercised by the ``serve-smoke`` CI job:

1. ``python scripts/serve_smoke.py gen N BATCH.jsonl`` — write a
   deterministic N-item mixed batch: even indices are admitted
   write/read chains (growing sizes), odd indices are violating
   serialization cycles under rotating relabellings.  The corpus
   repeats shapes heavily on purpose — the dedupe layer is part of
   what the job gates.
2. ``python scripts/serve_smoke.py verify VERDICTS.jsonl --items N
   [--trace-id HEX]`` — every verdict line is ``ok``, indices cover
   0..N-1 exactly once, the admitted/rejected split matches the
   generator's parity rule, every rejection carries a witness with
   structured block ids, and the dedupe hit count collapses the corpus
   to its canonical classes.  With ``--trace-id``, every verdict must
   additionally echo that ``trace_id`` plus a distinct per-item
   ``request_id`` — the end-to-end propagation contract for a batch
   posted with a ``traceparent`` header.
3. ``python scripts/serve_smoke.py metrics METRICS.txt --items N`` —
   the live Prometheus exposition carries the serve counters
   (``repro_serve_items`` == N, verdict counters sum to N, dedupe hits
   > 0) and the per-check latency histogram.
4. ``python scripts/serve_smoke.py ledger LEDGER.json --items N
   [--expect-torn]`` — the ``repro serve --replay-ledger`` output
   accounts for every accepted item (``pending`` == 0), with
   ``--expect-torn`` additionally requiring a non-clean shutdown (the
   SIGKILL leg: accepted work must still reconcile).
5. ``python scripts/serve_smoke.py same A.jsonl B.jsonl`` — two verdict
   files of one batch agree item for item: the same indices, and per
   index the same ``admitted`` and ``verdicts`` (say, a run with a
   monitor installed and one without).

Exit code 0 on success, 1 with a diagnostic on the first failure.
"""

from __future__ import annotations

import itertools
import json
import sys


def _chain_trace(n: int):
    from repro.core import Computation, R, W
    from repro.dag import Dag
    from repro.runtime import ExecutionTrace, ReadEvent
    from repro.runtime.scheduler import Schedule

    ops = tuple(W("x") if i % 2 == 0 else R("x") for i in range(n))
    comp = Computation(Dag(n, [(i, i + 1) for i in range(n - 1)]), ops)
    sched = Schedule(comp, (0,) * n, tuple(range(n)), 1)
    reads = [ReadEvent(i, "x", i - 1) for i in range(1, n) if i % 2 == 1]
    return ExecutionTrace(comp, sched, "smoke", reads)


def _cycle_trace(perm):
    from repro.core import Computation, R, W
    from repro.dag import Dag
    from repro.runtime import ExecutionTrace, ReadEvent
    from repro.runtime.scheduler import Schedule

    edges = [(perm[2], perm[0]), (perm[0], perm[1])]
    ops = [None, None, None]
    ops[perm[0]], ops[perm[1]], ops[perm[2]] = W("x"), R("x"), W("x")
    comp = Computation(Dag(3, edges), tuple(ops))
    order = {perm[1]: 2, perm[2]: 0, perm[0]: 1}
    sched = Schedule(comp, (0, 0, 0), tuple(order[i] for i in range(3)), 1)
    return ExecutionTrace(
        comp, sched, "smoke", [ReadEvent(perm[1], "x", perm[2])]
    )


#: Chains of 2..7 nodes (6 classes) + one cycle class = 7 canonical
#: classes total, however large the batch.
UNIQUE_CLASSES = 7


def batch_lines(count: int) -> list[str]:
    """The ``count`` request lines of the mixed batch (see ``gen``)."""
    from repro.io import dump_trace

    chains = [json.dumps(dump_trace(_chain_trace(n))) for n in range(2, 8)]
    cycles = [
        json.dumps(dump_trace(_cycle_trace(p)))
        for p in itertools.permutations((0, 1, 2))
    ]
    return [
        chains[(i // 2) % len(chains)]
        if i % 2 == 0
        else cycles[(i // 2) % len(cycles)]
        for i in range(count)
    ]


def gen_batch(count: int, out_path: str) -> int:
    with open(out_path, "w", encoding="utf-8") as f:
        for line in batch_lines(count):
            f.write(line + "\n")
    print(f"serve-smoke: wrote {count} request(s) to {out_path}")
    return 0


def compare_runs(path_a: str, path_b: str) -> int:
    runs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as f:
            verdicts = [json.loads(line) for line in f if line.strip()]
        runs.append({v["index"]: v for v in verdicts})
    a, b = runs
    if a.keys() != b.keys():
        print(
            f"serve-smoke: {path_a} and {path_b} answer different indices",
            file=sys.stderr,
        )
        return 1
    for index in sorted(a):
        for field in ("admitted", "verdicts"):
            if a[index].get(field) != b[index].get(field):
                print(
                    f"serve-smoke: item {index} {field} differs: "
                    f"{a[index].get(field)!r} vs {b[index].get(field)!r}",
                    file=sys.stderr,
                )
                return 1
    print(f"serve-smoke: {len(a)} item(s) agree between the two runs")
    return 0


def check_verdicts(
    path: str, items: int, trace_id: str | None = None
) -> int:
    with open(path, encoding="utf-8") as f:
        verdicts = [json.loads(line) for line in f if line.strip()]
    if len(verdicts) != items:
        print(
            f"serve-smoke: {len(verdicts)} verdict line(s), expected {items}",
            file=sys.stderr,
        )
        return 1
    indices = sorted(v["index"] for v in verdicts)
    if indices != list(range(items)):
        print(
            "serve-smoke: verdict indices do not cover the batch "
            f"(got {len(set(indices))} distinct of {items})",
            file=sys.stderr,
        )
        return 1
    bad = [v for v in verdicts if not v.get("ok")]
    if bad:
        print(
            f"serve-smoke: {len(bad)} item(s) errored, first: "
            f"{bad[0].get('error')!r}",
            file=sys.stderr,
        )
        return 1
    for v in verdicts:
        expect_admitted = v["index"] % 2 == 0
        if v["admitted"] is not expect_admitted:
            print(
                f"serve-smoke: item {v['index']} admitted={v['admitted']}, "
                f"generator says {expect_admitted}",
                file=sys.stderr,
            )
            return 1
        if not expect_admitted:
            witness = v.get("witness")
            if not witness or not witness.get("blocks"):
                print(
                    f"serve-smoke: rejected item {v['index']} carries no "
                    "structured witness blocks",
                    file=sys.stderr,
                )
                return 1
    if trace_id is not None:
        wrong = [
            v["index"] for v in verdicts if v.get("trace_id") != trace_id
        ]
        if wrong:
            print(
                f"serve-smoke: item(s) {wrong[:5]} do not echo trace_id "
                f"{trace_id}",
                file=sys.stderr,
            )
            return 1
        request_ids = [v.get("request_id") for v in verdicts]
        if len(set(request_ids)) != items or not all(request_ids):
            print(
                "serve-smoke: request_ids are missing or not distinct "
                f"({len(set(request_ids))} distinct of {items})",
                file=sys.stderr,
            )
            return 1
    cached = sum(1 for v in verdicts if v.get("cached"))
    if cached < items - UNIQUE_CLASSES:
        print(
            f"serve-smoke: only {cached} dedupe hit(s); the corpus has "
            f"{UNIQUE_CLASSES} canonical classes so at least "
            f"{items - UNIQUE_CLASSES} were expected",
            file=sys.stderr,
        )
        return 1
    print(
        f"serve-smoke: verdicts OK — {items} item(s), "
        f"{sum(1 for v in verdicts if v['admitted'])} admitted, "
        f"{cached} dedupe hit(s)"
    )
    return 0


def _prom_samples(path: str) -> dict[str, float]:
    samples: dict[str, float] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            try:
                samples[name] = float(value)
            except ValueError:
                continue
    return samples


def check_metrics(path: str, items: int) -> int:
    samples = _prom_samples(path)

    def get(name: str) -> float:
        if name not in samples:
            print(
                f"serve-smoke: exposition is missing {name}",
                file=sys.stderr,
            )
            raise KeyError(name)
        return samples[name]

    try:
        got_items = get("repro_serve_items")
        admitted = get("repro_serve_verdicts_admitted")
        rejected = get("repro_serve_verdicts_rejected")
        hits = get("repro_serve_dedupe_hits")
        misses = get("repro_serve_dedupe_misses")
        batches = get("repro_serve_batches")
        requests = get("repro_serve_requests")
        check_count = get("repro_serve_check_seconds_count")
    except KeyError:
        return 1
    if got_items != items:
        print(
            f"serve-smoke: repro_serve_items is {got_items}, "
            f"expected {items}",
            file=sys.stderr,
        )
        return 1
    if admitted + rejected != items:
        print(
            f"serve-smoke: verdict counters sum to {admitted + rejected}, "
            f"expected {items}",
            file=sys.stderr,
        )
        return 1
    if hits <= 0 or hits + misses != items:
        print(
            f"serve-smoke: dedupe counters hits={hits} misses={misses} "
            f"do not account for {items} item(s)",
            file=sys.stderr,
        )
        return 1
    if batches < 1 or requests < 1:
        print(
            f"serve-smoke: batches={batches} requests={requests}; "
            "expected at least one of each",
            file=sys.stderr,
        )
        return 1
    if check_count != items:
        print(
            f"serve-smoke: check_seconds histogram observed {check_count} "
            f"item(s), expected {items}",
            file=sys.stderr,
        )
        return 1
    print(
        f"serve-smoke: metrics OK — {int(got_items)} items "
        f"({int(admitted)} admitted / {int(rejected)} rejected), "
        f"{int(hits)} dedupe hit(s), {int(check_count)} timed check(s)"
    )
    return 0


def check_ledger(path: str, items: int, expect_torn: bool) -> int:
    with open(path, encoding="utf-8") as f:
        ledger = json.load(f)
    if ledger["items_accepted"] != items or ledger["items_done"] != items:
        print(
            f"serve-smoke: ledger accounts for "
            f"{ledger['items_done']}/{ledger['items_accepted']} item(s), "
            f"expected {items}/{items}",
            file=sys.stderr,
        )
        return 1
    if ledger["pending"] != 0:
        print(
            f"serve-smoke: {ledger['pending']} item(s) pending — accepted "
            "work was abandoned",
            file=sys.stderr,
        )
        return 1
    if ledger["admitted"] + ledger["rejected"] + ledger["errors"] != items:
        print(
            "serve-smoke: ledger verdict counts do not sum to "
            f"{items}: {ledger}",
            file=sys.stderr,
        )
        return 1
    if expect_torn and ledger["clean"]:
        print(
            "serve-smoke: ledger closed cleanly but a torn (kill -9) "
            "journal was expected",
            file=sys.stderr,
        )
        return 1
    if not expect_torn and not ledger["clean"]:
        print(
            "serve-smoke: ledger is torn but a clean shutdown was expected",
            file=sys.stderr,
        )
        return 1
    shutdown = "clean" if ledger["clean"] else "torn"
    print(
        f"serve-smoke: ledger OK — {ledger['items_done']} item(s) done "
        f"({shutdown} shutdown), {ledger['admitted']} admitted, "
        f"{ledger['rejected']} rejected, {ledger['cached']} cached"
    )
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "gen" and argv[1].isdigit():
        return gen_batch(int(argv[1]), argv[2])
    if len(argv) == 3 and argv[0] == "same":
        return compare_runs(argv[1], argv[2])
    if (
        len(argv) == 4
        and argv[0] in ("verify", "metrics")
        and argv[2] == "--items"
        and argv[3].isdigit()
    ):
        check = check_verdicts if argv[0] == "verify" else check_metrics
        return check(argv[1], int(argv[3]))
    if (
        len(argv) == 6
        and argv[0] == "verify"
        and argv[2] == "--items"
        and argv[3].isdigit()
        and argv[4] == "--trace-id"
    ):
        return check_verdicts(argv[1], int(argv[3]), trace_id=argv[5])
    if (
        len(argv) >= 4
        and argv[0] == "ledger"
        and argv[2] == "--items"
        and argv[3].isdigit()
        and argv[4:] in ([], ["--expect-torn"])
    ):
        return check_ledger(argv[1], int(argv[3]), bool(argv[4:]))
    print(
        "usage: serve_smoke.py gen N BATCH.jsonl | "
        "serve_smoke.py verify VERDICTS.jsonl --items N [--trace-id HEX] | "
        "serve_smoke.py metrics METRICS.txt --items N | "
        "serve_smoke.py ledger LEDGER.json --items N [--expect-torn] | "
        "serve_smoke.py same A.jsonl B.jsonl",
        file=sys.stderr,
    )
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
