"""Serve throughput: batch trace-checking items/s and dedupe rate.

``repro serve`` answers batches of machine-generated litmus traces; the
numbers that matter are **items per second** through the whole engine
(parse → canonical fingerprint → verdict cache → checkers) and the
**dedupe hit rate** the canonical fingerprint buys on a realistic
workload — generated litmus batches repeat shapes heavily, so the cache
is where the throughput comes from.

The corpus mixes admitted write/read chains of growing size, violating
serialization cycles, exact duplicates, and isomorphic relabellings
(which must hit the cache *and* get their witnesses translated).  The
service runs its real single-worker pool: the cold batch pays parse +
fingerprint + dispatch for the 7 unique classes, the warm batches ride
the primed cache — the long-running-server steady state the dedupe
layer exists for.  Quick mode trims the corpus for CI smoke.
"""

import itertools
import json
import time

from repro.core import Computation, R, W
from repro.dag import Dag
from repro.io import dump_trace
from repro.runtime import ExecutionTrace, ReadEvent
from repro.runtime.scheduler import Schedule
from repro.serve import CheckOptions, TraceCheckService


def _chain_trace(n: int) -> ExecutionTrace:
    """W x → R x → W x → … chain of ``n`` nodes: admitted everywhere."""
    ops = tuple(W("x") if i % 2 == 0 else R("x") for i in range(n))
    comp = Computation(Dag(n, [(i, i + 1) for i in range(n - 1)]), ops)
    sched = Schedule(comp, (0,) * n, tuple(range(n)), 1)
    reads = [ReadEvent(i, "x", i - 1) for i in range(1, n) if i % 2 == 1]
    return ExecutionTrace(comp, sched, "bench", reads)


def _cycle_trace(perm: tuple[int, int, int]) -> ExecutionTrace:
    """The 3-node serialization-cycle litmus under a relabelling.

    All six permutations are isomorphic: one fills the cache, the other
    five must come back as dedupe hits with translated witnesses.
    """
    edges = [(perm[2], perm[0]), (perm[0], perm[1])]
    ops = [None, None, None]
    ops[perm[0]], ops[perm[1]], ops[perm[2]] = W("x"), R("x"), W("x")
    comp = Computation(Dag(3, edges), tuple(ops))
    order = {perm[1]: 2, perm[2]: 0, perm[0]: 1}
    sched = Schedule(
        comp, (0, 0, 0), tuple(order[i] for i in range(3)), 1
    )
    return ExecutionTrace(
        comp, sched, "bench", [ReadEvent(perm[1], "x", perm[2])]
    )


def _corpus(quick: bool) -> list[str]:
    chains = [_chain_trace(n) for n in range(2, 8)]
    cycles = [
        _cycle_trace(p) for p in itertools.permutations((0, 1, 2))
    ]
    base = chains + cycles
    repeats = 3 if quick else 25
    lines = [
        json.dumps(dump_trace(t)) for t in base for _ in range(repeats)
    ]
    return lines


def _run_batches(service: TraceCheckService, lines: list[str]):
    t0 = time.perf_counter()
    results = service.check_batch(lines, label="bench")
    return time.perf_counter() - t0, results


def _check(results, lines) -> None:
    assert len(results) == len(lines)
    assert all(r.verdict["ok"] for r in results)
    admitted = sum(1 for r in results if r.verdict["admitted"])
    rejected = sum(1 for r in results if not r.verdict["admitted"])
    assert admitted and rejected, "corpus must mix verdicts"
    for r in results:
        if not r.verdict["admitted"]:
            w = r.verdict["witness"]
            assert w is not None and w["blocks"], "rejects carry witnesses"
    cached = sum(1 for r in results if r.cached)
    # 12 distinct shapes collapse to 7 canonical classes.
    assert cached == len(lines) - 7, "dedupe must collapse the corpus"


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Times a cold batch through a fresh service (empty verdict cache)
    and warm batches through the same service (cache primed — the
    long-running-server steady state), and reports both rates.
    """
    lines = _corpus(quick)
    repeats = 1 if quick else 3
    with TraceCheckService(jobs=1, options=CheckOptions()) as svc:
        cold_s, results = _run_batches(svc, lines)
        if check:
            _check(results, lines)
        warm_s = min(_run_batches(svc, lines)[0] for _ in range(repeats))
        info = svc.cache.info()

    cached = sum(1 for r in results if r.cached)
    admitted = sum(1 for r in results if r.verdict["admitted"])
    return {
        "items": len(lines),
        "unique_classes": info["currsize"],
        "dedupe_hits_cold": cached,
        "dedupe_rate_cold": round(cached / len(lines), 4),
        "admitted": admitted,
        "rejected": len(lines) - admitted,
        "cold_seconds": round(cold_s, 6),
        "warm_seconds": round(warm_s, 6),
        "items_per_second_cold": round(len(lines) / cold_s, 2),
        "items_per_second_warm": round(len(lines) / warm_s, 2),
    }
