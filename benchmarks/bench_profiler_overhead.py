"""Sampling-profiler overhead on the serve check workload.

``--profile-sample`` arms a SIGPROF interval timer and walks the Python
stack in the handler at every tick.  The whole point of a sampling
profiler is that this is cheap enough to leave on against production
traffic, so the ledger tracks the measured wall-clock overhead at the
default-ish 99 Hz against the same workload unprofiled — the
acceptance bound is **< 5 %**, and regressions here mean the handler
grew a hot allocation or the spill policy started doing I/O on the
sampling path.

The workload is the serve-throughput corpus checked in-process
(:func:`repro.serve.service.check_document` over every parsed request):
the same parse → fingerprint → checker path a pool worker runs, minus
pool fork/IPC noise that would swamp a percent-level comparison.  A
97/199 Hz pair is also timed (both prime, avoiding phase lock with any
periodic work) so EXPERIMENTS.md can record how overhead scales with
the sampling rate.
"""

import time

import bench_serve_throughput as _serve

from repro.obs.profile import (
    SamplingProfiler,
    export_speedscope,
    validate_speedscope,
)
from repro.serve import CheckOptions, parse_request
from repro.serve.service import check_document


def _parsed_corpus(quick: bool):
    defaults = CheckOptions()
    return [
        parse_request(line, defaults)
        for line in _serve._corpus(quick)
    ]


def _workload_seconds(docs) -> float:
    """One cold pass over the corpus (caches cleared first).

    The memoization layer would otherwise answer every repeat after the
    first from warm caches, collapsing the workload to microseconds and
    leaving the SIGPROF sampler nothing to hit — and making the
    baseline-vs-profiled comparison depend on run order.
    """
    from repro.runtime.parallel import clear_sweep_caches

    clear_sweep_caches()
    t0 = time.perf_counter()
    for doc, options in docs:
        check_document(doc, options)
    return time.perf_counter() - t0


def _calibrate_passes(docs, target_seconds: float) -> int:
    """Passes over the corpus needed to fill ``target_seconds``.

    One pass of the quick corpus is single-digit milliseconds — far too
    short to resolve a percent-level overhead or even guarantee one
    SIGPROF tick (99 Hz needs ~10 ms of CPU per sample).  Calibrating
    to a wall-clock budget makes the comparison independent of corpus
    size and machine speed.
    """
    once = max(_workload_seconds(docs), 1e-4)
    return max(3, int(target_seconds / once) + 1)


def _paired(docs, passes: int, hz: int):
    """Interleaved baseline/profiled totals at one sampling rate.

    Alternating unprofiled and profiled passes pass-by-pass cancels the
    slow drift (CPU frequency scaling, cache/allocator warming, noisy
    neighbors) that makes sequential whole-leg comparisons lie at the
    percent level — an earlier sequential version measured a -18 %
    "overhead" purely from leg ordering.

    Returns ``(baseline_seconds, profiled_seconds, samples, profiler)``;
    ``samples`` accumulates across all profiled passes.
    """
    profiler = SamplingProfiler(hz=hz)
    # Alternate in chunks of ~100 ms, not single passes: stop()
    # disarms the interval timer, so a profiled window shorter than
    # one sampling period (a quick-corpus pass is single-digit ms at
    # 99 Hz ≈ 10 ms/tick) would never fire at all.
    once = max(_workload_seconds(docs), 1e-4)
    chunk = max(1, int(0.1 / once) + 1)
    base_total = prof_total = 0.0
    done = 0
    while done < passes:
        n = min(chunk, passes - done)
        for _ in range(n):
            base_total += _workload_seconds(docs)
        profiler.start()
        try:
            for _ in range(n):
                prof_total += _workload_seconds(docs)
        finally:
            profiler.stop()
        done += n
    samples = sum(profiler.folded().values())
    return base_total, prof_total, samples, profiler


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py)."""
    docs = _parsed_corpus(quick)
    passes = _calibrate_passes(docs, 0.4 if quick else 1.5)
    base99, prof99, samples99, profiler = _paired(docs, passes, 99)
    base97, prof97, samples97, _ = _paired(docs, passes, 97)
    base199, prof199, samples199, _ = _paired(docs, passes, 199)
    if check:
        assert samples99 > 0, "sampler captured nothing at 99 Hz"
        assert samples199 > 0, "sampler captured nothing at 199 Hz"
        doc = export_speedscope({0: profiler.folded()}, 99)
        assert validate_speedscope(doc) == [], "speedscope export invalid"
        # Loose sanity bound only: the ledger records the precise
        # number, CI machines are too noisy for a hard 5 % gate here.
        assert prof99 < base99 * 2.0, "profiled run twice the baseline"

    def pct(base: float, profiled: float) -> float:
        return round((profiled - base) / base * 100.0, 2)

    return {
        "items": len(docs),
        "passes": passes,
        "baseline_seconds": round(base99, 6),
        "profiled99_seconds": round(prof99, 6),
        "profiled97_seconds": round(prof97, 6),
        "profiled199_seconds": round(prof199, 6),
        "overhead_pct_99hz": pct(base99, prof99),
        "overhead_pct_97hz": pct(base97, prof97),
        "overhead_pct_199hz": pct(base199, prof199),
        "samples_99hz": samples99,
        "samples_97hz": samples97,
        "samples_199hz": samples199,
    }
