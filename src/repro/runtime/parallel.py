"""Process-pool sweep engine for universe-scale model checking.

Every "evaluation" artifact of this repository — the Figure 1 lattice,
the Figures 2–4 witness searches, the Theorem 19/23 sweeps — exhaustively
enumerates ordered dags: ``2^(n choose 2)`` edge masks crossed with op
labellings and observer functions.  The instances are independent, so the
sweeps are embarrassingly parallel (cf. Naylor & Moore's *axe* checker
and Chini & Saivasan's consistency-algorithm framework).  This module is
the shared substrate:

* :class:`ShardSpec` — a picklable description of one slice of the
  enumeration space (a contiguous edge-mask range at one size), which any
  worker process can regenerate independently;
* orbit sweeps — every model is invariant under renaming nodes, so a
  shard checks one computation per isomorphism class (its first member
  in canonical order, :meth:`repro.models.universe.Universe.representatives`)
  and weighs each of its pairs by the class's size;
* :func:`make_shards` / :func:`run_shards` — chunked dispatch over a
  ``ProcessPoolExecutor`` with a serial fallback (``jobs=1``, the
  ``REPRO_JOBS`` environment variable, or universes too small to amortize
  pool startup);
* two shard kernels, one per sweep shape — :func:`inclusion_kernel`, a
  full-scan fold of membership verdicts into an inclusion matrix, and
  :func:`lattice_battery_kernel`, one question battery answering every
  first-witness search (separations, Theorem-12 nonconstructibility)
  and count (Theorem 23) asked of a universe in a single enumeration
  pass.  Membership verdicts and augmentation extensions are shared
  across questions via the caches in :mod:`repro.dag.enumerate`,
  :mod:`repro.core.computation` and :mod:`repro.models.constructibility`;
* :class:`SweepStats` — per-shard timings and cache hit rates, surfaced
  by ``repro lattice --stats`` and the ``BENCH_parallel_sweep.json``
  benchmark, so speedups are measured rather than asserted.  Stats are a
  *view* over the :mod:`repro.obs` span substrate: every sweep builds a
  ``sweep:<label>`` span with one ``shard`` child per shard (worker
  timings, per-worker cache hit/miss deltas, the worker's cache-enabled
  flag), and when the global tracer is enabled the same span object is
  grafted into the live trace and the sweep counters are accumulated.

Correctness of the *measurements*: :class:`ShardSpec` carries the
parent's :mod:`repro._caching` flag into the worker (fresh interpreters
would otherwise re-import ``repro._caching`` with ``ENABLED=True`` and
silently run an "uncached baseline" cached), and the per-shard cache
telemetry proves it — an uncached sweep must report zero cache
consultations in every worker.

Robustness: a crashed worker (``BrokenProcessPool``) no longer kills the
sweep; the affected shards are logged as a structured
:func:`repro.obs.warning` and retried once serially through the *same*
kernel path, so results stay canonical-order identical.

Deterministic merging: shards partition the canonical enumeration order
(size ascending, then edge mask ascending), workers return per-shard
results, and merges fold them in shard order — so counts, inclusion
matrices and *first-witness* searches are bit-identical to the serial
sweep regardless of worker scheduling.  Skipping the non-first members
of each isomorphism class keeps them identical to the labelled
enumeration too: if the first labelled witness ``(C, Φ)`` had an
isomorphic ``C′`` earlier in the order, the renamed pair ``(C′, σΦ)``
would be a witness found before it.  Counts add the class size of each
pair, so :attr:`SweepStats.pairs` still counts the universe pairs a
sweep decided, while :attr:`SweepStats.evaluated` counts the pairs it
actually checked.

Set ``REPRO_JOBS`` (or pass ``--jobs`` on the CLI) to choose the worker
count; ``0`` means one worker per CPU, ``1`` forces the serial path.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Sequence

from repro import kernels, obs
from repro._caching import caches_enabled, sweep_caching
from repro.errors import ConfigError
from repro.models.universe import Universe
from repro.obs import Span
from repro.obs import context as trace_context
from repro.obs import profile as obs_profile
from repro.obs.context import TraceContext

__all__ = [
    "ShardSpec",
    "ShardMeta",
    "ShardOutcome",
    "SweepStats",
    "SweepMonitor",
    "set_sweep_monitor",
    "get_sweep_monitor",
    "heartbeat_interval",
    "effective_jobs",
    "make_shards",
    "run_shards",
    "clear_sweep_caches",
    "publish_cache_gauges",
    "sweep_cache_info",
    "parallel_inclusion_matrix",
    "parallel_lattice_battery",
    "LatticeBatteryResult",
]

PARALLEL_THRESHOLD = 512
"""Universes with fewer computations than this run serially: forking a
pool costs more than the sweep itself."""


# ----------------------------------------------------------------------
# Worker heartbeat channel
# ----------------------------------------------------------------------

HEARTBEAT_PAIRS = 32
"""Pairs between clock checks inside the enumeration loop.  The check
itself is one modulo + comparison; the actual heartbeat (a cache-info
scan and a queue put) only fires when the interval has elapsed."""

_HB: dict[str, Any] | None = None
"""This process's heartbeat channel, or ``None`` (the default: no
monitoring, zero overhead — :meth:`ShardSpec.iter_pairs` returns the raw
iterator untouched).  In a pool worker :func:`_init_pool_worker` points
it at the parent's queue; in the parent, :func:`run_shards` points it at
the active monitor so the serial path and crash retries heartbeat too."""


def heartbeat_interval(default: float = 1.0) -> float:
    """Seconds between worker heartbeats (``REPRO_HEARTBEAT_SECS``)."""
    env = os.environ.get("REPRO_HEARTBEAT_SECS")
    if env:
        try:
            value = float(env)
            if value > 0:
                return value
        except ValueError:
            pass
    return default


def _init_pool_worker(
    hb_queue: Any, interval: float, profile_spec: dict | None = None
) -> None:
    """Pool-worker initializer: route this worker's heartbeats to the
    parent's queue and, when the parent is profiling, arm this worker's
    own SIGPROF sampler.  Passed via ``ProcessPoolExecutor(
    initializer=...)`` so it works under both fork and spawn start
    methods — the one channel that reaches a worker before any task."""
    global _HB
    if hb_queue is not None:
        _HB = {"queue": hb_queue, "monitor": None, "interval": interval}
    if profile_spec is not None:
        try:
            obs_profile.start_worker_profiler(profile_spec)
        except Exception:
            # A worker that cannot profile must still check shards.
            pass


def _cache_totals_now() -> tuple[int, int]:
    info = sweep_cache_info()
    return (
        sum(c["hits"] for c in info.values()),
        sum(c["misses"] for c in info.values()),
    )


def _send_heartbeat(
    shard: "ShardSpec",
    pairs_done: int,
    elapsed: float,
    cache_base: tuple[int, int],
) -> None:
    """Emit one shard-progress heartbeat (see :func:`_emit_heartbeat`)."""
    hits, misses = _cache_totals_now()
    _emit_heartbeat(
        {
            "pid": os.getpid(),
            "n": shard.n,
            "mask_lo": shard.mask_lo,
            "mask_hi": shard.mask_hi,
            "pairs_done": pairs_done,
            "elapsed": round(elapsed, 6),
            "cache_hits": max(0, hits - cache_base[0]),
            "cache_misses": max(0, misses - cache_base[1]),
        }
    )


def _emit_heartbeat(hb: dict) -> None:
    """Deliver one heartbeat over whichever channel this process has.

    A pool worker puts it on the parent's queue; the parent (serial
    path, crash retries) hands it straight to the monitor; a process
    with no channel drops it.  A sampled ambient trace context stamps
    its ids on the beat first.  Sweep shards and the trace-checking
    service (:mod:`repro.serve`) both send through here."""
    hb_state = _HB
    if hb_state is None:
        return
    ctx = trace_context.current()
    if ctx is not None and ctx.sampled:
        hb["trace_id"] = ctx.trace_id
        if ctx.span_id:
            hb["span_id"] = ctx.span_id
    hb_queue = hb_state.get("queue")
    if hb_queue is not None:
        try:
            hb_queue.put_nowait(hb)
        except Exception:
            # A full or torn-down queue must never fail the kernel; the
            # watchdog treats the missing beat as a (recoverable) stall.
            pass
    else:
        monitor = hb_state.get("monitor")
        if monitor is not None:
            monitor.on_worker_heartbeat(hb)


def _heartbeat_iter(shard: "ShardSpec", inner: Any) -> Any:
    """Wrap a shard's pair iterator with interval-limited heartbeats.

    A beat is sent at pair 0 (so even sub-interval shards announce
    themselves deterministically) and then at most once per heartbeat
    interval, checked every :data:`HEARTBEAT_PAIRS` evaluated pairs.
    ``pairs_done`` counts universe pairs (orbit-weighted), like
    :attr:`ShardMeta.pairs`."""
    interval = _HB["interval"] if _HB else 1.0
    t0 = time.perf_counter()
    cache_base = _cache_totals_now()
    _send_heartbeat(shard, 0, 0.0, cache_base)
    next_beat = t0 + interval
    evaluated = pairs = 0
    for item in inner:
        yield item
        evaluated += 1
        pairs += item[2]
        if evaluated % HEARTBEAT_PAIRS == 0:
            now = time.perf_counter()
            if now >= next_beat:
                _send_heartbeat(shard, pairs, now - t0, cache_base)
                next_beat = now + interval


# ----------------------------------------------------------------------
# Work description
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """One independently-enumerable slice of a universe.

    The tuple of universe parameters plus ``(n, mask_lo, mask_hi)`` fully
    determines the slice, so the spec pickles in a few bytes and each
    worker regenerates its computations locally instead of receiving them
    over a pipe.

    ``cache_enabled`` carries the parent process's
    :func:`repro._caching.caches_enabled` state into the worker: pool
    workers may be fresh interpreters whose ``repro._caching`` module
    re-imports with ``ENABLED=True``, so without this field an
    "uncached" sweep (``sweep_caching(False)``) would silently run
    cached inside every worker.  :func:`_instrumented` applies the flag
    around the kernel body and reports the worker's view back in
    :class:`ShardMeta`.

    ``obs_enabled`` does the same for the tracer: a worker's
    :mod:`repro.obs` collector re-imports disabled, so counters emitted
    inside the kernel (``sweep.kernel.*``, or ``backer.*`` from any
    nested execution) would land in the worker's dead singleton and
    vanish.  When the flag is set, :func:`_instrumented` collects the
    worker's counter *deltas* across the kernel body into
    :attr:`ShardMeta.counters` and :func:`run_shards` merges them into
    the parent trace.

    ``trace`` (stamped by :func:`run_shards`) is the sweep's
    propagated trace context as a :meth:`TraceContext.as_tuple` tuple.
    Like the caching and obs flags it exists because a pool worker is a
    separate interpreter: the ambient :mod:`repro.obs.context` does not
    cross ``fork``/``spawn``, so the spec itself carries the ids.
    :func:`_instrumented` re-activates the context in the worker, which
    is how shard spans, heartbeats and kernel warnings all end up
    tagged with the originating request's ``trace_id``.
    """

    max_nodes: int
    locations: tuple
    include_nop: bool
    n: int
    mask_lo: int
    mask_hi: int
    cache_enabled: bool = True
    obs_enabled: bool = False
    trace: tuple | None = None

    def universe(self) -> Universe:
        """Rebuild the owning universe (cheap; workers call this once)."""
        return Universe(
            max_nodes=self.max_nodes,
            locations=self.locations,
            include_nop=self.include_nop,
        )

    def iter_pairs(self):
        """``(computation, observer, weight)`` for every pair of this
        shard's orbit representatives, in canonical order (edge mask
        ascending, then labelling, then observer).

        Each computation is the first of its isomorphism class (see
        :meth:`Universe.representatives`), and ``weight`` is the class
        size: the number of universe pairs the pair stands for.

        When this process has a heartbeat channel (a monitored sweep —
        pool worker or parent-serial), the iterator is wrapped to emit
        interval-limited progress heartbeats; otherwise it is returned
        untouched, so unmonitored sweeps pay nothing."""
        inner = _orbit_pairs(
            self.universe(), self.n, (self.mask_lo, self.mask_hi)
        )
        if _HB is None:
            return inner
        return _heartbeat_iter(self, inner)

    @property
    def num_masks(self) -> int:
        """Number of dag shapes in this shard."""
        return self.mask_hi - self.mask_lo


def _orbit_pairs(universe: Universe, n: int, mask_range: tuple[int, int]):
    for comp, weight in universe.representatives(n, mask_range):
        for phi in universe.observers(comp):
            yield comp, phi, weight


@dataclass
class ShardMeta:
    """Instrumentation for one shard's execution (in its worker process).

    ``pairs`` counts the universe pairs the shard decided (each checked
    pair weighted by its orbit size) and ``evaluated`` the pairs it
    actually checked; an early exit stops both.

    ``caches`` holds the worker-local hits/misses *deltas* of every
    tracked sweep cache across the kernel body; ``cache_enabled`` is the
    caching flag the worker actually ran under (propagated from the
    parent via :attr:`ShardSpec.cache_enabled`); ``pid`` identifies the
    worker process, enabling per-worker telemetry aggregation.

    ``counters`` holds the deltas of every :mod:`repro.obs` counter the
    kernel body incremented, and ``counters_local`` records whether the
    executing process's collector was already live when the shard ran.
    That alone does not prove the increments reached the parent —
    forked pool workers inherit a live collector but increment a doomed
    copy — so :func:`_record_sweep` merges a shard's deltas whenever it
    ran in another process (``pid`` mismatch) *or* its collector was
    only enabled for the shard's duration.  ``mem_peak_bytes`` /
    ``mem_net_bytes`` are the kernel body's tracemalloc high-water mark
    and net allocation when ``REPRO_MEM=1`` (inherited by workers
    through the environment), else 0.
    """

    n: int
    mask_lo: int
    mask_hi: int
    seconds: float
    pairs: int
    evaluated: int = 0
    caches: dict[str, dict[str, int]] = field(default_factory=dict)
    cache_enabled: bool = True
    pid: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    counters_local: bool = True
    mem_peak_bytes: int = 0
    mem_net_bytes: int = 0
    #: Propagated request ids (empty when the sweep was untraced):
    #: ``span_id`` is this shard's own span, ``parent_span_id`` the
    #: sweep span it hangs under — the links the Chrome exporter uses
    #: to stitch worker-pid spans back into the request tree.
    trace_id: str = ""
    span_id: str = ""
    parent_span_id: str = ""

    @property
    def consultations(self) -> int:
        """Total cache consultations (hits + misses) in this shard.

        Zero iff the worker never touched the memoization layer — the
        telemetry signal that proves an "uncached baseline" really ran
        uncached inside the worker.
        """
        return sum(c["hits"] + c["misses"] for c in self.caches.values())

    def as_event(self) -> dict:
        """A compact JSON-safe summary for monitor listeners (the journal's
        ``shard_done`` record, the live board's completion feed)."""
        event = {
            "n": self.n,
            "mask_lo": self.mask_lo,
            "mask_hi": self.mask_hi,
            "seconds": round(self.seconds, 6),
            "pairs": self.pairs,
            "evaluated": self.evaluated,
            "pid": self.pid,
        }
        if self.trace_id:
            event["trace_id"] = self.trace_id
            event["span_id"] = self.span_id
        return event

    def to_span(self) -> Span:
        """This shard's telemetry as an :mod:`repro.obs` span.

        ``start`` is 0.0: worker clocks are not comparable with the
        parent's epoch, only durations travel.
        """
        attrs = {
            "n": self.n,
            "mask_lo": self.mask_lo,
            "mask_hi": self.mask_hi,
            "pairs": self.pairs,
            "evaluated": self.evaluated,
            "cache_enabled": self.cache_enabled,
            "pid": self.pid,
            "caches": self.caches,
            "counters": self.counters,
            "counters_local": self.counters_local,
        }
        if self.mem_peak_bytes or self.mem_net_bytes:
            attrs["mem_peak_bytes"] = self.mem_peak_bytes
            attrs["mem_net_bytes"] = self.mem_net_bytes
        if self.trace_id:
            attrs["trace_id"] = self.trace_id
            attrs["span_id"] = self.span_id
            if self.parent_span_id:
                attrs["parent_span_id"] = self.parent_span_id
        return Span(
            name="shard",
            attrs=attrs,
            start=0.0,
            duration=self.seconds,
        )

    @classmethod
    def from_span(cls, sp: Span) -> "ShardMeta":
        """Inverse of :meth:`to_span`."""
        a = sp.attrs
        return cls(
            n=a["n"],
            mask_lo=a["mask_lo"],
            mask_hi=a["mask_hi"],
            seconds=sp.duration,
            pairs=a["pairs"],
            evaluated=a.get("evaluated", 0),
            caches=a.get("caches", {}),
            cache_enabled=a.get("cache_enabled", True),
            pid=a.get("pid", 0),
            counters=a.get("counters", {}),
            counters_local=a.get("counters_local", True),
            mem_peak_bytes=a.get("mem_peak_bytes", 0),
            mem_net_bytes=a.get("mem_net_bytes", 0),
            trace_id=a.get("trace_id", ""),
            span_id=a.get("span_id", ""),
            parent_span_id=a.get("parent_span_id", ""),
        )


@dataclass
class ShardOutcome:
    """A kernel's return value: the payload plus its instrumentation."""

    payload: Any
    meta: ShardMeta


@dataclass
class SweepStats:
    """Aggregated instrumentation for one sweep — a view over a span.

    The single field is a ``sweep:<label>`` :class:`repro.obs.Span`
    whose children are the per-shard telemetry spans; every property
    below derives from it.  :func:`run_shards` grafts the *same* span
    object into the live trace when the global tracer is enabled, so
    ``--trace`` output and ``--stats`` tables can never disagree.
    """

    span: Span

    @classmethod
    def build(
        cls,
        label: str,
        jobs: int,
        mode: str,
        wall_seconds: float,
        metas: Sequence[ShardMeta],
        retried_shards: int = 0,
    ) -> "SweepStats":
        """Assemble the stats span from worker-returned shard telemetry."""
        root = Span(
            name=f"sweep:{label}",
            attrs={
                "label": label,
                "jobs": jobs,
                "mode": mode,
                "retried_shards": retried_shards,
            },
            start=max(0.0, obs.now() - wall_seconds) if obs.enabled() else 0.0,
            duration=wall_seconds,
            children=[m.to_span() for m in metas],
        )
        return cls(span=root)

    @property
    def label(self) -> str:
        return self.span.attrs["label"]

    @property
    def jobs(self) -> int:
        return self.span.attrs["jobs"]

    @property
    def mode(self) -> str:
        return self.span.attrs["mode"]

    @property
    def wall_seconds(self) -> float:
        return self.span.duration

    @property
    def retried_shards(self) -> int:
        """Shards re-run serially after a worker crash (normally 0)."""
        return self.span.attrs.get("retried_shards", 0)

    @property
    def shards(self) -> list[ShardMeta]:
        """Per-shard telemetry, reconstructed from the span substrate."""
        return [
            ShardMeta.from_span(c)
            for c in self.span.children
            if c.name == "shard"
        ]

    @property
    def pairs(self) -> int:
        """Universe pairs decided across shards: each checked pair counts
        its orbit size, so a full scan gives ``Σ count_pairs(n)``.  Early
        exits decide fewer."""
        return sum(m.pairs for m in self.shards)

    @property
    def evaluated(self) -> int:
        """Pairs actually checked across shards (one per orbit)."""
        return sum(m.evaluated for m in self.shards)

    def cache_totals(self) -> dict[str, dict[str, int]]:
        """Per-cache hits/misses summed over shards."""
        totals: dict[str, dict[str, int]] = {}
        for meta in self.shards:
            for name, counts in meta.caches.items():
                agg = totals.setdefault(name, {"hits": 0, "misses": 0})
                agg["hits"] += counts["hits"]
                agg["misses"] += counts["misses"]
        return totals

    def cache_consultations(self) -> int:
        """Total worker cache consultations (hits + misses) in the sweep."""
        return sum(m.consultations for m in self.shards)

    def by_worker(self) -> dict[int, dict[str, int]]:
        """Per-worker-process cache deltas: pid → hits/misses/shards."""
        out: dict[int, dict[str, int]] = {}
        for meta in self.shards:
            agg = out.setdefault(
                meta.pid, {"hits": 0, "misses": 0, "shards": 0}
            )
            for counts in meta.caches.values():
                agg["hits"] += counts["hits"]
                agg["misses"] += counts["misses"]
            agg["shards"] += 1
        return out

    def to_dict(self) -> dict:
        """JSON-serializable form (used by the benchmark artifacts)."""
        return {
            "label": self.label,
            "jobs": self.jobs,
            "mode": self.mode,
            "wall_seconds": self.wall_seconds,
            "pairs": self.pairs,
            "evaluated": self.evaluated,
            "retried_shards": self.retried_shards,
            "cache_consultations": self.cache_consultations(),
            "shards": [
                {
                    "n": m.n,
                    "mask_lo": m.mask_lo,
                    "mask_hi": m.mask_hi,
                    "seconds": m.seconds,
                    "pairs": m.pairs,
                    "evaluated": m.evaluated,
                    "pid": m.pid,
                    "cache_enabled": m.cache_enabled,
                }
                for m in self.shards
            ],
            "caches": self.cache_totals(),
        }

    def render(self) -> str:
        """Human-readable table for ``--stats``."""
        lines = [
            f"sweep {self.label!r}: {self.mode}, jobs={self.jobs}, "
            f"{self.pairs} pairs ({self.evaluated} evaluated) "
            f"in {self.wall_seconds:.3f}s"
        ]
        if self.retried_shards:
            lines.append(
                f"  {self.retried_shards} shard(s) retried serially after "
                "a worker crash"
            )
        for m in self.shards:
            lines.append(
                f"  shard n={m.n} masks[{m.mask_lo}:{m.mask_hi}) "
                f"{m.pairs:>6} pairs ({m.evaluated:>5} evaluated)  "
                f"{m.seconds:.3f}s"
            )
        for name, c in sorted(self.cache_totals().items()):
            total = c["hits"] + c["misses"]
            rate = (100.0 * c["hits"] / total) if total else 0.0
            lines.append(
                f"  cache {name}: {rate:.0f}% hit ({c['hits']}/{total})"
            )
        workers = self.by_worker()
        if len(workers) > 1:
            for pid in sorted(workers):
                w = workers[pid]
                lines.append(
                    f"  worker pid={pid}: {w['shards']} shards, "
                    f"{w['hits']} hits / {w['hits'] + w['misses']} lookups"
                )
        if not any(m.cache_enabled for m in self.shards) and self.shards:
            lines.append(
                f"  caches disabled in workers "
                f"({self.cache_consultations()} consultations)"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Cache instrumentation
# ----------------------------------------------------------------------


def _tracked_caches() -> dict[str, Any]:
    from repro.core.computation import _augmented
    from repro.core.last_writer import _last_writer_row_cached
    from repro.core.ops import _merged_locations_cached
    from repro.dag.enumerate import _canonical_form_cached
    from repro.dag.toposort import _cached_topological_sorts
    from repro.models.constructibility import _extension_pairs
    from repro.models.location_consistency import _lc_row_set
    from repro.models.sequential import _sc_row_sets
    from repro.verify.races import _find_races_cached

    # Every ``lru_cache`` memoization in the library must appear here:
    # this registry is what ``clear_sweep_caches`` (the long-running
    # server's between-batches hook) and the cache-size gauges see, so
    # an untracked cache is an unbounded-in-practice leak across a
    # server's lifetime even when its entry *count* is capped (keys
    # pin whole computations).  ``find_races`` and ``merged_locations``
    # were exactly that until the serve work audited them in.
    return {
        "augment": _augmented,
        "canonical_form": _canonical_form_cached,
        "extension_pairs": _extension_pairs,
        "find_races": _find_races_cached,
        "last_writer_row": _last_writer_row_cached,
        "lc_row_set": _lc_row_set,
        "merged_locations": _merged_locations_cached,
        "sc_row_sets": _sc_row_sets,
        "topological_sorts": _cached_topological_sorts,
    }


def sweep_cache_info() -> dict[str, dict[str, int]]:
    """Current hits/misses/size of every memoized sweep hot path."""
    out: dict[str, dict[str, int]] = {}
    for name, fn in _tracked_caches().items():
        info = fn.cache_info()
        out[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "currsize": info.currsize,
        }
    return out


def clear_sweep_caches() -> None:
    """Reset every memoized sweep hot path.

    Benchmark baselines use this to measure cold; the trace-checking
    service (:mod:`repro.serve`) calls it between batches so a
    long-running process cannot accumulate pinned computations across
    its lifetime — the one-shot CLI never lived long enough to care.
    """
    for fn in _tracked_caches().values():
        fn.cache_clear()


def publish_cache_gauges() -> None:
    """Export every tracked cache's entry count as an obs gauge.

    One ``cache.<name>.entries`` gauge per memoized helper plus a
    ``cache.entries`` total — the telemetry a long-running server (and
    its Prometheus scrapers) watches to see the memoization layer's
    footprint instead of discovering it from RSS.  No-op while the
    collector is disabled.
    """
    if not obs.enabled():
        return
    total = 0
    for name, info in sweep_cache_info().items():
        obs.set_gauge(f"cache.{name}.entries", info["currsize"])
        total += info["currsize"]
    obs.set_gauge("cache.entries", total)


# ----------------------------------------------------------------------
# Sweep monitoring (heartbeat drain + stall watchdog)
# ----------------------------------------------------------------------


class SweepMonitor:
    """Parent-side consumer of the worker heartbeat stream.

    Install one with :func:`set_sweep_monitor` (the CLI does this for
    ``--journal`` / ``--live``) and every subsequent :func:`run_shards`
    call drains worker heartbeats into the monitor's *listeners* — any
    objects quacking some subset of ``on_sweep_start(label, shards,
    jobs)`` / ``on_heartbeat(hb)`` / ``on_shard_done(meta)`` /
    ``on_sweep_done(label, wall_seconds)`` (the :class:`repro.obs.Journal`
    and :class:`repro.obs.LiveBoard` both do).  A listener exception is
    swallowed: a broken status board must never fail a sweep.

    The monitor doubles as the **stall watchdog**: a worker that has
    heartbeat at least once and then misses ``stall_intervals``
    consecutive intervals triggers a structured :func:`repro.obs.warning`
    (once per stall — a worker that resumes and stalls again re-warns)
    and the optional ``on_stall(pid, last_hb)`` hook, the attachment
    point for shard re-dispatch policies.  ``clock`` is injectable so
    tests drive the watchdog deterministically.
    """

    def __init__(
        self,
        listeners: Sequence[Any] = (),
        stall_intervals: int = 5,
        interval: float | None = None,
        on_stall: Callable[[int, dict], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.listeners = list(listeners)
        self.interval = heartbeat_interval() if interval is None else interval
        self.stall_intervals = stall_intervals
        self.on_stall = on_stall
        self._clock = clock
        self.heartbeats = 0
        self.stall_warnings = 0
        self._label = ""
        self._last_seen: dict[int, tuple[float, dict]] = {}
        self._stalled: set[int] = set()

    def _dispatch(self, method: str, *args: Any) -> None:
        for listener in self.listeners:
            fn = getattr(listener, method, None)
            if fn is None:
                continue
            try:
                fn(*args)
            except Exception:
                pass

    def on_sweep_start(self, label: str, shards: int, jobs: int) -> None:
        self._label = label
        self._last_seen = {}
        self._stalled = set()
        self._dispatch("on_sweep_start", label, shards, jobs)

    def on_worker_heartbeat(self, hb: dict) -> None:
        """One heartbeat arrived (from the queue drain, or directly from
        the in-process serial path)."""
        self.heartbeats += 1
        pid = hb.get("pid", 0)
        self._last_seen[pid] = (self._clock(), hb)
        self._stalled.discard(pid)
        self._dispatch("on_heartbeat", hb)

    def on_shard_done(self, meta: ShardMeta) -> None:
        self._last_seen.pop(meta.pid, None)
        self._stalled.discard(meta.pid)
        self._dispatch("on_shard_done", meta.as_event())

    def on_sweep_done(self, label: str, wall_seconds: float) -> None:
        self._last_seen = {}
        self._stalled = set()
        self._dispatch("on_sweep_done", label, wall_seconds)

    def check_stalls(self) -> list[int]:
        """Warn about workers silent for ``stall_intervals`` intervals.

        Returns the pids newly flagged this call.  Called periodically by
        the monitored dispatch loop; idempotent between state changes."""
        now = self._clock()
        cutoff = self.interval * self.stall_intervals
        flagged: list[int] = []
        for pid, (seen_at, hb) in self._last_seen.items():
            if pid in self._stalled or now - seen_at < cutoff:
                continue
            self._stalled.add(pid)
            self.stall_warnings += 1
            flagged.append(pid)
            obs.warning(
                "worker heartbeat stalled",
                sweep=self._label,
                pid=pid,
                n=hb.get("n"),
                mask_lo=hb.get("mask_lo"),
                mask_hi=hb.get("mask_hi"),
                pairs_done=hb.get("pairs_done"),
                silent_seconds=round(now - seen_at, 3),
                missed_intervals=self.stall_intervals,
            )
            if self.on_stall is not None:
                try:
                    self.on_stall(pid, hb)
                except Exception:
                    pass
        return flagged


_MONITOR: SweepMonitor | None = None


def set_sweep_monitor(monitor: SweepMonitor | None) -> None:
    """Install the process-wide sweep monitor (``None`` uninstalls).

    While installed, every :func:`run_shards` call streams heartbeats and
    shard completions through it; without one, sweeps run exactly as
    before (no queue, no wrapper, no overhead)."""
    global _MONITOR
    _MONITOR = monitor


def get_sweep_monitor() -> SweepMonitor | None:
    """The currently installed sweep monitor, if any."""
    return _MONITOR


# ----------------------------------------------------------------------
# Planning and dispatch
# ----------------------------------------------------------------------


def effective_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count: explicit arg, else ``REPRO_JOBS``, else 1.

    ``0`` (from either source) means one worker per CPU.  The default is
    serial so that library callers and the test suite only fork worker
    pools on request.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env is None:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            # ConfigError is a ReproError *and* a ValueError, so both the
            # CLI's clean one-line-error-and-exit-2 path and library
            # callers catching ValueError handle it; ``from None`` keeps
            # the int() traceback out of user-facing errors.
            raise ConfigError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _total_computations(universe: Universe) -> int:
    return sum(
        universe.count_computations(n) for n in range(universe.max_nodes + 1)
    )


def make_shards(
    universe: Universe, jobs: int = 1, shards_per_job: int = 4
) -> list[ShardSpec]:
    """Partition a universe into shards, in canonical enumeration order.

    Every size gets at least one shard; the edge-mask ranges of the
    largest sizes are split so the total shard count approaches
    ``jobs * shards_per_job`` (over-decomposition smooths load imbalance
    between sparse and dense dag shapes).  The shards exactly partition
    the enumeration space: concatenated in order they reproduce the
    serial sweep.

    Every spec snapshots the current :func:`~repro._caching.caches_enabled`
    state so pool workers run under the parent's caching configuration,
    and the tracer's enabled flag so worker-side counters are collected
    (and merged back) exactly when the parent is tracing.
    """
    cache_enabled = caches_enabled()
    obs_enabled = obs.enabled()
    sizes = range(universe.max_nodes + 1)
    weights = {n: universe.count_computations(n) for n in sizes}
    total = sum(weights.values()) or 1
    target = max(1, jobs * shards_per_job)
    shards: list[ShardSpec] = []
    for n in sizes:
        masks = universe.num_edge_masks(n)
        want = max(1, round(target * weights[n] / total)) if jobs > 1 else 1
        k = min(masks, want)
        # Near-even contiguous split of [0, masks) into k ranges.
        base, extra = divmod(masks, k)
        lo = 0
        for i in range(k):
            hi = lo + base + (1 if i < extra else 0)
            shards.append(
                ShardSpec(
                    max_nodes=universe.max_nodes,
                    locations=tuple(universe.locations),
                    include_nop=universe.include_nop,
                    n=n,
                    mask_lo=lo,
                    mask_hi=hi,
                    cache_enabled=cache_enabled,
                    obs_enabled=obs_enabled,
                )
            )
            lo = hi
        assert lo == masks
    return shards


def run_shards(
    kernel: Callable[[ShardSpec], ShardOutcome],
    shards: Sequence[ShardSpec],
    jobs: int = 1,
    label: str = "sweep",
) -> tuple[list[Any], SweepStats]:
    """Run ``kernel`` over every shard and return payloads in shard order.

    ``jobs <= 1`` (or a single shard) runs in-process — the serial
    fallback — through the *same* kernel code path, which is what makes
    "parallel equals serial" trivially auditable.  Otherwise shards are
    submitted one at a time to a process pool so slow shards don't
    convoy behind fast ones.

    A worker crash (``BrokenProcessPool``) does not kill the sweep: the
    shards whose results were lost are logged as a structured
    :func:`repro.obs.warning` and retried once serially through the same
    kernel, so the merged results stay canonical-order identical to an
    undisturbed run.

    When a :class:`SweepMonitor` is installed (see
    :func:`set_sweep_monitor`), pool workers additionally stream
    heartbeats back over a queue and the dispatch loop drains them into
    the monitor between future completions; the serial path (and crash
    retries) heartbeat directly through the monitor.  With no monitor
    installed this function is byte-for-byte the old dispatch.
    """
    monitor = _MONITOR
    t0 = time.perf_counter()
    retried: list[int] = []
    shards = list(shards)
    pool_dispatch = jobs > 1 and len(shards) > 1
    # Trace propagation: when this sweep runs under a sampled request
    # context, mint one child span id for the
    # sweep and ship it to every shard so worker-side telemetry can
    # link back to it across the fork boundary.
    parent_ctx = trace_context.current()
    sweep_ctx: TraceContext | None = None
    if parent_ctx is not None and parent_ctx.sampled:
        sweep_ctx = parent_ctx.child()
        shards = [replace(s, trace=sweep_ctx.as_tuple()) for s in shards]
    if monitor is not None:
        monitor.on_sweep_start(label, len(shards), max(1, jobs))
        # Route this process's own kernel executions (serial fallback,
        # crash retries) straight into the monitor.
        global _HB
        hb_prev = _HB
        _HB = {
            "queue": None,
            "monitor": monitor,
            "interval": monitor.interval,
        }
    try:
        if not pool_dispatch:
            outcomes = []
            for s in shards:
                outcome = kernel(s)
                if monitor is not None:
                    monitor.on_shard_done(outcome.meta)
                outcomes.append(outcome)
            mode = "serial"
        else:
            workers = min(jobs, len(shards))
            outcomes, retried = _dispatch_pool(
                kernel, shards, workers, label, monitor
            )
            mode = f"process-pool({workers})"
    finally:
        if monitor is not None:
            _HB = hb_prev
    wall = time.perf_counter() - t0
    if monitor is not None:
        monitor.on_sweep_done(label, wall)
    stats = SweepStats.build(
        label=label,
        jobs=jobs,
        mode=mode,
        wall_seconds=wall,
        metas=[o.meta for o in outcomes],
        retried_shards=len(retried),
    )
    if sweep_ctx is not None:
        stats.span.attrs["trace_id"] = sweep_ctx.trace_id
        stats.span.attrs["span_id"] = sweep_ctx.span_id
        if sweep_ctx.parent_span_id:
            stats.span.attrs["parent_span_id"] = sweep_ctx.parent_span_id
    _record_sweep(stats)
    return [o.payload for o in outcomes], stats


def _dispatch_pool(
    kernel: Callable[[ShardSpec], ShardOutcome],
    shards: Sequence[ShardSpec],
    workers: int,
    label: str,
    monitor: SweepMonitor | None,
) -> tuple[list[ShardOutcome], list[int]]:
    """Pool dispatch with crash recovery; returns (outcomes, retried idx).

    Outcomes are stored by shard index, so they keep the canonical shard
    order whatever order the futures complete in.  Kernel *exceptions*
    propagate (they would fail serially too); only abrupt worker death —
    which poisons the whole pool and surfaces as ``BrokenProcessPool`` on
    every unfinished future — is converted into a serial retry of the
    affected shards, in shard order.

    With a ``monitor``, workers are initialized with a
    ``multiprocessing`` queue (the ``initializer``/``initargs`` channel
    works under both fork and spawn), and the parent wakes every half
    heartbeat interval to drain heartbeats into the monitor and run the
    stall check.  If the queue cannot be created the sweep runs
    unmonitored rather than failing.  Unmonitored pools need no
    initializer at all; only a profiling run pays for one (to arm each
    worker's sampler).
    """
    hb_queue = None
    if monitor is not None:
        try:
            hb_queue = multiprocessing.get_context().Queue()
        except (OSError, ValueError):
            monitor = None
    pool_kwargs: dict[str, Any] = {}
    profile_spec = obs_profile.worker_spec()
    if hb_queue is not None or profile_spec is not None:
        interval = monitor.interval if monitor is not None else heartbeat_interval()
        pool_kwargs = {
            "initializer": _init_pool_worker,
            "initargs": (hb_queue, interval, profile_spec),
        }
    timeout = monitor.interval / 2 if monitor is not None else None
    outcomes: list[ShardOutcome | None] = [None] * len(shards)
    failed: list[int] = []
    try:
        with ProcessPoolExecutor(max_workers=workers, **pool_kwargs) as pool:
            futures = {pool.submit(kernel, s): i for i, s in enumerate(shards)}
            pending = set(futures)
            while pending:
                done, pending = wait(
                    pending, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if monitor is not None:
                    _drain_heartbeats(hb_queue, monitor)
                    monitor.check_stalls()
                for future in done:
                    i = futures[future]
                    try:
                        outcomes[i] = future.result()
                    except BrokenProcessPool:
                        failed.append(i)
                        continue
                    if monitor is not None:
                        monitor.on_shard_done(outcomes[i].meta)
        if monitor is not None:
            _drain_heartbeats(hb_queue, monitor)
    finally:
        if hb_queue is not None:
            hb_queue.close()
            # The feeder thread may still hold unjoined items from a
            # dying worker; never let interpreter shutdown block on it.
            hb_queue.cancel_join_thread()
    if failed:
        failed.sort()  # completion order is arbitrary; retries are not
        obs.warning(
            "process pool broke mid-sweep; retrying shards serially",
            sweep=label,
            shards=len(failed),
            indices=failed[:16],
        )
        for i in failed:
            outcomes[i] = kernel(shards[i])
            if monitor is not None:
                monitor.on_shard_done(outcomes[i].meta)
    return outcomes, failed  # type: ignore[return-value]


def _drain_heartbeats(hb_queue: Any, monitor: SweepMonitor | None) -> None:
    """Feed every queued worker heartbeat to ``monitor`` (non-blocking).

    With no monitor the beats are discarded: the trace-checking service
    keeps its queue open for the pool's lifetime, and an undrained queue
    grows for as long as its owner lives."""
    while True:
        try:
            hb = hb_queue.get_nowait()
        except queue_mod.Empty:
            return
        except (OSError, ValueError, EOFError):
            # Queue torn down mid-drain (worker death); nothing to read.
            return
        if monitor is not None and isinstance(hb, dict):
            monitor.on_worker_heartbeat(hb)


def _record_sweep(stats: SweepStats) -> None:
    """Publish a finished sweep to the global tracer (no-op if disabled).

    Besides grafting the stats span and accumulating the ``sweep.*``
    counters, this is where worker-side counter deltas rejoin the
    parent: every shard whose increments landed in a pool worker's
    (otherwise dead) collector — ``counters_local=False`` — is merged
    here, so ``--trace`` counter totals are identical between serial
    and pool runs.  Per-shard wall times feed the
    ``sweep.shard_seconds`` histogram.
    """
    if not obs.enabled():
        return
    obs.attach(stats.span)
    totals = stats.cache_totals()
    parent_pid = os.getpid()
    for meta in stats.shards:
        # A shard's increments only reached *this* collector when it ran
        # in this process with the collector already live.  Forked pool
        # workers inherit an enabled collector (counters_local=True) but
        # increment a doomed copy — the pid comparison catches those.
        if meta.counters and (meta.pid != parent_pid or not meta.counters_local):
            obs.get().add_many(meta.counters)
        obs.observe("sweep.shard_seconds", meta.seconds)
    obs.add("sweep.count")
    obs.add("sweep.pairs", stats.pairs)
    obs.add("sweep.evaluated", stats.evaluated)
    obs.add("sweep.shards", len(stats.shards))
    obs.add("sweep.shards.retried", stats.retried_shards)
    obs.add("sweep.cache.hits", sum(c["hits"] for c in totals.values()))
    obs.add("sweep.cache.misses", sum(c["misses"] for c in totals.values()))
    obs.add("sweep.cache.consultations", stats.cache_consultations())


def _instrumented(
    body: Callable[[ShardSpec], tuple[Any, int, int]], shard: ShardSpec
) -> ShardOutcome:
    """Run a kernel body and wrap its result with timing + cache deltas.

    The body returns ``(payload, pairs, evaluated)``: the orbit-weighted
    pair count and the number of pairs it checked (see
    :class:`ShardMeta`).

    The body runs under the *shard's* caching flag (scoped, so the
    serial in-process path restores the caller's state afterwards) —
    this is the propagation point that makes ``sweep_caching(False)``
    reach pool workers.  The resulting cache deltas are the worker-side
    telemetry: an uncached shard must report zero consultations.

    Counter propagation mirrors the caching flag: when the parent was
    tracing (``shard.obs_enabled``) but this process's collector is
    disabled (a pool worker), the collector is enabled for the duration
    of the body so kernel-side ``obs.add`` calls are captured; the
    *deltas* across the body travel back in :attr:`ShardMeta.counters`
    with ``counters_local=False`` so :func:`_record_sweep` can merge
    them into the parent trace exactly once.  When the collector was
    already live the increments land in *this process's* collector and
    are flagged ``counters_local=True`` — that is the parent's own
    collector for the serial path and crash-retried shards (merging
    again would double-count), but a doomed copy in a *forked* pool
    worker, which :func:`_record_sweep` detects by pid mismatch.
    """
    collector = obs.get()
    was_enabled = collector.enabled
    if shard.obs_enabled and not was_enabled:
        collector.enable()
    # Re-activate the sweep's trace context (shipped in the spec because
    # ContextVars don't cross the fork boundary) for the kernel body:
    # each shard becomes its own span id under the sweep's, and any
    # heartbeat or warning emitted inside carries the trace id.
    shard_ctx: TraceContext | None = None
    if shard.trace is not None:
        sweep_ctx = TraceContext.from_tuple(shard.trace)
        if sweep_ctx.sampled:
            shard_ctx = sweep_ctx.child()
    counters_before = dict(collector.counters)
    with sweep_caching(shard.cache_enabled):
        before = sweep_cache_info()
        activation = (
            trace_context.activate(shard_ctx)
            if shard_ctx is not None
            else nullcontext()
        )
        with activation, obs.memory_delta() as mem:
            t0 = time.perf_counter()
            payload, pairs, evaluated = body(shard)
            seconds = time.perf_counter() - t0
        after = sweep_cache_info()
        obs.add("sweep.kernel.pairs", pairs)
        obs.add("sweep.kernel.evaluated", evaluated)
        obs.add("sweep.kernel.shards")
    counter_deltas = {
        name: value - counters_before.get(name, 0)
        for name, value in collector.counters.items()
        if value != counters_before.get(name, 0)
    }
    if not was_enabled:
        collector.disable()
    caches = {
        name: {
            "hits": after[name]["hits"] - before[name]["hits"],
            "misses": after[name]["misses"] - before[name]["misses"],
        }
        for name in after
    }
    meta = ShardMeta(
        n=shard.n,
        mask_lo=shard.mask_lo,
        mask_hi=shard.mask_hi,
        seconds=seconds,
        pairs=pairs,
        evaluated=evaluated,
        caches=caches,
        cache_enabled=shard.cache_enabled,
        pid=os.getpid(),
        counters=counter_deltas,
        counters_local=was_enabled,
        mem_peak_bytes=mem["peak_bytes"],
        mem_net_bytes=mem["net_bytes"],
        trace_id=shard_ctx.trace_id if shard_ctx is not None else "",
        span_id=shard_ctx.span_id if shard_ctx is not None else "",
        parent_span_id=(
            shard_ctx.parent_span_id if shard_ctx is not None else ""
        ),
    )
    return ShardOutcome(payload=payload, meta=meta)


def _resolve_models(names: Sequence[str]) -> dict[str, Any]:
    from repro.models import MODELS

    unknown = [n for n in names if n not in MODELS]
    if unknown:
        raise ValueError(f"unknown model name(s) {unknown!r}")
    return {n: MODELS[n] for n in names}


def _model_names(models: Sequence) -> tuple[str, ...]:
    return tuple(m if isinstance(m, str) else m.name for m in models)


# ----------------------------------------------------------------------
# Sweep kernels (module-level: they must pickle for the process pool)
# ----------------------------------------------------------------------


def inclusion_kernel(shard: ShardSpec, names: tuple[str, ...]) -> ShardOutcome:
    """Per-shard inclusion refutations over ``names`` (merged by OR).

    The payload is the fold's "violation" bitset list
    (:func:`repro.kernels.inclusion_fold`): bit ``j`` of ``bad[i]`` is
    set iff some pair of this shard is in ``names[i]`` but not
    ``names[j]``.  Shards merge by elementwise OR and
    :func:`parallel_inclusion_matrix` negates into the familiar
    inclusion dict at the end — the same conjunction-over-a-partition
    merge as before, one bit per cell instead of one dict entry.
    """
    from repro.models.base import cached_membership

    models = _resolve_models(names)

    def body(shard: ShardSpec) -> tuple[list[int], int, int]:
        pairs = evaluated = 0

        def verdict_rows():
            nonlocal pairs, evaluated
            for comp, phi, weight in shard.iter_pairs():
                pairs += weight
                evaluated += 1
                yield tuple(
                    cached_membership(m, comp, phi) for m in models.values()
                )

        bad = kernels.inclusion_fold(len(names), verdict_rows())
        return bad, pairs, evaluated

    return _instrumented(body, shard)


def lattice_battery_kernel(
    shard: ShardSpec,
    edges: tuple[tuple[str, str], ...],
    constructibility: tuple[str, ...],
    thm23_probes: tuple | None,
) -> ShardOutcome:
    """One enumeration pass answering every first-witness and count question.

    The questions are separation witnesses for ``edges``, Theorem-12
    nonconstructibility witnesses for the ``constructibility`` models,
    and Theorem-23 counts when ``thm23_probes`` is given; any subset may
    be asked.  Each model's membership is decided at most once per pair
    and shared by every question.  A model with a closed-form
    Theorem-12 hook answers membership and its stuck locations in one
    hook call, so the constructibility questions go first and the edge
    and Theorem-23 questions reuse that verdict; models without a hook
    (and every model when caching is off) take the generic search,
    whose closure tests share the model-independent augmentation
    extensions.
    """
    from repro.models.base import cached_membership
    from repro.models.constructibility import (
        NonconstructibilityWitness,
        _first_blocked,
        _stuck_hook,
        augmentation_closed_at,
    )
    from repro.models.relations import SeparationWitness

    names = sorted(
        {x for e in edges for x in e}
        | set(constructibility)
        | ({"NN", "LC"} if thm23_probes is not None else set())
    )
    models = _resolve_models(names)
    # Theorem-23 counts need the full scan; without them a shard stops
    # as soon as every first-witness question has its local answer (a
    # model that never fails Theorem 12 keeps the scan going to the end).
    may_break = thm23_probes is None

    def body(shard: ShardSpec) -> tuple[dict, int, int]:
        alphabet = shard.universe().alphabet
        # Read under the shard's caching flag: uncached shards get no hooks.
        hooks = {name: _stuck_hook(m) for name, m in models.items()}
        found_w: dict[tuple[str, str], SeparationWitness] = {}
        found_nc: dict[str, NonconstructibilityWitness] = {}
        lc_in_nn = nn_minus_lc = stuck = 0
        pairs = evaluated = 0
        for comp, phi, weight in shard.iter_pairs():
            pairs += weight
            evaluated += 1
            verdicts: dict[str, bool] = {}
            stuck_sets: dict[str, tuple | None] = {}

            def member(name: str) -> bool:
                if name not in verdicts:
                    verdicts[name] = cached_membership(
                        models[name], comp, phi
                    )
                return verdicts[name]

            def closed_at(name: str, ops: Sequence) -> Any:
                """Theorem 12 at this pair; ``None`` for non-members."""
                hook = hooks[name]
                if hook is None:
                    if not member(name):
                        return None
                    return augmentation_closed_at(models[name], comp, phi, ops)
                if name not in stuck_sets:
                    stuck_sets[name] = hook(comp, phi)
                    verdicts[name] = stuck_sets[name] is not None
                if stuck_sets[name] is None:
                    return None
                return _first_blocked(stuck_sets[name], ops)

            for name in constructibility:
                if name in found_nc:
                    continue
                bad = closed_at(name, alphabet)
                if bad is not None:
                    found_nc[name] = NonconstructibilityWitness(
                        comp, phi, bad
                    )
            for a, b in edges:
                if (a, b) not in found_w and member(b) and not member(a):
                    found_w[(a, b)] = SeparationWitness(comp, phi, b, a)
            if thm23_probes is not None and member("NN"):
                if member("LC"):
                    lc_in_nn += weight
                else:
                    nn_minus_lc += weight
                    if closed_at("NN", thm23_probes) is not None:
                        stuck += weight
            if (
                may_break
                and len(found_w) == len(edges)
                and len(found_nc) == len(constructibility)
            ):
                break
        payload = {
            "witnesses": found_w,
            "nonconstructibility": found_nc,
            "thm23": (lc_in_nn, nn_minus_lc, stuck),
        }
        return payload, pairs, evaluated

    return _instrumented(body, shard)


# ----------------------------------------------------------------------
# Public sweeps (plan → dispatch → deterministic merge)
# ----------------------------------------------------------------------


def _plan(
    universe: Universe, jobs: int | None, parallel_threshold: int | None
) -> tuple[list[ShardSpec], int]:
    jobs_eff = effective_jobs(jobs)
    threshold = (
        PARALLEL_THRESHOLD if parallel_threshold is None else parallel_threshold
    )
    if jobs_eff > 1 and _total_computations(universe) < threshold:
        jobs_eff = 1
    return make_shards(universe, jobs_eff), jobs_eff


def parallel_inclusion_matrix(
    models: Sequence,
    universe: Universe,
    jobs: int | None = None,
    parallel_threshold: int | None = None,
) -> tuple[dict[tuple[str, str], bool], SweepStats]:
    """Sharded :func:`repro.models.relations.inclusion_matrix`.

    Merge is a conjunction over shards: an inclusion holds on the
    universe iff it holds on every slice of the partition.
    """
    names = _model_names(models)
    shards, jobs_eff = _plan(universe, jobs, parallel_threshold)
    payloads, stats = run_shards(
        partial(inclusion_kernel, names=names),
        shards,
        jobs=jobs_eff,
        label="inclusion-matrix",
    )
    with obs.span("merge", sweep="inclusion-matrix"):
        bad = [0] * len(names)
        for shard_bad in payloads:
            for i, mask in enumerate(shard_bad):
                bad[i] |= mask
        included = {
            (x, y): not (bad[i] >> j) & 1
            for i, x in enumerate(names)
            for j, y in enumerate(names)
        }
    return included, stats


@dataclass
class LatticeBatteryResult:
    """Merged output of :func:`parallel_lattice_battery`.

    ``witnesses[(a, b)]`` — first pair in ``b ∖ a`` in canonical order,
    or ``None``.  ``nonconstructibility[m]`` — first Theorem-12 failure
    for model ``m``, or ``None`` (augmentation-closed on the universe).
    ``thm23`` — ``(lc_in_nn, nn_minus_lc, pruned)`` counts, all zero when
    no probes were requested.
    """

    witnesses: dict[tuple[str, str], Any] = field(default_factory=dict)
    nonconstructibility: dict[str, Any] = field(default_factory=dict)
    thm23: tuple[int, int, int] = (0, 0, 0)


def parallel_lattice_battery(
    universe: Universe,
    edges: Sequence[tuple[str, str]] = (),
    constructibility: Sequence = (),
    thm23_probes: Sequence | None = None,
    jobs: int | None = None,
    parallel_threshold: int | None = None,
) -> tuple[LatticeBatteryResult, SweepStats]:
    """Every first-witness and count question over one universe.

    Answers every requested question — separation witnesses for
    ``edges``, Theorem-12 constructibility for ``constructibility``
    models, Theorem-23 counts when ``thm23_probes`` is given — in a
    single sharded enumeration pass.  Merging follows canonical shard
    order, so each first witness is the one the serial enumeration
    finds (:func:`repro.models.separating_witness`,
    :func:`repro.models.find_nonconstructibility_witness`); counts merge
    by summation.
    """
    edges = tuple(edges)
    nc_names = _model_names(constructibility)
    probes = None if thm23_probes is None else tuple(thm23_probes)
    shards, jobs_eff = _plan(universe, jobs, parallel_threshold)
    payloads, stats = run_shards(
        partial(
            lattice_battery_kernel,
            edges=edges,
            constructibility=nc_names,
            thm23_probes=probes,
        ),
        shards,
        jobs=jobs_eff,
        label="lattice-battery",
    )
    with obs.span("merge", sweep="lattice-battery"):
        result = LatticeBatteryResult(
            witnesses={edge: None for edge in edges},
            nonconstructibility={name: None for name in nc_names},
        )
        lc_in_nn = nn_minus_lc = stuck = 0
        for payload in payloads:  # canonical shard order
            for edge in edges:
                if result.witnesses[edge] is None:
                    result.witnesses[edge] = payload["witnesses"].get(edge)
            for name in nc_names:
                if result.nonconstructibility[name] is None:
                    result.nonconstructibility[name] = payload[
                        "nonconstructibility"
                    ].get(name)
            a, b, c = payload["thm23"]
            lc_in_nn += a
            nn_minus_lc += b
            stuck += c
        result.thm23 = (lc_in_nn, nn_minus_lc, stuck)
    return result, stats
