"""The trace-checking service engine.

One request = one JSONL line: either a bare :mod:`repro.io` document
(``repro/trace``, ``repro/partial-observer``, ``repro/computation``,
``repro/observer``) or an envelope ``{"document": ..., "checks": [...],
"sanitize": ..., "rules": [...]}`` overriding the server's default
:class:`CheckOptions` for that item.

Deduplication is by *canonical fingerprint*: for dags of at most
:data:`CANON_NODE_LIMIT` nodes the request's ``(edges, ops, constraints,
schedule)`` is put in canonical labelling by
:func:`repro.dag.canon.canonical_labelling`.  Colour refinement splits
the nodes into cells (a schedule row alone usually singles a node out),
and only relabellings that respect the cells are searched, so
isomorphic resubmissions — the common shape of generated litmus
batches — hit the verdict cache even when node ids differ.  The cache
entry remembers the first request's canonical permutation, and a hit
from a *relabelled* twin has its witness node ids translated into the
new request's id space and its reason re-rendered from the translated
blocks.  Larger dags fall back to the exact fingerprint: only identical
resubmissions dedupe, which is still the dominant case and never
unsound.

Checking runs in a persistent process pool initialized with the sweep
engine's heartbeat channel (:func:`repro.runtime.parallel._init_pool_worker`),
so the installed :class:`~repro.runtime.parallel.SweepMonitor` — and
through it the ``--journal`` spool and ``--live`` board — sees serve
workers exactly like sweep workers, stall watchdog included.

Crash safety: every accepted batch writes a ``serve_batch`` journal
record, every finished item a ``serve_item``, and every completed batch
a ``serve_batch_done``; :func:`replay_serve_ledger` folds a journal —
even one torn by ``kill -9`` — into a consistent ledger of completed
work.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro import obs
from repro.dag.canon import canonical_labelling
from repro.errors import ReproError
from repro.obs import context as trace_context
from repro.obs.context import TraceContext
from repro.io import (
    FormatError,
    load_computation,
    load_observer,
    load_partial_observer,
    load_trace,
)

__all__ = [
    "KNOWN_CHECKS",
    "CANON_NODE_LIMIT",
    "CheckOptions",
    "ItemResult",
    "TraceCheckService",
    "VerdictCache",
    "check_document",
    "parse_request",
    "parse_request_ex",
    "replay_serve_ledger",
    "request_fingerprint",
]

KNOWN_CHECKS = ("lc", "sc", "streaming")
"""The model checks a request may ask for."""

CANON_NODE_LIMIT = 7
"""Largest dag put in canonical labelling for isomorphism dedupe.

The canonical search tries the cell-respecting relabellings, up to
``n!`` when colour refinement cannot split the nodes and they are not
twins; the limit caps that worst case.  Past it the fingerprint is
exact: only identical resubmissions dedupe, never a wrong merge.
"""

_LOADERS = {
    "repro/computation": load_computation,
    "repro/observer": load_observer,
    "repro/partial-observer": load_partial_observer,
    "repro/trace": load_trace,
}


# ----------------------------------------------------------------------
# Request options and parsing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CheckOptions:
    """What to run against one document.

    ``checks`` picks among :data:`KNOWN_CHECKS`; ``sc`` is skipped
    (verdict ``null``) on documents above ``sc_node_limit`` nodes — the
    SC decision is exponential and a service must not let one oversized
    request starve the pool.  ``sanitize`` replays traces through
    :meth:`repro.verify.streaming.StreamingLCVerifier.collect_violations`;
    ``rules`` names :mod:`repro.analysis` rule ids/prefixes to run per
    item.
    """

    checks: tuple[str, ...] = ("lc", "sc", "streaming")
    sanitize: bool = False
    rules: tuple[str, ...] = ()
    sc_node_limit: int = 12

    def __post_init__(self) -> None:
        unknown = [c for c in self.checks if c not in KNOWN_CHECKS]
        if unknown:
            raise ValueError(
                f"unknown checks {unknown!r} (known: {', '.join(KNOWN_CHECKS)})"
            )

    @classmethod
    def merged(cls, data: dict, base: "CheckOptions") -> "CheckOptions":
        """``base`` overridden by an envelope's option fields."""
        checks = data.get("checks")
        rules = data.get("rules")
        return cls(
            checks=tuple(checks) if checks is not None else base.checks,
            sanitize=bool(data.get("sanitize", base.sanitize)),
            rules=tuple(rules) if rules is not None else base.rules,
            sc_node_limit=int(data.get("sc_node_limit", base.sc_node_limit)),
        )

    def key(self) -> tuple:
        """The options' contribution to the dedupe fingerprint."""
        return (
            tuple(sorted(set(self.checks))),
            self.sanitize,
            tuple(sorted(set(self.rules))),
            self.sc_node_limit,
        )


def parse_request_ex(
    line: str, defaults: CheckOptions
) -> tuple[dict, CheckOptions, str | None]:
    """One JSONL line → ``(document, effective options, traceparent)``.

    A dict with a ``"document"`` key (and no ``"format"`` tag of its
    own) is an option-carrying envelope; anything else must be a bare
    :mod:`repro.io` document.  An envelope may carry a ``"trace"``
    field — a ``traceparent`` string joining this *item* to a caller's
    existing trace independently of the batch's transport header (the
    JSONL-over-stdin analog of the HTTP header).  Raises
    :class:`repro.io.FormatError` or ``ValueError`` on malformed input
    — per-item, so one bad line never poisons its batch.
    """
    data = json.loads(line)
    if not isinstance(data, dict):
        raise FormatError("request line is not a JSON object")
    trace: str | None = None
    if "document" in data and "format" not in data:
        doc = data["document"]
        options = CheckOptions.merged(data, defaults)
        raw_trace = data.get("trace")
        if isinstance(raw_trace, str):
            trace = raw_trace
    else:
        doc, options = data, defaults
    if not isinstance(doc, dict) or "format" not in doc:
        raise FormatError("not a repro document (missing format tag)")
    if doc["format"] not in _LOADERS:
        raise FormatError(f"unknown format {doc['format']!r}")
    return doc, options, trace


def parse_request(
    line: str, defaults: CheckOptions
) -> tuple[dict, CheckOptions]:
    """:func:`parse_request_ex` without the trace field (stable API)."""
    doc, options, _ = parse_request_ex(line, defaults)
    return doc, options


def _load_document(doc: dict) -> Any:
    return _LOADERS[doc["format"]](doc)


# ----------------------------------------------------------------------
# Canonical fingerprinting
# ----------------------------------------------------------------------


def _signature_parts(obj: Any) -> tuple[Any, tuple, tuple]:
    """``(comp, constraint triples, per-node schedule rows)`` of a
    parsed document — everything the verdict may depend on."""
    from repro.core.computation import Computation
    from repro.core.observer import ObserverFunction
    from repro.runtime.trace import ExecutionTrace, PartialObserver

    if isinstance(obj, ExecutionTrace):
        po = obj.partial_observer()
        sched = obj.schedule
        rows = tuple(
            (sched.proc_of[u], sched.start_of[u])
            for u in range(obj.comp.num_nodes)
        )
        return obj.comp, tuple(po.entries()), rows
    if isinstance(obj, PartialObserver):
        return obj.comp, tuple(obj.entries()), ()
    if isinstance(obj, ObserverFunction):
        comp = obj.computation
        triples = tuple(
            (loc, u, obj.value(loc, u))
            for loc in obj.locations
            for u in range(comp.num_nodes)
        )
        return comp, triples, ()
    if isinstance(obj, Computation):
        return obj, (), ()
    raise FormatError(f"cannot fingerprint {type(obj).__name__!r}")


def request_fingerprint(
    obj: Any, options: CheckOptions
) -> tuple[tuple, tuple[int, ...]]:
    """``(cache key, canonical permutation)`` for one parsed request.

    The permutation maps the request's node ids to canonical ids; it is
    the identity whenever the dag is above :data:`CANON_NODE_LIMIT`
    (exact-match fingerprint).  Two requests share a key **iff** they
    are isomorphic as constrained, scheduled computations under the same
    options — so a cache hit is always sound, and witnesses translate
    through the two permutations.
    """
    comp, triples, rows = _signature_parts(obj)
    n = comp.num_nodes
    ops_sig = tuple((op.kind, repr(op.loc)) for op in comp.ops)
    # ⊥ (``None``) becomes -1, which sorts below every node id: a
    # ``(loc, u, None)`` entry must stay comparable with ``(loc, u, v)``.
    cons = tuple(
        sorted((repr(loc), u, -1 if v is None else v) for loc, u, v in triples)
    )
    if n > CANON_NODE_LIMIT:
        edges = tuple(sorted(comp.dag.edges))
        key = ("exact", n, edges, ops_sig, cons, rows, options.key())
        return key, tuple(range(n))

    labels = tuple(zip(ops_sig, rows)) if rows else ops_sig
    cert, perm = canonical_labelling(n, comp.dag.edges, labels, cons)
    return ("canon", n) + cert + (options.key(),), perm


def _compose_remap(
    perm_cached: Sequence[int], perm_request: Sequence[int]
) -> list[int] | None:
    """Node map from the cached request's ids to this request's ids.

    Both permutations map original → canonical; the composite is
    ``inverse(perm_request) ∘ perm_cached``.  ``None`` means identity.
    """
    if tuple(perm_cached) == tuple(perm_request):
        return None
    inv_req = [0] * len(perm_request)
    for u, c in enumerate(perm_request):
        inv_req[c] = u
    return [inv_req[perm_cached[u]] for u in range(len(perm_cached))]


def _remap_verdict(verdict: dict, remap: Sequence[int]) -> dict:
    """The cached verdict with node ids translated into a relabelled
    twin's id space (witness and SC-order fields only — callers gate
    non-translatable payloads out of the isomorphic-hit path)."""
    from repro.verify.streaming import _render_reason

    out = dict(verdict)
    witness = out.get("witness")
    if isinstance(witness, dict):
        w = dict(witness)
        if isinstance(w.get("node"), int):
            w["node"] = remap[w["node"]]
        if isinstance(w.get("blocks"), list):
            w["blocks"] = [
                None if b is None else remap[b] for b in w["blocks"]
            ]
            # The prose names block ids too; re-render it from the
            # remapped blocks so no stale id survives the translation.
            w["reason"] = _render_reason(tuple(w["blocks"]))
        out["witness"] = w
    if isinstance(out.get("sc_witness"), list):
        out["sc_witness"] = [remap[u] for u in out["sc_witness"]]
    return out


# ----------------------------------------------------------------------
# Verdict cache
# ----------------------------------------------------------------------


class VerdictCache:
    """A bounded LRU of ``fingerprint → (verdict, permutation)``.

    ``capacity <= 0`` disables caching (every lookup misses).  Entries
    store the verdict in the *first* request's original node ids plus
    that request's canonical permutation, so hits from relabelled twins
    can translate witnesses.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, tuple[dict, tuple[int, ...]]] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> tuple[dict, tuple[int, ...]] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(
        self, key: tuple, verdict: dict, perm: tuple[int, ...]
    ) -> None:
        if self.capacity <= 0:
            return
        self._entries[key] = (verdict, perm)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def info(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "currsize": len(self._entries),
            "capacity": self.capacity,
        }


# ----------------------------------------------------------------------
# The per-document checker (runs in pool workers)
# ----------------------------------------------------------------------


def _serve_heartbeat(items_done: int, elapsed: float) -> None:
    """Emit a worker heartbeat over the sweep engine's channel, if one
    was installed by the pool initializer (silently optional)."""
    from repro.runtime import parallel

    parallel._emit_heartbeat(
        {
            "pid": os.getpid(),
            "serve": True,
            "pairs_done": items_done,
            "elapsed": round(elapsed, 6),
        }
    )


_WORKER_ITEMS = 0


def check_document(
    doc: dict, options: CheckOptions, trace: tuple | None = None
) -> dict:
    """Check one document; the picklable unit of pool work.

    Returns a verdict dict (see the README protocol section): always
    ``ok`` and ``seconds``; on success ``kind``, per-check ``verdicts``
    (``true``/``false``/``null`` = skipped), the conjunction
    ``admitted``, and any ``witness`` / ``sc_witness`` / ``sanitizer``
    / ``findings`` payloads.  Malformed documents come back as
    ``{"ok": false, "error": ...}`` — a worker never raises for bad
    input, so one poisoned item cannot break its batch.

    ``trace`` is the item's propagated context as a
    :meth:`TraceContext.as_tuple` tuple (``span_id`` = the item's own
    request span, ``parent_span_id`` = the serve batch span).  When
    sampled it is re-activated around the check — so the heartbeat
    below carries the trace id — and the verdict gains a transient
    ``_worker_span`` payload identifying this process's execution; the
    parent pops it before caching/streaming and grafts it into the
    live trace, which is how a request's span tree crosses the pool's
    fork boundary.
    """
    global _WORKER_ITEMS
    ctx: TraceContext | None = None
    if trace is not None:
        ctx = TraceContext.from_tuple(trace)
        if not ctx.sampled:
            ctx = None
    t0 = time.perf_counter()
    activation = (
        trace_context.activate(ctx) if ctx is not None else nullcontext()
    )
    with activation:
        try:
            obj = _load_document(doc)
            verdict = _check_object(obj, options)
        except (ReproError, ValueError, KeyError, TypeError, IndexError) as exc:
            verdict = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        else:
            verdict["ok"] = True
        verdict["seconds"] = round(time.perf_counter() - t0, 6)
        _WORKER_ITEMS += 1
        _serve_heartbeat(_WORKER_ITEMS, verdict["seconds"])
    if ctx is not None:
        verdict["_worker_span"] = {
            "trace_id": ctx.trace_id,
            "span_id": ctx.span_id,
            "parent_span_id": ctx.parent_span_id,
            "pid": os.getpid(),
            "seconds": verdict["seconds"],
        }
    return verdict


def _error_verdict(exc: Exception) -> dict:
    """The verdict of an item whose parse, load or check raised."""
    return {"ok": False, "error": f"{type(exc).__name__}: {exc}", "seconds": 0.0}


def _admitted(verdicts: dict[str, bool | None]) -> bool | None:
    booleans = [v for v in verdicts.values() if isinstance(v, bool)]
    if not booleans:
        return None
    return all(booleans)


def _check_object(obj: Any, options: CheckOptions) -> dict:
    from repro.core.computation import Computation
    from repro.core.observer import ObserverFunction
    from repro.runtime.trace import ExecutionTrace, PartialObserver

    if isinstance(obj, ExecutionTrace):
        return _check_trace(obj, options)
    if isinstance(obj, PartialObserver):
        out = {"kind": "partial-observer"}
        out["verdicts"] = _model_verdicts(obj, options, obj.comp.num_nodes)
        out["admitted"] = _admitted(out["verdicts"])
        return out
    if isinstance(obj, ObserverFunction):
        return _check_observer(obj, options)
    if isinstance(obj, Computation):
        out = {"kind": "computation", "verdicts": {}, "admitted": None}
        if options.rules:
            out["findings"] = _run_rules(obj, None, options)
        return out
    raise FormatError(f"cannot check {type(obj).__name__!r}")


def _model_verdicts(
    partial: Any, options: CheckOptions, num_nodes: int
) -> dict[str, bool | None]:
    from repro.verify import trace_admits_lc, trace_admits_sc

    verdicts: dict[str, bool | None] = {}
    if "lc" in options.checks:
        verdicts["lc"] = trace_admits_lc(partial)
    if "sc" in options.checks:
        if num_nodes <= options.sc_node_limit:
            verdicts["sc"] = trace_admits_sc(partial) is not None
        else:
            verdicts["sc"] = None
    return verdicts


def _check_trace(trace: Any, options: CheckOptions) -> dict:
    from repro.verify import trace_admits_lc, trace_admits_sc
    from repro.verify.streaming import StreamingLCVerifier

    comp = trace.comp
    partial = trace.partial_observer()
    out: dict[str, Any] = {"kind": "trace", "nodes": comp.num_nodes}
    verdicts: dict[str, bool | None] = {}
    if "streaming" in options.checks:
        violation = StreamingLCVerifier.check_trace(trace)
        verdicts["streaming"] = violation is None
        if violation is not None:
            out["witness"] = {
                "node": violation.node,
                "loc": repr(violation.loc),
                "reason": violation.reason,
                "blocks": list(violation.blocks),
            }
    if "lc" in options.checks:
        verdicts["lc"] = trace_admits_lc(partial)
    if "sc" in options.checks:
        if comp.num_nodes <= options.sc_node_limit:
            witness = trace_admits_sc(partial)
            verdicts["sc"] = witness is not None
            if witness is not None:
                out["sc_witness"] = list(witness)
        else:
            verdicts["sc"] = None
    out["verdicts"] = verdicts
    out["admitted"] = _admitted(verdicts)
    if options.sanitize:
        out["sanitizer"] = [
            {
                "node": v.node,
                "loc": repr(v.loc),
                "observed": v.observed,
                "reason": v.reason,
                "witness": list(v.witness),
                "event_index": v.event_index,
            }
            for v in StreamingLCVerifier.collect_violations(trace)
        ]
    if options.rules:
        out["findings"] = _run_rules(comp, trace, options)
    return out


def _check_observer(phi: Any, options: CheckOptions) -> dict:
    from repro.models import LC, SC

    comp = phi.computation
    verdicts: dict[str, bool | None] = {}
    if "lc" in options.checks:
        verdicts["lc"] = LC.contains(comp, phi)
    if "sc" in options.checks:
        if comp.num_nodes <= options.sc_node_limit:
            verdicts["sc"] = SC.contains(comp, phi)
        else:
            verdicts["sc"] = None
    return {
        "kind": "observer",
        "verdicts": verdicts,
        "admitted": _admitted(verdicts),
    }


def _run_rules(comp: Any, trace: Any, options: CheckOptions) -> list[dict]:
    from repro.analysis.registry import (
        AnalysisContext,
        run_analysis,
        select_rules,
    )

    rules = select_rules(options.rules)
    ctx = AnalysisContext(
        comp,
        target="<serve>",
        trace=trace,
        explicit=frozenset(r.id for r in rules),
    )
    report = run_analysis(ctx, rules)
    return [f.to_dict() for f in report.findings]


# ----------------------------------------------------------------------
# The batch service
# ----------------------------------------------------------------------


@dataclass
class ItemResult:
    """One request's outcome, in batch order.

    ``cached`` marks dedupe hits (verdict served from the LRU or from a
    duplicate earlier in the same batch); ``verdict`` is the
    :func:`check_document` dict, witness ids already in *this*
    request's node-id space.

    ``trace_id``/``request_id`` are the item's correlation ids (the
    request id is the item's span id).  They live *here*, never inside
    ``verdict``: the verdict dict is what the dedupe cache stores, and
    a cached twin must get its own ids, not the first requester's.
    """

    index: int
    verdict: dict
    cached: bool = False
    trace_id: str = ""
    request_id: str = ""

    def to_json(self) -> dict:
        out: dict[str, Any] = {"index": self.index, "cached": self.cached}
        if self.trace_id:
            out["trace_id"] = self.trace_id
        if self.request_id:
            out["request_id"] = self.request_id
        out.update(self.verdict)
        return out


@dataclass
class _PendingItem:
    index: int
    doc: dict
    options: CheckOptions
    key: tuple | None = None
    perm: tuple[int, ...] = ()
    translatable: bool = True
    ctx: TraceContext | None = None


class TraceCheckService:
    """The long-running batch checker behind ``repro serve``.

    Owns a persistent process pool (created lazily, recreated after a
    crash) whose workers heartbeat over the sweep engine's channel; an
    installed :class:`~repro.runtime.parallel.SweepMonitor` receives
    ``on_sweep_start`` / heartbeats / ``on_sweep_done`` per batch plus
    stall warnings, exactly as for enumeration sweeps.  ``check_batch``
    is serialized by an internal lock — concurrent HTTP posts queue up
    rather than interleave on the pool.

    ``clear_caches_every=N`` calls
    :func:`repro.runtime.parallel.clear_sweep_caches` after every N
    batches (0 = never): the memoization layer pins whole computations,
    and a service must bound that footprint explicitly.
    """

    def __init__(
        self,
        options: CheckOptions | None = None,
        jobs: int | None = None,
        cache_size: int = 4096,
        clear_caches_every: int = 0,
        trace_sample_rate: float = 1.0,
    ) -> None:
        from repro.runtime.parallel import effective_jobs

        self.options = options or CheckOptions()
        self.jobs = effective_jobs(jobs)
        self.cache = VerdictCache(cache_size)
        self.clear_caches_every = clear_caches_every
        #: Head-sampling rate for *generated* trace contexts (requests
        #: arriving with their own ``traceparent`` keep the caller's
        #: sampling decision).  Ids are minted either way — verdicts
        #: always echo ``trace_id``/``request_id`` — but unsampled
        #: requests skip spans, exemplars and worker-span payloads.
        self.trace_sample_rate = float(trace_sample_rate)
        self.batches = 0
        self.items = 0
        self.errors = 0
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._hb_queue: Any | None = None

    # -- pool lifecycle -------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        from repro.runtime.parallel import (
            _init_pool_worker,
            heartbeat_interval,
        )

        if self._pool is None:
            import multiprocessing

            interval = heartbeat_interval()
            try:
                ctx = multiprocessing.get_context()
                self._hb_queue = ctx.Queue()
            except (OSError, ValueError):
                self._hb_queue = None
            from repro.obs import profile as obs_profile

            profile_spec = obs_profile.worker_spec()
            if self._hb_queue is not None or profile_spec is not None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_init_pool_worker,
                    initargs=(self._hb_queue, interval, profile_spec),
                )
            else:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._hb_queue is not None:
            self._hb_queue.close()
            self._hb_queue.cancel_join_thread()
            self._hb_queue = None

    def close(self) -> None:
        """Drain and shut the pool down (idempotent)."""
        with self._lock:
            self._teardown_pool()

    def __enter__(self) -> "TraceCheckService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- journal hooks --------------------------------------------------

    @staticmethod
    def _journal() -> Any | None:
        return obs.get().journal if obs.enabled() else None

    def _record(self, kind: str, **fields: Any) -> None:
        journal = self._journal()
        if journal is not None and not journal.closed:
            journal.record(kind, **fields)

    # -- the batch ------------------------------------------------------

    def check_batch(
        self,
        lines: Iterable[str],
        on_result: Callable[[ItemResult], None] | None = None,
        label: str = "batch",
        traceparent: str | None = None,
    ) -> list[ItemResult]:
        """Check one batch of JSONL request lines.

        Results stream to ``on_result`` in completion order (dedupe
        hits and parse errors first, pool completions as they land) and
        come back as a list sorted by batch index.  The journal gets
        one ``serve_batch`` record up front — before any work, so a
        SIGKILL mid-batch still replays to "batch N accepted, K of M
        items done" — then one ``serve_item`` per completion and a
        closing ``serve_batch_done``.

        ``traceparent`` is the transport's inbound trace header (the
        HTTP front-end forwards it verbatim); it — or a per-item
        ``"trace"`` envelope field — joins this batch to the caller's
        trace, so every verdict, journal record and worker span carries
        the caller's ``trace_id``.
        """
        with self._lock:
            return self._check_batch_locked(
                lines, on_result, label, traceparent
            )

    def _check_batch_locked(
        self,
        lines: Iterable[str],
        on_result: Callable[[ItemResult], None] | None,
        label: str,
        traceparent: str | None,
    ) -> list[ItemResult]:
        # Mint the batch's trace context: the inbound header wins, else
        # any ambient context (the CLI's REPRO_TRACEPARENT root in
        # offline mode), else a generated one under the head-sampling
        # rate.  The serve.batch span (when tracing) annotates itself
        # from this context and becomes the parent of every item span.
        if traceparent:
            batch_ctx = trace_context.mint(
                traceparent, self.trace_sample_rate
            )
        else:
            batch_ctx = trace_context.current() or trace_context.mint(
                None, self.trace_sample_rate
            )
        requests = list(lines)
        with trace_context.activate(batch_ctx):
            with obs.span(
                "serve.batch", items=len(requests), label=label
            ):
                return self._run_batch(requests, on_result, label)

    def _run_batch(
        self,
        requests: list[str],
        on_result: Callable[[ItemResult], None] | None,
        label: str,
    ) -> list[ItemResult]:
        t0 = time.perf_counter()
        batch_id = self.batches
        self.batches += 1
        base_ctx = trace_context.current()
        if base_ctx is None:  # activate() in the caller guarantees one
            base_ctx = trace_context.mint(None)
        self._record(
            "serve_batch",
            batch=batch_id,
            items=len(requests),
            label=label,
            trace_id=base_ctx.trace_id,
            span_id=base_ctx.span_id,
        )
        if obs.enabled():
            obs.add("serve.batches")
            obs.add("serve.items", len(requests))

        results: list[ItemResult | None] = [None] * len(requests)
        done_count = 0
        # Every item gets its own context — span_id doubles as the
        # request id — minted up front so parse errors, dedupe hits and
        # pool completions all echo ids on exactly the same terms.
        item_ctxs: dict[int, TraceContext] = {}

        def finish(item: ItemResult) -> None:
            nonlocal done_count
            ctx = item_ctxs.get(item.index)
            if ctx is not None:
                item.trace_id = ctx.trace_id
                item.request_id = ctx.span_id
            results[item.index] = item
            done_count += 1
            ok = bool(item.verdict.get("ok"))
            admitted = item.verdict.get("admitted")
            self.items += 1
            if not ok:
                self.errors += 1
            if obs.enabled():
                if not ok:
                    obs.add("serve.errors")
                elif admitted is True:
                    obs.add("serve.verdicts.admitted")
                elif admitted is False:
                    obs.add("serve.verdicts.rejected")
                if item.cached:
                    obs.add("serve.dedupe.hits")
                else:
                    obs.add("serve.dedupe.misses")
                obs.observe(
                    "serve.check_seconds",
                    float(item.verdict.get("seconds", 0.0)),
                )
            self._record(
                "serve_item",
                batch=batch_id,
                index=item.index,
                ok=ok,
                admitted=admitted,
                cached=item.cached,
                doc_kind=item.verdict.get("kind"),
                seconds=item.verdict.get("seconds"),
                trace_id=item.trace_id,
                request_id=item.request_id,
            )
            if on_result is not None:
                on_result(item)

        # Phase 1: parse, fingerprint, dedupe.  ``waiting`` maps a
        # fingerprint to the items riding on its first occurrence.
        unique: list[_PendingItem] = []
        waiting: dict[tuple, list[_PendingItem]] = {}
        for index, line in enumerate(requests):
            item_ctxs[index] = base_ctx.child()
            try:
                doc, options, env_trace = parse_request_ex(
                    line, self.options
                )
            except (ReproError, ValueError, TypeError) as exc:
                finish(ItemResult(index, _error_verdict(exc)))
                continue
            if env_trace is not None:
                # A per-item traceparent overrides the batch context:
                # this item's span joins the caller's own trace.
                env_ctx = trace_context.parse_traceparent(env_trace)
                if env_ctx is not None:
                    item_ctxs[index] = env_ctx.child()
            item = _PendingItem(index, doc, options)
            item.ctx = item_ctxs[index]
            # Witness translation across relabelled twins covers the
            # core verdict payload only; sanitizer/analysis output
            # embeds ids in prose, so those items dedupe exactly.
            item.translatable = not (options.sanitize or options.rules)
            try:
                obj = _load_document(doc)
                item.key, item.perm = request_fingerprint(obj, options)
            except (ReproError, ValueError, TypeError, KeyError) as exc:
                finish(ItemResult(index, _error_verdict(exc)))
                continue
            entry = self.cache.get(item.key)
            if entry is not None and self._serve_hit(entry, item, finish):
                continue
            if item.key in waiting:
                waiting[item.key].append(item)
                continue
            waiting[item.key] = []
            unique.append(item)

        # Phase 2: fan the unique survivors out to the pool.
        if unique:
            self._dispatch(unique, waiting, finish, label)

        wall = time.perf_counter() - t0
        self._record(
            "serve_batch_done",
            batch=batch_id,
            items=len(requests),
            done=done_count,
            errors=sum(
                1
                for r in results
                if r is not None and not r.verdict.get("ok")
            ),
            seconds=round(wall, 6),
        )
        if obs.enabled():
            obs.observe("serve.batch_seconds", wall)
            obs.set_gauge("serve.inflight", 0)
            obs.set_gauge("serve.cache.entries", len(self.cache))
            from repro.runtime.parallel import publish_cache_gauges

            publish_cache_gauges()
        if (
            self.clear_caches_every
            and self.batches % self.clear_caches_every == 0
        ):
            from repro.runtime.parallel import clear_sweep_caches

            clear_sweep_caches()
        journal = self._journal()
        if journal is not None and not journal.closed:
            journal.sync()
        return [r for r in results if r is not None]

    def _serve_hit(
        self,
        entry: tuple[dict, tuple[int, ...]],
        item: _PendingItem,
        finish: Callable[[ItemResult], None],
    ) -> bool:
        """Serve a cache hit if the entry is usable for this item."""
        verdict, cached_perm = entry
        remap = _compose_remap(cached_perm, item.perm)
        if remap is None:
            finish(ItemResult(item.index, dict(verdict), cached=True))
            return True
        if not item.translatable:
            # Relabelled twin with non-translatable payload: recheck.
            self.cache.hits -= 1  # the lookup was not served
            self.cache.misses += 1
            return False
        finish(
            ItemResult(
                item.index, _remap_verdict(verdict, remap), cached=True
            )
        )
        return True

    def _dispatch(
        self,
        unique: list[_PendingItem],
        waiting: dict[tuple, list[_PendingItem]],
        finish: Callable[[ItemResult], None],
        label: str,
    ) -> None:
        from repro.runtime.parallel import (
            _drain_heartbeats,
            get_sweep_monitor,
        )

        monitor = get_sweep_monitor()
        if monitor is not None:
            monitor.on_sweep_start(
                f"serve:{label}", len(unique), self.jobs
            )
        t0 = time.perf_counter()

        def graft_worker_span(verdict: dict) -> None:
            """Pop the transient ``_worker_span`` payload and graft it
            into the live trace.  Must run before the verdict is cached
            or streamed — the payload names one process's execution of
            one request and must never leak into NDJSON or the cache."""
            ws = verdict.pop("_worker_span", None)
            if ws is None or not obs.enabled():
                return
            obs.attach(
                obs.Span(
                    name="serve.check",
                    attrs={
                        "trace_id": str(ws.get("trace_id", "")),
                        "span_id": str(ws.get("span_id", "")),
                        "parent_span_id": str(
                            ws.get("parent_span_id", "")
                        ),
                        "pid": int(ws.get("pid", 0)),
                    },
                    start=0.0,
                    duration=float(ws.get("seconds", 0.0)),
                )
            )

        def check_inline(pending: _PendingItem) -> tuple[dict, bool]:
            """Run an item in this process, trace context included.

            Returns ``(verdict, cacheable)``.  A check that crashes
            becomes the item's uncached error verdict, exactly as a
            crash in a pool worker does.
            """
            ctx = pending.ctx
            trace = (
                ctx.as_tuple() if ctx is not None and ctx.sampled else None
            )
            try:
                verdict = check_document(pending.doc, pending.options, trace)
            except Exception as exc:
                return _error_verdict(exc), False
            graft_worker_span(verdict)
            return verdict, True

        def settle(
            item: _PendingItem, verdict: dict, cache: bool = True
        ) -> None:
            """Store (unless ``cache`` is off), answer the item, and fan
            out to its twins."""
            graft_worker_span(verdict)
            if cache:
                self.cache.put(item.key, verdict, item.perm)  # type: ignore[arg-type]
            finish(ItemResult(item.index, dict(verdict), cached=False))
            # Consume the twin list: a later broken-pool retry must not
            # re-settle an already-answered fingerprint.
            for twin in waiting.pop(item.key, ()):  # type: ignore[arg-type]
                remap = _compose_remap(item.perm, twin.perm)
                if remap is None or not cache:
                    finish(
                        ItemResult(twin.index, dict(verdict), cached=cache)
                    )
                elif twin.translatable:
                    finish(
                        ItemResult(
                            twin.index,
                            _remap_verdict(verdict, remap),
                            cached=True,
                        )
                    )
                else:
                    # Same fingerprint but ids differ and the payload
                    # cannot be translated: check it directly.
                    finish(
                        ItemResult(
                            twin.index,
                            check_inline(twin)[0],
                            cached=False,
                        )
                    )

        failed: list[_PendingItem] = []
        try:
            pool = self._ensure_pool()
            futures = {
                pool.submit(
                    check_document,
                    it.doc,
                    it.options,
                    it.ctx.as_tuple()
                    if it.ctx is not None and it.ctx.sampled
                    else None,
                ): it
                for it in unique
            }
            pending = set(futures)
            interval = (
                monitor.interval if monitor is not None else 1.0
            )
            while pending:
                done, pending = wait(
                    pending,
                    timeout=interval / 2,
                    return_when=FIRST_COMPLETED,
                )
                if self._hb_queue is not None:
                    _drain_heartbeats(self._hb_queue, monitor)
                    if monitor is not None:
                        monitor.check_stalls()
                if obs.enabled():
                    obs.set_gauge("serve.inflight", len(pending))
                for future in done:
                    item = futures[future]
                    try:
                        verdict = future.result()
                    except BrokenProcessPool:
                        failed.append(item)
                    except Exception as exc:
                        # The check itself crashed: this item (and its
                        # twins) get an error verdict, never cached, and
                        # the rest of the batch carries on.
                        settle(item, _error_verdict(exc), cache=False)
                    else:
                        settle(item, verdict)
        except BrokenProcessPool:
            failed = [it for it in unique if it.key in waiting]
        if failed:
            # A dead worker broke the pool: rebuild it and finish the
            # stragglers in-process, mirroring the sweep engine's
            # serial-retry policy (never lose accepted work).
            self._teardown_pool()
            obs.warning(
                "serve pool broke mid-batch; retrying items in-process",
                items=len(failed),
            )
            for item in failed:
                verdict, cacheable = check_inline(item)
                settle(item, verdict, cache=cacheable)
        if monitor is not None:
            monitor.on_sweep_done(
                f"serve:{label}", time.perf_counter() - t0
            )


# ----------------------------------------------------------------------
# Crash replay
# ----------------------------------------------------------------------


def replay_serve_ledger(path: str) -> dict:
    """Fold a (possibly torn) journal into a ledger of completed work.

    ``serve_batch`` / ``serve_item`` / ``serve_batch_done`` records
    survive :func:`repro.obs.journal.replay_journal` verbatim (unknown
    kinds are preserved into the collector's event list), so a server
    SIGKILLed mid-batch replays to exactly the items that finished:
    ``pending`` is the accepted-but-unanswered remainder to resubmit.

    Records that carry a ``trace_id`` (every one written since the
    service started propagating contexts) are additionally folded into
    a per-trace ``"traces"`` map, so a caller who stamped its requests
    with a ``traceparent`` can reconcile *its own* work against a torn
    journal without untangling interleaved batches.
    """
    from repro.obs.journal import replay_journal

    replay = replay_journal(path)
    ledger: dict[str, Any] = {
        "clean": replay.clean,
        "batches_accepted": 0,
        "batches_done": 0,
        "items_accepted": 0,
        "items_done": 0,
        "admitted": 0,
        "rejected": 0,
        "errors": 0,
        "cached": 0,
    }
    traces: dict[str, dict[str, int]] = {}

    def trace_bucket(ev: dict) -> dict[str, int] | None:
        tid = ev.get("trace_id")
        if not isinstance(tid, str) or not tid:
            return None
        return traces.setdefault(
            tid,
            {
                "items_accepted": 0,
                "items_done": 0,
                "admitted": 0,
                "rejected": 0,
                "errors": 0,
                "cached": 0,
            },
        )

    for ev in replay.obs.events:
        kind = ev.get("kind")
        if kind == "serve_batch":
            ledger["batches_accepted"] += 1
            ledger["items_accepted"] += int(ev.get("items", 0))
            bucket = trace_bucket(ev)
            if bucket is not None:
                bucket["items_accepted"] += int(ev.get("items", 0))
        elif kind == "serve_item":
            ledger["items_done"] += 1
            if not ev.get("ok"):
                ledger["errors"] += 1
            elif ev.get("admitted") is True:
                ledger["admitted"] += 1
            elif ev.get("admitted") is False:
                ledger["rejected"] += 1
            if ev.get("cached"):
                ledger["cached"] += 1
            bucket = trace_bucket(ev)
            if bucket is not None:
                bucket["items_done"] += 1
                if not ev.get("ok"):
                    bucket["errors"] += 1
                elif ev.get("admitted") is True:
                    bucket["admitted"] += 1
                elif ev.get("admitted") is False:
                    bucket["rejected"] += 1
                if ev.get("cached"):
                    bucket["cached"] += 1
        elif kind == "serve_batch_done":
            ledger["batches_done"] += 1
    ledger["pending"] = max(
        0, ledger["items_accepted"] - ledger["items_done"]
    )
    for bucket in traces.values():
        bucket["pending"] = max(
            0, bucket["items_accepted"] - bucket["items_done"]
        )
    ledger["traces"] = traces
    return ledger
