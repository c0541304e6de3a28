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

Checking runs in ``jobs`` persistent worker processes, each with its
own pipe, and a batch takes two round trips to them.  In the
*fingerprint* phase the parent splits the batch's raw lines among the
workers, balanced by line length; each worker parses, loads and
fingerprints its share (:class:`_ItemStore`), keeps the loaded objects
and sends back only each item's cache key, canonical permutation and
envelope trace field, or its one-line error.  The parent does all the
dedupe work — cache lookups, twin lists, witness remapping, journal
records — and in the *check* phase asks each worker to check the
unique items it already holds.  So each item is loaded once, by the
worker that checks it; the parent only routes, dedupes and caches.  A
worker that dies never loses accepted work: the parent redoes its
unanswered items in-process and starts a replacement for the next
batch.  When a :class:`~repro.runtime.parallel.SweepMonitor` is
installed as the workers start, they are initialized with the sweep
engine's heartbeat channel
(:func:`repro.runtime.parallel._init_pool_worker`), so the monitor — and
through it the ``--journal`` spool and ``--live`` board — sees serve
workers exactly like sweep workers, stall watchdog included.  Without a
monitor there is no channel and a worker's beat is a no-op.

Crash safety: every accepted batch writes a ``serve_batch`` journal
record, every finished item a ``serve_item``, and every completed batch
a ``serve_batch_done``; :func:`replay_serve_ledger` folds a journal —
even one torn by ``kill -9`` — into a consistent ledger of completed
work.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro import obs
from repro.dag.canon import canonical_labelling
from repro.errors import ReproError
from repro.obs import context as trace_context
from repro.obs.context import TraceContext
from repro import io as repro_io
from repro.io import FormatError, document_loader, load_document, parse_json

__all__ = [
    "KNOWN_CHECKS",
    "CANON_NODE_LIMIT",
    "CheckOptions",
    "ItemResult",
    "TraceCheckService",
    "VerdictCache",
    "check_document",
    "check_object",
    "parse_request",
    "parse_request_ex",
    "replay_serve_ledger",
    "request_fingerprint",
]

KNOWN_CHECKS = ("lc", "sc", "streaming", "nn", "nw", "wn", "ww")
"""The checks a request may ask for: ``streaming`` (traces only) and one
per model, its lower-cased name, answered by :func:`repro.verify.admits`
(``null`` when undecided: SC above ``sc_node_limit``, or a completion
search over budget)."""

CANON_NODE_LIMIT = 7
"""Largest dag put in canonical labelling for isomorphism dedupe.

The canonical search tries the cell-respecting relabellings, up to
``n!`` when colour refinement cannot split the nodes and they are not
twins; the limit caps that worst case.  Past it the fingerprint is
exact: only identical resubmissions dedupe, never a wrong merge.
"""

_LOADERS = repro_io._LOADERS
"""The :mod:`repro.io` format table itself, not a copy: a patched entry
(perfbench's ``serve.load`` layer patches them) reaches every load."""

# ----------------------------------------------------------------------
# Request options and parsing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CheckOptions:
    """What to run against one document.

    ``checks`` picks among :data:`KNOWN_CHECKS`; ``sc`` is skipped
    (verdict ``null``) on documents above ``sc_node_limit`` nodes — the
    SC decision is exponential and a service must not let one oversized
    request starve the workers.  ``sanitize`` replays traces through
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
        """``base`` overridden by an envelope's option fields (absent or
        ``null`` keeps the base value; a wrong type is a
        :class:`repro.io.FormatError`)."""

        def field(name: str, valid: Callable[[Any], bool], kind: str) -> Any:
            value = data.get(name)
            if value is None:
                return getattr(base, name)
            if not valid(value):
                raise FormatError(f"envelope field {name!r} must be {kind}")
            return value

        def names(value: Any) -> bool:
            return isinstance(value, list) and all(isinstance(v, str) for v in value)

        return cls(
            checks=tuple(field("checks", names, "a list of strings")),
            sanitize=field("sanitize", lambda v: isinstance(v, bool), "a boolean"),
            rules=tuple(field("rules", names, "a list of strings")),
            sc_node_limit=field("sc_node_limit", lambda v: type(v) is int, "an integer"),
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
    data = parse_json(line)
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
    document_loader(doc)
    return doc, options, trace


def parse_request(
    line: str, defaults: CheckOptions
) -> tuple[dict, CheckOptions]:
    """:func:`parse_request_ex` without the trace field (stable API)."""
    doc, options, _ = parse_request_ex(line, defaults)
    return doc, options


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
    (exact-match fingerprint).  Every key starts ``(kind, node
    count)``.  Two requests share a key **iff** they are isomorphic as
    constrained, scheduled computations under the same options — so a
    cache hit is always sound, and witnesses translate through the two
    permutations.
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
# The per-document checker (runs in the serve workers)
# ----------------------------------------------------------------------


def _serve_heartbeat(items_done: int, elapsed: float) -> None:
    """Emit a worker heartbeat over the sweep engine's channel, if one
    was installed when the worker started (silently optional)."""
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

_INPUT_ERRORS = (ReproError, ValueError, KeyError, TypeError, IndexError)
"""What a malformed document may raise while it is loaded or checked:
the item's ``{"ok": false}`` verdict, not a crash."""


def _describe(exc: BaseException) -> str:
    """The one-line error text of an item's verdict."""
    return f"{type(exc).__name__}: {exc}"


def _error_verdict(error: str) -> dict:
    """The verdict of an item whose parse, load or check raised."""
    return {"ok": False, "error": error, "seconds": 0.0}


def check_document(
    doc: dict, options: CheckOptions, trace: tuple | None = None
) -> dict:
    """Load and check one document; what a serve worker does per item.

    Returns a verdict dict (see the README protocol section): always
    ``ok`` and ``seconds``; on success ``kind``, per-check ``verdicts``
    (``true``/``false``/``null`` = skipped), the conjunction
    ``admitted``, and any ``witness`` / ``sc_witness`` / ``sanitizer``
    / ``findings`` payloads.  Malformed documents come back as
    ``{"ok": false, "error": ...}`` — the check never raises for bad
    input, so one poisoned item cannot break its batch.

    ``trace`` is the item's propagated context as a
    :meth:`TraceContext.as_tuple` tuple (``span_id`` = the item's own
    request span, ``parent_span_id`` = the serve batch span).  When
    sampled it is re-activated around the check — so the heartbeat
    below carries the trace id — and the verdict gains a transient
    ``_worker_span`` payload identifying this process's execution; the
    parent pops it before caching/streaming and grafts it into the
    live trace, which is how a request's span tree crosses the fork
    boundary to the workers.
    """
    return _check_traced(
        lambda: load_document(doc), options, trace, time.perf_counter()
    )


def _check_traced(
    load: Callable[[], Any],
    options: CheckOptions,
    trace: tuple | None,
    started: float,
) -> dict:
    """:func:`check_document` on whatever ``load()`` returns, with
    ``seconds`` counted from ``started`` (so a load done earlier can
    still count towards the item's seconds)."""
    global _WORKER_ITEMS
    ctx: TraceContext | None = None
    if trace is not None:
        ctx = TraceContext.from_tuple(trace)
        if not ctx.sampled:
            ctx = None
    activation = (
        trace_context.activate(ctx) if ctx is not None else nullcontext()
    )
    with activation:
        try:
            verdict = check_object(load(), options)
        except _INPUT_ERRORS as exc:
            verdict = {"ok": False, "error": _describe(exc)}
        verdict["seconds"] = round(time.perf_counter() - started, 6)
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


def check_object(obj: Any, options: CheckOptions) -> dict:
    """:func:`check_document` on an already loaded document: the same
    verdict dict, ``seconds`` timing the check alone, with no trace
    context and no heartbeat."""
    t0 = time.perf_counter()
    try:
        verdict = _check_object(obj, options)
    except _INPUT_ERRORS as exc:
        verdict = {"ok": False, "error": _describe(exc)}
    else:
        verdict["ok"] = True
    verdict["seconds"] = round(time.perf_counter() - t0, 6)
    return verdict


def _check_object(obj: Any, options: CheckOptions) -> dict:
    """The verdict payload of one loaded document: ``streaming`` on
    traces, then each model check through :func:`repro.verify.admits`."""
    from repro.core.computation import Computation
    from repro.core.observer import ObserverFunction
    from repro.runtime.trace import ExecutionTrace, PartialObserver
    from repro.verify.checker import admits
    from repro.verify.streaming import StreamingLCVerifier

    kinds = {
        ExecutionTrace: "trace",
        PartialObserver: "partial-observer",
        ObserverFunction: "observer",
        Computation: "computation",
    }
    if type(obj) not in kinds:
        raise FormatError(f"cannot check {type(obj).__name__!r}")
    out: dict[str, Any] = {"kind": kinds[type(obj)]}
    trace = obj if isinstance(obj, ExecutionTrace) else None
    document = None if isinstance(obj, Computation) else obj
    if trace is not None:
        out["nodes"] = trace.comp.num_nodes
        document = trace.partial_observer()
    verdicts: dict[str, bool | None] = {}
    if trace is not None and "streaming" in options.checks:
        violation = StreamingLCVerifier.check_trace(trace)
        verdicts["streaming"] = violation is None
        if violation is not None:
            out["witness"] = {
                "node": violation.node,
                "loc": repr(violation.loc),
                "reason": violation.reason,
                "blocks": list(violation.blocks),
            }
    for check in KNOWN_CHECKS:
        if check == "streaming" or check not in options.checks or document is None:
            continue
        result = admits(check.upper(), document, sc_node_limit=options.sc_node_limit)
        verdicts[check] = result.verdict
        if trace is not None and result.witness is not None:
            out["sc_witness"] = list(result.witness)
    decided = [v for v in verdicts.values() if v is not None]
    out["verdicts"] = verdicts
    out["admitted"] = all(decided) if decided else None
    if trace is not None and options.sanitize:
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
    # Analysis rules run on traces and bare computations.
    if options.rules and (trace is not None or document is None):
        comp = obj if trace is None else trace.comp
        out["findings"] = _run_rules(comp, trace, options)
    return out


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
# The serve workers
# ----------------------------------------------------------------------


class _ItemStore:
    """One process's share of a batch: the loaded documents it will check.

    :meth:`fingerprint` parses, loads and fingerprints request lines and
    keeps each loaded object; :meth:`check` checks held objects, so an
    item is loaded once for both.  Each serve worker owns a store, and
    the parent owns one for the items it redoes in-process (a dead
    worker's share, a relabelled twin whose payload cannot be
    translated).
    """

    def __init__(self) -> None:
        self._held: dict[int, tuple[Any, CheckOptions, float]] = {}

    def clear(self) -> None:
        self._held.clear()

    def fingerprint(
        self, defaults: CheckOptions, lines: Iterable[tuple[int, str]]
    ) -> list[tuple]:
        """Per ``(index, line)``: ``(index, error, key, perm,
        translatable, envelope trace)``.  ``error`` is ``None`` when the
        item loaded and is now held, else the item's one-line error."""
        out: list[tuple] = []
        for index, line in lines:
            env_trace = None
            try:
                doc, options, env_trace = parse_request_ex(line, defaults)
                t0 = time.perf_counter()
                obj = load_document(doc)
                loaded = time.perf_counter() - t0
                key, perm = request_fingerprint(obj, options)
            except Exception as exc:
                out.append((index, _describe(exc), None, (), False, env_trace))
                continue
            self._held[index] = (obj, options, loaded)
            # Witness translation across relabelled twins covers the
            # core verdict payload only; sanitizer/analysis output
            # embeds ids in prose, so those items dedupe exactly.
            translatable = not (options.sanitize or options.rules)
            out.append((index, None, key, perm, translatable, env_trace))
        return out

    def check(
        self, requests: Iterable[tuple[int, tuple | None]]
    ) -> list[tuple[int, dict, bool]]:
        """Per ``(index, trace context)``: ``(index, verdict,
        cacheable)`` of the held item, which is then dropped.

        A check that raises past :func:`check_document`'s input errors
        becomes that item's uncached error verdict; the other items are
        still checked."""
        out: list[tuple[int, dict, bool]] = []
        for index, trace in requests:
            try:
                obj, options, loaded = self._held.pop(index)
                started = time.perf_counter() - loaded
                verdict = _check_traced(lambda: obj, options, trace, started)
            except Exception as exc:
                out.append((index, _error_verdict(_describe(exc)), False))
            else:
                out.append((index, verdict, True))
        return out


def _serve_worker(
    conn: Any,
    inherited: Sequence[Any],
    hb_queue: Any,
    interval: float,
    profile_spec: dict | None,
) -> None:
    """A serve worker's loop: answer the parent's ``("fingerprint",
    (defaults, lines))`` and ``("check", requests)`` messages from one
    :class:`_ItemStore` until it sends ``None`` or goes away.

    ``inherited`` are parent-side pipe ends this process got by fork;
    closing them lets every worker see end-of-file when the parent
    dies."""
    for other in inherited:
        other.close()
    trace_context.set_current(None)
    if hb_queue is not None or profile_spec is not None:
        from repro.runtime.parallel import _init_pool_worker

        _init_pool_worker(hb_queue, interval, profile_spec)
    store = _ItemStore()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        op, args = message
        if op == "fingerprint":
            # A new batch: drop what the last one left unchecked.
            store.clear()
            conn.send(store.fingerprint(*args))
        else:
            conn.send(store.check(args))


class _Worker:
    """One serve worker process and the parent's end of its pipe."""

    def __init__(
        self,
        inherited: Sequence[Any],
        hb_queue: Any,
        interval: float,
        profile_spec: dict | None,
    ) -> None:
        # The platform's default start method, as the sweep's pool uses:
        # a forked worker starts in milliseconds with the parent's
        # modules, where a spawned one would import them all again.
        mp = multiprocessing.get_context()
        self.conn, child = mp.Pipe()
        self.process = mp.Process(
            target=_serve_worker,
            args=(
                child,
                (*inherited, self.conn),
                hb_queue,
                interval,
                profile_spec,
            ),
            daemon=True,
        )
        self.process.start()
        child.close()

    def stop(self, graceful: bool = True) -> None:
        """End the process and reap it: asked to exit when ``graceful``
        (it is idle between batches), else terminated."""
        if graceful:
            try:
                self.conn.send(None)
            except OSError:
                pass
            self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()
        self.conn.close()


def _plan_shares(weights: Sequence[int], jobs: int) -> list[list[int]]:
    """Positions ``0..len(weights)-1`` split into
    ``min(len(weights), jobs)`` shares of about equal total weight (a
    request line's length).

    Greedy: heaviest first, each to the lightest share so far (ties to
    the one with fewer items, then the lower index), so an item heavier
    than all the others together rides alone.  Each share lists its
    positions in ascending order.
    """
    count = min(len(weights), max(1, jobs))
    shares: list[list[int]] = [[] for _ in range(count)]
    heap = [(0, 0, c) for c in range(count)]
    for pos in sorted(range(len(weights)), key=lambda p: -weights[p]):
        load, size, c = heapq.heappop(heap)
        shares[c].append(pos)
        heapq.heappush(heap, (load + weights[pos], size + 1, c))
    for share in shares:
        share.sort()
    return shares


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
    """A fingerprinted item awaiting its verdict.  ``holder`` is the
    worker that loaded it, ``None`` when this process holds it."""

    index: int
    line: str
    key: tuple
    perm: tuple[int, ...]
    translatable: bool
    holder: "_Worker | None"
    ctx: TraceContext

    def trace(self) -> tuple | None:
        """The item's context as sent to its check (``None`` when
        unsampled)."""
        return self.ctx.as_tuple() if self.ctx.sampled else None


class TraceCheckService:
    """The long-running batch checker behind ``repro serve``.

    Owns ``jobs`` persistent worker processes (started lazily; one that
    dies is replaced before the next batch).  A
    :class:`~repro.runtime.parallel.SweepMonitor` installed when the
    workers start gets their heartbeats over the sweep engine's
    channel; an installed monitor receives ``on_sweep_start`` /
    heartbeats / ``on_sweep_done`` per batch plus stall warnings,
    exactly as for enumeration sweeps.  ``check_batch`` is serialized
    by an internal lock — concurrent HTTP posts queue up rather than
    interleave on the workers.

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
        self._pool: list[_Worker] | None = None
        self._hb_queue: Any | None = None
        self._profile_spec: dict | None = None
        #: What this process holds of the current batch (see _ItemStore).
        self._local = _ItemStore()

    # -- worker lifecycle -----------------------------------------------

    def _ensure_pool(self) -> list[_Worker]:
        """The workers, started on first use and topped up after one died.

        As in the sweep engine (``parallel._dispatch_pool``), the
        heartbeat queue exists only when a monitor is installed as the
        workers first start, and the worker initializer runs only when
        that queue or a profiling run needs it: unmonitored workers
        send no beats.
        """
        from repro.obs import profile as obs_profile
        from repro.runtime.parallel import get_sweep_monitor, heartbeat_interval

        if self._pool is None:
            self._pool = []
            if get_sweep_monitor() is not None:
                try:
                    self._hb_queue = multiprocessing.get_context().Queue()
                except (OSError, ValueError):
                    self._hb_queue = None
            self._profile_spec = obs_profile.worker_spec()
        while len(self._pool) < self.jobs:
            self._pool.append(
                _Worker(
                    [w.conn for w in self._pool],
                    self._hb_queue,
                    heartbeat_interval(),
                    self._profile_spec,
                )
            )
        return self._pool

    def _teardown_pool(self, graceful: bool = True) -> None:
        from repro.runtime.parallel import _drain_heartbeats, get_sweep_monitor

        if self._pool is not None:
            for worker in self._pool:
                worker.stop(graceful)
            self._pool = None
        if self._hb_queue is not None:
            # Beats still queued when the workers exited are delivered,
            # not dropped with the queue.
            _drain_heartbeats(self._hb_queue, get_sweep_monitor())
            self._hb_queue.close()
            self._hb_queue.cancel_join_thread()
            self._hb_queue = None

    def _lost(self, worker: _Worker) -> None:
        """Reap a worker that died mid-batch and drop it from the pool."""
        if self._pool is not None and worker in self._pool:
            self._pool.remove(worker)
        worker.stop(graceful=False)
        obs.warning(
            "serve worker died mid-batch; redoing its items in-process",
            pid=worker.process.pid,
        )

    def _exchange(
        self, messages: dict[_Worker, Any], monitor: Any
    ) -> Iterator[tuple[_Worker, Any]]:
        """Send each worker its message and yield ``(worker, reply)`` as
        the replies land; the reply is ``None`` for a worker that died
        (it is reaped and dropped from the pool).  While waiting, with a
        ``monitor`` given, the heartbeat queue is drained into it and its
        stall watchdog runs."""
        from repro.runtime.parallel import _drain_heartbeats

        pending: dict[Any, _Worker] = {}
        for worker, message in messages.items():
            try:
                worker.conn.send(message)
            except OSError:
                self._lost(worker)
                yield worker, None
                continue
            pending[worker.conn] = worker
        # Beats are only worth a wake-up when a queue carries them.
        watch = monitor is not None and self._hb_queue is not None
        timeout = monitor.interval / 2 if watch else None
        while pending:
            ready = mp_connection.wait(list(pending), timeout)
            if watch:
                _drain_heartbeats(self._hb_queue, monitor)
                monitor.check_stalls()
            for conn in ready:
                worker = pending.pop(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    self._lost(worker)
                    reply = None
                yield worker, reply

    def close(self) -> None:
        """Stop and reap the workers (idempotent)."""
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
        hits and parse errors first, worker answers as they land) and
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
        # checked items all echo ids on exactly the same terms.
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

        try:
            # Phase 1: the workers parse, load and fingerprint; the
            # parent dedupes.  ``waiting`` maps a fingerprint to the
            # items riding on its first occurrence.
            unique: list[_PendingItem] = []
            waiting: dict[tuple, list[_PendingItem]] = {}
            for index, (holder, reply) in enumerate(self._fingerprint(requests)):
                _, error, key, perm, translatable, env_trace = reply
                item_ctxs[index] = base_ctx.child()
                if env_trace is not None:
                    # A per-item traceparent overrides the batch context:
                    # this item's span joins the caller's own trace.
                    env_ctx = trace_context.parse_traceparent(env_trace)
                    if env_ctx is not None:
                        item_ctxs[index] = env_ctx.child()
                if error is not None:
                    finish(ItemResult(index, _error_verdict(error)))
                    continue
                item = _PendingItem(
                    index,
                    requests[index],
                    key,
                    perm,
                    translatable,
                    holder,
                    item_ctxs[index],
                )
                entry = self.cache.get(key)
                if entry is not None and self._serve_hit(entry, item, finish):
                    continue
                if key in waiting:
                    waiting[key].append(item)
                    continue
                waiting[key] = []
                unique.append(item)

            # Phase 2: each unique survivor is checked where it is held.
            if unique:
                self._dispatch(unique, waiting, finish, label)
        except BaseException:
            # Workers may still be busy with this batch: never let their
            # replies reach the next one.
            self._teardown_pool(graceful=False)
            raise
        finally:
            self._local.clear()

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

    def _fingerprint(
        self, requests: list[str]
    ) -> list[tuple[_Worker | None, tuple]]:
        """Each request line's holder and :meth:`_ItemStore.fingerprint`
        reply, in batch order.  The lines are split among the workers by
        length; a worker that dies has its share redone here.  Workers
        beat per check, so this phase has no stall watch."""
        if not requests:
            return []
        workers = self._ensure_pool()
        shares = _plan_shares([len(line) for line in requests], len(workers))
        messages = {
            worker: ("fingerprint", (self.options, [(i, requests[i]) for i in share]))
            for worker, share in zip(workers, shares)
        }
        out: list[Any] = [None] * len(requests)
        for worker, replies in self._exchange(messages, None):
            holder: _Worker | None = worker
            if replies is None:
                holder = None
                replies = self._local.fingerprint(*messages[worker][1])
            for reply in replies:
                out[reply[0]] = (holder, reply)
        return out

    def _check_here(
        self, items: Sequence[_PendingItem]
    ) -> list[tuple[int, dict, bool]]:
        """Load and check ``items`` in this process."""
        self._local.fingerprint(
            self.options, [(it.index, it.line) for it in items]
        )
        return self._local.check([(it.index, it.trace()) for it in items])

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

        def settle(answers: list[tuple[int, dict, bool]]) -> None:
            """Per answer: store it (when cacheable), answer the item,
            and fan out to its twins."""
            for index, verdict, cache in answers:
                item = by_index[index]
                graft_worker_span(verdict)
                if cache:
                    self.cache.put(item.key, verdict, item.perm)
                finish(ItemResult(item.index, dict(verdict), cached=False))
                for twin in waiting.pop(item.key, ()):
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
                        ((_, own, _),) = self._check_here([twin])
                        graft_worker_span(own)
                        finish(ItemResult(twin.index, own, cached=False))

        by_index = {item.index: item for item in unique}
        messages: dict[_Worker, Any] = {}
        for item in unique:
            if item.holder is not None:
                messages.setdefault(item.holder, ("check", []))[1].append(
                    (item.index, item.trace())
                )
        inflight = len(unique)
        for worker, answers in self._exchange(messages, monitor):
            if answers is None:
                # Its objects died with it: load and check them here.
                answers = self._check_here(
                    [by_index[index] for index, _ in messages[worker][1]]
                )
            settle(answers)
            inflight -= len(answers)
            if obs.enabled():
                obs.set_gauge("serve.inflight", inflight)
        # Items this process holds (a share whose worker died in the
        # fingerprint phase) are checked last.
        settle(
            self._local.check(
                [(it.index, it.trace()) for it in unique if it.holder is None]
            )
        )
        # The last items' beats may land after their results.
        if self._hb_queue is not None:
            _drain_heartbeats(self._hb_queue, monitor)
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
