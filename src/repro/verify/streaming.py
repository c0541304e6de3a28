"""Streaming (online) LC verification with fault localization.

The batch checker (:func:`repro.verify.trace_admits_lc`) answers
yes/no after the fact; this verifier consumes the execution as a stream
of events and reports the *first event* at which location consistency
became unsatisfiable — the question a runtime developer actually asks
("which read went wrong?").  The same engine rides inside a run, the
way ThreadSanitizer sits inside a program:
``execute(schedule, memory, sanitizer=StreamingLCVerifier())`` feeds it
every node as it executes and stops the run at the first violating
event.

It maintains, per location, the block structure of THEORY.md §1/§2
incrementally, on the computation's own node ids:

* every constrained event (a write, or a read with its observed writer)
  joins a *block* — the fiber of its observed write (or the ⊥ block);
* each node carries the set of blocks among itself and its ancestors
  per location (propagated along edges as nodes arrive — block-level
  reachability, bounded by the number of writes, not nodes; a node
  that adds no block shares its predecessor's sets);
* a new member of block ``b`` with an ancestor in block ``a ≠ b`` adds
  the quotient edge ``a → b``; a cycle created by the insertion, or any
  edge into a ⊥ block, is precisely an LC violation (the streamed form
  of the batch condition), reported with the offending node, location
  and a *witness*.

Each quotient edge remembers the event that added it, so the witness is
the shortest chain of nodes whose observations contradict each other:
the edges of the cycle (or the write a ⊥ read follows), ending with the
violating node.  Cycle detection is one breadth-first search from ``b``
in the quotient (whose size is bounded by the writes to that location,
not the trace length), run only when the event adds a new edge out of
an existing block's reach.

Agreement with the batch checker on complete traces is property-tested;
the bench measures the streaming cost per event on long executions.

Observability: :meth:`StreamingLCVerifier.check_trace` runs under a
``verify.streaming`` span, maintains ``verify.streaming.admitted`` /
``.rejected`` verdict counters, and samples its wall time into the
``verify.streaming.seconds`` histogram — mirroring the batch checker's
``verify.lc`` telemetry so the two are directly comparable in traces.
Live runs count ``sanitizer.events`` / ``sanitizer.violations`` in the
executor, never per event here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from repro import obs
from repro.core.ops import Op, Location
from repro.runtime.trace import ExecutionTrace

__all__ = ["StreamingViolation", "StreamingLCVerifier"]

_BOT = ("⊥",)  # per-location bottom-block sentinel (distinct from node ids)

_NO_BLOCKS: dict = {}  # shared reach of nodes without block ancestors


def _blk(b: int | None) -> str:
    return "⊥" if b is None else f"write {b}"


def _render_reason(blocks: tuple[int | None, ...]) -> str:
    a, b = blocks
    if b is None:
        return (
            f"a node observing ⊥ follows a node in the block of {_blk(a)}"
        )
    return (
        f"write-serialization cycle between the blocks of "
        f"{_blk(a)} and {_blk(b)}"
    )


@dataclass(frozen=True)
class StreamingViolation:
    """An event at which LC became unsatisfiable.

    ``blocks`` is the violating quotient edge ``(a, b)``: writer node
    ids, ``None`` for the ⊥ block.  ``witness`` is a minimal chain of
    node ids demonstrating the contradiction — the nodes whose events
    added the quotient edges from ``b`` back to ``a`` (for a ⊥ read, the
    write it follows), ending with :attr:`node` itself.
    ``event_index`` is the position of :attr:`node` in feed order.
    """

    node: int
    loc: Location
    blocks: tuple[int | None, int | None]
    witness: tuple[int, ...]
    event_index: int

    @property
    def reason(self) -> str:
        """The violation in words, naming the two blocks."""
        return _render_reason(self.blocks)

    @property
    def observed(self) -> int | None:
        """The writer the violating read observed (``None`` for ⊥)."""
        return self.blocks[1]


class StreamingLCVerifier:
    """Consume execution events; report LC violations as they happen.

    Events arrive via :meth:`on_node` in any topological order of the
    computation (execution order always qualifies).  By default the
    verifier halts at the first violation: it latches it, later events
    are ignored, and the executor stops the run there.

    ``keep_going`` checks *every* event instead: each violating event
    contributes one :class:`StreamingViolation` (with its own minimal
    witness) to :attr:`violations`, and its contradictory quotient edges
    are *not* inserted — the established serialization stays intact, so
    one stale read does not cascade into findings on unrelated events.
    :attr:`violation` latches the first violation either way.
    """

    def __init__(self, keep_going: bool = False) -> None:
        self.keep_going = keep_going
        self.violation: StreamingViolation | None = None
        self.violations: list[StreamingViolation] = []
        self.events = 0
        #: per location: quotient edges ``a -> {b: node that added it}``.
        self._out: dict[Location, dict[object, dict[object, int]]] = {}
        #: per location: quotient in-neighbours ``b -> {a, ...}``.
        self._in: dict[Location, dict[object, set[object]]] = {}
        #: per fed node: per location, the blocks of it and its ancestors.
        self._reach: dict[int, dict[Location, frozenset]] = {}
        #: per fed write: its event index (ranks competing witnesses).
        self._fed: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Quotient maintenance
    # ------------------------------------------------------------------

    def _join(
        self, node: int, idx: int, loc: Location, anc: frozenset, b: object
    ) -> StreamingViolation | None:
        """Add the quotient edges ``a → b`` for every ancestor block."""
        fed = self._fed
        if b is _BOT:
            # Every write block among the ancestors contradicts a ⊥ read;
            # name the earliest-fed one.
            writes = [a for a in anc if a is not _BOT]
            if not writes:
                return None
            a = min(writes, key=lambda w: fed.get(w, idx))
            return self._record(node, idx, loc, (a, None), (a, node))
        into = self._in.setdefault(loc, {})
        known = into.get(b)
        # ⊥ has no in-edges, so an edge out of it never closes a cycle.
        new = anc.difference(known or (), (b, _BOT))
        if not new:
            return None
        out = self._out.setdefault(loc, {})
        parent: dict[object, tuple[object, int] | None] = {}
        if b in out:
            # Breadth-first from ``b``: a new edge ``a → b`` closes a
            # cycle iff ``b`` reaches ``a``; the tree gives the witness.
            parent[b] = None
            frontier = [b]
            while frontier:
                step = []
                for x in frontier:
                    for c, origin in out.get(x, {}).items():
                        if c not in parent:
                            parent[c] = (x, origin)
                            step.append(c)
                frontier = step
        if known is None:
            known = into[b] = set()
        for a in new:
            if a not in parent:
                out.setdefault(a, {})[b] = node
                known.add(a)
        bad = [a for a in new if a in parent]
        if not bad:
            return None
        a = min(bad, key=lambda w: fed.get(w, idx))
        chain: list[int] = []
        link = parent[a]
        while link is not None:
            prev, origin = link
            chain.append(origin)
            link = parent[prev]
        chain.reverse()
        return self._record(node, idx, loc, (a, b), (*chain, node))

    def _record(
        self,
        node: int,
        idx: int,
        loc: Location,
        blocks: tuple,
        witness: tuple[int, ...],
    ) -> StreamingViolation:
        v = StreamingViolation(node, loc, blocks, witness, idx)
        self.violations.append(v)
        if self.violation is None:
            self.violation = v
        return v

    # ------------------------------------------------------------------
    # Event interface
    # ------------------------------------------------------------------

    def on_node(
        self,
        node: int,
        op: Op,
        preds: Iterable[int],
        observed: int | None = None,
    ) -> StreamingViolation | None:
        """Consume one node; return the first violation, if any.

        ``node`` and ``preds`` are computation node ids (every
        predecessor must have been fed already); ``observed`` is the
        writer id a read received (``None`` for ⊥).  It is ignored for
        writes (condition 2.3 fixes their block) and for no-ops
        (unconstrained).
        """
        if self.violation is not None and not self.keep_going:
            return self.violation
        idx = self.events
        self.events = idx + 1
        reach = self._reach
        # Blocks of the ancestors: union over predecessors' reach,
        # copy-on-write so a node adding nothing shares its input.
        anc = _NO_BLOCKS
        owned = False
        for p in preds:
            r = reach[p]
            if r is anc or not r:
                continue
            if not anc:
                anc = r
                continue
            for loc, fs in r.items():
                cur = anc.get(loc)
                if cur is fs:
                    continue
                if cur is None or cur <= fs:
                    merged = fs
                elif fs <= cur:
                    continue
                else:
                    merged = cur | fs
                if not owned:
                    anc = dict(anc)
                    owned = True
                anc[loc] = merged

        kind = op.kind
        if kind == "N":
            reach[node] = anc
            return self.violation
        loc = op.loc
        if kind == "W":
            b: object = node
            self._fed[node] = idx
        else:
            b = _BOT if observed is None else observed
        blocks = anc.get(loc)
        if blocks is None:
            mine = frozenset((b,))
        else:
            if len(blocks) > 1 or b not in blocks:
                self._join(node, idx, loc, blocks, b)
            mine = blocks if b in blocks else blocks | {b}
        if mine is not blocks:
            if not owned:
                anc = dict(anc)
            anc[loc] = mine
        reach[node] = anc
        return self.violation

    @property
    def consistent_so_far(self) -> bool:
        """True iff no violation has been detected yet."""
        return self.violation is None

    # ------------------------------------------------------------------
    # Completed traces
    # ------------------------------------------------------------------

    @classmethod
    def _replay(
        cls, trace: ExecutionTrace, keep_going: bool
    ) -> "StreamingLCVerifier":
        comp = trace.comp
        observed = {e.node: e.observed for e in trace.reads}
        ops = comp.ops
        predecessors = comp.dag.predecessors
        verifier = cls(keep_going)
        for u in trace.schedule.execution_order():
            v = verifier.on_node(u, ops[u], predecessors(u), observed.get(u))
            if v is not None and not keep_going:
                break
        return verifier

    @classmethod
    def check_trace(
        cls, trace: ExecutionTrace
    ) -> StreamingViolation | None:
        """Stream a completed trace in execution order; the first
        violation, or ``None`` when the trace is LC."""
        with obs.span("verify.streaming", nodes=trace.comp.num_nodes) as sp:
            t0 = time.perf_counter()
            verifier = cls._replay(trace, keep_going=False)
            result = verifier.violation
            if sp is not None:
                sp.attrs["admitted"] = result is None
                sp.attrs["events"] = verifier.events
        if obs.enabled():
            obs.add(
                "verify.streaming.admitted"
                if result is None
                else "verify.streaming.rejected"
            )
            obs.observe("verify.streaming.seconds", time.perf_counter() - t0)
        return result

    @classmethod
    def collect_violations(
        cls, trace: ExecutionTrace
    ) -> list[StreamingViolation]:
        """Replay a completed trace, collecting *every* violation.

        A ``keep_going`` verifier over the recorded events: one
        violation (with its minimal witness) per violating event, in
        event order — the bulk-reporting mode ``repro lint`` uses on
        trace targets.
        """
        return cls._replay(trace, keep_going=True).violations
