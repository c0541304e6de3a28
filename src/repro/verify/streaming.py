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
  each ``(location, block)`` pair gets one bit id, in first-seen order;
* each node carries its *reach*, one ``int`` bitset: the bits of the
  blocks among itself and its ancestors, over every location at once.
  A node's reach is the ``|`` of its predecessors' (shared outright
  when one predecessor brings it all) plus its own block's bit; a
  location's ancestor blocks are ``reach & mask[loc]``;
* a new member of block ``b`` with an ancestor in block ``a ≠ b`` adds
  the quotient edge ``a → b``; the new edges are one mask expression,
  ``blocks & ~in[b] & ~bit(b) & ~bit(⊥)``.  A cycle created by the
  insertion, or any edge into a ⊥ block, is precisely an LC violation
  (the streamed form of the batch condition), reported with the
  offending node, location and a *witness*.

Each quotient edge remembers the event that added it, so the witness is
the shortest chain of nodes whose observations contradict each other:
the edges of the cycle (or the write a ⊥ read follows), ending with the
violating node.  Cycle detection is one breadth-first search from ``b``
over the out-edges in insertion order (the quotient's size is bounded
by the writes to that location, not the trace length), run only when
``b`` already has out-edges.  When several blocks qualify, the
earliest-fed write is named.

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

#: per byte value, the offsets of its set bits.
_BYTE_BITS = tuple(tuple(j for j in range(8) if v >> j & 1) for v in range(256))
_NONZERO = bytes([0] + [1] * 255)  # byte translation: nonzero -> 1


def _set_bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending.

    Linear in the mask's width (one ``to_bytes`` and a ``bytes.find``
    per nonzero byte, both in C) plus its population (a Python step per
    set bit).  Peeling the lowest bit off instead costs the full width
    once per set bit.
    """
    if not mask & (mask - 1):
        return [mask.bit_length() - 1]
    raw = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    nonzero = raw.translate(_NONZERO)
    out: list[int] = []
    i = nonzero.find(1)
    while i >= 0:
        base = i << 3
        for j in _BYTE_BITS[raw[i]]:
            out.append(base + j)
        i = nonzero.find(1, i + 1)
    return out


class _Loc:
    """Per-location engine state: which reach bits are its blocks."""

    __slots__ = ("ids", "mask", "writes")

    def __init__(self) -> None:
        #: block (writer node id, or :data:`_BOT`) -> its reach bit.
        self.ids: dict[object, int] = {}
        #: the bits of every block of this location, and of its writes.
        self.mask = 0
        self.writes = 0


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
        self._locs: dict[Location, _Loc] = {}
        # Per reach bit, i.e. per block, in first-seen order:
        #: the block itself (writer node id, or :data:`_BOT`);
        self._block_of: list[object] = []
        #: the bits of its quotient in-neighbours;
        self._in: list[int] = []
        #: its quotient out-edges ``(bit of c, node that added it)``,
        #: in insertion order (the breadth-first search, and so the
        #: witness, follows it).
        self._out: list[list[tuple[int, int]]] = []
        #: per fed node: the bits of the blocks of it and its ancestors.
        self._reach: dict[int, int] = {}
        #: per fed write: its event index (ranks competing witnesses).
        self._fed: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Quotient maintenance
    # ------------------------------------------------------------------

    def _block_bit(self, state: _Loc, b: object) -> int:
        """A new reach bit for block ``b`` of a location."""
        bit = len(self._block_of)
        self._block_of.append(b)
        self._in.append(0)
        self._out.append([])
        state.ids[b] = bit
        state.mask |= 1 << bit
        if b is not _BOT:
            state.writes |= 1 << bit
        return bit

    def _earliest(self, bits: list[int], idx: int) -> int:
        """The bit of the earliest-fed write among the blocks of ``bits``.

        Writes not fed yet (observed by a read fed before them) rank
        after every fed one, in node id order.
        """
        fed = self._fed
        block_of = self._block_of
        return min(
            bits, key=lambda i: (fed.get(block_of[i], idx), block_of[i])
        )

    def _join(
        self,
        node: int,
        idx: int,
        loc: Location,
        state: _Loc,
        blocks: int,
        b: object,
        bit: int,
    ) -> StreamingViolation | None:
        """Add the quotient edges ``a → b`` for every ancestor block
        ``a`` among the bits of ``blocks`` (``bit`` is ``b``'s)."""
        if b is _BOT:
            # Every write block among the ancestors contradicts a ⊥ read;
            # name the earliest-fed one.
            writes = blocks & state.writes
            if not writes:
                return None
            a = self._block_of[self._earliest(_set_bits(writes), idx)]
            return self._record(node, idx, loc, (a, None), (a, node))
        known = self._in[bit]
        # ⊥ has no in-edges, so an edge out of it never closes a cycle.
        new = blocks & state.writes & ~(known | 1 << bit)
        if not new:
            return None
        out = self._out
        parent: dict[int, tuple[int, int] | None] = {}
        if out[bit]:
            # Breadth-first from ``b``: a new edge ``a → b`` closes a
            # cycle iff ``b`` reaches ``a``; the tree gives the witness.
            parent[bit] = None
            frontier = [bit]
            while frontier:
                step = []
                for x in frontier:
                    for c, origin in out[x]:
                        if c not in parent:
                            parent[c] = (x, origin)
                            step.append(c)
                frontier = step
        edge = (bit, node)
        bad = []
        for i in _set_bits(new):
            if i in parent:
                bad.append(i)
            else:
                out[i].append(edge)
        if not bad:
            self._in[bit] = known | new
            return None
        self._in[bit] = known | (new & ~sum(1 << i for i in bad))
        first = self._earliest(bad, idx)
        chain: list[int] = []
        link = parent[first]
        while link is not None:
            prev, origin = link
            chain.append(origin)
            link = parent[prev]
        chain.reverse()
        return self._record(
            node, idx, loc, (self._block_of[first], b), (*chain, node)
        )

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
        # Blocks of the ancestors: the union of the predecessors' reach,
        # shared outright when one predecessor brings them all.
        anc = 0
        for p in preds:
            r = reach[p]
            if not anc:
                anc = r
            elif r is not anc:
                merged = anc | r
                anc = r if merged == r else merged

        kind = op.kind
        if kind == "N":
            reach[node] = anc
            return self.violation
        loc = op.loc
        state = self._locs.get(loc)
        if state is None:
            state = self._locs[loc] = _Loc()
        if kind == "W":
            b: object = node
            self._fed[node] = idx
        else:
            b = _BOT if observed is None else observed
        bit = state.ids.get(b)
        if bit is None:
            bit = self._block_bit(state, b)
        mine = 1 << bit
        blocks = anc & state.mask
        if blocks != mine:
            if blocks:
                self._join(node, idx, loc, state, blocks, b, bit)
            if not blocks & mine:
                anc |= mine
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
        preds = comp.dag.predecessor_tuples
        verifier = cls(keep_going)
        for u in trace.schedule.order:
            v = verifier.on_node(u, ops[u], preds[u], observed.get(u))
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
