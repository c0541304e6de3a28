"""Streaming causal-consistency verification of traces.

The trace-level counterpart of :class:`repro.models.causal.CC`: events
arrive in execution order, each read naming its writer; the verifier
maintains the causal order κ (precedence ∪ reads-from) incrementally
and checks, per read, that the observed write is not causally
overwritten.

Why streaming is natural here: every new edge — dag or observation —
points *into* the newest node, so κ can never become cyclic online, and
each node's causal past is just the union of its predecessors' and
observed writers' pasts.  One bitset union per event, one
writes-in-past scan per read.

**Exactness.**  For traces (reads-and-writes-only constraints), passing
this check is equivalent to the existence of a *total* CC observer
function completing the trace: complete each unconstrained (l, u) with
a κ-maximal l-write of u's causal past (⊥ if none).  Such a value's
observation edge is redundant (the write is already κ-before u), so κ
is unchanged, and maximality satisfies the overwritten condition — the
same argument that makes CC constructible.

The companion experiment (``tests/test_causal_trace.py``): does the
simulated BACKER maintain CC?  Atomic whole-cache reconciles publish a
processor's writes together, so the usual causality violations (MP)
cannot arise from the protocol — the test sweeps random computations,
processor counts and seeds and asserts the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.ops import Op, Location
from repro.dag.digraph import bit_indices
from repro.runtime.trace import ExecutionTrace

__all__ = ["CausalViolation", "StreamingCCVerifier", "trace_admits_cc"]


@dataclass(frozen=True)
class CausalViolation:
    """The first causally-inconsistent read."""

    node: int
    loc: Location
    reason: str


class StreamingCCVerifier:
    """Incremental causal-memory checking over an event stream."""

    def __init__(self) -> None:
        #: reflexive κ-past bitset per node (feed numbering).
        self._past: list[int] = []
        #: per location: bitset of writer nodes seen so far.
        self._writers: dict[Location, int] = {}
        self.violation: CausalViolation | None = None

    def add_node(
        self,
        op: Op,
        preds: Iterable[int],
        observed: int | None = None,
    ) -> CausalViolation | None:
        """Consume the next node (feed order must be topological)."""
        if self.violation is not None:
            return self.violation
        node = len(self._past)
        past = 1 << node
        for p in preds:
            past |= self._past[p]
        if op.is_read:
            loc = op.loc
            writers = self._writers.get(loc, 0)
            if observed is not None:
                past |= self._past[observed]
                # Overwritten check: an l-write in the read's causal past
                # that has the observed write strictly in *its* past.
                for w2 in bit_indices(past & writers & ~(1 << observed)):
                    if self._past[w2] & (1 << observed):
                        self.violation = CausalViolation(
                            node, loc,
                            f"observed write {observed} causally overwritten "
                            f"by write {w2}",
                        )
                        break
            else:
                if past & writers:
                    self.violation = CausalViolation(
                        node, loc,
                        "read observed ⊥ with a write in its causal past",
                    )
        elif op.is_write:
            self._writers[op.loc] = self._writers.get(op.loc, 0) | (1 << node)
        self._past.append(past)
        return self.violation

    @property
    def consistent_so_far(self) -> bool:
        """True iff no violation has been detected yet."""
        return self.violation is None

    @classmethod
    def check_trace(cls, trace: ExecutionTrace) -> CausalViolation | None:
        """Stream a completed trace; returns the first violation."""
        comp = trace.comp
        observed = {e.node: e.observed for e in trace.reads}
        order = trace.schedule.execution_order()
        new_id = {u: i for i, u in enumerate(order)}
        verifier = cls()
        for u in order:
            obs = observed.get(u)
            v = verifier.add_node(
                comp.op(u),
                [new_id[p] for p in comp.dag.predecessors(u)],
                None if obs is None else new_id[obs],
            )
            if v is not None:
                return CausalViolation(u, v.loc, v.reason)
        return None


def trace_admits_cc(partial_or_trace) -> bool:
    """Whether a trace (or trace-shaped partial observer) is causally
    consistent, i.e. completes to a member of
    :data:`repro.models.causal.CC`.

    Accepts an :class:`~repro.runtime.trace.ExecutionTrace` directly, or
    a :class:`~repro.runtime.trace.PartialObserver` whose constraints
    cover exactly the reads and writes (the shape traces produce) — for
    the latter the computation's own topological order is streamed.
    """
    if isinstance(partial_or_trace, ExecutionTrace):
        return StreamingCCVerifier.check_trace(partial_or_trace) is None
    partial = partial_or_trace
    comp = partial.comp
    constrained = {
        (loc, u): v for loc, u, v in partial.entries()
    }
    # Feed order must put every observed writer before its observer (a
    # read may observe a *concurrent* write), i.e. topologically sort
    # the observation-augmented graph; a cycle there is already a CC
    # violation (κ cyclic).
    from repro.dag.digraph import Dag
    from repro.errors import CycleError

    edges = list(comp.dag.edges)
    for (loc, u), v in constrained.items():
        if v is not None and v != u:
            edges.append((v, u))
    try:
        order = Dag(comp.num_nodes, edges).topological_order
    except CycleError:
        return False
    new_id = {u: i for i, u in enumerate(order)}
    verifier = StreamingCCVerifier()
    missing = object()
    for u in order:
        op = comp.op(u)
        preds = [new_id[p] for p in comp.dag.predecessors(u)]
        if op.is_read:
            obs = constrained.get((op.loc, u), missing)
            if obs is missing:
                # Unconstrained read: feed as a no-op view (the
                # completion argument lets it observe a κ-maximal write).
                from repro.core.ops import N

                v = verifier.add_node(N, preds)
            else:
                v = verifier.add_node(
                    op, preds, None if obs is None else new_id[obs]
                )
        else:
            v = verifier.add_node(op, preds)
        if v is not None:
            return False
    return True
