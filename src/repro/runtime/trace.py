"""Execution traces and partial observer functions.

Because simulated memories store *writer node ids* as values, an
execution trace directly records, for every read, the write it observed.
That is precisely a partial observer function: constrained at reads (the
observed writer) and at writes (themselves, by condition 2.3), free
everywhere else.  Post-mortem verification (:mod:`repro.verify`) then
asks whether the partial function *completes* to a member of a model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping

from repro.core.computation import Computation
from repro.core.observer import ObserverFunction
from repro.core.ops import Location
from repro.errors import InvalidObserverError
from repro.runtime.scheduler import Schedule

if TYPE_CHECKING:  # verify imports runtime; keep the cycle static-only
    from repro.verify.streaming import StreamingViolation

__all__ = ["ReadEvent", "ExecutionTrace", "PartialObserver"]


@dataclass(frozen=True)
class ReadEvent:
    """One read operation's outcome."""

    node: int
    loc: Location
    observed: int | None  # writer node id, or None for ⊥


@dataclass
class ExecutionTrace:
    """The observable outcome of executing a schedule against a memory.

    ``violation`` is set by the executor when a sanitizer (a
    :class:`~repro.verify.streaming.StreamingLCVerifier`) was attached
    and flagged an event; a halting sanitizer also truncates ``reads``
    at the violating event.
    """

    comp: Computation
    schedule: Schedule
    memory_name: str
    reads: list[ReadEvent] = field(default_factory=list)
    violation: "StreamingViolation | None" = None
    #: The last :meth:`partial_observer` and the reads it was built from.
    _observer: "tuple[list[ReadEvent], PartialObserver] | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def partial_observer(self) -> "PartialObserver":
        """The partial observer function this trace determines.

        Built once and reused for as long as ``reads`` is unchanged; a
        trace whose reads are still being appended (or cut short) gets a
        fresh one.  Raises :class:`~repro.errors.InvalidObserverError`
        when a read breaks Definition 2."""
        cached = self._observer
        if cached is not None and cached[0] == self.reads:
            return cached[1]
        constraints: dict[Location, dict[int, int | None]] = {}
        for ev in self.reads:
            constraints.setdefault(ev.loc, {})[ev.node] = ev.observed
        # Writes constrain themselves (condition 2.3).
        for u in self.comp.nodes():
            op = self.comp.op(u)
            if op.is_write:
                constraints.setdefault(op.loc, {})[u] = u
        observer = PartialObserver(self.comp, constraints)
        self._observer = (list(self.reads), observer)
        return observer


class PartialObserver:
    """An observer function constrained only at some (location, node) pairs.

    Invariants of Definition 2 are enforced on the constrained entries:
    observed nodes must write the location, a node must not precede its
    observed write, and constrained writes must observe themselves.

    ``constraints[loc][node]`` is the observed writer (``None`` = ⊥).
    Unconstrained entries are existentially quantified by the verifiers.
    """

    __slots__ = ("comp", "_constraints")

    def __init__(
        self,
        comp: Computation,
        constraints: Mapping[Location, Mapping[int, int | None]],
    ) -> None:
        self.comp = comp
        norm: dict[Location, dict[int, int | None]] = {}
        for loc, entries in constraints.items():
            row: dict[int, int | None] = {}
            for u, v in entries.items():
                op = comp.op(u)
                if op.writes(loc) and v != u:
                    raise InvalidObserverError(
                        f"write node {u} must observe itself at {loc!r}"
                    )
                if v is not None:
                    if not comp.op(v).writes(loc):
                        raise InvalidObserverError(
                            f"constraint Φ({loc!r}, {u}) = {v}: not a write to {loc!r}"
                        )
                    if comp.precedes(u, v):
                        raise InvalidObserverError(
                            f"constraint Φ({loc!r}, {u}) = {v}: node precedes it"
                        )
                row[int(u)] = v
            if row:
                norm[loc] = row
        self._constraints = norm

    @property
    def locations(self) -> tuple[Location, ...]:
        """Locations with at least one constraint, sorted by repr."""
        return tuple(sorted(self._constraints, key=repr))

    def constrained(self, loc: Location) -> dict[int, int | None]:
        """The constrained entries at one location (node → value)."""
        return dict(self._constraints.get(loc, {}))

    def entries(self) -> Iterator[tuple[Location, int, int | None]]:
        """Iterate all constraints as ``(loc, node, value)`` triples."""
        for loc, row in self._constraints.items():
            for u, v in row.items():
                yield loc, u, v

    def num_constraints(self) -> int:
        """Total number of constrained entries."""
        return sum(len(row) for row in self._constraints.values())

    def is_completion(self, phi: ObserverFunction) -> bool:
        """True iff the total observer ``phi`` agrees with every constraint."""
        return all(
            phi.value(loc, u) == v for loc, u, v in self.entries()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = self.num_constraints()
        return (
            f"PartialObserver(n={self.comp.num_nodes}, "
            f"locations={len(self._constraints)}, constraints={total})"
        )
