"""Determinacy-race detection and lockset classification on computations.

A *determinacy race* is a pair of incomparable nodes accessing the same
location, at least one of them writing.  Races are exactly where weak
memory models earn their keep: on a race-free computation every
topological sort induces the *same* last-writer function at every
access, so all the models of this library collapse to a single allowed
behaviour (tested as a property in the suite); with races, the models
genuinely diverge.

Cilk's dag-consistency line of work (the paper's origin story) paired
the memory model with exactly this notion of race.  Everything here
asks one question of the dag's cached reachability bitset rows: a
writer ``w`` races with the accessors of its location outside
``anc[w] | desc[w] | {w}``.

* :func:`race_witnesses` — the race pass behind ``repro lint``: per
  racy writer one witness pair, lockset-classified.  Linear in the
  writers, however many pairs race.
* :func:`racy_locations` / :func:`is_race_free` — the same mask test
  once per location, stopping at its first racy writer.
* :func:`find_races` — every racing pair, by a per-pair sweep; the
  oracle the other two are tested against.

The lockset extension (in the spirit of Cheng et al.'s ALL-SETS /
BRELLY) classifies each race by the locks held on both sides: a race
whose sides hold no common lock is a genuine *data race* even under
lock serialization; a common lock makes it *lock-mediated* — ordered
once :mod:`repro.locks` serializes the sections, which is a
per-execution choice the bare dag does not encode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.computation import Computation
from repro.core.ops import Location
from repro.dag.digraph import bit_indices

__all__ = [
    "ClassifiedRace",
    "Race",
    "classify_races",
    "find_races",
    "is_race_free",
    "node_locksets",
    "race_witnesses",
    "racy_locations",
]


@dataclass(frozen=True)
class Race:
    """One racing pair: ``u < v`` node ids, the location, and the kinds."""

    loc: Location
    u: int
    v: int
    kind: str  # "write-write" or "read-write"

    def __post_init__(self) -> None:
        assert self.u < self.v, "normalized order"


@dataclass(frozen=True)
class ClassifiedRace:
    """A determinacy race annotated with the locks held on each side.

    ``classification`` is ``"data-race"`` when the two sides hold no
    common lock (no serialization of lock sections can order them) and
    ``"lock-mediated"`` otherwise (a common lock means
    :mod:`repro.locks`-style section serialization orders the pair —
    the race is a scheduling artifact of the bare dag, not a bug).
    """

    race: Race
    locks_u: frozenset
    locks_v: frozenset

    @property
    def classification(self) -> str:
        return (
            "lock-mediated"
            if self.locks_u & self.locks_v
            else "data-race"
        )


def find_races(comp: Computation) -> Iterator[Race]:
    """Yield every race, in (location, writer, partner) order.

    For each location: a write races with any incomparable access, and
    two incomparable reads never race.  A per-pair sweep with a
    seen-set, so a write-write pair comes out once, from its smaller
    id.  The locations' access and write masks are built in one pass
    over the ops.  Enumerating all pairs is quadratic in the worst case
    (6.19 M on the unfolded ``racy_counter(64, 32)``);
    :func:`race_witnesses` is the pass that scales, and this is its
    oracle.
    """
    locs, loc_masks = _location_masks(comp)
    desc, anc = comp.dag._closure()
    for loc, (access_mask, write_mask) in zip(locs, loc_masks):
        seen: set[tuple[int, int]] = set()
        for w in bit_indices(write_mask):
            comparable = anc[w] | desc[w] | (1 << w)
            for other in bit_indices(access_mask & ~comparable):
                pair = (min(w, other), max(w, other))
                if pair in seen:
                    continue
                seen.add(pair)
                both_write = bool(write_mask & (1 << other))
                yield Race(
                    loc,
                    pair[0],
                    pair[1],
                    "write-write" if both_write else "read-write",
                )


def _location_masks(
    comp: Computation,
) -> tuple[list[Location], list[tuple[int, int]]]:
    """The written locations, in ``comp.locations`` order, and one
    ``(access_mask, write_mask)`` bitset pair per location."""
    access_mask: dict[Location, int] = {}
    write_mask: dict[Location, int] = {}
    for u, op in enumerate(comp.ops):
        loc = op.loc
        if loc is None:
            continue
        bit = 1 << u
        access_mask[loc] = access_mask.get(loc, 0) | bit
        if op.is_write:
            write_mask[loc] = write_mask.get(loc, 0) | bit
    locs = [loc for loc in comp.locations if write_mask.get(loc, 0)]
    return locs, [(access_mask[loc], write_mask[loc]) for loc in locs]


def _racy_locations(comp: Computation) -> Iterator[Location]:
    """Yield each racy location once, in ``comp.locations`` order.

    A location is racy iff some writer ``w`` has an accessor outside
    ``anc[w] | desc[w] | {w}``; the test stops at the first racy
    writer instead of listing its partners.
    """
    locs, loc_masks = _location_masks(comp)
    desc, anc = comp.dag._closure()
    for loc, (amask, wmask) in zip(locs, loc_masks):
        for w in bit_indices(wmask):
            if amask & ~(anc[w] | desc[w] | (1 << w)):
                yield loc
                break


def is_race_free(comp: Computation) -> bool:
    """True iff the computation has no determinacy race."""
    return next(_racy_locations(comp), None) is None


def racy_locations(comp: Computation) -> list[Location]:
    """The sorted list of locations participating in at least one race."""
    return sorted(_racy_locations(comp), key=repr)


def _held_masks(
    comp: Computation,
    lock_sections: Mapping[object, list[tuple[int, int]]],
) -> dict[object, int]:
    """Per lock, the bitset of nodes some section on it brackets."""
    desc, anc = comp.dag._closure()
    held: dict[object, int] = {}
    for lock, sections in lock_sections.items():
        mask = 0
        for a, r in sections:
            mask |= (desc[a] | (1 << a)) & (anc[r] | (1 << r))
        held[lock] = mask
    return held


def _locksets(
    comp: Computation, held: Mapping[object, int]
) -> tuple[frozenset, ...]:
    sets: list[frozenset] = [frozenset()] * comp.num_nodes
    for lock, mask in held.items():
        for u in bit_indices(mask):
            sets[u] = sets[u] | {lock}
    return tuple(sets)


def node_locksets(
    comp: Computation,
    lock_sections: Mapping[object, list[tuple[int, int]]],
) -> tuple[frozenset, ...]:
    """The set of locks held at each node, indexed by node id.

    A node holds lock ``L`` iff some recorded section ``(a, r)`` on
    ``L`` brackets it in the dag: ``a ⪯ u ⪯ r``.  (Ops spawned inside a
    section but not synced before the release are genuinely *not*
    bracketed — they escape the critical section, exactly the bug this
    analysis exists to expose.)  Computed as one betweenness mask per
    section from the cached reachability rows.
    """
    return _locksets(comp, _held_masks(comp, lock_sections))


def classify_races(
    races: Iterable[Race], locksets: Sequence[frozenset]
) -> list[ClassifiedRace]:
    """Annotate each race with both sides' locksets (ALL-SETS style)."""
    return [
        ClassifiedRace(r, locksets[r.u], locksets[r.v]) for r in races
    ]


def race_witnesses(
    comp: Computation,
    lock_sections: Mapping[object, list[tuple[int, int]]] | None = None,
) -> list[ClassifiedRace]:
    """One classified witness pair per racy writer, in location order.

    For each written location (``comp.locations`` order) and each of
    its writers ``w`` ascending: the partners are
    ``access & ~(anc[w] | desc[w] | {w})``, and the nodes sharing a
    lock with ``w`` are the OR of the held-masks of ``w``'s locks.  The
    lowest partner outside that set is reported as a data race; when
    every partner shares a lock, the lowest partner is reported as
    lock-mediated.  Pairs are normalized to ``u < v`` and a pair
    already reported (from its other writer) is not repeated.

    Contract, tested against :func:`find_races`: every racy writer is
    in a reported pair; every writer with a data-race partner is in a
    reported data-race pair; every reported pair is a real race with
    the oracle's kind.  So the racy locations, and whether any data
    race exists, match the all-pairs answer — at one mask expression
    per writer instead of one entry per pair.
    """
    held = _held_masks(comp, lock_sections or {})
    locksets = _locksets(comp, held)
    locs, loc_masks = _location_masks(comp)
    desc, anc = comp.dag._closure()
    out: list[ClassifiedRace] = []
    for loc, (amask, wmask) in zip(locs, loc_masks):
        seen: set[tuple[int, int]] = set()
        for w in bit_indices(wmask):
            part = amask & ~(anc[w] | desc[w] | (1 << w))
            if not part:
                continue
            shared = 0
            for lock in locksets[w]:
                shared |= held[lock]
            pick = part & ~shared or part
            other = (pick & -pick).bit_length() - 1
            pair = (w, other) if w < other else (other, w)
            if pair in seen:
                continue
            seen.add(pair)
            kind = "write-write" if (wmask >> other) & 1 else "read-write"
            out.append(
                ClassifiedRace(
                    Race(loc, pair[0], pair[1], kind),
                    locksets[pair[0]],
                    locksets[pair[1]],
                )
            )
    return out
