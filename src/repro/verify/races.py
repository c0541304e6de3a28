"""Determinacy-race detection on computations.

A *determinacy race* is a pair of incomparable nodes accessing the same
location, at least one of them writing.  Races are exactly where weak
memory models earn their keep: on a race-free computation every
topological sort induces the *same* last-writer function at every
access, so all the models of this library collapse to a single allowed
behaviour (tested as a property in the suite); with races, the models
genuinely diverge.

Cilk's dag-consistency line of work (the paper's origin story) paired
the memory model with exactly this notion of race.  Two detectors live
in :mod:`repro.verify`:

* this module — the *exact* transitive-closure sweep, enumerating every
  racing pair from the dag's cached reachability bitsets.  It is the
  oracle the on-the-fly detector is verified against, so it is itself
  written on whole bitset rows (one pass to bucket accessors per
  location, then pure mask arithmetic per writer) and memoized through
  :mod:`repro._caching`;
* :mod:`repro.verify.spbags` — the near-linear SP-bags detector
  (Feng & Leiserson) for series-parallel computations, which needs no
  closure at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from repro import _caching, kernels
from repro.core.computation import Computation
from repro.core.ops import Location
from repro.dag.digraph import bit_indices

__all__ = [
    "Race",
    "find_races",
    "find_races_naive",
    "is_race_free",
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


def find_races(comp: Computation) -> Iterator[Race]:
    """Yield every race, in (location-repr, writer, partner) order.

    For each location: a write races with any incomparable access, and
    two incomparable reads never race.  Implemented on whole bitset
    rows: one pass over the ops buckets accessors and writers per
    location into masks, then each writer's racing partners are a
    single mask expression against the cached closure rows —
    ``access & ~(ancestors | descendants)`` — with write-write pairs
    deduplicated by emitting them from the smaller node id only (no
    per-pair bookkeeping).  The enumeration order is identical to the
    historical per-pair sweep (:func:`find_races_naive`).

    Memoized on the computation via :mod:`repro._caching` — the race
    list is the oracle every on-the-fly analyzer is cross-checked
    against, and lock-aware lint classifies the same pairs again.
    """
    if _caching.ENABLED:
        return iter(_find_races_cached(comp))
    return iter(_find_races_impl(comp))


def _find_races_impl(comp: Computation) -> tuple[Race, ...]:
    dag = comp.dag
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
    # The per-writer mask sweep is a kernel: it receives one
    # (access, write) mask pair per location plus the closure rows and
    # returns the racing triples in the historical order (a write-write
    # pair is emitted from its smaller id only — the kernel drops the
    # write partners below each writer, which dedupes without a
    # seen-set).
    locs = [loc for loc in comp.locations if write_mask.get(loc, 0)]
    loc_masks = [(access_mask[loc], write_mask[loc]) for loc in locs]
    desc, anc = dag._closure()
    races: list[Race] = []
    for li, w, other in kernels.race_pairs(comp.num_nodes, desc, anc, loc_masks):
        pair = (w, other) if w < other else (other, w)
        wmask = loc_masks[li][1]
        races.append(
            Race(
                locs[li],
                pair[0],
                pair[1],
                "write-write" if (wmask >> other) & 1 else "read-write",
            )
        )
    return tuple(races)


_find_races_cached = lru_cache(maxsize=1 << 12)(_find_races_impl)


def find_races_naive(comp: Computation) -> Iterator[Race]:
    """The historical per-pair closure sweep, retained as a baseline.

    Semantically identical to :func:`find_races` (the equivalence is
    property-tested) but pays an ``O(n)`` accessor scan per location
    and a seen-set membership test per candidate pair.  Benchmarks
    (``benchmarks/bench_races.py``) use it as the honest "closure
    sweep" the SP-bags detector is measured against; it is not
    memoized on purpose.
    """
    dag = comp.dag
    for loc in comp.locations:
        accessors = comp.accessors(loc)
        access_mask = 0
        for a in accessors:
            access_mask |= 1 << a
        write_mask = comp.writers_mask(loc)
        seen: set[tuple[int, int]] = set()
        for w in bit_indices(write_mask):
            comparable = (
                dag.ancestors_mask(w) | dag.descendants_mask(w) | (1 << w)
            )
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


def is_race_free(comp: Computation) -> bool:
    """True iff the computation has no determinacy race."""
    return next(find_races(comp), None) is None


def racy_locations(comp: Computation) -> list[Location]:
    """The sorted list of locations participating in at least one race."""
    locs = {race.loc for race in find_races(comp)}
    return sorted(locs, key=repr)
