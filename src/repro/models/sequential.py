"""Sequential consistency (Definition 17).

``SC = {(C, Φ) : ∃T ∈ TS(C) ∀l ∀u, Φ(l, u) = W_T(l, u)}``

A *single* topological sort must explain the observer function at every
location simultaneously — the computation-centric generalization of
Lamport's sequential consistency (no processors or program order needed;
the dag plays that role).

Membership search
-----------------
Unlike LC, the per-location block segments must interleave consistently,
which couples locations; we decide membership by incremental
construction of the witnessing sort.  A node ``u`` may be appended to a
partial sort iff its dag predecessors are all placed and, for every
location it does not write, ``Φ(l, u)`` equals the last writer placed so
far.  Memoizing failed states on ``(placed_mask, last_writers)`` keeps
typical instances fast; the worst case is exponential (verifying
sequential consistency of a behaviour is NP-complete in general, Gibbons
& Korach 1992, so an exact polynomial algorithm is not expected).
"""

from __future__ import annotations

from functools import lru_cache

from repro import _caching
from repro.core.computation import Computation
from repro.core.last_writer import last_writer_function, last_writer_row
from repro.core.observer import ObserverFunction
from repro.core.ops import Location, merged_locations
from repro.models.base import MemoryModel
from repro.models.location_consistency import LC

__all__ = ["SequentialConsistency", "SC"]

#: Node-count bound under which membership is decided by materializing
#: the full set of last-writer row tuples (one per topological sort) —
#: at most ``n!`` sorts, so this must stay small.
_ROW_SET_MAX_NODES = 6


@lru_cache(maxsize=1 << 14)
def _sc_row_sets(
    comp: Computation, locs: tuple[Location, ...]
) -> frozenset[tuple[tuple[int | None, ...], ...]]:
    """Every realizable ``(W_T(l, ·))_l`` row tuple for ``comp``.

    Membership in SC is exactly "Φ's rows form one of these tuples", so
    for the small computations of enumeration universes one materialized
    set per ``(comp, locs)`` answers every observer query by lookup.
    """
    from repro.dag.toposort import cached_topological_sorts

    return frozenset(
        tuple(last_writer_row(comp, order, loc) for loc in locs)
        for order in cached_topological_sorts(comp.dag)
    )


class SequentialConsistency(MemoryModel):
    """The SC memory model, with exact (worst-case exponential) membership."""

    name = "SC"

    def contains(self, comp: Computation, phi: ObserverFunction) -> bool:
        if _caching.ENABLED and comp.num_nodes <= _ROW_SET_MAX_NODES:
            locs = merged_locations(comp.locations, phi.locations)
            rows = tuple(phi.row(loc) for loc in locs)
            return rows in _sc_row_sets(comp, locs)
        return self.witness_order(comp, phi) is not None

    def witness_order(
        self, comp: Computation, phi: ObserverFunction
    ) -> tuple[int, ...] | None:
        """A topological sort ``T`` with ``W_T = Φ`` everywhere, or ``None``.

        Runs the cheap polynomial LC check first: SC ⊆ LC, so an LC
        failure immediately refutes SC membership without any search.
        """
        if not LC.contains(comp, phi):
            return None
        locs: tuple[Location, ...] = merged_locations(
            comp.locations, phi.locations
        )
        n = comp.num_nodes
        if n == 0:
            return ()
        rows = {loc: phi.row(loc) for loc in locs}
        pred_mask = [comp.dag.predecessor_mask(u) for u in range(n)]
        writes_at = [
            tuple(i for i, loc in enumerate(locs) if comp.op(u).writes(loc))
            for u in range(n)
        ]
        full = (1 << n) - 1
        failed: set[tuple[int, tuple[int | None, ...]]] = set()

        order: list[int] = []

        def search(mask: int, lasts: tuple[int | None, ...]) -> bool:
            if mask == full:
                return True
            key = (mask, lasts)
            if key in failed:
                return False
            for u in range(n):
                if mask & (1 << u) or (pred_mask[u] & ~mask):
                    continue
                ok = True
                for i, loc in enumerate(locs):
                    if i in writes_at[u]:
                        continue  # last writer becomes u's own view below
                    if rows[loc][u] != lasts[i]:
                        ok = False
                        break
                if not ok:
                    continue
                if writes_at[u]:
                    new_lasts = tuple(
                        u if i in writes_at[u] else lasts[i]
                        for i in range(len(locs))
                    )
                else:
                    new_lasts = lasts
                order.append(u)
                if search(mask | (1 << u), new_lasts):
                    return True
                order.pop()
            failed.add(key)
            return False

        if search(0, (None,) * len(locs)):
            result = tuple(order)
            # Paranoia: certify the witness before returning it.
            witness = last_writer_function(comp, result, locs, check_order=True)
            assert all(witness.row(loc) == rows[loc] for loc in locs)
            return result
        return None

    def augmentation_stuck_locations(self, comp, phi):
        """Closed-form Theorem-12 test: SC closure reduces to membership,
        so a member has no stuck location.

        If ``(C, Φ) ∈ SC`` with witness sort ``T``, then ``T·f`` is a
        topological sort of ``aug_o(C)`` (the final node succeeds
        everything, so it is last in every sort) and ``W_{T·f}`` restricts
        to ``W_T = Φ`` — appending ``f`` changes no existing node's last
        writer.  Conversely any SC extension restricts to an SC member by
        dropping ``f`` from its witness sort.  Hence extendability is
        exactly membership, for every op ``o``.
        """
        return () if self.contains(comp, phi) else None

    def observers(self, comp, locations=None):
        """Generate SC observer functions directly from topological sorts.

        Faster and more natural than the filtering default: every
        ``W_T`` for ``T ∈ TS(C)`` is an SC observer function and vice
        versa, so we enumerate sorts and deduplicate.
        """
        from repro.dag.toposort import cached_topological_sorts

        seen: set[ObserverFunction] = set()
        locs = tuple(locations) if locations is not None else comp.locations
        for order in cached_topological_sorts(comp.dag):
            phi = last_writer_function(comp, order, locs, check_order=False)
            if phi not in seen:
                seen.add(phi)
                yield phi


SC = SequentialConsistency()
"""Module-level SC instance (the model is stateless)."""
