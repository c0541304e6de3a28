"""Location consistency (Definition 18).

``LC = {(C, Φ) : ∀l ∃T ∈ TS(C) ∀u, Φ(l, u) = W_T(l, u)}``

Each location behaves as if its writes were serialized, but different
locations may be serialized by *different* topological sorts.  This is
the model the paper proves equal to the constructible version of NN-dag
consistency (Theorem 23), and the model maintained by the BACKER
algorithm (Luchangco 1997; simulated in :mod:`repro.runtime.backer`).

Membership is decided in polynomial time by the block-partition argument
of :mod:`repro.models.membership` — no enumeration of topological sorts
is needed.  :meth:`LocationConsistency.witness_orders` additionally
returns the per-location certificate sorts, and the test suite
cross-checks both against the brute-force definitional check
(:meth:`LocationConsistency.contains_bruteforce`).
"""

from __future__ import annotations

from functools import lru_cache

from repro import _caching
from repro.core.computation import Computation
from repro.core.last_writer import last_writer_row
from repro.core.observer import ObserverFunction
from repro.core.ops import Location, merged_locations
from repro.dag.toposort import cached_topological_sorts
from repro.models.base import MemoryModel
from repro.models.membership import block_witness_order, location_blocks_admissible

__all__ = ["LocationConsistency", "LC"]

#: Node-count bound for deciding membership by materialized per-location
#: row sets (at most ``n!`` sorts per computation — keep it small).
_ROW_SET_MAX_NODES = 6


@lru_cache(maxsize=1 << 15)
def _lc_row_set(
    comp: Computation, loc: Location
) -> frozenset[tuple[int | None, ...]]:
    """Every realizable last-writer row ``W_T(loc, ·)`` for ``comp``.

    Definition 18 decouples locations, so ``(C, Φ) ∈ LC`` iff each
    location's row appears in this set; enumeration sweeps revisit the
    same computation with a handful of observer rows each, and augmented
    computations recur across every extension candidate, which makes the
    materialized set pay for itself quickly.
    """
    return frozenset(
        last_writer_row(comp, order, loc)
        for order in cached_topological_sorts(comp.dag)
    )


class LocationConsistency(MemoryModel):
    """The LC memory model, with polynomial membership."""

    name = "LC"

    @staticmethod
    def _locations(
        comp: Computation, phi: ObserverFunction
    ) -> tuple[Location, ...]:
        # Locations outside this set have all-⊥ rows and no writes in the
        # computation; the empty topological-sort requirement is satisfied
        # by any T, so they never affect membership.
        return merged_locations(comp.locations, phi.locations)

    def contains(self, comp: Computation, phi: ObserverFunction) -> bool:
        if _caching.ENABLED and comp.num_nodes <= _ROW_SET_MAX_NODES:
            return all(
                phi.row(loc) in _lc_row_set(comp, loc)
                for loc in self._locations(comp, phi)
            )
        return all(
            location_blocks_admissible(comp, loc, phi.row(loc))
            for loc in self._locations(comp, phi)
        )

    def augmentation_stuck_locations(self, comp, phi):
        """Closed-form Theorem-12 test: LC closure reduces to membership,
        so a member has no stuck location.

        Definition 18 decouples locations: if each location ``l`` has a
        sort ``T_l`` with ``W_{T_l}(l, ·) = Φ(l, ·)``, then ``T_l·f``
        certifies the extended row on ``aug_o(C)`` (``f`` observes the
        last writer under ``T_l``, or itself when ``o`` writes ``l``),
        and conversely dropping ``f`` from a certificate sort restricts
        an LC extension to an LC member.  This is Theorem 19's closure
        argument, specialized to one augmentation step.
        """
        return () if self.contains(comp, phi) else None

    def witness_orders(
        self, comp: Computation, phi: ObserverFunction
    ) -> dict[Location, tuple[int, ...]] | None:
        """Per-location certificate sorts, or ``None`` if ``∉ LC``.

        For each location ``l`` the returned ``T_l`` satisfies
        ``W_{T_l}(l, ·) = Φ(l, ·)`` — exactly Definition 18's existential.
        """
        out: dict[Location, tuple[int, ...]] = {}
        for loc in self._locations(comp, phi):
            order = block_witness_order(comp, loc, phi.row(loc))
            if order is None:
                return None
            out[loc] = order
        return out

    def contains_bruteforce(
        self, comp: Computation, phi: ObserverFunction
    ) -> bool:
        """Definitional check: enumerate ``TS(C)`` per location.

        Exponential; used only to validate the polynomial algorithm on
        small computations.
        """
        for loc in self._locations(comp, phi):
            want = phi.row(loc)
            if not any(
                last_writer_row(comp, order, loc) == want
                for order in cached_topological_sorts(comp.dag)
            ):
                return False
        return True


LC = LocationConsistency()
"""Module-level LC instance (the model is stateless)."""
