"""Dag-consistent memory models (Definition 20).

A Q-dag-consistent observer function satisfies, for every location ``l``
and every triple ``u ≺ v ≺ w`` (``u`` possibly ``⊥``) where ``Q`` holds:

    ``Φ(l, u) = Φ(l, w)  ⟹  Φ(l, v) = Φ(l, u)``.

Two implementations are provided and cross-checked by the test suite:

* :meth:`QDagConsistency.contains_reference` — a direct transcription of
  Definition 20 iterating all precedence triples (``O(|L|·n³)``); works
  for *any* predicate.
* fiber-based fast checks for the four named predicates, derived as
  follows.  Write ``S(l, x) = {u : Φ(l, u) = x}`` (the *fiber* of ``x``).

  - **NN** (``Q ≡ true``): each write fiber must be precedence-convex
    (no node outside the fiber has both an ancestor and a descendant in
    it), and the ``⊥`` fiber must be ancestor-closed (taking ``u = ⊥``).
  - **NW** (middle writes): for each write ``v`` to ``l``, no *other*
    fiber may have a member on each side of ``v``; the ``⊥`` fiber only
    needs a member *after* ``v`` (``u = ⊥`` is always available before).
  - **WN** (source writes): the source must then be the fiber's own
    write ``x`` (a write observes itself), so each write fiber must be
    convex *from its write*: descendants of a non-member ``v`` with
    ``x ≺ v`` may not meet ``S(l, x)``.
  - **WW** (both write): the middle must additionally write ``l``: no
    write fiber ``S(l, x)`` may have a member after another write ``v``
    to ``l`` with ``x ≺ v``.

All four reduce to a handful of bitset intersections per (node, fiber)
pair via the cached transitive closure.

The same fibers decide the Theorem-12 one-step test without building
``aug_o(C)``.  Definition 11 makes the new node ``f`` a sink that
succeeds every node, so the only triples it adds are ``u ≺ v ≺ f``, and
each Q reads only ``op(u)`` and ``op(v)``.  The old triples are
unchanged, so a member extends iff the new triples can be satisfied,
and they are independent per location.  At a location ``l`` that ``o``
writes, ``Φ'(l, f) = f`` is forced; no old node observes ``f``, so no
new triple applies.  Otherwise the candidates for ``x = Φ'(l, f)`` are
``⊥`` and the writers of ``l``, and ``x`` fails iff some eligible
middle ``v ∉ S(l, x)`` has an eligible ancestor ``u ∈ S(l, x)``:

  - the middle ``v`` is any node for NN and WN, a writer of ``l`` for NW
    and WW;
  - the source ``u`` is any node for NN and NW, a writer of ``l`` for WN
    and WW.  Under NN and NW ``u = ⊥`` also counts: it precedes every
    node, so ``x = ⊥`` fails as soon as an eligible ``v`` lies outside
    the ``⊥`` fiber.  Under WN and WW the ``⊥`` fiber holds no writer,
    so ``x = ⊥`` always passes, which is why both are
    augmentation-closed.

A location where no candidate passes is *stuck*: the pair extends to
``aug_o(C)`` iff ``o`` writes every stuck location.  The stuck set does
not depend on ``o``, so ``QDagConsistency.augmentation_stuck_locations``
computes it once per pair in ``O(|L|·n²)`` bit operations.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.computation import Computation
from repro.core.observer import ObserverFunction
from repro.core.ops import Location, merged_locations
from repro.dag.digraph import bit_indices
from repro.models.base import MemoryModel, cached_membership
from repro.models.predicates import (
    Predicate,
    nn_predicate,
    nw_predicate,
    wn_predicate,
    ww_predicate,
)

__all__ = ["QDagConsistency", "NN", "NW", "WN", "WW", "dag_consistency_triples"]


def dag_consistency_triples(
    comp: Computation,
) -> Iterator[tuple[int | None, int, int]]:
    """All precedence triples ``u ≺ v ≺ w`` of a computation.

    ``u`` ranges over nodes and ``⊥`` (encoded ``None``); ``v`` and ``w``
    are nodes.  ``⊥ ≺ v`` holds for every node ``v``, so the ``u = None``
    triples are exactly the pairs ``v ≺ w``.
    """
    dag = comp.dag
    for v in comp.nodes():
        ancs = list(bit_indices(dag.ancestors_mask(v)))
        for w in bit_indices(dag.descendants_mask(v)):
            yield None, v, w
            for u in ancs:
                yield u, v, w


def _fibers(row) -> dict[int | None, int]:
    """Bitset of the nodes observing each value of one observer row."""
    fibers: dict[int | None, int] = {}
    for u, x in enumerate(row):
        fibers[x] = fibers.get(x, 0) | (1 << u)
    return fibers


class QDagConsistency(MemoryModel):
    """The Q-dag consistency model for a given predicate.

    Parameters
    ----------
    predicate:
        The predicate ``Q(C, l, u, v, w)`` (see
        :mod:`repro.models.predicates`).
    name:
        Display name (e.g. ``"NN"``).
    variant:
        One of ``"NN"``, ``"NW"``, ``"WN"``, ``"WW"`` to enable the fast
        fiber-based membership check, or ``None`` to always use the
        reference triple check (for user-supplied predicates).
    """

    def __init__(
        self, predicate: Predicate, name: str, variant: str | None = None
    ) -> None:
        if variant not in (None, "NN", "NW", "WN", "WW"):
            raise ValueError(f"unknown variant {variant!r}")
        self.predicate = predicate
        self.name = name
        self.variant = variant
        self._middle_writes = variant in ("NW", "WW")
        self._source_writes = variant in ("WN", "WW")
        # A user-supplied predicate has no closed form: the generic
        # Theorem-12 search (see the base class hook) applies.
        self.augmentation_stuck_locations = (
            None if variant is None else self._stuck_locations
        )
        self._check = (
            None
            if variant is None
            else {
                "NN": self._check_nn,
                "NW": self._check_nw,
                "WN": self._check_wn,
                "WW": self._check_ww,
            }[variant]
        )

    # ------------------------------------------------------------------
    # Reference implementation (any predicate)
    # ------------------------------------------------------------------

    def contains_reference(
        self, comp: Computation, phi: ObserverFunction
    ) -> bool:
        """Literal Definition 20 check over all precedence triples."""
        locs = set(comp.locations) | set(phi.locations)
        for loc in locs:
            row = phi.row(loc)
            for u, v, w in dag_consistency_triples(comp):
                phi_u = None if u is None else row[u]
                if phi_u != row[w]:
                    continue
                if not self.predicate(comp, loc, u, v, w):
                    continue
                if row[v] != phi_u:
                    return False
        return True

    # ------------------------------------------------------------------
    # Fast fiber-based implementations
    # ------------------------------------------------------------------

    @staticmethod
    def _check_nn(comp: Computation, loc: Location, row) -> bool:
        fibers = _fibers(row)
        dag = comp.dag
        bot = fibers.get(None, 0)
        for x, members in fibers.items():
            if x is None:
                # ⊥ fiber ancestor-closed: nothing outside it precedes a member.
                for v in comp.nodes():
                    if not (bot & (1 << v)) and (dag.descendants_mask(v) & bot):
                        return False
                continue
            for v in comp.nodes():
                if members & (1 << v):
                    continue
                if (dag.ancestors_mask(v) & members) and (
                    dag.descendants_mask(v) & members
                ):
                    return False
        return True

    @staticmethod
    def _check_nw(comp: Computation, loc: Location, row) -> bool:
        fibers = _fibers(row)
        dag = comp.dag
        for v in comp.writers(loc):
            for x, members in fibers.items():
                if x == v:
                    continue
                if x is None:
                    # u = ⊥ always precedes v, so a later ⊥-observer suffices.
                    if dag.descendants_mask(v) & members:
                        return False
                elif (dag.ancestors_mask(v) & members) and (
                    dag.descendants_mask(v) & members
                ):
                    return False
        return True

    @staticmethod
    def _check_wn(comp: Computation, loc: Location, row) -> bool:
        fibers = _fibers(row)
        dag = comp.dag
        for x, members in fibers.items():
            if x is None:
                continue
            desc_x = dag.descendants_mask(x)
            for v in bit_indices(desc_x & ~members):
                if dag.descendants_mask(v) & members:
                    return False
        return True

    @staticmethod
    def _check_ww(comp: Computation, loc: Location, row) -> bool:
        fibers = _fibers(row)
        dag = comp.dag
        writers_mask = comp.writers_mask(loc)
        for x, members in fibers.items():
            if x is None:
                continue
            desc_x = dag.descendants_mask(x)
            for v in bit_indices(desc_x & writers_mask & ~(1 << x)):
                if dag.descendants_mask(v) & members:
                    return False
        return True

    # ------------------------------------------------------------------
    # Closed-form Theorem-12 test (named variants)
    # ------------------------------------------------------------------

    def _stuck_locations(
        self, comp: Computation, phi: ObserverFunction
    ) -> tuple[Location, ...] | None:
        """Locations no ``Φ'(l, f)`` can serve unless ``o`` writes them.

        ``None`` if ``(comp, phi)`` is not a member.  The local rule is
        derived in the module docstring; locations outside ``comp`` and
        ``phi`` have an all-``⊥`` row and no writer, so ``⊥`` serves them.
        """
        if not cached_membership(self, comp, phi):
            return None
        dag = comp.dag
        everyone = (1 << comp.num_nodes) - 1
        bottom_source = not self._source_writes
        stuck = []
        for loc in merged_locations(comp.locations, phi.locations):
            writers = comp.writers_mask(loc)
            middles = writers if self._middle_writes else everyone
            sources = writers if self._source_writes else everyone
            fibers = _fibers(phi.row(loc))

            def passes(x: int | None) -> bool:
                members = fibers.get(x, 0)
                outside = middles & ~members
                if not outside:
                    return True
                if x is None and bottom_source:
                    return False
                below = 0
                for u in bit_indices(members & sources):
                    below |= dag.descendants_mask(u)
                return not below & outside

            if not any(passes(x) for x in (None, *bit_indices(writers))):
                stuck.append(loc)
        return tuple(stuck)

    def contains(self, comp: Computation, phi: ObserverFunction) -> bool:
        check = self._check
        if check is None:
            return self.contains_reference(comp, phi)
        locs = merged_locations(comp.locations, phi.locations)
        return all(check(comp, loc, phi.row(loc)) for loc in locs)


NN = QDagConsistency(nn_predicate, "NN", variant="NN")
"""NN-dag consistency: the strongest dag-consistent model (Theorem 21)."""

NW = QDagConsistency(nw_predicate, "NW", variant="NW")
"""NW-dag consistency (middle node writes)."""

WN = QDagConsistency(wn_predicate, "WN", variant="WN")
"""WN-dag consistency — "dag consistency" of [BFJ+96a]."""

WW = QDagConsistency(ww_predicate, "WW", variant="WW")
"""WW-dag consistency — the original dag consistency of [BFJ+96b]."""
