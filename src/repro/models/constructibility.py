"""Constructibility (Section 3) and constructible versions (Definition 8).

A model Δ is *constructible* (Definition 6) when every observer function
for a prefix extends to the full computation: an online algorithm never
gets "stuck" having produced an observer function it cannot continue.
Theorem 12 reduces checking constructibility of a *monotonic* model to
its closure under single-node *augmentation* (Definition 11): only the
extension by a final node that succeeds everything must be checkable.

This module provides:

* :func:`augmentation_extensions` — the Φ' candidates for ``aug_o(C)``
  extending a given Φ (only the final node's row entries are free).
* :func:`can_extend_to_augmentation` / :func:`augmentation_closed_at` —
  the Theorem-12 one-step test at a single pair.  SC, LC and the four
  named dag-consistency models (NN, NW, WN, WW) take a closed form via
  their ``augmentation_stuck_locations`` hook and never build
  ``aug_o(C)``: SC and LC reduce to membership (Theorem 19's argument),
  the dag-consistent ones to a per-location fiber test (derived in
  :mod:`repro.models.dag_consistency`).  CC, dag consistency with a
  user-supplied predicate, intersections, unions and explicit models
  take the generic candidate search, which also stays the uncached
  baseline and the test oracle.
* :func:`find_nonconstructibility_witness` — search a bounded universe
  for a pair that cannot be extended (e.g. rediscovers Figure 4 for NN).
* :func:`constructible_version` — the bounded-universe greatest-fixpoint
  computation of Δ* (Definition 8), used by the Theorem 23 benchmark to
  verify ``NN* = LC``.
* :func:`is_constructible_prefix_definition` — the literal Definition 6
  check over all prefixes of a computation (exponential; used in tests to
  validate the Theorem 12 reduction).

Soundness of the bounded Δ*
---------------------------
Δ* is the union of all constructible models inside Δ, equivalently the
greatest fixpoint of the pruning operator

    ``P(Δ)(C) = {Φ ∈ Δ(C) : ∀o ∈ O, ∃Φ' ∈ Δ(aug_o(C)) with Φ'|C = Φ}``

(for monotonic Δ, by Theorem 12).  Restricted to computations of at most
``n`` nodes, augmentations of size-``n`` computations fall outside the
universe; those pairs are kept *optimistically*.  After ``t`` pruning
rounds the result is exact for computations of size ``≤ n - t`` **when
the iteration converged for them**; :func:`constructible_version` tracks
and reports the sound size bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator

from repro import _caching
from repro.core.computation import Computation
from repro.core.observer import ObserverFunction
from repro.core.ops import Op, Location
from repro.models.base import ExplicitModel, MemoryModel, cached_membership
from repro.models.universe import Universe

__all__ = [
    "augmentation_extensions",
    "can_extend_to_augmentation",
    "augmentation_closed_at",
    "find_nonconstructibility_witness",
    "constructible_version",
    "ConstructibleVersionResult",
    "is_constructible_prefix_definition",
]


def augmentation_extensions(
    comp: Computation, phi: ObserverFunction, o: Op
) -> Iterator[tuple[Computation, ObserverFunction]]:
    """All valid observer functions for ``aug_o(comp)`` restricting to ``phi``.

    The augmented computation adds one node ``f = final(C)`` succeeding
    every node; an extension Φ' must agree with Φ on old nodes, so only
    the values ``Φ'(l, f)`` are free.  Candidates per location: ``f``
    itself if ``o`` writes the location (condition 2.3), else ``⊥`` or
    any write to the location (``f`` succeeds everything, so condition
    2.2 — ``¬(f ≺ w)`` — never prunes).
    """
    aug = comp.augment(o)
    f = comp.num_nodes
    locs = tuple(
        sorted(set(aug.locations) | set(phi.locations), key=repr)
    )
    cands: list[list[int | None]] = []
    for loc in locs:
        if o.writes(loc):
            cands.append([f])
        else:
            cands.append([None] + aug.writers(loc))
    for choice in product(*cands):
        mapping = {
            loc: phi.row(loc) + (choice[i],) for i, loc in enumerate(locs)
        }
        yield aug, ObserverFunction(aug, mapping, validate=False)


@lru_cache(maxsize=1 << 15)
def _extension_pairs(
    comp: Computation, phi: ObserverFunction, o: Op
) -> tuple[tuple[Computation, ObserverFunction], ...]:
    """Materialized, memoized :func:`augmentation_extensions`.

    The candidate extensions of a pair are model-independent, but every
    model's augmentation-closure test regenerates them; sweeping several
    models over one universe (the Figure 1 battery) hits this cache once
    per model after the first.  Extension counts are tiny (``⊥`` plus the
    writers per location), so materializing is cheap; only intended for
    the small computations of enumeration universes.
    """
    return tuple(augmentation_extensions(comp, phi, o))


def _stuck_hook(model: MemoryModel):
    """The model's closed-form Theorem-12 hook, or ``None`` for the search.

    With caching disabled the hook is bypassed too, so the uncached
    baseline runs the generic candidate search for every model.
    """
    return model.augmentation_stuck_locations if _caching.ENABLED else None


def _unblocked(stuck: tuple[Location, ...] | None, o: Op) -> bool:
    """Whether ``o`` extends a pair with these stuck locations."""
    return stuck is not None and all(o.writes(loc) for loc in stuck)


def can_extend_to_augmentation(
    model: MemoryModel, comp: Computation, phi: ObserverFunction, o: Op
) -> bool:
    """True iff some Φ' ∈ Δ(aug_o(C)) restricts to Φ.

    Models with a closed-form ``augmentation_stuck_locations`` hook (SC,
    LC and the four named dag-consistency variants) answer from the
    stuck locations of ``(comp, phi)``, without building ``aug_o(C)``:
    Φ extends iff the pair is a member and ``o`` writes every stuck
    location.  Every other model gets the generic search, which builds
    each candidate Φ' (:func:`augmentation_extensions`) and tests its
    membership.  ``tests/test_augmentation_hooks.py`` pins every hook to
    that search.  With caching disabled both the hooks and memoization
    are bypassed, preserving the baseline code path for benchmarks.
    """
    hook = _stuck_hook(model)
    if hook is not None:
        return _unblocked(hook(comp, phi), o)
    if not _caching.ENABLED:
        return any(
            model.contains(aug, phi2)
            for aug, phi2 in augmentation_extensions(comp, phi, o)
        )
    return any(
        cached_membership(model, aug, phi2)
        for aug, phi2 in _extension_pairs(comp, phi, o)
    )


def augmentation_closed_at(
    model: MemoryModel,
    comp: Computation,
    phi: ObserverFunction,
    alphabet: Iterable[Op],
) -> Op | None:
    """Theorem 12's condition at one pair.

    Returns ``None`` if Φ extends to ``aug_o(C)`` within the model for
    every ``o`` in the alphabet, else the first failing ``o`` (a
    non-constructibility certificate for monotonic models).  A model
    with a closed-form hook computes its stuck locations once and
    returns the first op that leaves one of them unwritten.
    """
    hook = _stuck_hook(model)
    if hook is not None:
        stuck = hook(comp, phi)
        return next((o for o in alphabet if not _unblocked(stuck, o)), None)
    for o in alphabet:
        if not can_extend_to_augmentation(model, comp, phi, o):
            return o
    return None


@dataclass(frozen=True)
class NonconstructibilityWitness:
    """A certificate that a (monotonic) model is not constructible.

    ``(comp, phi)`` is in the model, but no observer function for
    ``comp.augment(blocking_op)`` extending ``phi`` is.
    """

    comp: Computation
    phi: ObserverFunction
    blocking_op: Op


def find_nonconstructibility_witness(
    model: MemoryModel, universe: Universe
) -> NonconstructibilityWitness | None:
    """Search a bounded universe for a Theorem-12 failure.

    Returns the first witness in enumeration order (smallest computation
    first), or ``None`` if the model is augmentation-closed on the whole
    universe.  For monotonic models, a witness proves non-constructibility
    outright; absence of a witness is evidence (and, combined with a
    pencil-and-paper closure argument like Theorem 19's, proof) of
    constructibility.
    """
    for comp, phi in universe.model_pairs(model):
        bad = augmentation_closed_at(model, comp, phi, universe.alphabet)
        if bad is not None:
            return NonconstructibilityWitness(comp, phi, bad)
    return None


@dataclass
class ConstructibleVersionResult:
    """Output of :func:`constructible_version`.

    Attributes
    ----------
    model:
        The pruned pairs as an :class:`~repro.models.base.ExplicitModel`.
    sound_max_nodes:
        Sizes up to this bound are *exactly* Δ* restricted to the
        universe's alphabet/locations; larger sizes may still contain
        optimistically-kept pairs.
    rounds:
        Number of pruning sweeps executed (including the final sweep that
        made no change).
    pruned_pairs:
        Total number of pairs removed from the original model.
    """

    model: ExplicitModel
    sound_max_nodes: int
    rounds: int
    pruned_pairs: int


def constructible_version(
    model: MemoryModel, universe: Universe, name: str | None = None
) -> ConstructibleVersionResult:
    """Compute Δ* on a bounded universe by greatest-fixpoint pruning.

    Requires ``model`` to be monotonic for the Theorem-12 augmentation
    test to coincide with Definition 6 (all models shipped in this
    package are; see the monotonicity tests).
    """
    # Materialize Δ restricted to the universe, grouped by computation.
    members: dict[Computation, set[ObserverFunction]] = {}
    for comp, phi in universe.model_pairs(model):
        members.setdefault(comp, set()).add(phi)

    alphabet = universe.alphabet
    max_n = universe.max_nodes

    def survives(comp: Computation, phi: ObserverFunction) -> bool:
        for o in alphabet:
            ok = False
            for aug, phi2 in _extension_pairs(comp, phi, o):
                if phi2 in members.get(aug, ()):
                    ok = True
                    break
            if not ok:
                return False
        return True

    pruned_total = 0
    rounds = 0
    while True:
        rounds += 1
        removed_this_round = 0
        # Frontier pairs (size == max_n) have augmentations outside the
        # universe; keep them optimistically.
        for comp in list(members):
            if comp.num_nodes >= max_n:
                continue
            keep = {phi for phi in members[comp] if survives(comp, phi)}
            removed_this_round += len(members[comp]) - len(keep)
            members[comp] = keep
        pruned_total += removed_this_round
        if removed_this_round == 0:
            break

    result_model = ExplicitModel(
        ((comp, phi) for comp, phis in members.items() for phi in phis),
        name=name or f"({model.name})* on n<={max_n}",
    )
    # Pairs at size k are sound once every chain of forced augmentations
    # from size k has stabilized.  Convergence of the sweep means sizes
    # < max_n reached a fixpoint *given* optimistic frontier pairs, so
    # only the frontier itself is unsound.
    return ConstructibleVersionResult(
        model=result_model,
        sound_max_nodes=max_n - 1,
        rounds=rounds,
        pruned_pairs=pruned_total,
    )


def is_constructible_prefix_definition(
    model: MemoryModel, comp: Computation
) -> bool:
    """Literal Definition 6, restricted to prefixes of one computation.

    For every prefix ``C`` of ``comp`` (via every downset of its dag,
    renumbered) and every Φ ∈ Δ(C), some Φ' ∈ Δ(comp) must restrict to
    Φ.  Exponential in every direction; used in tests on tiny
    computations to validate Theorem 12's reduction.
    """
    full_mask = (1 << comp.num_nodes) - 1
    full_observers = [
        phi for phi in ObserverFunction.enumerate_all(comp)
        if model.contains(comp, phi)
    ]
    for mask in comp.prefix_masks():
        if mask == full_mask:
            continue
        prefix, old_ids = comp.restrict(mask)
        for phi in ObserverFunction.enumerate_all(prefix):
            if not model.contains(prefix, phi):
                continue
            # Does some full observer restrict (under old_ids) to phi?
            ok = False
            for phi_full in full_observers:
                locs = set(phi.locations) | set(phi_full.locations) | set(
                    comp.locations
                )
                if all(
                    phi_full.value(loc, old) == _transport(
                        phi.value(loc, new), old_ids
                    )
                    for loc in locs
                    for new, old in enumerate(old_ids)
                ):
                    ok = True
                    break
            if not ok:
                return False
    return True


def _transport(v: int | None, old_ids: list[int]) -> int | None:
    """Map a prefix-local observer value back to full-computation ids."""
    return None if v is None else old_ids[v]
