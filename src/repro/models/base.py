"""The memory-model abstraction (Definition 3).

A memory model is a set of (computation, observer function) pairs.  The
sets of interest are infinite (they contain pairs for computations of
every size), so a :class:`MemoryModel` here is an *intensional*
representation: a membership predicate :meth:`MemoryModel.contains`, plus
enumeration helpers that realize the extensional view on bounded
universes (used by the Figure-1 and Theorem-23 benchmarks).

Definition 4's "stronger" relation (Δ ⊆ Δ') and the completeness /
monotonicity properties of Section 2 are provided as *bounded* checks in
:mod:`repro.models.relations`; they cannot be decided in general by a
membership oracle alone.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from repro import _caching
from repro.core.computation import Computation
from repro.core.observer import ObserverFunction
from repro.core.ops import Location

__all__ = [
    "MemoryModel",
    "IntersectionModel",
    "UnionModel",
    "ExplicitModel",
    "cached_membership",
]


@lru_cache(maxsize=1 << 17)
def _membership(model: "MemoryModel", comp, phi) -> bool:
    return model.contains(comp, phi)


def cached_membership(model: "MemoryModel", comp, phi) -> bool:
    """Memoized ``model.contains(comp, phi)`` for stateless models.

    Exhaustive sweeps ask the same membership question repeatedly — SC
    runs the LC pre-check internally, the lattice battery queries every
    model on every pair, and constructibility sweeps revisit augmented
    pairs — and computations/observers hash by value, so a process-wide
    verdict cache collapses all of that.  Models whose verdicts could
    change after construction (``cache_membership = False``, e.g.
    :class:`ExplicitModel`) bypass the cache.
    """
    if not _caching.ENABLED or not model.cache_membership:
        return model.contains(comp, phi)
    return _membership(model, comp, phi)


class MemoryModel(ABC):
    """A memory model Δ, represented by its membership predicate.

    Subclasses implement :meth:`contains`.  The empty computation and its
    unique observer function belong to every model by Definition 3; the
    default :meth:`contains` wrapper (:meth:`__contains__`) does *not*
    special-case it — concrete models must accept it naturally, and the
    test suite checks that they do.
    """

    #: Human-readable name used in reports and reprs.
    name: str = "model"

    #: Whether :func:`cached_membership` may memoize this model's verdicts
    #: (safe for stateless predicate models; subclasses whose membership
    #: can change after construction must set this to False).
    cache_membership: bool = True

    #: Optional closed-form answer to the Theorem-12 one-step test, for
    #: every op at once: a method ``(comp, phi) -> tuple[Location, ...]
    #: | None``.  ``None`` means ``(comp, phi)`` is not a member, so no
    #: augmentation extends it; otherwise the result lists the *stuck*
    #: locations, those where no value of ``Φ'(l, f)`` keeps
    #: ``aug_o(comp)`` in the model unless ``o`` writes ``l`` (which
    #: forces ``Φ'(l, f) = f``).  So Φ extends to ``aug_o(comp)`` iff
    #: the result is not ``None`` and ``o`` writes every listed
    #: location.  It must agree with the candidate search in
    #: :func:`repro.models.constructibility.augmentation_extensions`;
    #: a model without the hook (``None`` here) gets that search.
    augmentation_stuck_locations: (
        Callable[[Computation, ObserverFunction], tuple[Location, ...] | None] | None
    ) = None

    @abstractmethod
    def contains(self, comp: Computation, phi: ObserverFunction) -> bool:
        """True iff ``(comp, phi)`` ∈ Δ.

        ``phi`` must be a valid observer function *for comp*; behaviour on
        mismatched pairs is undefined (callers constructed via this
        library cannot produce them).
        """

    def __contains__(self, pair: tuple[Computation, ObserverFunction]) -> bool:
        comp, phi = pair
        return self.contains(comp, phi)

    def observers(
        self,
        comp: Computation,
        locations: Iterable[Location] | None = None,
    ) -> Iterator[ObserverFunction]:
        """All observer functions Φ with ``(comp, Φ)`` ∈ Δ.

        Default implementation filters the exhaustive enumeration of valid
        observer functions; subclasses with cheaper generators (e.g. SC
        via topological sorts) may override.
        """
        for phi in ObserverFunction.enumerate_all(comp, locations):
            if self.contains(comp, phi):
                yield phi

    def admits(self, comp: Computation) -> bool:
        """True iff Δ defines at least one observer function for ``comp``.

        A model is *complete* iff this holds for every computation; see
        :func:`repro.models.relations.is_complete_on`.
        """
        return next(self.observers(comp), None) is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemoryModel {self.name}>"


class IntersectionModel(MemoryModel):
    """The intersection of several models (their join in "strength").

    Stronger than each operand by construction; used by tests to build
    reference models and by the lattice analysis.
    """

    def __init__(self, parts: Iterable[MemoryModel], name: str | None = None):
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("IntersectionModel requires at least one part")
        self.name = name or " ∩ ".join(p.name for p in self.parts)

    def contains(self, comp: Computation, phi: ObserverFunction) -> bool:
        return all(p.contains(comp, phi) for p in self.parts)


class UnionModel(MemoryModel):
    """The union of several models (their meet in "strength").

    Weaker than each operand.  Lemma 7 of the paper: *a union of
    constructible models is constructible* — which is what makes the
    constructible version Δ* (the union of all constructible models
    inside Δ) well-defined.  The test suite checks Lemma 7 empirically
    on unions of the constructible zoo members.
    """

    def __init__(self, parts: Iterable[MemoryModel], name: str | None = None):
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("UnionModel requires at least one part")
        self.name = name or " ∪ ".join(p.name for p in self.parts)

    def contains(self, comp: Computation, phi: ObserverFunction) -> bool:
        return any(p.contains(comp, phi) for p in self.parts)


class ExplicitModel(MemoryModel):
    """A finite, extensional model: an explicit set of pairs.

    Used for counterexamples in tests (e.g. non-monotonic or
    non-constructible toy models) and as the output representation of the
    bounded constructible-version computation.  Pairs for computations
    outside the stored domain are *not* members.
    """

    cache_membership = False

    def __init__(
        self,
        pairs: Iterable[tuple[Computation, ObserverFunction]],
        name: str = "explicit",
    ) -> None:
        self.name = name
        self._by_comp: dict[Computation, set[ObserverFunction]] = {}
        for comp, phi in pairs:
            self._by_comp.setdefault(comp, set()).add(phi)

    def contains(self, comp: Computation, phi: ObserverFunction) -> bool:
        return phi in self._by_comp.get(comp, ())

    def computations(self) -> Iterator[Computation]:
        """The computations with at least one stored observer function."""
        return iter(self._by_comp)

    def observers(
        self,
        comp: Computation,
        locations: Iterable[Location] | None = None,
    ) -> Iterator[ObserverFunction]:
        return iter(self._by_comp.get(comp, ()))

    def pair_count(self) -> int:
        """Total number of stored pairs."""
        return sum(len(s) for s in self._by_comp.values())
