"""Bounded enumeration universes of computations and observer functions.

The paper's theorems quantify over *all* computations.  To check them
mechanically we enumerate every computation up to a size bound — every
dag shape (node ids in topological order, which covers every isomorphism
class; see :mod:`repro.dag.enumerate`) crossed with every op labelling —
and, per computation, every valid observer function.  Every model is
invariant under renaming nodes, so :meth:`Universe.representatives`
also names one computation per isomorphism class with the number of
labelled computations it stands for; the sweep engine checks only
those (:mod:`repro.runtime.parallel`).

A :class:`Universe` fixes the location set and the op alphabet and
provides iteration, counting and per-model pair extraction.  Sizes grow
fast (dags ``2^(n choose 2)``, labellings ``|O|^n``, observers up to
``(writes+1)^(n·|L|)``), so the intended range is ``n ≤ 5`` with one
location or ``n ≤ 3``–``4`` with two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator

from repro.core.computation import Computation
from repro.core.observer import ObserverFunction, count_observer_functions
from repro.core.ops import N, Op, R, W, Location
from repro.dag.enumerate import ordered_dags, ordered_orbits
from repro.errors import UniverseError
from repro.models.base import MemoryModel

__all__ = ["Universe", "default_alphabet"]


def default_alphabet(
    locations: Iterable[Location], include_nop: bool = True
) -> tuple[Op, ...]:
    """The paper's instruction set ``O`` for a finite location set."""
    ops: list[Op] = []
    for loc in locations:
        ops.append(R(loc))
        ops.append(W(loc))
    if include_nop:
        ops.append(N)
    return tuple(ops)


@dataclass(frozen=True)
class Universe:
    """All computations on at most ``max_nodes`` nodes over ``locations``.

    Parameters
    ----------
    max_nodes:
        Inclusive bound on computation size.
    locations:
        The finite location set ``L``.
    include_nop:
        Whether the alphabet includes the no-op ``N`` (the paper's ``O``
        always does; excluding it shrinks universes for expensive
        experiments — noted wherever a benchmark does so).
    """

    max_nodes: int
    locations: tuple[Location, ...] = ("x",)
    include_nop: bool = True
    _alphabet: tuple[Op, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_alphabet",
            default_alphabet(self.locations, self.include_nop),
        )

    @property
    def alphabet(self) -> tuple[Op, ...]:
        """The instruction alphabet ``O``."""
        return self._alphabet

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def computations_of_size(
        self, n: int, mask_range: tuple[int, int] | None = None
    ) -> Iterator[Computation]:
        """Every computation with exactly ``n`` nodes (ordered-dag ids).

        ``mask_range=(lo, hi)`` restricts the dag shapes to the edge masks
        in ``[lo, hi)`` — the sharding hook of the parallel sweep engine
        (:mod:`repro.runtime.parallel`).  Enumeration order is edge mask
        ascending, then labelling, so concatenating the shards of a
        partition reproduces the unsharded order exactly.
        """
        if n < 0 or n > self.max_nodes:
            raise UniverseError(
                f"size {n} outside universe bound {self.max_nodes}"
            )
        lo, hi = mask_range if mask_range is not None else (0, None)
        for dag in ordered_dags(n, lo, hi):
            for ops in product(self._alphabet, repeat=n):
                yield Computation(dag, ops)

    def representatives(
        self, n: int, mask_range: tuple[int, int] | None = None
    ) -> Iterator[tuple[Computation, int]]:
        """``(computation, orbit size)`` for one computation per
        isomorphism class of size ``n``.

        The representative is the class's first member in
        :meth:`computations_of_size` order, and the orbit size is the
        number of members (see :func:`repro.dag.enumerate.ordered_orbits`).
        Isomorphic computations have equally many observer functions, so
        the orbit sizes times the observer counts sum to
        :meth:`count_pairs`.  ``mask_range`` shards as in
        :meth:`computations_of_size`, and concatenated shards reproduce
        the unsharded order.
        """
        if n < 0 or n > self.max_nodes:
            raise UniverseError(
                f"size {n} outside universe bound {self.max_nodes}"
            )
        lo, hi = mask_range if mask_range is not None else (0, None)
        for dag, ops, orbit in ordered_orbits(n, self._alphabet, lo, hi):
            yield Computation(dag, ops), orbit

    def computations(self) -> Iterator[Computation]:
        """Every computation of size ``0 .. max_nodes``, smallest first."""
        for n in range(self.max_nodes + 1):
            yield from self.computations_of_size(n)

    def num_edge_masks(self, n: int) -> int:
        """Number of ordered-dag edge masks at size ``n`` (``2^(n choose 2)``)."""
        from repro.dag.enumerate import num_edge_masks

        return num_edge_masks(n)

    def observers(self, comp: Computation) -> Iterator[ObserverFunction]:
        """Every valid observer function for ``comp`` over this universe's
        locations (restricted to the computation's own locations — other
        rows are forced all-⊥ and carry no information)."""
        return ObserverFunction.enumerate_all(comp)

    def pairs(
        self,
        n: int | None = None,
        mask_range: tuple[int, int] | None = None,
    ) -> Iterator[tuple[Computation, ObserverFunction]]:
        """Every (computation, observer) pair, optionally at one size.

        ``mask_range`` shards the dag shapes and requires ``n`` (a mask
        range is meaningless across sizes).
        """
        if mask_range is not None and n is None:
            raise UniverseError("mask_range requires an explicit size n")
        comps = (
            self.computations()
            if n is None
            else self.computations_of_size(n, mask_range)
        )
        for comp in comps:
            for phi in self.observers(comp):
                yield comp, phi

    def model_pairs(
        self,
        model: MemoryModel,
        n: int | None = None,
        mask_range: tuple[int, int] | None = None,
    ) -> Iterator[tuple[Computation, ObserverFunction]]:
        """The pairs of ``model`` within this universe."""
        for comp, phi in self.pairs(n, mask_range):
            if model.contains(comp, phi):
                yield comp, phi

    # ------------------------------------------------------------------
    # Counting (for reports; avoids materializing pairs)
    # ------------------------------------------------------------------

    def count_computations(self, n: int) -> int:
        """Number of computations of size ``n`` (dags × labellings)."""
        from math import comb

        return (2 ** comb(n, 2)) * (len(self._alphabet) ** n)

    def count_pairs(self, n: int) -> int:
        """Number of (computation, observer) pairs of size ``n``."""
        return sum(
            count_observer_functions(comp)
            for comp in self.computations_of_size(n)
        )
