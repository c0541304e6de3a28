"""Exhaustive enumeration of small dags.

The benchmark that regenerates Figure 1 of the paper checks the model
lattice over *every* computation up to a bounded size.  This module
enumerates the dags.

We enumerate dags whose node identity order ``0 < 1 < ... < n-1`` is a
topological order (all edges go from a smaller id to a larger id).  Every
dag is isomorphic to at least one such "ordered" dag, and all the memory
models studied here are invariant under node relabelling, so this
enumeration covers every behaviour while avoiding the factorially many
relabellings.

Counts of ordered dags: n=1: 1, n=2: 2, n=3: 8, n=4: 64, n=5: 1024
(``2^(n choose 2)``).  An isomorphism class can still have several
ordered members (the two orientations of a single edge on two nodes),
so :func:`ordered_orbits` keeps only the first member of each class of
*labelled* ordered dags and reports how many members it stands for; the
sweep engine checks one computation per class that way.

Edge masks are the unit of work distribution: each ordered dag on ``n``
nodes is identified by an integer mask over the ``C(n, 2)`` candidate
edges, so a contiguous mask range ``[start, stop)`` names a shard of the
enumeration space that any process can regenerate independently (see
:mod:`repro.runtime.parallel`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import Iterator, Sequence, TypeVar

from repro import _caching
from repro.dag.canon import canonical_labelling
from repro.dag.digraph import Dag

__all__ = [
    "ordered_dags",
    "ordered_orbits",
    "unique_dags",
    "canonical_form",
    "num_edge_masks",
]

T = TypeVar("T")


def num_edge_masks(n: int) -> int:
    """Number of ordered dags on ``n`` nodes: ``2^(n choose 2)`` edge masks."""
    return 1 << comb(n, 2)


def ordered_dags(n: int, start: int = 0, stop: int | None = None) -> Iterator[Dag]:
    """Yield every dag on ``n`` nodes whose edges satisfy ``u < v``.

    ``start``/``stop`` restrict the enumeration to the edge masks in
    ``[start, stop)`` — the sharding hook used by the parallel sweep
    engine.  The default covers the full range ``[0, 2^(n choose 2))``.
    """
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    if stop is None:
        stop = 1 << m
    for mask in range(start, stop):
        edges = [pairs[i] for i in range(m) if mask & (1 << i)]
        yield Dag(n, edges)


def ordered_orbits(
    n: int, labels: Sequence[T], start: int = 0, stop: int | None = None
) -> Iterator[tuple[Dag, tuple[T, ...], int]]:
    """Yield ``(dag, labelling, orbit size)`` for every orbit representative
    among the ordered dags on ``n`` nodes labelled from ``labels``.

    The labelled ordered dags are ordered by edge mask, then by labelling
    in ``product(labels, repeat=n)`` order.  A *representative* comes
    first in that order among all labelled ordered dags isomorphic to it,
    and its *orbit size* is how many of them there are: the number of
    distinct ``(mask, labelling)`` obtained by renaming the nodes along
    each topological order.  ``start``/``stop`` restrict the masks as in
    :func:`ordered_dags`; every member of an orbit has the same number of
    nodes, so a representative is decided inside its own mask.

    A representative's mask must be the least mask its dag takes under
    any topological order, and no automorphism of that dag may send its
    labelling to a smaller one.  :func:`_automorphisms` decides the
    first with a walk that stops at the first smaller mask, and returns
    the automorphisms for the second.  The orbit size is the number of
    topological orders divided by the automorphisms that keep the
    labelling.
    """
    pairs = list(combinations(range(n), 2))
    if stop is None:
        stop = 1 << len(pairs)
    for mask in range(start, stop):
        succ = [0] * n
        edges = []
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                succ[u] |= 1 << v
                edges.append((u, v))
        autos = _automorphisms(n, succ)
        if autos is None:
            continue
        dag = Dag(n, edges)
        orders = _count_topological_orders(n, succ)
        for labelling in product(range(len(labels)), repeat=n):
            fixed = 0
            for perm in autos:
                moved = tuple(labelling[v] for v in perm)
                if moved < labelling:
                    break
                fixed += moved == labelling
            else:
                yield dag, tuple(labels[i] for i in labelling), orders // fixed


def _automorphisms(n: int, succ: list[int]) -> list[tuple[int, ...]] | None:
    """The automorphisms of an ordered dag, or ``None`` when renaming its
    nodes along some topological order gives a smaller edge mask.

    ``succ[u]`` is node ``u``'s successor bitmask.  An automorphism
    ``perm`` puts node ``perm[i]`` at position ``i``.  Mask bit ``(i, j)``
    outranks every bit ``(i', j')`` with ``i' < i``, so the walk fills
    positions from the last one down: placing a node at position ``i``
    decides row ``i`` of the renamed mask, and comparing that row with
    row ``i`` of the mask decides the next most significant bits.  Only
    branches that keep the rows equal are followed.
    """
    at = [0] * n
    autos: list[tuple[int, ...]] = []

    def place(i: int, remaining: int) -> bool:
        if i < 0:
            autos.append(tuple(at))
            return True
        for v in range(n):
            # Position i takes a node none of whose successors is left.
            if not remaining >> v & 1 or succ[v] & remaining:
                continue
            row = 0
            for j in range(i + 1, n):
                if succ[v] >> at[j] & 1:
                    row |= 1 << j
            if row < succ[i]:
                return False
            if row == succ[i]:
                at[i] = v
                if not place(i - 1, remaining & ~(1 << v)):
                    return False
        return True

    return autos if place(n - 1, (1 << n) - 1) else None


def _count_topological_orders(n: int, succ: list[int]) -> int:
    """Number of topological orders of a dag, by dynamic programming over
    the sets of nodes already placed."""
    pred = [0] * n
    for u in range(n):
        for v in range(n):
            if succ[u] >> v & 1:
                pred[v] |= 1 << u
    full = (1 << n) - 1
    ways = [0] * (full + 1)
    ways[full] = 1
    for placed in range(full - 1, -1, -1):
        ways[placed] = sum(
            ways[placed | 1 << v]
            for v in range(n)
            if not placed >> v & 1 and not pred[v] & ~placed
        )
    return ways[0]


def canonical_form(dag: Dag) -> frozenset[tuple[int, int]]:
    """A canonical edge set for the isomorphism class of ``dag``.

    The edge set of ``dag`` relabelled by
    :func:`repro.dag.canon.canonical_labelling` with every node coloured
    alike: colour refinement by degree structure splits the nodes into
    cells, and only relabellings that respect the cells are searched.
    Two dags get the same form iff they are isomorphic.

    Memoized: universes revisit the same dag shapes across op labellings
    and sweep rounds, and :class:`Dag` hashes by value, so repeat lookups
    are cache hits even for freshly constructed equal dags.
    """
    if not _caching.ENABLED:
        return _canonical_form_impl(dag)
    return _canonical_form_cached(dag)


def _canonical_form_impl(dag: Dag) -> frozenset[tuple[int, int]]:
    (edges, _, _), _ = canonical_labelling(dag.num_nodes, dag.edges)
    return frozenset(edges)


_canonical_form_cached = lru_cache(maxsize=1 << 16)(_canonical_form_impl)


def unique_dags(n: int) -> Iterator[Dag]:
    """Yield one representative per isomorphism class of dags on ``n``
    nodes: the one with the least edge mask."""
    for dag, _, _ in ordered_orbits(n, (None,)):
        yield dag
