"""Exhaustive enumeration of small dags.

The benchmark that regenerates Figure 1 of the paper checks the model
lattice over *every* computation up to a bounded size.  This module
enumerates the dags.

We enumerate dags whose node identity order ``0 < 1 < ... < n-1`` is a
topological order (all edges go from a smaller id to a larger id).  Every
dag is isomorphic to at least one such "ordered" dag, and all the memory
models studied here are invariant under node relabelling, so this
enumeration covers every behaviour while avoiding the factorially many
relabellings.  (Some isomorphism classes appear multiple times — e.g. the
two orientations of a single edge on two nodes — which only costs time,
not soundness.)

Counts of ordered dags: n=1: 1, n=2: 2, n=3: 8, n=4: 64, n=5: 1024
(``2^(n choose 2)``).  A canonicalization pass (:func:`unique_dags`)
deduplicates up to iso for the smallest sizes where that matters.

Edge masks are the unit of work distribution: each ordered dag on ``n``
nodes is identified by an integer mask over the ``C(n, 2)`` candidate
edges, so a contiguous mask range ``[start, stop)`` names a shard of the
enumeration space that any process can regenerate independently (see
:mod:`repro.runtime.parallel`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterator

from repro import _caching
from repro.dag.canon import canonical_labelling
from repro.dag.digraph import Dag

__all__ = ["ordered_dags", "unique_dags", "canonical_form", "num_edge_masks"]


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
    """Yield one representative per isomorphism class of dags on ``n`` nodes."""
    seen: set[frozenset[tuple[int, int]]] = set()
    for dag in ordered_dags(n):
        key = canonical_form(dag)
        if key not in seen:
            seen.add(key)
            yield dag
