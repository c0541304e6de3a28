"""Series-parallel dag algebra.

Cilk computations (the paper's motivating workloads) are *series-parallel*:
they are built from single nodes by serial composition (everything in the
first part precedes everything in the second) and parallel composition (no
cross dependencies).  This module provides a small algebra producing
:class:`~repro.dag.digraph.Dag` objects, plus a recognizer.

The algebra composes *node-series* dags: serial composition links every
sink of the left operand to every source of the right operand.  For
single-source/single-sink operands this adds exactly one edge, matching
the usual SP-dag definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.dag.digraph import Dag

__all__ = ["SPNode", "leaf", "series", "parallel", "sp_to_dag", "is_series_parallel"]


@dataclass(frozen=True)
class SPNode:
    """A node of a series-parallel expression tree.

    ``kind`` is ``"leaf"``, ``"series"`` or ``"parallel"``; ``children`` is
    empty for leaves.  ``payload`` is an arbitrary label carried to the dag
    construction (exposed as the leaf order).
    """

    kind: str
    children: tuple["SPNode", ...] = ()
    payload: object | None = None

    def leaf_count(self) -> int:
        """Number of leaves of the expression."""
        if self.kind == "leaf":
            return 1
        return sum(c.leaf_count() for c in self.children)


def leaf(payload: object | None = None) -> SPNode:
    """A single-node SP expression."""
    return SPNode("leaf", (), payload)


def series(*parts: SPNode) -> SPNode:
    """Serial composition: each part entirely precedes the next."""
    if not parts:
        raise ValueError("series() needs at least one part")
    if len(parts) == 1:
        return parts[0]
    return SPNode("series", tuple(parts))


def parallel(*parts: SPNode) -> SPNode:
    """Parallel composition: no dependencies between parts."""
    if not parts:
        raise ValueError("parallel() needs at least one part")
    if len(parts) == 1:
        return parts[0]
    return SPNode("parallel", tuple(parts))


def sp_to_dag(expr: SPNode) -> tuple[Dag, list[object | None]]:
    """Materialize an SP expression as a dag.

    Returns the dag and the list of leaf payloads indexed by node id.
    Leaves are numbered in left-to-right expression order.
    """
    payloads: list[object | None] = []
    edges: list[tuple[int, int]] = []

    def build(e: SPNode) -> tuple[list[int], list[int]]:
        """Return (sources, sinks) node-id lists of the sub-dag."""
        if e.kind == "leaf":
            u = len(payloads)
            payloads.append(e.payload)
            return [u], [u]
        if e.kind == "series":
            srcs, snks = build(e.children[0])
            for child in e.children[1:]:
                csrcs, csnks = build(child)
                for s in snks:
                    for t in csrcs:
                        edges.append((s, t))
                snks = csnks
            return srcs, snks
        if e.kind == "parallel":
            srcs: list[int] = []
            snks: list[int] = []
            for child in e.children:
                csrcs, csnks = build(child)
                srcs.extend(csrcs)
                snks.extend(csnks)
            return srcs, snks
        raise ValueError(f"unknown SP node kind {e.kind!r}")

    build(expr)
    return Dag(len(payloads), edges), payloads


def is_series_parallel(dag: Dag) -> bool:
    """Recognizer for *node* series-parallel dags.

    Uses the forbidden-substructure characterization of Valdes, Tarjan
    and Lawler (1982): a dag is node series-parallel iff its precedence
    order contains no induced "N" — four distinct nodes ``a, b, c, d``
    whose only precedence relations among themselves are
    ``a ≺ c``, ``b ≺ c`` and ``b ≺ d``.

    The check is ``O(n^4)`` with early exits, which is fine for the test
    and verification workloads it serves (confirming for example that
    :mod:`repro.lang.cilk` only generates SP computations).
    """
    n = dag.num_nodes
    lt = dag.precedes
    for b in range(n):
        for d in range(n):
            if d == b or not lt(b, d):
                continue
            for c in range(n):
                if c in (b, d) or not lt(b, c):
                    continue
                if lt(c, d) or lt(d, c):
                    continue
                for a in range(n):
                    if a in (b, c, d) or not lt(a, c):
                        continue
                    if lt(a, d) or lt(d, a):
                        continue
                    if lt(a, b) or lt(b, a):
                        continue
                    return False  # induced N found
    return True


def balanced_sp(depth: int, fanout: int = 2) -> SPNode:
    """A balanced SP expression: serial chains of parallel blocks.

    ``depth == 0`` is a leaf; otherwise ``fanout`` parallel copies of the
    depth ``d-1`` expression, wrapped between a fork leaf and a join leaf.
    Mirrors :func:`repro.dag.random_dags.fork_join_dag`.
    """
    if depth == 0:
        return leaf()
    inner = parallel(*(balanced_sp(depth - 1, fanout) for _ in range(fanout)))
    return series(leaf(), inner, leaf())


def all_sp_trees(n_leaves: int) -> Iterator[SPNode]:
    """Every binary SP expression shape with the given number of leaves.

    Leaves carry no payloads (so :func:`sp_to_dag` numbers them left to
    right).  Binary compositions suffice: series and parallel are
    associative, so every SP partial order is realized.  The count is
    ``Catalan(n-1) · 2^(n-1)`` — exhaustive universes stay small
    (``n ≤ 5`` → at most 224 shapes).
    """
    if n_leaves < 1:
        raise ValueError("n_leaves must be >= 1")
    if n_leaves == 1:
        yield leaf()
        return
    for split in range(1, n_leaves):
        for left in all_sp_trees(split):
            for right in all_sp_trees(n_leaves - split):
                yield SPNode("series", (left, right))
                yield SPNode("parallel", (left, right))


def random_sp(
    n_leaves: int, rng_seed: int | None = None
) -> SPNode:
    """A random SP expression with the given number of leaves."""
    import random

    r = random.Random(rng_seed)

    def build(k: int) -> SPNode:
        if k == 1:
            return leaf()
        split = r.randint(1, k - 1)
        left, right = build(split), build(k - split)
        if r.random() < 0.5:
            return series(left, right)
        return parallel(left, right)

    if n_leaves < 1:
        raise ValueError("n_leaves must be >= 1")
    return build(n_leaves)


__all__ += [
    "balanced_sp",
    "random_sp",
    "all_sp_trees",
]
