"""Canonical labelling of small dags by colour refinement.

Memory models are defined on computations up to relabelling, so two
places need a canonical name for an isomorphism class: :func:`canonical_form`
(one name per unlabelled dag) and the serve cache (one key per
isomorphic request).  Both use :func:`canonical_labelling`.

The routine first splits the nodes into *cells* by colour refinement.
A node's initial colour is its own label plus the locations at which it
reads ⊥.  Each round then re-ranks every node by its colour together
with the sorted colours of its successors, its predecessors, the nodes
it observes (per location) and the nodes observing it (per location),
until the partition stops splitting.  Ranks are positions in the sorted
list of distinct signatures, so the cell order never depends on node
ids: it is an isomorphism invariant.

The certificate is then minimized over the permutations that send each
cell onto its own block of positions.  Because the cell order is
invariant, that minimum is a canonical form; because the certificate
spells out the whole relabelled input, non-isomorphic inputs never share
it.  Orders that differ only by swapping *twins* (cell mates whose swap
is an automorphism, such as identical unconnected nodes) give the same
certificate, so each cell tries one order per arrangement of its twin
classes.  The candidates number at most the product of the cell-size
factorials, itself at most ``n!``, and usually one: in a schedule every
node has its own ``(proc, start)`` label.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Hashable, Iterable, Iterator, Sequence

__all__ = ["canonical_labelling"]

Certificate = tuple[tuple, tuple, tuple]


def canonical_labelling(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[Hashable] | None = None,
    relation: Iterable[tuple[Any, int, int]] = (),
) -> tuple[Certificate, tuple[int, ...]]:
    """``(certificate, permutation)`` of a labelled dag on ``n`` nodes.

    ``labels[u]`` is node ``u``'s own data; ``None`` colours every node
    alike.  ``relation`` holds ``(loc, u, v)`` triples, "at ``loc`` node
    ``u`` observes ``v``", where a negative ``v`` stands for ⊥.  Labels
    and locations must be mutually comparable.

    ``permutation[u]`` is the canonical id of node ``u``, and the
    certificate is ``(edges, labels, relation)`` of the input relabelled
    by it: sorted edges, labels in canonical id order, sorted triples.
    Two inputs get the same certificate iff they are isomorphic.
    """
    arcs = tuple(edges)
    triples = tuple(relation)
    node_labels = (None,) * n if labels is None else labels
    cells = _refine(n, arcs, node_labels, triples)
    orders = [
        list(_arrangements(_twin_classes(cell, arcs, triples)))
        for cell in cells
    ]
    best: Certificate | None = None
    best_perm: list[int] = []
    for choice in product(*orders):
        inv = [u for block in choice for u in block]
        perm = [0] * n
        for pos, u in enumerate(inv):
            perm[u] = pos
        cert = (
            tuple(sorted((perm[a], perm[b]) for a, b in arcs)),
            tuple(node_labels[u] for u in inv),
            tuple(
                sorted(
                    (loc, perm[u], v if v < 0 else perm[v])
                    for loc, u, v in triples
                )
            ),
        )
        if best is None or cert < best:
            best, best_perm = cert, perm
    assert best is not None  # ``product`` of no cells yields one choice
    return best, tuple(best_perm)


def _refine(
    n: int,
    edges: tuple[tuple[int, int], ...],
    labels: Sequence[Hashable],
    relation: tuple[tuple[Any, int, int], ...],
) -> list[list[int]]:
    """The stable colour partition, as cells in colour order."""
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
        pred[b].append(a)
    sees: list[list[tuple[Any, int]]] = [[] for _ in range(n)]
    seen_by: list[list[tuple[Any, int]]] = [[] for _ in range(n)]
    bottom: list[list[Any]] = [[] for _ in range(n)]
    for loc, u, v in relation:
        if v < 0:
            bottom[u].append(loc)
        else:
            sees[u].append((loc, v))
            seen_by[v].append((loc, u))
    colour = _ranks([(labels[u], tuple(sorted(bottom[u]))) for u in range(n)])
    while len(set(colour)) < n:
        refined = _ranks(
            [
                (
                    colour[u],
                    tuple(sorted(colour[s] for s in succ[u])),
                    tuple(sorted(colour[p] for p in pred[u])),
                    tuple(sorted((loc, colour[v]) for loc, v in sees[u])),
                    tuple(sorted((loc, colour[w]) for loc, w in seen_by[u])),
                )
                for u in range(n)
            ]
        )
        # Each signature starts with the old colour, so rounds only
        # split cells; an unchanged cell count means a stable partition
        # (and a discrete one, checked above, cannot split further).
        if len(set(refined)) == len(set(colour)):
            break
        colour = refined
    cells: list[list[int]] = [[] for _ in range(len(set(colour)))]
    for u in range(n):
        cells[colour[u]].append(u)
    return cells


def _twin_classes(
    cell: list[int],
    edges: tuple[tuple[int, int], ...],
    relation: tuple[tuple[Any, int, int], ...],
) -> list[list[int]]:
    """``cell`` split into classes of *twins*: nodes whose swap is an
    automorphism.  Cell mates share their label, so the swap only has to
    fix the edges and the relation.  Swaps compose, so twinship is an
    equivalence and each node is tested against one member per class.
    """
    if len(cell) == 1:
        return [cell]
    edge_set = frozenset(edges)
    rel_set = frozenset(relation)

    def twins(u: int, v: int) -> bool:
        swap = {u: v, v: u}
        return edge_set == {
            (swap.get(a, a), swap.get(b, b)) for a, b in edges
        } and rel_set == {
            (loc, swap.get(a, a), swap.get(b, b)) for loc, a, b in relation
        }

    classes: list[list[int]] = []
    for u in cell:
        for members in classes:
            if twins(members[0], u):
                members.append(u)
                break
        else:
            classes.append([u])
    return classes


def _arrangements(classes: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """Every order of the nodes up to reordering twins: twins are
    interchangeable, so each class keeps its members in one order."""
    if not any(classes):
        yield ()
        return
    for i, members in enumerate(classes):
        if members:
            classes[i] = members[1:]
            for rest in _arrangements(classes):
                yield (members[0],) + rest
            classes[i] = members


def _ranks(signatures: list) -> list[int]:
    """Each signature's position among the sorted distinct signatures."""
    rank = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    return [rank[sig] for sig in signatures]
