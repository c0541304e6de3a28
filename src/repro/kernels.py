"""Bitset kernels: the hot loops behind closure, races, folds and LC.

Transitive closure, the race sweep's row-wise reachability arithmetic,
the inclusion fold and the quotient acyclicity check behind LC
membership all reduce to bit-matrix work on small dags.  Python
integers are arbitrary-precision bitsets whose AND/OR already run over
machine words in C, so plain loops over them are the one
implementation.  ``tests/test_kernels.py`` pins every function here to
a naive oracle (DFS reachability, the quadratic race scan, a DFS cycle
check, the direct inclusion product).  Each docstring is the contract:
argument conventions, result types and result *order* are all part of
it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.dag.digraph import bit_indices

__all__ = ["closure", "inclusion_fold", "quotient_is_acyclic", "race_pairs"]


def closure(
    n: int, succ: Sequence[int], pred: Sequence[int], topo: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Strict descendant and ancestor rows of a dag.

    ``succ``/``pred`` are direct-neighbour bitsets indexed by node id;
    ``topo`` is any topological order.  Returns ``(desc, anc)`` lists of
    int bitsets: bit ``v`` of ``desc[u]`` iff ``u ≺ v`` strictly (and
    symmetrically for ``anc``).
    """
    desc = [0] * n
    for u in reversed(topo):
        d = succ[u]
        for v in bit_indices(succ[u]):
            d |= desc[v]
        desc[u] = d
    anc = [0] * n
    for u in topo:
        a = pred[u]
        for v in bit_indices(pred[u]):
            a |= anc[v]
        anc[u] = a
    return desc, anc


def race_pairs(
    n: int,
    desc: Sequence[int],
    anc: Sequence[int],
    loc_masks: Sequence[tuple[int, int]],
) -> list[tuple[int, int, int]]:
    """Racing pairs against closure rows, in historical sweep order.

    ``loc_masks`` holds one ``(access_mask, write_mask)`` bitset pair
    per location, in the caller's location order.  For each location,
    every writer races with every incomparable accessor; write-write
    pairs are emitted from the smaller node id only.  Returns
    ``(loc_index, w, other)`` triples ordered by location index, then
    writer ascending, then partner ascending — ``w`` is the writer the
    pair was emitted from (not necessarily ``min``), matching
    :func:`repro.verify.races.find_races`.
    """
    out: list[tuple[int, int, int]] = []
    for li, (amask, wmask) in enumerate(loc_masks):
        if not wmask:
            continue
        for w in bit_indices(wmask):
            bit = 1 << w
            incomparable = amask & ~(anc[w] | desc[w] | bit)
            partners = incomparable & ~(wmask & (bit - 1))
            for other in bit_indices(partners):
                out.append((li, w, other))
    return out


def inclusion_fold(
    num_models: int, verdict_rows: Iterable[tuple[bool, ...]]
) -> list[int]:
    """Fold per-pair membership verdicts into a violation matrix.

    Each row holds one bool per model: whether the enumerated pair is a
    member.  Row ``r`` witnesses ``models[i] ⊄ models[j]`` when
    ``r[i] and not r[j]``.  Returns ``bad`` as a list of int bitsets:
    bit ``j`` of ``bad[i]`` set iff some row violated ``i ⊆ j``.
    Merging two folds is elementwise OR.
    """
    bad = [0] * num_models
    for row in verdict_rows:
        out_mask = 0
        for j, v in enumerate(row):
            if not v:
                out_mask |= 1 << j
        if not out_mask:
            continue
        for i, v in enumerate(row):
            if v:
                bad[i] |= out_mask
    return bad


def quotient_is_acyclic(
    num_blocks: int, bsrcs: Sequence[int], bdsts: Sequence[int]
) -> bool:
    """Kahn's algorithm over a dense-id block edge list.

    ``bsrcs[k] -> bdsts[k]`` are quotient edges over block ids
    ``0 .. num_blocks-1`` (duplicates allowed, self-edges excluded by
    the caller).  True iff the quotient digraph is acyclic.
    """
    adj: list[set[int]] = [set() for _ in range(num_blocks)]
    for u, v in zip(bsrcs, bdsts):
        adj[u].add(v)
    indeg = [0] * num_blocks
    for outs in adj:
        for v in outs:
            indeg[v] += 1
    frontier = [b for b in range(num_blocks) if indeg[b] == 0]
    seen = 0
    while frontier:
        b = frontier.pop()
        seen += 1
        for v in adj[b]:
            indeg[v] -= 1
            if indeg[v] == 0:
                frontier.append(v)
    return seen == num_blocks
