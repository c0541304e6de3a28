"""Post-mortem verification of execution traces against memory models.

Section 1 of the paper motivates computations as "a means for post
mortem analysis, to verify whether a system meets a specification by
checking its behavior after it has finished executing".  This module is
that verifier.  A trace determines a *partial* observer function
(constrained at reads and writes); verification asks whether some total
observer function completing it belongs to the model.

* :func:`trace_admits_lc` — exact and polynomial.  The block-partition
  argument of :mod:`repro.models.membership` lifts to partial functions:
  group the constrained nodes of each location into fibers, build the
  quotient under *precedence* (paths may run through unconstrained
  nodes, so closure — not just direct edges — matters here), and check
  acyclicity with the ⊥ fiber in-edge-free.  Unconstrained nodes are
  always placeable: for the chosen block order, assign each the maximum
  of its predecessors' blocks; pairwise quotient edges guarantee this
  never exceeds a successor's block.
* :func:`lc_completion` — the certificate: a *total* observer function
  in LC completing the trace (built from per-location witness sorts).
* :func:`trace_admits_sc` — exact, worst-case exponential (the problem
  is NP-complete, Gibbons & Korach 1992): incremental construction of a
  single witnessing sort with failed-state memoization.
* :func:`find_completion` — generic bounded completion search for any
  model (used to check traces against dag-consistency models on small
  computations).
* :func:`admits` — the one admission check every caller asks; it picks
  a procedure above and owns the SC node cap and the completion budget.
"""

from __future__ import annotations

import time
from typing import Iterator, NamedTuple

from repro import obs
from repro.core.computation import Computation
from repro.core.last_writer import last_writer_row
from repro.core.observer import ObserverFunction, candidate_values
from repro.core.ops import Location
from repro.dag.digraph import bit_indices
from repro.models import MODELS
from repro.models.base import MemoryModel
from repro.runtime.trace import ExecutionTrace, PartialObserver

__all__ = [
    "Admission",
    "admits",
    "trace_admits_lc",
    "lc_trace_orders",
    "lc_completion",
    "trace_admits_sc",
    "find_completion",
]


def _constraints_with_writes(
    partial: PartialObserver, loc: Location
) -> dict[int, int | None]:
    """Constrained entries at ``loc``, plus the forced write self-entries."""
    comp = partial.comp
    row = partial.constrained(loc)
    for w in comp.writers(loc):
        row[w] = w
    return row


def _location_admissible(
    comp: Computation, constraints: dict[int, int | None]
) -> tuple[list[int | None], dict[int | None, int]] | None:
    """Partial-row block check at one location.

    Returns ``(block_order, fibers)`` — a valid linear order of blocks
    (⊥ first when present) and the fiber bitsets — or ``None`` when the
    constraints are unsatisfiable.
    """
    if not constraints:
        return [], {}
    # Fibers over constrained nodes only.
    fibers: dict[int | None, int] = {}
    for u, v in constraints.items():
        fibers[v] = fibers.get(v, 0) | (1 << u)
    # Precedence quotient over constrained nodes.
    adj: dict[int | None, set[int | None]] = {b: set() for b in fibers}
    constrained_mask = 0
    block_of: dict[int, int | None] = {}
    for u, v in constraints.items():
        constrained_mask |= 1 << u
        block_of[u] = v
    dag = comp.dag
    for u in constraints:
        bu = block_of[u]
        for v in bit_indices(dag.descendants_mask(u) & constrained_mask):
            bv = block_of[v]
            if bv != bu:
                adj[bu].add(bv)
    # ⊥ fiber must have no in-edges.
    if None in fibers:
        for b, outs in adj.items():
            if None in outs:
                return None
    # Topological order of blocks, ⊥ first.
    indeg = {b: 0 for b in fibers}
    for b, outs in adj.items():
        for c in outs:
            indeg[c] += 1
    order: list[int | None] = []
    if None in fibers:
        order.append(None)
        for c in adj[None]:
            indeg[c] -= 1
    frontier = [b for b in fibers if b is not None and indeg[b] == 0]
    while frontier:
        b = frontier.pop()
        order.append(b)
        for c in adj[b]:
            indeg[c] -= 1
            if indeg[c] == 0:
                frontier.append(c)
    if len(order) != len(fibers):
        return None  # quotient cycle
    return order, fibers


def trace_admits_lc(partial: PartialObserver) -> bool:
    """True iff some LC observer function completes the trace (polynomial)."""
    comp = partial.comp
    locs = set(partial.locations) | set(comp.locations)
    with obs.span("verify.lc", nodes=comp.num_nodes, locs=len(locs)) as sp:
        t0 = time.perf_counter()
        admitted = all(
            _location_admissible(comp, _constraints_with_writes(partial, loc))
            is not None
            for loc in locs
        )
        if sp is not None:
            sp.attrs["admitted"] = admitted
    if obs.enabled():
        obs.add("verify.lc.admitted" if admitted else "verify.lc.rejected")
        obs.observe("verify.lc.seconds", time.perf_counter() - t0)
    return admitted


def _witness_order_for_location(
    comp: Computation, constraints: dict[int, int | None]
) -> tuple[int, ...] | None:
    """A full topological sort whose last-writer row matches ``constraints``."""
    result = _location_admissible(comp, constraints)
    if result is None:
        return None
    block_order, fibers = result
    n = comp.num_nodes
    if not block_order:
        return comp.dag.topological_order
    ord_of_block = {b: i for i, b in enumerate(block_order)}
    # Assign every node a block index: constrained nodes keep theirs;
    # unconstrained nodes take the max of their predecessors' (0 if none).
    idx = [0] * n
    for u in comp.dag.topological_order:
        if u in constraints:
            idx[u] = ord_of_block[constraints[u]]
        else:
            preds = list(comp.dag.predecessors(u))
            idx[u] = max((idx[p] for p in preds), default=0)
    # Build T block by block.  Within a write's block, force the write
    # before every constrained observer (virtual edges; acyclic because
    # an observer never precedes its write — condition 2.2).
    order: list[int] = []
    for bi, b in enumerate(block_order):
        members = [u for u in range(n) if idx[u] == bi]
        member_set = set(members)
        extra_succ: dict[int, list[int]] = {}
        if b is not None and b in member_set:
            extra_succ[b] = [
                u for u in members if u != b and constraints.get(u, None) == b
            ]
        indeg = {
            u: sum(1 for p in comp.dag.predecessors(u) if p in member_set)
            for u in members
        }
        for u in extra_succ.get(b, []) if b is not None else []:
            indeg[u] += 1
        avail = sorted(u for u in members if indeg[u] == 0)
        placed_before = len(order)
        while avail:
            u = avail.pop(0)
            order.append(u)
            succs = [v for v in comp.dag.successors(u) if v in member_set]
            succs += extra_succ.get(u, [])
            for v in succs:
                indeg[v] -= 1
                if indeg[v] == 0:
                    avail.append(v)
        assert len(order) - placed_before == len(members), (
            "block subgraph with virtual write edges must stay acyclic"
        )
    assert len(order) == n
    return tuple(order)


def lc_completion(partial: PartialObserver) -> ObserverFunction | None:
    """A total LC observer function completing the trace, or ``None``.

    Built per location from the witness sort's last-writer row, so the
    result is in LC by construction; the function also asserts it indeed
    completes the input constraints.
    """
    comp = partial.comp
    orders = lc_trace_orders(partial)
    if orders is None:
        return None
    mapping: dict[Location, tuple[int | None, ...]] = {}
    for loc, order in orders.items():
        constraints = _constraints_with_writes(partial, loc)
        row = last_writer_row(comp, order, loc)
        for u, v in constraints.items():
            assert row[u] == v, "witness order must reproduce the constraints"
        mapping[loc] = row
    phi = ObserverFunction(comp, mapping, validate=True)
    assert partial.is_completion(phi)
    return phi


def trace_admits_sc(partial: PartialObserver) -> tuple[int, ...] | None:
    """A single witnessing sort explaining the whole trace, or ``None``.

    Exact decision of sequential consistency of the trace.  Runs the
    polynomial LC check first (SC ⊆ LC).  The search is the same
    incremental-construction scheme as
    :meth:`repro.models.sequential.SequentialConsistency.witness_order`,
    with constraints enforced only at constrained entries.
    """
    with obs.span("verify.sc", nodes=partial.comp.num_nodes) as sp:
        t0 = time.perf_counter()
        witness = _trace_admits_sc_body(partial)
        if sp is not None:
            sp.attrs["admitted"] = witness is not None
    if obs.enabled():
        obs.add(
            "verify.sc.admitted" if witness is not None else "verify.sc.rejected"
        )
        obs.observe("verify.sc.seconds", time.perf_counter() - t0)
    return witness


def _trace_admits_sc_body(partial: PartialObserver) -> tuple[int, ...] | None:
    if not trace_admits_lc(partial):
        return None
    comp = partial.comp
    n = comp.num_nodes
    locs = tuple(sorted(set(partial.locations) | set(comp.locations), key=repr))
    loc_index = {loc: i for i, loc in enumerate(locs)}
    cons: list[dict[int, int | None]] = [
        _constraints_with_writes(partial, loc) for loc in locs
    ]
    pred_mask = [comp.dag.predecessor_mask(u) for u in range(n)]
    write_at: list[int | None] = [None] * n
    for u in range(n):
        op = comp.op(u)
        if op.is_write:
            write_at[u] = loc_index[op.loc]
    full = (1 << n) - 1
    failed: set[tuple[int, tuple[int | None, ...]]] = set()
    order: list[int] = []

    def search(mask: int, lasts: tuple[int | None, ...]) -> bool:
        if mask == full:
            return True
        key = (mask, lasts)
        if key in failed:
            return False
        for u in range(n):
            if mask & (1 << u) or (pred_mask[u] & ~mask):
                continue
            ok = True
            for i in range(len(locs)):
                if write_at[u] == i:
                    continue
                want = cons[i].get(u, _FREE)
                if want is not _FREE and want != lasts[i]:
                    ok = False
                    break
            if not ok:
                continue
            wi = write_at[u]
            new_lasts = (
                lasts
                if wi is None
                else tuple(u if i == wi else lasts[i] for i in range(len(locs)))
            )
            order.append(u)
            if search(mask | (1 << u), new_lasts):
                return True
            order.pop()
        failed.add(key)
        return False

    if n == 0:
        return ()
    if search(0, (None,) * len(locs)):
        return tuple(order)
    return None


_FREE = object()
"""Sentinel distinguishing "unconstrained" from "constrained to ⊥"."""


COMPLETION_BUDGET = 200_000
"""Default candidate budget of :func:`find_completion`."""


def find_completion(
    model: MemoryModel,
    partial: PartialObserver,
    max_candidates: int = COMPLETION_BUDGET,
) -> ObserverFunction | None:
    """Search for *any* completion of the trace inside ``model``.

    Exhaustive over the free entries' candidate values with a budget
    guard (raises ``ValueError`` when the candidate space exceeds
    ``max_candidates``) — intended for small computations and for
    checking traces against models without a specialized verifier (the
    dag-consistency family).  There is no shortcut here: every
    candidate is tested with ``model.contains``; :func:`admits` is
    where LC-completable traces skip the search for models that
    contain LC.
    """
    comp = partial.comp
    locs = sorted(set(partial.locations) | set(comp.locations), key=repr)
    slots: list[tuple[Location, int, list[int | None]]] = []
    space = 1
    base: dict[Location, list[int | None]] = {}
    for loc in locs:
        constraints = _constraints_with_writes(partial, loc)
        row: list[int | None] = [None] * comp.num_nodes
        for u in comp.nodes():
            if u in constraints:
                row[u] = constraints[u]
            else:
                cands = candidate_values(comp, loc, u)
                slots.append((loc, u, cands))
                space *= len(cands)
        base[loc] = row
    if space > max_candidates:
        raise ValueError(
            f"completion space {space} exceeds budget {max_candidates}; "
            "use trace_admits_lc/trace_admits_sc or a smaller computation"
        )

    def assign(i: int) -> Iterator[None]:
        if i == len(slots):
            yield None
            return
        loc, u, cands = slots[i]
        for v in cands:
            base[loc][u] = v
            yield from assign(i + 1)

    for _ in assign(0):
        phi = ObserverFunction(
            comp,
            {loc: tuple(row) for loc, row in base.items()},
            validate=False,
        )
        if model.contains(comp, phi):
            return phi
    return None


def lc_trace_orders(partial: PartialObserver) -> dict | None:
    """Per-location witness sorts for a trace, or ``None`` if not LC.

    The certificate companion of :func:`trace_admits_lc`: for each
    location a full topological sort ``T_l`` of the computation whose
    last-writer function agrees with every constrained entry — exactly
    Definition 18's existential, specialized to the trace's constraints.
    """
    comp = partial.comp
    locs = sorted(set(partial.locations) | set(comp.locations), key=repr)
    out: dict = {}
    for loc in locs:
        constraints = _constraints_with_writes(partial, loc)
        order = _witness_order_for_location(comp, constraints)
        if order is None:
            return None
        out[loc] = order
    return out


class Admission(NamedTuple):
    """:func:`admits`' answer: ``verdict`` is ``None`` when undecided;
    ``witness`` is SC's witnessing sort when SC admits a trace."""

    verdict: bool | None
    witness: tuple[int, ...] | None = None


def admits(
    model: str,
    document: ObserverFunction | PartialObserver | ExecutionTrace,
    *,
    sc_node_limit: int | None = None,
    completion_budget: int = COMPLETION_BUDGET,
) -> Admission:
    """Does the model named ``model`` (a key of :data:`repro.models.MODELS`)
    admit ``document``?

    A full observer function is tested with ``model.contains``; a trace
    or partial observer needs a completion: :func:`trace_admits_lc`,
    :func:`trace_admits_sc`, else :func:`find_completion` (undecided past
    ``completion_budget``), skipped by NN/NW/WN/WW when LC admits the
    trace (LC ⊆ each, Theorem 22).  SC is undecided above
    ``sc_node_limit`` nodes (``None``: no cap).
    """
    target = MODELS.get(model)
    if target is None:
        raise ValueError(f"unknown model {model!r} (known: {', '.join(MODELS)})")
    if isinstance(document, ExecutionTrace):
        document = document.partial_observer()
    comp = document.computation if isinstance(document, ObserverFunction) else document.comp
    if model == "SC" and sc_node_limit is not None and comp.num_nodes > sc_node_limit:
        return Admission(None)
    if isinstance(document, ObserverFunction):
        return Admission(target.contains(comp, document))
    if model == "LC":
        return Admission(trace_admits_lc(document))
    if model == "SC":
        order = trace_admits_sc(document)
        return Admission(order is not None, order)
    if model in ("NN", "NW", "WN", "WW") and trace_admits_lc(document):
        return Admission(True)
    try:
        phi = find_completion(target, document, completion_budget)
    except ValueError:
        return Admission(None)
    return Admission(phi is not None)
