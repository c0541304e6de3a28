"""Immutable directed acyclic graphs with bitset reachability.

This module provides the :class:`Dag` class used throughout the library to
represent the graph part of a computation (Definition 1 of Frigo &
Luchangco).  Nodes are the integers ``0 .. n-1``; edges are ordered pairs.

Design notes
------------
* **Immutability.**  A :class:`Dag` never changes after construction, so the
  (potentially expensive) transitive closure is computed once, lazily, and
  cached.  All derived objects (computations, observer functions) may safely
  share a dag.
* **Bitsets.**  Reachability sets are stored as Python integers used as
  bitsets (bit ``v`` of ``desc[u]`` is set iff ``u ≺ v`` strictly).  Bitwise
  AND/OR on machine-word chunks makes closure computation and the
  ``between(u, w)`` queries used by the dag-consistency checkers fast even
  for dags with thousands of nodes, without requiring a compiled extension.
* **Strictness.**  ``u ≺ v`` (:meth:`Dag.precedes`) denotes a *non-empty*
  path, matching the paper's strict precedence.  ``u ⪯ v``
  (:meth:`Dag.precedes_eq`) additionally holds when ``u == v``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import CycleError, InvalidComputationError

__all__ = ["Dag", "bits", "bit_indices"]


def bits(indices: Iterable[int]) -> int:
    """Pack an iterable of bit indices into an integer bitset."""
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the indices of set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Dag:
    """A finite directed acyclic graph on nodes ``0 .. n-1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes.  Nodes are identified by integers in
        ``range(num_nodes)``.
    edges:
        Iterable of ``(u, v)`` pairs.  Duplicate edges are collapsed;
        self-loops raise :class:`~repro.errors.CycleError`; any directed
        cycle raises :class:`~repro.errors.CycleError` at construction time.

    Raises
    ------
    InvalidComputationError
        If an edge endpoint falls outside ``range(num_nodes)``.
    CycleError
        If the edge set contains a directed cycle (including self-loops).
    """

    __slots__ = (
        "_n",
        "_succ",
        "_pred",
        "_pred_tuples",
        "_edges",
        "_closure_rows",
        "_topo",
        "_hash",
    )

    def __init__(self, num_nodes: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if num_nodes < 0:
            raise InvalidComputationError(f"num_nodes must be >= 0, got {num_nodes}")
        self._n = int(num_nodes)
        succ = [0] * self._n
        pred = [0] * self._n
        edge_set: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < self._n and 0 <= v < self._n):
                raise InvalidComputationError(
                    f"edge ({u}, {v}) out of range for {self._n} nodes"
                )
            if u == v:
                raise CycleError(f"self-loop at node {u}")
            if (u, v) in edge_set:
                continue
            edge_set.add((u, v))
            succ[u] |= 1 << v
            pred[v] |= 1 << u
        self._succ: list[int] = succ
        self._pred: list[int] = pred
        self._pred_tuples: tuple[tuple[int, ...], ...] | None = None
        self._edges: frozenset[tuple[int, int]] = frozenset(edge_set)
        # (descendant rows, ancestor rows), built on first use; one slot
        # for both keeps every Dag instance as small as it was.
        self._closure_rows: tuple[list[int], list[int]] | None = None
        self._topo: tuple[int, ...] = self._toposort_once()
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes of the dag."""
        return self._n

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set as a frozenset of ``(u, v)`` pairs."""
        return self._edges

    @property
    def num_edges(self) -> int:
        """Number of (distinct) edges."""
        return len(self._edges)

    def nodes(self) -> range:
        """The node set, as a ``range``."""
        return range(self._n)

    def successors(self, u: int) -> Iterator[int]:
        """Iterate over direct successors of ``u``."""
        return bit_indices(self._succ[u])

    def predecessors(self, u: int) -> Iterator[int]:
        """Iterate over direct predecessors of ``u``."""
        return bit_indices(self._pred[u])

    @property
    def predecessor_tuples(self) -> tuple[tuple[int, ...], ...]:
        """Direct predecessors of every node, ascending (built once)."""
        if self._pred_tuples is None:
            self._pred_tuples = tuple(tuple(bit_indices(m)) for m in self._pred)
        return self._pred_tuples

    def successor_mask(self, u: int) -> int:
        """Direct successors of ``u`` as a bitset."""
        return self._succ[u]

    def predecessor_mask(self, u: int) -> int:
        """Direct predecessors of ``u`` as a bitset."""
        return self._pred[u]

    def in_degree(self, u: int) -> int:
        """Number of direct predecessors of ``u``."""
        return self._pred[u].bit_count()

    def out_degree(self, u: int) -> int:
        """Number of direct successors of ``u``."""
        return self._succ[u].bit_count()

    def sources(self) -> list[int]:
        """Nodes with no predecessors."""
        return [u for u in range(self._n) if not self._pred[u]]

    def sinks(self) -> list[int]:
        """Nodes with no successors."""
        return [u for u in range(self._n) if not self._succ[u]]

    # ------------------------------------------------------------------
    # Topological order and closure
    # ------------------------------------------------------------------

    def _toposort_once(self) -> tuple[int, ...]:
        """Kahn's algorithm; raises CycleError if the graph is cyclic."""
        indeg = [self._pred[u].bit_count() for u in range(self._n)]
        frontier = [u for u in range(self._n) if indeg[u] == 0]
        order: list[int] = []
        while frontier:
            u = frontier.pop()
            order.append(u)
            for v in bit_indices(self._succ[u]):
                indeg[v] -= 1
                if indeg[v] == 0:
                    frontier.append(v)
        if len(order) != self._n:
            raise CycleError("graph contains a directed cycle")
        return tuple(order)

    @property
    def topological_order(self) -> tuple[int, ...]:
        """One fixed topological order of the nodes (computed at init)."""
        return self._topo

    def _closure(self) -> tuple[list[int], list[int]]:
        """Compute (and cache) strict descendant/ancestor bitsets.

        Delegates to :func:`repro.kernels.closure`.
        """
        if self._closure_rows is None:
            from repro import kernels

            self._closure_rows = kernels.closure(
                self._n, self._succ, self._pred, self._topo
            )
        return self._closure_rows

    def descendants_mask(self, u: int) -> int:
        """Bitset of nodes strictly reachable from ``u`` (``u`` excluded)."""
        return self._closure()[0][u]

    def ancestors_mask(self, u: int) -> int:
        """Bitset of nodes from which ``u`` is strictly reachable."""
        return self._closure()[1][u]

    def descendants(self, u: int) -> Iterator[int]:
        """Iterate over strict descendants of ``u``."""
        return bit_indices(self.descendants_mask(u))

    def ancestors(self, u: int) -> Iterator[int]:
        """Iterate over strict ancestors of ``u``."""
        return bit_indices(self.ancestors_mask(u))

    def precedes(self, u: int, v: int) -> bool:
        """Strict precedence ``u ≺ v``: a non-empty path from ``u`` to ``v``."""
        return bool(self.descendants_mask(u) & (1 << v))

    def precedes_eq(self, u: int, v: int) -> bool:
        """Reflexive precedence ``u ⪯ v``."""
        return u == v or self.precedes(u, v)

    def between_mask(self, u: int, w: int) -> int:
        """Bitset of nodes ``v`` with ``u ≺ v ≺ w`` (both strict)."""
        return self.descendants_mask(u) & self.ancestors_mask(w)

    def comparable(self, u: int, v: int) -> bool:
        """True iff ``u ≺ v`` or ``v ≺ u`` or ``u == v``."""
        return u == v or self.precedes(u, v) or self.precedes(v, u)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def induced_subgraph(self, keep: Sequence[int]) -> tuple["Dag", list[int]]:
        """Subgraph induced by the nodes in ``keep``.

        Returns the new dag (nodes renumbered ``0 .. len(keep)-1`` in the
        order given) and the list mapping new node ids to old node ids.
        """
        keep = list(keep)
        if len(set(keep)) != len(keep):
            raise InvalidComputationError("induced_subgraph: duplicate nodes in keep")
        index = {old: new for new, old in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for (u, v) in self._edges
            if u in index and v in index
        ]
        return Dag(len(keep), edges), keep

    def with_edges_removed(self, remove: Iterable[tuple[int, int]]) -> "Dag":
        """A relaxation of this dag: same nodes, with ``remove`` edges dropped."""
        drop = set(remove)
        return Dag(self._n, (e for e in self._edges if e not in drop))

    def add_final_node(self) -> "Dag":
        """The dag of the augmented computation (Definition 11).

        Returns a dag with one extra node ``n`` (the "final" node) that is a
        direct successor of every existing node.
        """
        n = self._n
        edges = list(self._edges) + [(u, n) for u in range(n)]
        return Dag(n + 1, edges)

    def transitive_reduction_edges(self) -> frozenset[tuple[int, int]]:
        """Edges of the transitive reduction (the minimal equivalent dag)."""
        keep = []
        for (u, v) in self._edges:
            # (u, v) is redundant iff some other successor of u reaches v.
            redundant = False
            for w in bit_indices(self._succ[u] & ~(1 << v)):
                if w == v:
                    continue
                if self.precedes_eq(w, v):
                    redundant = True
                    break
            if not redundant:
                keep.append((u, v))
        return frozenset(keep)

    def is_prefix_node_set(self, mask: int) -> bool:
        """True iff the nodes in ``mask`` form a downset (prefix) of the dag.

        A node set is a prefix iff it is closed under predecessors, which is
        the node-set condition of the paper's prefix definition.
        """
        for u in bit_indices(mask):
            if self._pred[u] & ~mask:
                return False
        return True

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._n, self._edges))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dag(num_nodes={self._n}, edges={sorted(self._edges)})"
