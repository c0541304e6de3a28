"""Observer functions (Definition 2 of the paper).

An observer function ``Φ`` assigns, to every location ``l`` and every node
``u`` of a computation, the *write node whose value u observes at l* — or
``⊥`` when no write has been observed.  Reads receive the value written by
the node they observe; nodes that do not read still carry a "viewpoint" on
memory, which is what lets a no-op act as synchronization.

Definition 2 imposes three conditions:

2.1  every observed node writes the observed location;
2.2  a node never (strictly) precedes the node it observes;
2.3  every write observes itself.

Representation
--------------
``⊥`` is represented by ``None``.  The mapping is stored per location as a
tuple indexed by node id.  Locations absent from the mapping implicitly
map every node to ``⊥`` — this models the paper's (possibly infinite) set
``L`` of locations without materializing it.  ``Φ(l, ⊥) = ⊥`` always
(forced by condition 2.2), so the ``⊥`` row is not stored.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.computation import Computation
from repro.core.ops import Location
from repro.errors import InvalidObserverError

__all__ = [
    "ObserverFunction",
    "candidate_values",
    "count_observer_functions",
    "relabel_observer",
]

BOT = None
"""Alias documenting that ``None`` plays the role of the paper's ``⊥``."""


def candidate_values(
    comp: Computation, loc: Location, u: int
) -> list[int | None]:
    """All values ``Φ(loc, u)`` may legally take (Definition 2, pointwise).

    For a write to ``loc`` the only candidate is ``u`` itself (2.3);
    otherwise the candidates are ``⊥`` and every write ``w`` to ``loc``
    that ``u`` does not strictly precede (2.1 + 2.2).
    """
    op = comp.op(u)
    if op.writes(loc):
        return [u]
    out: list[int | None] = [None]
    for w in comp.writers(loc):
        if not comp.precedes(u, w):
            out.append(w)
    return out


class ObserverFunction:
    """An observer function for a fixed computation.

    Parameters
    ----------
    comp:
        The computation this observer function belongs to.
    mapping:
        ``{location: values}`` where ``values[u]`` is the observed write
        node for node ``u`` (``None`` for ``⊥``).  Locations that every
        node observes as ``⊥`` may be omitted.
    validate:
        When true (default), check Definition 2 and raise
        :class:`~repro.errors.InvalidObserverError` on violation.
    """

    __slots__ = ("_comp", "_map", "_hash", "_locs")

    def __init__(
        self,
        comp: Computation,
        mapping: Mapping[Location, Sequence[int | None]],
        validate: bool = True,
    ) -> None:
        self._comp = comp
        norm: dict[Location, tuple[int | None, ...]] = {}
        n = comp.num_nodes
        for loc, values in mapping.items():
            row = tuple(values)
            if len(row) != n:
                raise InvalidObserverError(
                    f"row for location {loc!r} has {len(row)} entries, expected {n}"
                )
            # Drop all-⊥ rows: they are the implicit default.
            if any(v is not None for v in row):
                norm[loc] = row
        self._map = norm
        self._hash: int | None = None
        self._locs: tuple[Location, ...] | None = None
        if validate:
            self._validate()
        # Even when callers skip full validation, writes must observe
        # themselves for *implicit* rows to be legal: a location with a
        # write can never be an all-⊥ row.
        elif any(
            comp.writers_mask(loc) and loc not in norm for loc in comp.locations
        ):
            raise InvalidObserverError(
                "a location with writes cannot have an implicit all-bottom row"
            )

    def _validate(self) -> None:
        comp = self._comp
        for loc in set(self._map) | set(comp.locations):
            row = self._map.get(loc)
            for u in comp.nodes():
                v = None if row is None else row[u]
                op = comp.op(u)
                if op.writes(loc):
                    if v != u:  # condition 2.3
                        raise InvalidObserverError(
                            f"write node {u} must observe itself at {loc!r}, got {v!r}"
                        )
                    continue
                if v is None:
                    continue
                if not (0 <= v < comp.num_nodes):
                    raise InvalidObserverError(
                        f"Φ({loc!r}, {u}) = {v} is not a node"
                    )
                if not comp.op(v).writes(loc):  # condition 2.1
                    raise InvalidObserverError(
                        f"Φ({loc!r}, {u}) = {v} which does not write {loc!r}"
                    )
                if comp.precedes(u, v):  # condition 2.2
                    raise InvalidObserverError(
                        f"node {u} precedes its observed write {v} at {loc!r}"
                    )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def computation(self) -> Computation:
        """The computation this observer function is for."""
        return self._comp

    @property
    def locations(self) -> tuple[Location, ...]:
        """Locations with an explicit (not all-⊥) row, sorted by repr."""
        if self._locs is None:
            self._locs = tuple(sorted(self._map, key=repr))
        return self._locs

    def value(self, loc: Location, u: int | None) -> int | None:
        """``Φ(loc, u)``; ``u = None`` denotes ``⊥`` (and returns ``⊥``)."""
        if u is None:
            return None
        row = self._map.get(loc)
        return None if row is None else row[u]

    def __call__(self, loc: Location, u: int | None) -> int | None:
        return self.value(loc, u)

    def row(self, loc: Location) -> tuple[int | None, ...]:
        """The full tuple ``(Φ(loc, 0), ..., Φ(loc, n-1))``."""
        row = self._map.get(loc)
        if row is None:
            return (None,) * self._comp.num_nodes
        return row

    def fibers(self, loc: Location) -> dict[int | None, int]:
        """Partition of nodes by observed value at ``loc``, as bitsets.

        Returns ``{observed_value: node_bitset}``; the key ``None`` is the
        ``⊥`` fiber (present only if non-empty).  Fibers are the "blocks"
        of the polynomial LC membership algorithm and what the
        dag-consistency checks read.
        """
        out: dict[int | None, int] = {}
        for u, v in enumerate(self.row(loc)):
            out[v] = out.get(v, 0) | (1 << u)
        return out

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------

    def restrict_to_prefix(self, prefix: Computation) -> "ObserverFunction":
        """Restriction ``Φ|_C`` to an identity-embedded prefix of the
        computation (the prefix's nodes must be ``0 .. k-1``)."""
        if not prefix.is_prefix_of(self._comp):
            raise InvalidObserverError(
                "restrict_to_prefix: argument is not a prefix of the computation"
            )
        k = prefix.num_nodes
        return ObserverFunction(
            prefix,
            {loc: row[:k] for loc, row in self._map.items()},
            validate=False,
        )

    def extends(self, other: "ObserverFunction") -> bool:
        """True iff ``other`` is the restriction of ``self`` to its
        (identity-embedded, prefix) computation: ``self|_C == other``."""
        if not other._comp.is_prefix_of(self._comp):
            return False
        k = other._comp.num_nodes
        locs = set(self._map) | set(other._map)
        return all(self.row(loc)[:k] == other.row(loc) for loc in locs)

    def with_value(
        self, loc: Location, u: int, v: int | None, validate: bool = True
    ) -> "ObserverFunction":
        """A copy with ``Φ(loc, u)`` replaced by ``v``."""
        row = list(self.row(loc))
        row[u] = v
        mapping = dict(self._map)
        mapping[loc] = tuple(row)
        return ObserverFunction(self._comp, mapping, validate=validate)

    def relabel(
        self, new_comp: Computation, old_ids: Sequence[int]
    ) -> "ObserverFunction":
        """Transport this observer function onto a renumbered subcomputation.

        ``old_ids[new]`` gives the node of ``self.computation`` that node
        ``new`` of ``new_comp`` corresponds to.  Values observed outside
        the kept node set become ``⊥`` is **not** allowed — Definition 2
        would silently break — so such values raise.
        """
        index = {old: new for new, old in enumerate(old_ids)}
        mapping: dict[Location, list[int | None]] = {}
        for loc in self._map:
            new_row: list[int | None] = []
            for old in old_ids:
                v = self.value(loc, old)
                if v is None:
                    new_row.append(None)
                elif v in index:
                    new_row.append(index[v])
                else:
                    raise InvalidObserverError(
                        f"relabel: observed node {v} not in kept node set"
                    )
            mapping[loc] = new_row
        return ObserverFunction(new_comp, mapping, validate=False)

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    @staticmethod
    def enumerate_all(
        comp: Computation, locations: Iterable[Location] | None = None
    ) -> Iterator["ObserverFunction"]:
        """Yield every valid observer function for ``comp``.

        ``locations`` defaults to the computation's own locations; adding
        extra locations is pointless (their rows are forced to all-⊥).
        The count is the product over (location, node) of the candidate
        counts, so keep computations small.
        """
        locs = tuple(locations) if locations is not None else comp.locations
        if not locs:
            yield ObserverFunction(comp, {}, validate=False)
            return
        # The rows are generated legal, so each observer skips __init__'s
        # re-checks; only the implicit-row check depends on ``locs`` alone.
        if any(comp.writers_mask(loc) and loc not in locs for loc in comp.locations):
            raise InvalidObserverError(
                "a location with writes cannot have an implicit all-bottom row"
            )
        # One (location, row) item per candidate row; ``None`` for the
        # all-⊥ row, which the normal form omits.
        per_loc_items: list[list[tuple[Location, tuple[int | None, ...]] | None]] = []
        for loc in locs:
            node_cands = [candidate_values(comp, loc, u) for u in comp.nodes()]
            per_loc_items.append(
                [
                    (loc, row) if any(v is not None for v in row) else None
                    for row in product(*node_cands)
                ]
            )
        for items in product(*per_loc_items):
            yield ObserverFunction._normalized(
                comp, dict(item for item in items if item is not None)
            )

    @classmethod
    def _normalized(
        cls, comp: Computation, norm: dict[Location, tuple[int | None, ...]]
    ) -> "ObserverFunction":
        """An observer over rows already in normal form (full-length
        tuples, no all-⊥ row) and legal for ``comp``; nothing is checked."""
        self = object.__new__(cls)
        self._comp = comp
        self._map = norm
        self._hash = None
        self._locs = None
        return self

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObserverFunction):
            return NotImplemented
        return self._comp == other._comp and self._map == other._map

    def __hash__(self) -> int:
        if self._hash is None:
            items = tuple(sorted(self._map.items(), key=lambda kv: repr(kv[0])))
            self._hash = hash((self._comp, items))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = {loc: list(row) for loc, row in sorted(self._map.items(), key=lambda kv: repr(kv[0]))}
        return f"ObserverFunction({rows})"


def count_observer_functions(
    comp: Computation, locations: Iterable[Location] | None = None
) -> int:
    """Number of valid observer functions for ``comp`` (without enumerating)."""
    locs = tuple(locations) if locations is not None else comp.locations
    total = 1
    for loc in locs:
        for u in comp.nodes():
            total *= len(candidate_values(comp, loc, u))
    return total


def relabel_observer(
    phi: "ObserverFunction", perm, new_comp
) -> "ObserverFunction":
    """Transport an observer function along a node relabelling.

    ``new_comp`` must be ``relabel_computation(phi.computation, perm)``.
    ``Φ'(l, perm[u]) = perm[Φ(l, u)]`` (with ⊥ fixed).
    """
    n = phi.computation.num_nodes
    mapping = {}
    for loc in phi.locations:
        row: list[int | None] = [None] * n
        old_row = phi.row(loc)
        for u in range(n):
            v = old_row[u]
            row[perm[u]] = None if v is None else perm[v]
        mapping[loc] = tuple(row)
    return ObserverFunction(new_comp, mapping, validate=True)
