"""SP-bags determinacy-race detection and lockset analysis.

The Feng–Leiserson *SP-bags* algorithm [FL97, "An Empirical Comparison
of Monitoring Algorithms for Access Anomaly Detection"] detects
determinacy races in a series-parallel computation in near-linear time
— one serial left-to-right walk of the SP expression with a union-find
of "bags", no transitive closure anywhere.  This is the detector Cilk
shipped alongside dag consistency, and the reason race checking scales
to the thousands-of-nodes computations :mod:`repro.lang.programs`
unfolds where the exact sweep (:func:`repro.verify.races.find_races`)
pays for reachability rows.

How it maps onto this codebase:

* The SP expression comes from :attr:`repro.lang.cilk.UnfoldInfo.sp`
  (recorded during ``unfold``) or, for bare computations, from
  :func:`repro.dag.sp.sp_decompose`.
* Every bag is a union-find set whose root is marked ``"S"`` (serially
  before the walk's current position) or ``"P"`` (parallel to it).
  Leaves start in their own S-bag; finishing the *i*-th child of a
  parallel node flips its bag to P (parallel with the remaining
  siblings); finishing the parallel node itself — the sync — flips the
  merged bag back to S.
* Per location the walk keeps one shadow writer and one shadow reader;
  an access races exactly when the recorded accessor's bag finds to P.

Guarantee (Feng–Leiserson): for every location, at least one race on
that location is reported iff the location is racy — so the *racy
location sets* of SP-bags and the exact sweep coincide, and every pair
SP-bags reports is a genuine race, but it does not enumerate all
``O(n^2)`` racing pairs.  Both facts are property-tested exhaustively
against :func:`~repro.verify.races.find_races`.  It is the fast path
of the race pass: ``repro lint`` runs it whenever the dag is
series-parallel and falls back to the closure sweep otherwise.

The lockset extension (in the spirit of Cheng et al.'s ALL-SETS /
BRELLY) classifies each determinacy race by the locks held on both
sides: a race whose sides hold no common lock is a genuine *data race*
even under lock serialization; a common lock makes it *lock-mediated*
— ordered once :mod:`repro.locks` serializes the sections, which is a
per-execution choice the bare dag does not encode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro import obs
from repro.core.computation import Computation
from repro.dag.digraph import bit_indices
from repro.dag.sp import SPNode, sp_decompose
from repro.verify.races import Race

__all__ = [
    "spbags_races",
    "node_locksets",
    "ClassifiedRace",
    "classify_races",
]


class _DSU:
    """Union-find over bags; each root carries an ``"S"``/``"P"`` kind."""

    __slots__ = ("parent", "rank", "kinds")

    def __init__(self) -> None:
        self.parent: list[int] = []
        self.rank: list[int] = []
        self.kinds: list[str] = []

    def make(self, kind: str) -> int:
        x = len(self.parent)
        self.parent.append(x)
        self.rank.append(0)
        self.kinds.append(kind)
        return x

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return ra

    def kind(self, x: int) -> str:
        return self.kinds[self.find(x)]

    def set_kind(self, x: int, kind: str) -> None:
        self.kinds[self.find(x)] = kind


def spbags_races(
    comp: Computation, sp: SPNode | None = None
) -> list[Race]:
    """Run SP-bags over ``comp``; returns the detected races.

    ``sp`` is the computation's series-parallel expression with node
    ids as leaf payloads — pass :attr:`UnfoldInfo.sp` when you have it;
    otherwise it is recovered with :func:`sp_decompose` (quadratic, and
    raises :class:`ValueError` if the dag is not series-parallel).

    Races come out normalized like :func:`find_races`' (``u < v``, same
    kinds) in shadow-state discovery order; per racy location at least
    one pair is reported, and nothing is reported for race-free ones.
    """
    if sp is None:
        sp = sp_decompose(comp.dag)
        if sp is None:
            raise ValueError(
                "computation's dag is not series-parallel; "
                "SP-bags needs an SP expression"
            )
    with obs.span("verify.spbags", nodes=comp.num_nodes) as spn:
        races = _spbags_walk(comp, sp)
        if spn is not None:
            spn.attrs["races"] = len(races)
    if obs.enabled():
        obs.add("spbags.runs")
        obs.add("spbags.races", len(races))
    return races


def _spbags_walk(comp: Computation, sp: SPNode) -> list[Race]:
    ops = comp.ops
    dsu = _DSU()
    leaf_bag: dict[int, int] = {}
    shadow_writer: dict[object, int] = {}
    shadow_reader: dict[object, int] = {}
    races: list[Race] = []

    def report(loc: object, a: int, b: int) -> None:
        u, v = (a, b) if a < b else (b, a)
        kind = (
            "write-write"
            if ops[u].is_write and ops[v].is_write
            else "read-write"
        )
        races.append(Race(loc, u, v, kind))

    def access(u: int) -> None:
        op = ops[u]
        loc = op.loc
        if loc is None:
            return
        if op.is_write:
            r = shadow_reader.get(loc)
            if r is not None and dsu.kind(leaf_bag[r]) == "P":
                report(loc, r, u)
            w = shadow_writer.get(loc)
            if w is not None and dsu.kind(leaf_bag[w]) == "P":
                report(loc, w, u)
            shadow_writer[loc] = u
        else:
            w = shadow_writer.get(loc)
            if w is not None and dsu.kind(leaf_bag[w]) == "P":
                report(loc, w, u)
            r = shadow_reader.get(loc)
            if r is None or dsu.kind(leaf_bag[r]) == "S":
                shadow_reader[loc] = u

    # Iterative serial walk.  Frame: [node, next-child index, acc bag].
    # ``returned`` carries the bag of the subtree that just completed;
    # revisiting a frame with children started folds it into the
    # accumulator — marked P under a parallel node (it is parallel to
    # the siblings still to run), S under a series node.
    next_leaf = 0
    returned = -1
    stack: list[list] = [[sp, 0, -1]]
    while stack:
        frame = stack[-1]
        node: SPNode = frame[0]
        if node.kind == "leaf":
            payload = node.payload
            u = next_leaf if payload is None else int(payload)  # type: ignore[call-overload]
            next_leaf += 1
            bag = dsu.make("S")
            leaf_bag[u] = bag
            access(u)
            returned = bag
            stack.pop()
            continue
        if frame[1] > 0:
            frame[2] = (
                returned if frame[2] < 0 else dsu.union(frame[2], returned)
            )
            dsu.set_kind(
                frame[2], "P" if node.kind == "parallel" else "S"
            )
        if frame[1] < len(node.children):
            child = node.children[frame[1]]
            frame[1] += 1
            stack.append([child, 0, -1])
            continue
        if node.kind == "parallel":
            dsu.set_kind(frame[2], "S")  # the sync: serial from here on
        returned = frame[2]
        stack.pop()
    return races


def node_locksets(
    comp: Computation,
    lock_sections: dict[object, list[tuple[int, int]]],
) -> tuple[frozenset, ...]:
    """The set of locks held at each node, indexed by node id.

    A node holds lock ``L`` iff some recorded section ``(a, r)`` on
    ``L`` brackets it in the dag: ``a ⪯ u ⪯ r``.  (Ops spawned inside a
    section but not synced before the release are genuinely *not*
    bracketed — they escape the critical section, exactly the bug this
    analysis exists to expose.)  Computed as one betweenness mask per
    section from the cached reachability rows.
    """
    dag = comp.dag
    held: list[set] = [set() for _ in range(dag.num_nodes)]
    for lock, sections in lock_sections.items():
        for a, r in sections:
            between = (dag.descendants_mask(a) | (1 << a)) & (
                dag.ancestors_mask(r) | (1 << r)
            )
            for u in bit_indices(between):
                held[u].add(lock)
    return tuple(frozenset(s) for s in held)


@dataclass(frozen=True)
class ClassifiedRace:
    """A determinacy race annotated with the locks held on each side.

    ``classification`` is ``"data-race"`` when the two sides hold no
    common lock (no serialization of lock sections can order them) and
    ``"lock-mediated"`` otherwise (a common lock means
    :mod:`repro.locks`-style section serialization orders the pair —
    the race is a scheduling artifact of the bare dag, not a bug).
    """

    race: Race
    locks_u: frozenset
    locks_v: frozenset

    @property
    def classification(self) -> str:
        return (
            "lock-mediated"
            if self.locks_u & self.locks_v
            else "data-race"
        )


def classify_races(
    races: Iterable[Race], locksets: Sequence[frozenset]
) -> list[ClassifiedRace]:
    """Annotate each race with both sides' locksets (ALL-SETS style)."""
    return [
        ClassifiedRace(r, locksets[r.u], locksets[r.v]) for r in races
    ]
