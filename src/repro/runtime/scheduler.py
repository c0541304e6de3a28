"""Schedulers: mapping computations onto simulated processors.

The paper's central move is separating the *computation* (logical
dependencies) from the *schedule* (which processor executes what, when).
This module produces schedules; :mod:`repro.runtime.executor` runs them
against a memory system.  Memory-model verdicts must be independent of
the schedule — ``tests/test_integration_backer.py`` checks exactly
that.

Two schedulers are provided, both discrete-time with unit-work nodes:

* :func:`greedy_schedule` — a global ready queue; every idle processor
  takes the oldest ready node each step (Graham list scheduling; this is
  the "greedy scheduler" of the Cilk performance bounds).
* :func:`work_stealing_schedule` — per-processor deques with randomized
  stealing, modelling the Cilk runtime: a completed node enables
  successors onto its processor's deque bottom; owners pop from the
  bottom; thieves steal from the top of a uniformly random victim.

Both produce a :class:`Schedule` (validated against dag precedence).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from repro.core.computation import Computation
from repro.dag.digraph import bit_indices
from repro.dag.random_dags import as_rng
from repro.errors import ScheduleError

__all__ = ["Schedule", "greedy_schedule", "work_stealing_schedule", "serial_schedule"]


@dataclass(frozen=True)
class Schedule:
    """A placed-and-timed execution of a computation.

    Attributes
    ----------
    comp:
        The scheduled computation.
    proc_of:
        Processor id per node.
    start_of:
        Start step per node (each node occupies one unit of time).
    num_procs:
        Number of processors used.
    """

    comp: Computation
    proc_of: tuple[int, ...]
    start_of: tuple[int, ...]
    num_procs: int

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check well-formedness: precedence and processor exclusivity."""
        comp = self.comp
        n = comp.num_nodes
        if len(self.proc_of) != n or len(self.start_of) != n:
            raise ScheduleError("schedule arrays must cover every node")
        for (u, v) in comp.dag.edges:
            if self.start_of[u] + 1 > self.start_of[v]:
                raise ScheduleError(
                    f"edge ({u}, {v}) violated: {u} finishes at "
                    f"{self.start_of[u] + 1} but {v} starts at {self.start_of[v]}"
                )
        busy: set[tuple[int, int]] = set()
        for u in range(n):
            key = (self.proc_of[u], self.start_of[u])
            if key in busy:
                raise ScheduleError(f"processor collision at {key}")
            busy.add(key)

    @property
    def makespan(self) -> int:
        """Total number of time steps."""
        if not self.start_of:
            return 0
        return max(self.start_of) + 1

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Nodes in global execution order (time, then processor id).

        The executor serializes same-step nodes by processor id; any
        serialization of truly concurrent unit-time nodes is legitimate.
        Computed once per schedule: the executor and every replay of
        its trace walk this tuple.
        """
        start_of, proc_of = self.start_of, self.proc_of
        return tuple(
            sorted(self.comp.nodes(), key=lambda u: (start_of[u], proc_of[u]))
        )

    @cached_property
    def cross_flags(self) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
        """``(cross_pred, cross_succ)``: per node, whether some direct
        predecessor (successor) runs on another processor.

        One bitset of nodes per processor; a node is cross iff its
        predecessor (successor) mask leaves its own processor's set.
        """
        dag = self.comp.dag
        proc_of = self.proc_of
        n = len(proc_of)
        # Per processor, the nodes it does NOT run, as one bitset each.
        others = {
            p: int("".join("0" if q == p else "1" for q in reversed(proc_of)) or "0", 2)
            for p in set(proc_of)
        }
        pred_mask, succ_mask = dag.predecessor_mask, dag.successor_mask
        cross_pred = tuple(bool(pred_mask(u) & others[proc_of[u]]) for u in range(n))
        cross_succ = tuple(bool(succ_mask(u) & others[proc_of[u]]) for u in range(n))
        return cross_pred, cross_succ

    def execution_order(self) -> list[int]:
        """:attr:`order` as a fresh list."""
        return list(self.order)

    def nodes_on(self, proc: int) -> list[int]:
        """Nodes executed by one processor, in time order."""
        return [u for u in self.order if self.proc_of[u] == proc]


def serial_schedule(comp: Computation) -> Schedule:
    """Everything on processor 0, in the dag's fixed topological order."""
    order = comp.dag.topological_order
    start = [0] * comp.num_nodes
    for t, u in enumerate(order):
        start[u] = t
    return Schedule(comp, (0,) * comp.num_nodes, tuple(start), 1)


def greedy_schedule(
    comp: Computation, num_procs: int, rng: random.Random | int | None = None
) -> Schedule:
    """Graham list scheduling with a FIFO global ready queue.

    ``rng`` only breaks ties among simultaneously-enabled nodes (enabled
    nodes are shuffled before queueing) so different seeds explore
    different legal schedules.
    """
    if num_procs < 1:
        raise ScheduleError("need at least one processor")
    r = as_rng(rng)
    n = comp.num_nodes
    indeg = [comp.dag.in_degree(u) for u in range(n)]
    ready = deque(sorted(u for u in range(n) if indeg[u] == 0))
    proc_of = [0] * n
    start_of = [0] * n
    done = 0
    t = 0
    while done < n:
        running: list[int] = []
        for p in range(num_procs):
            if not ready:
                break
            u = ready.popleft()
            proc_of[u] = p
            start_of[u] = t
            running.append(u)
        if not running:
            raise ScheduleError("deadlock: no ready nodes (cycle?)")
        newly: list[int] = []
        for u in running:
            done += 1
            for v in comp.dag.successors(u):
                indeg[v] -= 1
                if indeg[v] == 0:
                    newly.append(v)
        r.shuffle(newly)
        ready.extend(newly)
        t += 1
    return Schedule(comp, tuple(proc_of), tuple(start_of), num_procs)


def work_stealing_schedule(
    comp: Computation, num_procs: int, rng: random.Random | int | None = None
) -> Schedule:
    """Randomized work stealing in the style of the Cilk runtime.

    Per-processor deques; owners pop newest work (depth-first), idle
    processors steal oldest work (breadth-first) from a uniformly random
    non-empty victim.  Source nodes start on processor 0, modelling a
    root thread that others steal from.
    """
    if num_procs < 1:
        raise ScheduleError("need at least one processor")
    r = as_rng(rng)
    dag = comp.dag
    n = comp.num_nodes
    indeg = [dag.in_degree(u) for u in range(n)]
    succ = dag.successor_mask
    deques: list[deque[int]] = [deque() for _ in range(num_procs)]
    for u in range(n):
        if indeg[u] == 0:
            deques[0].append(u)
    proc_of = [0] * n
    start_of = [0] * n
    done = 0
    t = 0
    while done < n:
        # Each processor picks at most one node this step.
        running: list[tuple[int, int]] = []  # (proc, node)
        for p in range(num_procs):
            u: int | None = None
            if deques[p]:
                u = deques[p].pop()  # own work: newest first
            else:
                victims = [q for q in range(num_procs) if q != p and deques[q]]
                if victims:
                    q = r.choice(victims)
                    u = deques[q].popleft()  # steal: oldest first
            if u is not None:
                proc_of[u] = p
                start_of[u] = t
                running.append((p, u))
        if not running:
            raise ScheduleError("deadlock: no ready nodes (cycle?)")
        for p, u in running:
            done += 1
            enabled: list[int] = []
            for v in bit_indices(succ(u)):
                indeg[v] -= 1
                if indeg[v] == 0:
                    enabled.append(v)
            if len(enabled) > 1:  # shuffling fewer draws nothing
                r.shuffle(enabled)
            deques[p].extend(enabled)
        t += 1
    return Schedule(comp, tuple(proc_of), tuple(start_of), num_procs)
