"""The processor-centric view, as a special case of computations.

The paper's opening contrast: traditional models are *processor-centric*
— semantics are given for sequential instruction streams running on
processors — whereas computation-centric models work on the dependency
dag.  Processor-centric programs embed into the framework as a special
dag shape: one chain per processor, no cross-chain edges (plus optional
explicit synchronization edges).  This module builds those computations,
which lets the library run and classify the classical *litmus tests* of
the memory-model literature.

Example (the store-buffer / Dekker litmus)::

    comp, streams = from_processor_streams([
        [W("x"), R("y")],
        [W("y"), R("x")],
    ])

``streams[p][i]`` gives the node id of processor ``p``'s ``i``-th
instruction, for addressing outcomes.

:data:`LITMUS_TESTS` collects the standard shapes (SB, MP, LB, IRIW,
CoRR) together with their *interesting outcome* — the observer-function
fragment whose allowedness distinguishes models.  The litmus benchmark
builds the table of which models allow which outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.computation import Computation
from repro.core.ops import Op, R, W, Location
from repro.dag.digraph import Dag
from repro.runtime.trace import PartialObserver

__all__ = [
    "from_processor_streams",
    "LitmusTest",
    "LITMUS_TESTS",
    "litmus_outcome_allowed",
]


def from_processor_streams(
    streams: Sequence[Sequence[Op]],
    sync_edges: Sequence[tuple[tuple[int, int], tuple[int, int]]] = (),
) -> tuple[Computation, list[list[int]]]:
    """Build a computation from per-processor instruction streams.

    Each stream becomes a chain (program order); streams are mutually
    concurrent except for explicit ``sync_edges``, given as
    ``((p, i), (q, j))`` meaning instruction ``i`` of processor ``p``
    precedes instruction ``j`` of processor ``q``.

    Returns the computation and the node-id table ``ids[p][i]``.
    """
    ops: list[Op] = []
    ids: list[list[int]] = []
    edges: list[tuple[int, int]] = []
    for stream in streams:
        chain: list[int] = []
        for op in stream:
            node = len(ops)
            ops.append(op)
            if chain:
                edges.append((chain[-1], node))
            chain.append(node)
        ids.append(chain)
    for (p, i), (q, j) in sync_edges:
        edges.append((ids[p][i], ids[q][j]))
    return Computation(Dag(len(ops), edges), ops), ids


@dataclass(frozen=True)
class LitmusTest:
    """A named litmus shape with its interesting outcome.

    ``streams`` are the per-processor instruction lists; ``outcome``
    constrains selected reads, given as ``{(p, i): value}`` where the
    value is either ``None`` (the read misses every write, i.e. sees the
    initial ⊥) or ``(q, j)`` naming the write it observes.
    ``sync_edges`` adds cross-processor dependencies (the
    computation-centric rendering of fences/synchronization: edges).
    """

    name: str
    description: str
    streams: tuple[tuple[Op, ...], ...]
    outcome: Mapping[tuple[int, int], "tuple[int, int] | None"]
    sync_edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = ()

    def build(self) -> tuple[Computation, PartialObserver]:
        """Materialize the computation and the outcome's constraints."""
        comp, ids = from_processor_streams(self.streams, self.sync_edges)
        constraints: dict[Location, dict[int, int | None]] = {}
        for (p, i), target in self.outcome.items():
            node = ids[p][i]
            op = comp.op(node)
            assert op.is_read, "outcomes constrain reads"
            value = None if target is None else ids[target[0]][target[1]]
            constraints.setdefault(op.loc, {})[node] = value
        return comp, PartialObserver(comp, constraints)


def litmus_outcome_allowed(test: LitmusTest, model_name: str) -> bool | None:
    """Whether the test's outcome is allowed by a model.

    ``model_name`` is a key of :data:`repro.models.MODELS`; the answer is
    :func:`repro.verify.admits`' verdict on the outcome's constraints.
    """
    from repro.verify import admits

    return admits(model_name, test.build()[1]).verdict


LITMUS_TESTS: tuple[LitmusTest, ...] = (
    LitmusTest(
        name="SB",
        description="store buffering (Dekker): both reads miss the other write",
        streams=((W("x"), R("y")), (W("y"), R("x"))),
        outcome={(0, 1): None, (1, 1): None},
    ),
    LitmusTest(
        name="MP",
        description="message passing: consumer sees the flag but stale data",
        streams=((W("d"), W("f")), (R("f"), R("d"))),
        outcome={(1, 0): (0, 1), (1, 1): None},
    ),
    LitmusTest(
        name="CoRR",
        description="coherence of read-read: two reads of one location "
        "see write then initial value (new-then-old)",
        streams=((W("x"),), (R("x"), R("x"))),
        outcome={(1, 0): (0, 0), (1, 1): None},
    ),
    LitmusTest(
        name="IRIW",
        description="independent reads of independent writes: the two "
        "readers see the two writes in opposite orders",
        streams=(
            (W("x"),),
            (W("y"),),
            (R("x"), R("y")),
            (R("y"), R("x")),
        ),
        outcome={
            (2, 0): (0, 0),
            (2, 1): None,
            (3, 0): (1, 0),
            (3, 1): None,
        },
    ),
    LitmusTest(
        name="LB",
        description="load buffering: each read observes the write that "
        "the *other* processor issues afterwards",
        streams=((R("x"), W("y")), (R("y"), W("x"))),
        outcome={(0, 0): (1, 1), (1, 0): (0, 1)},
    ),
    LitmusTest(
        name="WRC",
        description="write-to-read causality: the middle processor saw "
        "the write and then wrote the flag, yet the reader sees the flag "
        "but not the original write",
        streams=(
            (W("x"),),
            (R("x"), W("f")),
            (R("f"), R("x")),
        ),
        outcome={(1, 0): (0, 0), (2, 0): (1, 1), (2, 1): None},
    ),
    LitmusTest(
        name="SB+sync",
        description="store buffering with synchronization edges from each "
        "write to the other processor's read — the weak outcome is now "
        "a stale read past a dag-preceding write, which even coherence "
        "forbids (synchronization = edges, the paper's central move)",
        streams=((W("x"), R("y")), (W("y"), R("x"))),
        outcome={(0, 1): None, (1, 1): None},
        sync_edges=(((0, 0), (1, 1)), ((1, 0), (0, 1))),
    ),
)
"""The classical litmus suite, phrased computation-centrically."""
