"""The discrete-event executor: (computation, schedule, memory) → trace.

Nodes run in global time order (same-step nodes serialized by processor
id — legal because unit-time nodes sharing a step are dag-incomparable,
which :class:`~repro.runtime.scheduler.Schedule` validation guarantees).
Around each node the executor fires the coherence hooks that the BACKER
protocol consumes:

* before a node with a cross-processor predecessor: ``node_starting``
  with ``cross_pred=True`` (BACKER: flush the consumer's cache);
* after a node with a cross-processor successor: ``node_completed`` with
  ``cross_succ=True`` (BACKER: reconcile the producer's cache).

The trace records, for every read, the writer node id the memory
returned — see :mod:`repro.runtime.trace`.  Passing a *sanitizer*
(a :class:`repro.verify.streaming.StreamingLCVerifier`) checks each
event for location consistency as it happens; the first violation is
recorded on the trace and, unless the verifier was built with
``keep_going``, stops the run at the violating event.

Observability: the whole run is an ``execute`` span (a memory span when
``--mem`` is on, attributing tracemalloc peak/net to the run); with the
tracer enabled each node additionally gets a ``step`` child span (up to
:data:`STEP_SPAN_LIMIT` nodes, to bound trace size), every global
time-step's wall time feeds the ``executor.step_seconds`` histogram,
and the executor maintains ``executor.*`` counters (nodes, reads,
writes), ``sanitizer.events`` / ``sanitizer.violations`` when a
sanitizer rides along, plus the memory's coherence-message counters
(``backer.*``, emitted by :class:`repro.runtime.backer.BackerMemory`
itself).  An untraced run does none of this bookkeeping: its loop
walks the schedule's precomputed order and cross-processor flags
(:attr:`~repro.runtime.scheduler.Schedule.order`,
:attr:`~repro.runtime.scheduler.Schedule.cross_flags`) and dispatches
on each op's kind.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro import obs
from repro.core.computation import Computation
from repro.runtime.memory_base import MemorySystem
from repro.runtime.scheduler import Schedule
from repro.runtime.trace import ExecutionTrace, ReadEvent

if TYPE_CHECKING:  # verify imports runtime; keep the cycle static-only
    from repro.verify.streaming import StreamingLCVerifier

__all__ = ["execute", "STEP_SPAN_LIMIT"]

STEP_SPAN_LIMIT = 512
"""Per-node ``step`` spans are emitted only for computations up to this
many nodes; larger runs keep the ``execute`` span and counters so traces
stay proportionate."""


def execute(
    schedule: Schedule,
    memory: MemorySystem,
    sanitizer: "StreamingLCVerifier | None" = None,
) -> ExecutionTrace:
    """Run a schedule against a memory system and collect the trace."""
    comp: Computation = schedule.comp
    with obs.mem_span(
        "execute",
        nodes=comp.num_nodes,
        procs=schedule.num_procs,
        memory=memory.name,
        sanitized=sanitizer is not None,
    ) as sp:
        trace = _execute_body(schedule, memory, sanitizer, comp)
        if sp is not None:
            sp.attrs["reads"] = len(trace.reads)
            sp.attrs["violation"] = trace.violation is not None
        # Memories that batch their telemetry (the hierarchy keeps
        # plain-int counters in the hot loop) flush it here, inside the
        # execute span so attached track spans nest under the run.
        publish = getattr(memory, "publish_obs", None)
        if publish is not None and obs.enabled():
            publish()
    return trace


def _execute_body(
    schedule: Schedule,
    memory: MemorySystem,
    sanitizer: "StreamingLCVerifier | None",
    comp: Computation,
) -> ExecutionTrace:
    memory.attach(schedule.num_procs)
    trace = ExecutionTrace(comp, schedule, memory.name)
    proc_of = schedule.proc_of
    cross_pred, cross_succ = schedule.cross_flags
    ops = comp.ops
    preds = comp.dag.predecessor_tuples
    node_starting, node_completed = memory.node_starting, memory.node_completed
    read, write = memory.read, memory.write
    on_node = None if sanitizer is None else sanitizer.on_node
    record = trace.reads.append
    tracing = obs.enabled()
    step_spans = tracing and comp.num_nodes <= STEP_SPAN_LIMIT

    # Step-batch timing: nodes sharing a start step form one global
    # time-step; each batch's wall time is one ``executor.step_seconds``
    # sample.  Execution order is sorted by start step, so batches are
    # contiguous and a boundary check per node suffices.
    start_of = schedule.start_of
    batch_step = -1
    batch_t0 = 0.0

    executed = 0  # counted only while tracing, like every executor.* metric
    # Sanitizer counters are published once per run, as deltas.
    checked = flagged = 0
    if sanitizer is not None:
        checked, flagged = sanitizer.events, len(sanitizer.violations)
    step = None  # the open ``step`` span, entered and exited by hand
    try:
        for u in schedule.order:
            p = proc_of[u]
            op = ops[u]
            if tracing:
                if start_of[u] != batch_step:
                    now = time.perf_counter()
                    if batch_step >= 0:
                        obs.observe("executor.step_seconds", now - batch_t0)
                    # Live progress for journal/metrics scrapers: how deep
                    # into the schedule this execution currently is.
                    obs.set_gauge("executor.nodes_done", executed)
                    batch_step, batch_t0 = start_of[u], now
                executed += 1
                if step_spans:
                    step = obs.span("step", node=u, op=repr(op), proc=p)
                    step.__enter__()
            node_starting(p, u, cross_pred[u])
            observed: int | None = None
            kind = op.kind
            if kind == "R":
                observed = read(p, u, op.loc)
                record(ReadEvent(u, op.loc, observed))
            elif kind == "W":
                write(p, u, op.loc)
            node_completed(p, u, cross_succ[u])
            if step is not None:
                step.__exit__(None, None, None)
                step = None
            if on_node is not None:
                violation = on_node(u, op, preds[u], observed)
                if violation is not None:
                    trace.violation = violation
                    if not sanitizer.keep_going:
                        break
    except BaseException as exc:
        if step is not None:
            step.__exit__(type(exc), exc, exc.__traceback__)
        raise
    if tracing:
        if batch_step >= 0:
            obs.observe("executor.step_seconds", time.perf_counter() - batch_t0)
        obs.add("executor.runs")
        obs.add("executor.nodes", executed)
        obs.add("executor.reads", len(trace.reads))
        obs.add(
            "executor.writes",
            sum(ops[v].kind == "W" for v in schedule.order[:executed]),
        )
        if sanitizer is not None:
            obs.add("sanitizer.events", sanitizer.events - checked)
            obs.add("sanitizer.violations", len(sanitizer.violations) - flagged)
    return trace
