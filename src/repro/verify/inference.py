"""Model inference and conformance campaigns.

Two user-facing tools built on the trace checkers:

* :func:`infer_models` — given a batch of traces from an *unknown*
  memory system, report which models of the zoo are consistent with
  every trace.  A memory "implements a model" (paper, Section 2) iff
  every behaviour it generates belongs to the model; observing traces
  gives a monotone refinement: each weak trace eliminates the models
  that forbid it.  Running BACKER long enough eliminates SC but never
  LC; a serialized memory never eliminates anything.
* :func:`conformance_campaign` — randomized testing of a
  :class:`~repro.runtime.memory_base.MemorySystem` implementation
  against a target guarantee: random workloads × schedules × seeds,
  every trace verified, violations reported with their reproduction
  parameters.  This is the post-mortem methodology of the paper's
  introduction packaged as a harness (and the tool that catches the
  fault-injected protocols in one call).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.computation import Computation
from repro.models import ZOO
from repro.runtime.executor import execute
from repro.runtime.memory_base import MemorySystem
from repro.runtime.scheduler import work_stealing_schedule
from repro.runtime.trace import PartialObserver
from repro.verify.checker import admits

__all__ = [
    "InferenceResult",
    "infer_models",
    "ConformanceReport",
    "conformance_campaign",
]


@dataclass
class InferenceResult:
    """Which models survived a batch of traces.

    ``consistent[name]`` — no observed trace is outside the model.
    ``eliminated_by[name]`` — index of the first eliminating trace.
    """

    traces_seen: int = 0
    consistent: dict[str, bool] = field(
        default_factory=lambda: {n: True for n in ZOO}
    )
    eliminated_by: dict[str, int] = field(default_factory=dict)

    def strongest_consistent(self) -> str | None:
        """The strongest surviving model (zoo order), if any."""
        for name in ZOO:
            if self.consistent[name]:
                return name
        return None


def infer_models(
    partials: Iterable[PartialObserver],
    completion_budget: int = 50_000,
) -> InferenceResult:
    """Refine the model verdicts over a batch of trace observations.

    Only a ``False`` from :func:`admits` eliminates a model; an
    undecided trace (over ``completion_budget``) eliminates nothing.
    """
    result = InferenceResult()
    for partial in partials:
        idx = result.traces_seen
        result.traces_seen += 1
        for name in ZOO:
            if not result.consistent[name]:
                continue
            if admits(name, partial, completion_budget=completion_budget).verdict is False:
                result.consistent[name] = False
                result.eliminated_by[name] = idx
    return result


@dataclass
class Violation:
    """One conformance failure with its reproduction parameters."""

    workload_index: int
    procs: int
    seed: int
    num_constraints: int


@dataclass
class ConformanceReport:
    """Outcome of a conformance campaign."""

    target: str
    runs: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff no run violated the target guarantee."""
        return not self.violations


def conformance_campaign(
    memory_factory: Callable[[int], MemorySystem],
    workloads: Sequence[Computation],
    target: str = "LC",
    procs: Sequence[int] = (2, 4),
    seeds: Sequence[int] = tuple(range(10)),
    completion_budget: int = 50_000,
) -> ConformanceReport:
    """Randomized conformance testing of a memory implementation.

    ``memory_factory(seed)`` must return a fresh memory per run (so
    fault-injection RNGs do not correlate across runs).  ``target`` is a
    zoo model name; every (workload, procs, seed) execution's trace is
    checked against it; only a ``False`` from :func:`admits` is a violation.
    """
    if target not in ZOO:
        raise ValueError(f"unknown target model {target!r}")
    report = ConformanceReport(target=target)
    for wi, comp in enumerate(workloads):
        for p in procs:
            for seed in seeds:
                sched = work_stealing_schedule(
                    comp, p, rng=random.Random(seed)
                )
                trace = execute(sched, memory_factory(seed))
                partial = trace.partial_observer()
                report.runs += 1
                if admits(target, partial, completion_budget=completion_budget).verdict is False:
                    report.violations.append(
                        Violation(wi, p, seed, partial.num_constraints())
                    )
    return report
