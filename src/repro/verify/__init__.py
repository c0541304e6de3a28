"""Post-mortem verification: did this execution obey the memory model?

The entry points take a :class:`~repro.runtime.trace.PartialObserver`
(obtained from :meth:`ExecutionTrace.partial_observer`):

* :func:`trace_admits_lc` / :func:`lc_completion` — polynomial LC check
  with a total-observer certificate;
* :func:`trace_admits_sc` — exact SC check (returns a witnessing sort);
* :func:`find_completion` — bounded completion search against any model;
* :func:`admits` — the one admission check on top of them (model name +
  document → ``True``/``False``/``None``, the SC cap and the budget).

Static analysis lives here too: the race pass with lockset
classification and its all-pairs oracle (:mod:`repro.verify.races`);
the lint engine behind ``repro lint`` builds on it in
:mod:`repro.analysis.race_rules`.  The incremental LC engine
(:class:`StreamingLCVerifier`) both checks completed traces and rides
inside the executor as a trace sanitizer.
"""

from repro.verify.checker import (
    Admission,
    admits,
    find_completion,
    lc_completion,
    lc_trace_orders,
    trace_admits_lc,
    trace_admits_sc,
)
from repro.verify.inference import (
    ConformanceReport,
    InferenceResult,
    conformance_campaign,
    infer_models,
)
from repro.verify.causal_trace import (
    CausalViolation,
    StreamingCCVerifier,
    trace_admits_cc,
)
from repro.verify.races import (
    ClassifiedRace,
    Race,
    classify_races,
    find_races,
    is_race_free,
    node_locksets,
    race_witnesses,
    racy_locations,
)
from repro.verify.streaming import StreamingLCVerifier, StreamingViolation

__all__ = [
    "Admission",
    "admits",
    "trace_admits_lc",
    "lc_completion",
    "lc_trace_orders",
    "trace_admits_sc",
    "find_completion",
    "Race",
    "find_races",
    "race_witnesses",
    "is_race_free",
    "racy_locations",
    "node_locksets",
    "classify_races",
    "ClassifiedRace",
    "infer_models",
    "InferenceResult",
    "conformance_campaign",
    "ConformanceReport",
    "StreamingLCVerifier",
    "StreamingViolation",
    "StreamingCCVerifier",
    "CausalViolation",
    "trace_admits_cc",
]
