"""Post-mortem verification: did this execution obey the memory model?

The entry points take a :class:`~repro.runtime.trace.PartialObserver`
(obtained from :meth:`ExecutionTrace.partial_observer`):

* :func:`trace_admits_lc` / :func:`lc_completion` — polynomial LC check
  with a total-observer certificate;
* :func:`trace_admits_sc` — exact SC check (returns a witnessing sort);
* :func:`find_completion` — bounded completion search against any model.

Static analysis lives here too: the exact race sweep
(:mod:`repro.verify.races`), the near-linear SP-bags detector with
lockset classification (:mod:`repro.verify.spbags`), the lint engine
behind ``repro lint`` (re-exported from
:mod:`repro.analysis.race_rules`).  The incremental LC engine
(:class:`StreamingLCVerifier`) both checks completed traces and rides
inside the executor as a trace sanitizer.
"""

from repro.verify.checker import (
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
    Race,
    find_races,
    find_races_naive,
    is_race_free,
    racy_locations,
)
from repro.verify.spbags import (
    ClassifiedRace,
    classify_races,
    node_locksets,
    spbags_races,
)
from repro.verify.streaming import StreamingLCVerifier, StreamingViolation

#: The race-lint engine lives in :mod:`repro.analysis.race_rules` (rule
#: ``RACE001``).  Its names are re-exported lazily: importing any
#: ``repro.verify`` submodule runs this package __init__, and the
#: analysis modules import ``repro.verify.races``/``spbags``, so an eager
#: import here would close an import cycle.
_LINT_EXPORTS = ("Diagnostic", "LintReport", "lint_computation", "ENGINES")


def __getattr__(name: str):
    if name in _LINT_EXPORTS:
        from repro.analysis import race_rules

        return getattr(race_rules, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


__all__ = [
    "trace_admits_lc",
    "lc_completion",
    "lc_trace_orders",
    "trace_admits_sc",
    "find_completion",
    "Race",
    "find_races",
    "find_races_naive",
    "is_race_free",
    "racy_locations",
    "spbags_races",
    "node_locksets",
    "classify_races",
    "ClassifiedRace",
    "Diagnostic",
    "LintReport",
    "lint_computation",
    "ENGINES",
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
