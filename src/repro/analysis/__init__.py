"""Analysis: the Figure 1 lattice machinery and the static-analysis engine.

Two families live here: the empirical regeneration of the paper's
Figure 1 lattice (PR 1), and the multi-rule static-analysis framework
behind ``repro lint`` — the rule registry (:mod:`repro.analysis.registry`),
the built-in rules (:mod:`repro.analysis.race_rules`, backed by
:mod:`repro.analysis.deadlock` and :mod:`repro.analysis.portability`,
with race detection from :mod:`repro.verify`), SARIF export
(:mod:`repro.analysis.sarif`) and baseline suppression
(:mod:`repro.analysis.baseline`).  Importing this package registers the
built-in rules.
"""

from repro.analysis.lattice import (
    KNOWN_DEVIATIONS,
    MEASURED_CONSTRUCTIBLE,
    PAPER_CONSTRUCTIBLE,
    PAPER_EDGES,
    PAPER_INCOMPARABLE,
    PAPER_MODELS,
    LatticeResult,
    compute_lattice,
)
from repro.analysis.anomalies import (
    AnomalyCatalog,
    catalog_anomalies,
    render_catalog,
)
from repro.analysis.characterize import (
    ModelCharacterization,
    characterize_model,
    render_characterization,
)
from repro.analysis.density import (
    DensityReport,
    measure_density,
    render_density,
)
from repro.analysis.open_problems import (
    StarVsLcReport,
    explore_star_vs_lc,
    render_star_report,
)
from repro.analysis.reproduce import (
    ReproductionReport,
    SectionResult,
    full_reproduction,
    render_report,
)
from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    finding_fingerprint,
    load_baseline,
    write_baseline,
)
from repro.analysis.deadlock import LockCycle, LockEdge, lock_cycles, lock_graph
from repro.analysis.portability import (
    PortabilityVerdict,
    check_portability,
)
from repro.analysis.registry import (
    AnalysisContext,
    AnalysisReport,
    Finding,
    Rule,
    all_rules,
    get_rule,
    register_rule,
    run_analysis,
    select_rules,
)
from repro.analysis.report import (
    render_computation,
    render_dot,
    render_inclusion_matrix,
    render_lattice_result,
    render_pair,
)
from repro.analysis.sarif import sarif_document, validate_sarif

# Importing the rules module populates the registry as a side effect.
import repro.analysis.race_rules  # noqa: E402,F401

__all__ = [
    "PAPER_MODELS",
    "PAPER_EDGES",
    "PAPER_INCOMPARABLE",
    "PAPER_CONSTRUCTIBLE",
    "MEASURED_CONSTRUCTIBLE",
    "KNOWN_DEVIATIONS",
    "LatticeResult",
    "compute_lattice",
    "render_computation",
    "render_pair",
    "render_inclusion_matrix",
    "render_lattice_result",
    "StarVsLcReport",
    "explore_star_vs_lc",
    "render_star_report",
    "DensityReport",
    "measure_density",
    "render_density",
    "AnomalyCatalog",
    "catalog_anomalies",
    "render_catalog",
    "render_dot",
    "ModelCharacterization",
    "characterize_model",
    "render_characterization",
    "full_reproduction",
    "render_report",
    "ReproductionReport",
    "SectionResult",
    "AnalysisContext",
    "AnalysisReport",
    "Finding",
    "Rule",
    "all_rules",
    "get_rule",
    "register_rule",
    "run_analysis",
    "select_rules",
    "LockCycle",
    "LockEdge",
    "lock_cycles",
    "lock_graph",
    "PortabilityVerdict",
    "check_portability",
    "sarif_document",
    "validate_sarif",
    "DEFAULT_BASELINE",
    "apply_baseline",
    "finding_fingerprint",
    "load_baseline",
    "write_baseline",
]
