"""Memory models (Sections 3–6 of the paper).

Exports the model zoo — SC, LC, and the four dag-consistent models — plus
the constructibility machinery (Theorem 12 tests, bounded Δ* computation)
and the empirical relation/separation tooling behind the Figure 1
lattice.
"""

from repro.models.base import (
    ExplicitModel,
    IntersectionModel,
    MemoryModel,
    UnionModel,
)
from repro.models.causal import CC, CausalConsistency
from repro.models.constructibility import (
    ConstructibleVersionResult,
    augmentation_closed_at,
    augmentation_extensions,
    can_extend_to_augmentation,
    constructible_version,
    find_nonconstructibility_witness,
    is_constructible_prefix_definition,
)
from repro.models.dag_consistency import NN, NW, WN, WW, QDagConsistency
from repro.models.location_consistency import LC, LocationConsistency
from repro.models.membership import (
    block_witness_order,
    fibers_of_row,
    location_blocks_admissible,
    quotient_is_acyclic,
)
from repro.models.online import (
    OnlineGame,
    StuckError,
    figure4_script,
    play_script,
)
from repro.models.predicates import (
    Predicate,
    nn_predicate,
    nw_predicate,
    wn_predicate,
    ww_predicate,
)
from repro.models.relations import (
    SeparationWitness,
    inclusion_matrix,
    is_complete_on,
    is_monotonic_on,
    is_stronger_on,
    separating_witness,
    shrink_witness,
)
from repro.models.sequential import SC, SequentialConsistency
from repro.models.universe import Universe, default_alphabet

MODELS: dict[str, MemoryModel] = {m.name: m for m in (SC, LC, NN, NW, WN, WW, CC)}
"""The one name → model table: Figure 1's six, strongest first, then CC."""

ZOO: tuple[str, ...] = tuple(MODELS)[:6]
"""Figure 1's six models, strongest first: SC, LC, NN, NW, WN, WW."""

__all__ = [
    "MODELS",
    "ZOO",
    "MemoryModel",
    "IntersectionModel",
    "UnionModel",
    "ExplicitModel",
    "SC",
    "SequentialConsistency",
    "LC",
    "LocationConsistency",
    "CC",
    "CausalConsistency",
    "NN",
    "NW",
    "WN",
    "WW",
    "QDagConsistency",
    "Predicate",
    "nn_predicate",
    "nw_predicate",
    "wn_predicate",
    "ww_predicate",
    "Universe",
    "default_alphabet",
    "augmentation_extensions",
    "can_extend_to_augmentation",
    "augmentation_closed_at",
    "find_nonconstructibility_witness",
    "constructible_version",
    "ConstructibleVersionResult",
    "is_constructible_prefix_definition",
    "SeparationWitness",
    "is_stronger_on",
    "separating_witness",
    "inclusion_matrix",
    "is_complete_on",
    "is_monotonic_on",
    "shrink_witness",
    "fibers_of_row",
    "quotient_is_acyclic",
    "location_blocks_admissible",
    "block_witness_order",
    "OnlineGame",
    "StuckError",
    "figure4_script",
    "play_script",
]
