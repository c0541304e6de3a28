"""Characterize an arbitrary memory model against the zoo.

Definition 20 is an open-ended schema — any predicate Q yields a model —
and the paper's Section 7 invites formulating further models in the
framework.  This module is the exploration tool for that: given any
:class:`~repro.models.base.MemoryModel` (typically a
:class:`~repro.models.dag_consistency.QDagConsistency` with a custom
predicate), it locates the model in the lattice empirically:

* inclusion relative to each zoo member, both directions, with
  witnesses for the failures (so the result is a set of certificates,
  not just booleans);
* completeness, monotonicity, and Theorem-12 constructibility on the
  universe;
* the minimal anomalies it admits beyond the strongest zoo member it
  is weaker than.

See ``examples/custom_model.py`` for the workflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.anomalies import AnomalyCatalog, catalog_anomalies
from repro.models import MODELS, ZOO
from repro.models.base import MemoryModel
from repro.models.constructibility import (
    NonconstructibilityWitness,
    find_nonconstructibility_witness,
)
from repro.models.relations import (
    SeparationWitness,
    is_monotonic_on,
    is_stronger_on,
)
from repro.models.universe import Universe

__all__ = ["ModelCharacterization", "characterize_model", "render_characterization"]

@dataclass
class ModelCharacterization:
    """Everything :func:`characterize_model` established on a universe."""

    name: str
    universe: Universe
    #: zoo name -> witness that the candidate is NOT ⊆ zoo member (None = ⊆).
    not_inside: dict[str, SeparationWitness | None] = field(default_factory=dict)
    #: zoo name -> witness that zoo member is NOT ⊆ candidate (None = ⊆).
    not_containing: dict[str, SeparationWitness | None] = field(
        default_factory=dict
    )
    monotonic: bool = True
    complete: bool = True
    stuck_witness: NonconstructibilityWitness | None = None
    anomalies: AnomalyCatalog | None = None

    def inside(self, zoo_name: str) -> bool:
        """Whether the candidate ⊆ the zoo member held on the universe."""
        return self.not_inside.get(zoo_name) is None

    def contains_zoo(self, zoo_name: str) -> bool:
        """Whether zoo member ⊆ candidate held on the universe."""
        return self.not_containing.get(zoo_name) is None

    def strongest_zoo_above(self) -> str | None:
        """The strongest zoo member that (empirically) contains the model."""
        for name in ZOO:
            if self.inside(name):
                return name
        return None

    def equivalent_zoo(self) -> str | None:
        """A zoo member the model coincided with on the universe, if any."""
        for name in ZOO:
            if self.inside(name) and self.contains_zoo(name):
                return name
        return None


def characterize_model(
    model: MemoryModel, universe: Universe
) -> ModelCharacterization:
    """Run the full battery against the zoo on a bounded universe."""
    result = ModelCharacterization(name=model.name, universe=universe)
    for zname in ZOO:
        zmodel = MODELS[zname]
        result.not_inside[zname] = is_stronger_on(model, zmodel, universe)
        result.not_containing[zname] = is_stronger_on(zmodel, model, universe)
    result.monotonic = is_monotonic_on(model, universe) is None
    result.complete = all(
        model.admits(comp) for comp in universe.computations()
    )
    result.stuck_witness = find_nonconstructibility_witness(model, universe)
    # Catalog the anomalies the model admits beyond SC (the behaviours
    # it allows that a serializing memory would not).
    result.anomalies = catalog_anomalies(
        MODELS["SC"], model, universe, max_witnesses=16
    )
    return result


def render_characterization(result: ModelCharacterization) -> str:
    """Human-readable characterization summary."""
    lines = [
        f"characterization of {result.name!r} on n ≤ "
        f"{result.universe.max_nodes} "
        f"(locations {result.universe.locations!r}):"
    ]
    inside = [z for z in ZOO if result.inside(z)]
    containing = [z for z in ZOO if result.contains_zoo(z)]
    lines.append(f"  ⊆ (stronger than): {inside or 'none'}")
    lines.append(f"  ⊇ (weaker than):   {containing or 'none'}")
    eq = result.equivalent_zoo()
    if eq:
        lines.append(f"  coincides with {eq} on this universe")
    lines.append(f"  complete: {result.complete}  monotonic: {result.monotonic}")
    if result.stuck_witness is None:
        lines.append("  constructible: yes (augmentation-closed on universe)")
    else:
        lines.append(
            f"  constructible: NO — stuck at "
            f"{result.stuck_witness.comp.num_nodes} nodes on "
            f"{result.stuck_witness.blocking_op!r}"
        )
    if result.anomalies is not None and result.anomalies.separated:
        lines.append(
            f"  admits non-SC behaviour from {result.anomalies.minimal_size} "
            f"nodes ({len(result.anomalies.witnesses)} minimal anomalies)"
        )
    elif result.anomalies is not None:
        lines.append("  admits no non-SC behaviour on this universe")
    return "\n".join(lines)
