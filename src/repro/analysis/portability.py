"""Model portability: does the outcome depend on the memory model?

Adve & Gharachorloo's programmer-centric question — "may I reason about
this program as if the memory were sequentially consistent?" — becomes
decidable in the computation-centric setting: a computation is
*portable* from LC down to SC iff no observer function is admitted by
LC but rejected by SC.  Running it on the paper's weakest model then
shows nothing a sequentially-consistent programmer would not expect.

The decision ladder, cheapest first:

1. **Race-free** ⇒ portable.  On a race-free computation every model
   of the zoo admits exactly the per-topological-sort last-writer
   functions, so LC and SC coincide (property-tested in the suite).
2. **At most one written location** ⇒ portable.  LC's per-location
   block condition for a single location *is* the existence of one
   witnessing topological sort (:func:`block_witness_order`), which is
   SC's condition outright.
3. **Small observer space** ⇒ decide exactly: enumerate every observer
   function and compare memberships.  The first ``φ ∈ LC \\ SC`` is
   returned as the divergence witness.
4. Otherwise the question is reported as *undecided* — the enumeration
   would be astronomical, and a racy multi-location computation is
   overwhelmingly likely to diverge anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.computation import Computation
from repro.core.observer import ObserverFunction, count_observer_functions
from repro.verify.races import is_race_free

__all__ = ["PortabilityVerdict", "check_portability", "DEFAULT_BUDGET"]

#: Max observer functions the exact phase will enumerate.  The litmus
#: computations this pass exists for (store-buffer, IRIW, small racy
#: counters) sit well below it; unfolded numeric kernels blow past it
#: but are race-free and never reach the enumeration.
DEFAULT_BUDGET = 200_000


@dataclass(frozen=True)
class PortabilityVerdict:
    """The outcome of the SC-vs-LC portability check.

    ``status`` is one of:

    * ``"portable"`` — every LC-admitted observer is SC-admitted;
      ``reason`` names the ladder step that decided it.
    * ``"divergent"`` — ``witness`` is an observer function in
      LC \\ SC, and ``witness_locs`` the locations it constrains.
    * ``"undecided"`` — the observer space exceeded ``budget``.

    ``checked`` counts the observer functions actually enumerated.
    """

    status: str
    reason: str
    witness: ObserverFunction | None = None
    checked: int = 0

    @property
    def portable(self) -> bool:
        return self.status == "portable"


def check_portability(
    comp: Computation, budget: int = DEFAULT_BUDGET
) -> PortabilityVerdict:
    """Decide whether ``comp`` behaves identically under SC and LC."""
    if is_race_free(comp):
        return PortabilityVerdict(
            "portable",
            "race-free: all models admit exactly the serial behaviours",
        )
    written = [
        loc for loc in comp.locations if comp.writers(loc)
    ]
    if len(written) <= 1:
        return PortabilityVerdict(
            "portable",
            "single written location: LC's block witness is an SC order",
        )
    space = count_observer_functions(comp)
    if space > budget:
        return PortabilityVerdict(
            "undecided",
            f"{space} observer functions exceed the enumeration "
            f"budget ({budget})",
        )
    # Import here: repro.models pulls in the whole zoo (lattice,
    # constructibility); keep it off the import path of `import
    # repro.analysis` for consumers that never run this rule.
    from repro.models import LC, SC

    checked = 0
    for phi in ObserverFunction.enumerate_all(comp):
        checked += 1
        if LC.contains(comp, phi) and not SC.contains(comp, phi):
            return PortabilityVerdict(
                "divergent",
                "observer admitted by LC but rejected by SC",
                witness=phi,
                checked=checked,
            )
    return PortabilityVerdict(
        "portable",
        f"exhaustive: all {checked} observer functions agree",
        checked=checked,
    )
