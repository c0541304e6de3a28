"""Figures 2 and 3 — the separating examples between dag-consistent models.

Figure 2: a 4-node pair in WW and NW but not WN or NN.
Figure 3: a 4-node pair in WW and WN but not NW or NN.

Two reproductions per figure:

1. the fixed reconstructed pair's membership profile is asserted exactly;
2. the witness *search* rediscovers a pair with the same profile from
   scratch by enumerating the 4-node universe (timed).
"""

from repro.models import (
    NN,
    NW,
    WN,
    WW,
    IntersectionModel,
    separating_witness,
)
from repro.paperfigures import figure2_pair, figure3_pair


def profile(comp, phi):
    return {
        m.name: m.contains(comp, phi) for m in (NN, NW, WN, WW)
    }


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Times the Figure-2/3 witness *searches* over the 4-node universe
    (the fixed pairs' membership profiles are the check).  Quick mode
    asserts the fixed pairs only — the searches need 4 nodes, which is
    the expensive part.
    """
    import time

    from repro.runtime.parallel import clear_sweep_caches

    if check:
        comp2, phi2 = figure2_pair()
        assert profile(comp2, phi2) == {
            "NN": False, "NW": True, "WN": False, "WW": True,
        }, "Figure 2 membership profile deviates"
        comp3, phi3 = figure3_pair()
        assert profile(comp3, phi3) == {
            "NN": False, "NW": False, "WN": True, "WW": True,
        }, "Figure 3 membership profile deviates"
    if quick:
        return {"witnesses_found": 2, "search_seconds": 0.0}

    from repro.models import Universe

    witness_universe = Universe(
        max_nodes=4, locations=("x",), include_nop=False
    )
    clear_sweep_caches()
    t0 = time.perf_counter()
    wit2 = separating_witness(
        WN, IntersectionModel([WW, NW], "WW∩NW"), witness_universe
    )
    wit3 = separating_witness(
        NW, IntersectionModel([WW, WN], "WW∩WN"), witness_universe
    )
    seconds = time.perf_counter() - t0
    if check:
        assert wit2 is not None and wit3 is not None
        assert not NN.contains(wit2.comp, wit2.phi)
        assert not NN.contains(wit3.comp, wit3.phi)
    return {
        "witnesses_found": sum(w is not None for w in (wit2, wit3)),
        "search_seconds": round(seconds, 4),
    }
