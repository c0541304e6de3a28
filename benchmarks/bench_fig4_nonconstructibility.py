"""Figure 4 — NN-dag consistency is not constructible.

The paper's argument: a 4-node pair in NN such that, once a final node F
(any non-write) is revealed, no observer value for F satisfies NN — the
online algorithm is stuck.  We reproduce it two ways:

1. the fixed Figure 4 pair is in NN and blocked for o ∈ {R(x), N} but
   extendable for o = W(x) ("unless F writes the location");
2. the universe search rediscovers a blocked pair from scratch (timed).

The contrast — SC, LC and WW pass the same sweep untouched (Theorem 19
and the WW column of Figure 1) — is asserted in
``tests/test_models_constructibility.py``.
"""

from repro.core.ops import N as NOP, R, W
from repro.models import (
    NN,
    can_extend_to_augmentation,
    find_nonconstructibility_witness,
)
from repro.paperfigures import figure4_pair


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Times the Theorem-12 witness search that rediscovers Figure 4 (NN
    stuck at ≤ 4 nodes).  Quick mode checks the fixed Figure 4 pair's
    blocking profile only.
    """
    import time

    from repro.models import Universe
    from repro.runtime.parallel import clear_sweep_caches

    comp, phi = figure4_pair()
    if check:
        assert NN.contains(comp, phi)
        blocked = {
            repr(o): can_extend_to_augmentation(NN, comp, phi, o)
            for o in [R("x"), NOP, W("x")]
        }
        assert blocked == {"R('x')": False, "N": False, "W('x')": True}, (
            "Figure 4 blocking profile deviates"
        )
    if quick:
        return {"search_seconds": 0.0, "witness_nodes": comp.num_nodes}

    witness_universe = Universe(
        max_nodes=4, locations=("x",), include_nop=False
    )
    clear_sweep_caches()
    t0 = time.perf_counter()
    wit = find_nonconstructibility_witness(NN, witness_universe)
    seconds = time.perf_counter() - t0
    if check:
        assert wit is not None, "NN must be stuck somewhere at n ≤ 4"
        assert wit.comp.num_nodes <= 4
    return {
        "search_seconds": round(seconds, 4),
        "witness_nodes": wit.comp.num_nodes if wit else 0,
    }
