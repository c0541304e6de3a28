"""Theorem 23 — LC = NN*: the paper's main result, verified mechanically.

The proof decomposes into two inclusions, each checkable on a bounded
universe:

* **LC ⊆ NN\\*** — because LC ⊆ NN (Theorem 22, swept here) and LC is
  constructible (Theorem 19, swept here), Condition 9.3 forces LC inside
  the weakest constructible strengthening of NN.
* **NN\\* ⊆ LC** — every pair in NN \\ LC dies after a *single*
  augmentation: there is an o (a read or no-op) such that no NN observer
  function for aug_o(C) extends it.  Since NN* ⊆ P(NN) (one pruning
  round), NN* contains no pair outside LC.

The full greatest-fixpoint Δ* computation, compared with LC
pair-for-pair on the n ≤ 5 universe, is asserted in
``tests/test_open_problems.py``.
"""

from repro.core.ops import N as NOP, R
from repro.models import (
    LC,
    NN,
    Universe,
    augmentation_closed_at,
)


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Times the Theorem-23 core: the Theorem-22 inclusion sweep plus the
    one-step pruning of NN \\ LC.  Full mode prunes on the 4-node
    witness universe (where NN \\ LC is non-empty, so ``stuck == total``
    is the theorem's mechanical content); quick mode stays at 3 nodes,
    where the sweep still runs but NN \\ LC is empty.
    """
    import time

    from repro.runtime.parallel import clear_sweep_caches

    probes = (R("x"), NOP)
    sweep = Universe(max_nodes=3, locations=("x",))
    witness = Universe(
        max_nodes=3 if quick else 4, locations=("x",), include_nop=False
    )
    clear_sweep_caches()

    t0 = time.perf_counter()
    lc_pairs = 0
    for comp, phi in sweep.model_pairs(LC):
        if check:
            assert NN.contains(comp, phi), "Theorem 22 violated: LC ⊄ NN"
        lc_pairs += 1
    thm22_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    stuck = total = 0
    for comp, phi in witness.model_pairs(NN):
        if LC.contains(comp, phi):
            continue
        total += 1
        if augmentation_closed_at(NN, comp, phi, probes) is not None:
            stuck += 1
    prune_seconds = time.perf_counter() - t0
    if check:
        assert stuck == total, "a pair in NN \\ LC survived one augmentation"
        if not quick:
            assert total > 0, "NN \\ LC must be visible at n ≤ 4"
    return {
        "thm22_seconds": round(thm22_seconds, 4),
        "prune_seconds": round(prune_seconds, 4),
        "lc_pairs": lc_pairs,
        "nn_minus_lc": total,
        "pruned": stuck,
    }
