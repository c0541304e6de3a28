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

A third check runs the full greatest-fixpoint Δ* computation on a
smaller universe and compares it against LC pair-for-pair.
"""

from repro.core.ops import N as NOP, R
from repro.models import (
    LC,
    NN,
    Universe,
    augmentation_closed_at,
    constructible_version,
)


def test_thm22_lc_subset_nn(benchmark, sweep_universe):
    """Theorem 22's inclusion, swept over the universe."""

    def sweep():
        checked = 0
        for comp, phi in sweep_universe.model_pairs(LC):
            assert NN.contains(comp, phi)
            checked += 1
        return checked

    count = benchmark.pedantic(sweep, rounds=1)
    print()
    print(f"LC ⊆ NN: {count} LC pairs, all in NN")


def test_thm23_nn_minus_lc_prunes_in_one_step(benchmark, witness_universe):
    """Every pair in NN \\ LC is stuck after one augmentation."""

    def sweep():
        probes = [R("x"), NOP]
        stuck = total = 0
        for comp, phi in witness_universe.model_pairs(NN):
            if LC.contains(comp, phi):
                continue
            total += 1
            if augmentation_closed_at(NN, comp, phi, probes) is not None:
                stuck += 1
        return stuck, total

    stuck, total = benchmark.pedantic(sweep, rounds=1)
    print()
    print(f"NN \\ LC pairs on n≤4 universe: {total}; pruned in one step: {stuck}")
    assert total > 0, "strictness of LC ⊊ NN should be visible at n ≤ 4"
    assert stuck == total


def test_thm23_fixpoint_equals_lc(benchmark):
    """Full Δ* computation, compared with LC pair-for-pair.

    The n ≤ 5 bound is what makes this meaningful: the Figure-4-class
    pairs (4 nodes) sit strictly below the frontier, so the fixpoint
    genuinely prunes them, and the sound fragment (n ≤ 4) includes the
    smallest separations between NN and LC.
    """
    universe = Universe(max_nodes=5, locations=("x",), include_nop=False)

    def compute_and_compare():
        res = constructible_version(NN, universe)
        mismatches = 0
        pairs = 0
        for n in range(res.sound_max_nodes + 1):
            for comp in universe.computations_of_size(n):
                for phi in universe.observers(comp):
                    pairs += 1
                    if res.model.contains(comp, phi) != LC.contains(comp, phi):
                        mismatches += 1
        return res, pairs, mismatches

    res, pairs, mismatches = benchmark.pedantic(compute_and_compare, rounds=1)
    print()
    print(
        f"NN* fixpoint: {res.rounds} rounds, {res.pruned_pairs} pairs pruned; "
        f"{pairs} sound pairs compared with LC, {mismatches} mismatches"
    )
    assert mismatches == 0


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
