"""Figure 1 — the lattice of memory models.

Regenerates every claim of the paper's Figure 1 on bounded universes:

* the inclusion matrix over {SC, LC, NN, NW, WN, WW} (exhaustive sweep);
* a separation witness for every strict edge (SC⊊LC, LC⊊NN, NN⊊NW,
  NN⊊WN, NW⊊WW, WN⊊WW) and for the NW/WN incomparability;
* the constructibility column via Theorem-12 augmentation sweeps
  (with the WN cell as the documented deviation — see EXPERIMENTS.md).

``run`` times the full battery; its assertions are the reproduction.
"""

from repro.analysis import compute_lattice
from repro.models import NN, NW, SC, WN, WW, LC, inclusion_matrix


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Full mode is the whole Figure 1 battery with the paper-match
    assertion.  Quick mode shrinks both universes one node; the paper's
    4-node witnesses don't exist there, so only the inclusion chain
    (which holds on *any* universe) is asserted.
    """
    import time

    from repro.models import Universe
    from repro.runtime.parallel import clear_sweep_caches

    sweep = Universe(max_nodes=2 if quick else 3, locations=("x",))
    models = (SC, LC, NN, NW, WN, WW)
    clear_sweep_caches()

    if quick:
        t0 = time.perf_counter()
        matrix = inclusion_matrix(models, sweep)
        seconds = time.perf_counter() - t0
        if check:
            for a, b in [("SC", "LC"), ("LC", "NN"), ("NN", "NW"),
                         ("NN", "WN"), ("NW", "WW"), ("WN", "WW")]:
                assert matrix[(a, b)], f"paper inclusion {a} ⊆ {b} failed"
        return {
            "matrix_seconds": round(seconds, 4),
            "inclusions_true": sum(1 for v in matrix.values() if v),
        }

    witness = Universe(max_nodes=4, locations=("x",), include_nop=False)
    t0 = time.perf_counter()
    result = compute_lattice(sweep, witness)
    seconds = time.perf_counter() - t0
    if check:
        assert result.matches_paper() == []
    return {
        "battery_seconds": round(seconds, 4),
        "inclusions_true": sum(1 for v in result.inclusions.values() if v),
        "edges_witnessed": len(result.strictness),
    }
