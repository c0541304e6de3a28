"""Theorem 19 — SC and LC are complete, monotonic, constructible.

Three sweeps over the full ≤3-node universe (alphabet {R, W, N}):

* completeness: every computation admits an observer function in SC
  (hence in every weaker model);
* monotonicity: every member pair survives every relaxation of its
  computation (Definition 5);
* constructibility: every member pair extends to every augmented
  computation (the Theorem 12 criterion, which for monotonic models is
  equivalent to Definition 6).
"""

from repro.models import (
    LC,
    SC,
    find_nonconstructibility_witness,
    is_complete_on,
    is_monotonic_on,
)


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Times the three Theorem-19 sweeps (completeness, monotonicity,
    Theorem-12 constructibility) for SC and LC.  Quick mode shrinks the
    universe to n ≤ 2 and skips the monotonicity sweep (the slowest of
    the three).
    """
    import time

    from repro.models import Universe

    universe = Universe(max_nodes=2 if quick else 3, locations=("x",))
    comps = list(universe.computations())
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    gaps = (is_complete_on(SC, comps), is_complete_on(LC, comps))
    timings["complete_seconds"] = round(time.perf_counter() - t0, 4)
    if check:
        assert gaps == (None, None), "Theorem 19 completeness violated"

    if not quick:
        t0 = time.perf_counter()
        violations = (
            is_monotonic_on(SC, universe),
            is_monotonic_on(LC, universe),
        )
        timings["monotonic_seconds"] = round(time.perf_counter() - t0, 4)
        if check:
            assert violations == (None, None), "Theorem 19 monotonicity violated"

    t0 = time.perf_counter()
    witnesses = (
        find_nonconstructibility_witness(SC, universe),
        find_nonconstructibility_witness(LC, universe),
    )
    timings["constructible_seconds"] = round(time.perf_counter() - t0, 4)
    if check:
        assert witnesses == (None, None), "Theorem 19 constructibility violated"
    return {"computations": len(comps), **timings}
