"""Race detection scaling: SP-bags vs the transitive-closure sweeps.

Three detectors over growing ``fib``/``matmul``/``stencil`` unfoldings:

* **sp-bags** — :func:`repro.verify.spbags.spbags_races` on the SP
  expression recorded by ``unfold``: one serial walk, a union-find, no
  reachability anywhere.
* **closure (rows)** — the rewritten exact sweep
  (:func:`repro.verify.races.find_races`, caches off): per-writer mask
  arithmetic against the dag's reachability bitset rows.
* **closure (naive)** — the seed's per-pair sweep
  (:func:`repro.verify.races.find_races_naive`): per-location accessor
  scans plus a seen-set per candidate pair.

Each engine leg gets a freshly unfolded computation so no closure rows
or memoized race lists leak between timings.  The acceptance gate of
the analyzer work rides on the largest workloads: every computation
with ≥ 2,000 nodes must be analyzed by SP-bags in under a second while
the naive closure sweep is at least 10× slower.  Results land in
``BENCH_races.json`` at the repository root for the CI artifact trail.
"""

import json
import time
from pathlib import Path

from repro._caching import sweep_caching
from repro.lang import fib_computation, matmul_computation, stencil_computation
from repro.verify import find_races, find_races_naive, spbags_races

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_races.json"

WORKLOADS = [
    ("fib", {"n": 8}, lambda: fib_computation(8)),
    ("fib", {"n": 11}, lambda: fib_computation(11)),
    ("fib", {"n": 14}, lambda: fib_computation(14)),
    ("matmul", {"blocks": 3}, lambda: matmul_computation(3)),
    ("matmul", {"blocks": 5}, lambda: matmul_computation(5)),
    ("matmul", {"blocks": 10}, lambda: matmul_computation(10)),
    ("stencil", {"width": 8, "steps": 6}, lambda: stencil_computation(8, 6)),
    ("stencil", {"width": 14, "steps": 12}, lambda: stencil_computation(14, 12)),
    ("stencil", {"width": 22, "steps": 26}, lambda: stencil_computation(22, 26)),
]


def _best_of(fn, repeats=3):
    seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - t0)
    return min(seconds)


QUICK_WORKLOADS = WORKLOADS[:2] + [WORKLOADS[3], WORKLOADS[6]]


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Quick mode keeps the small fib/matmul/stencil unfoldings (no
    ≥2,000-node acceptance leg, single timing per engine); full mode is
    the whole scaling table with the SP-bags acceptance gate, refreshing
    ``BENCH_races.json`` with environment and git-sha metadata.
    """
    from repro.obs.ledger import env_metadata, git_sha

    workloads = QUICK_WORKLOADS if quick else WORKLOADS
    repeats = 1 if quick else 3
    rows = []
    with sweep_caching(False):
        for program, params, factory in workloads:
            comp_sp, info = factory()
            spbags_s = _best_of(
                lambda: spbags_races(comp_sp, info.sp), repeats=repeats
            )

            comp_rows, _ = factory()
            rows_s = _best_of(
                lambda: list(find_races(comp_rows)), repeats=repeats
            )

            comp_naive, _ = factory()
            naive_s = _best_of(
                lambda: list(find_races_naive(comp_naive)),
                repeats=1 if quick or comp_naive.num_nodes >= 1000 else 3,
            )

            if check:
                locs = {r.loc for r in spbags_races(comp_sp, info.sp)}
                assert locs == {r.loc for r in find_races(comp_rows)}
                assert locs == {r.loc for r in find_races_naive(comp_naive)}

            rows.append(
                {
                    "program": program,
                    "params": params,
                    "nodes": comp_sp.num_nodes,
                    "spbags_seconds": round(spbags_s, 6),
                    "closure_rows_seconds": round(rows_s, 6),
                    "closure_naive_seconds": round(naive_s, 6),
                    "naive_over_spbags": round(naive_s / spbags_s, 2),
                }
            )

    metrics = {
        "workloads": len(rows),
        "nodes_total": sum(r["nodes"] for r in rows),
        "spbags_seconds_total": round(
            sum(r["spbags_seconds"] for r in rows), 6
        ),
        "closure_naive_seconds_total": round(
            sum(r["closure_naive_seconds"] for r in rows), 6
        ),
        "max_naive_over_spbags": max(r["naive_over_spbags"] for r in rows),
    }
    if quick:
        return metrics

    if check:
        big = [r for r in rows if r["nodes"] >= 2000]
        assert big, "benchmark must include a ≥2,000-node workload"
        for r in big:
            assert r["spbags_seconds"] < 1.0, r
            assert r["naive_over_spbags"] >= 10.0, r

    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "races",
                "git_sha": git_sha(),
                "env": env_metadata(),
                "workloads": rows,
            },
            indent=2,
        )
        + "\n"
    )
    return metrics
