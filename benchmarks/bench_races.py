"""Race detection scaling: the witness pass vs the all-pairs oracle.

Two detectors over growing ``fib``/``matmul``/``stencil`` unfoldings:

* **witness** — :func:`repro.verify.races.race_witnesses`, the race
  pass behind ``repro lint``: one mask expression per writer against
  the dag's reachability bitset rows, one classified pair per racy
  writer.
* **oracle** — :func:`repro.verify.races.find_races`: per-location
  accessor scans plus a seen-set per candidate pair, every racing pair.

Both legs read the same reachability rows, so the rows are built once
per computation, timed on their own (``closure_seconds``) and kept out
of both legs.  The acceptance gate rides on the largest workloads:
every computation with ≥ 2,000 nodes must be analyzed by the witness
pass in under a second while the oracle is at least 10× slower.
Results land in ``BENCH_races.json`` at the repository root for the CI
artifact trail.
"""

import json
import time
from pathlib import Path

from repro.lang import fib_computation, matmul_computation, stencil_computation
from repro.verify import find_races, race_witnesses, racy_locations

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
    ≥2,000-node acceptance leg, single timing per leg); full mode is
    the whole scaling table with the acceptance gate, refreshing
    ``BENCH_races.json`` with environment and git-sha metadata.
    """
    from repro.obs.ledger import env_metadata, git_sha

    workloads = QUICK_WORKLOADS if quick else WORKLOADS
    repeats = 1 if quick else 3
    rows = []
    for program, params, factory in workloads:
        comp, info = factory()
        t0 = time.perf_counter()
        comp.dag._closure()
        closure_s = time.perf_counter() - t0
        witness_s = _best_of(
            lambda: race_witnesses(comp, info.lock_sections),
            repeats=repeats,
        )
        oracle_s = _best_of(
            lambda: list(find_races(comp)),
            repeats=1 if quick or comp.num_nodes >= 1000 else 3,
        )

        if check:
            locs = {c.race.loc for c in race_witnesses(comp)}
            assert locs == {r.loc for r in find_races(comp)}
            assert locs == set(racy_locations(comp))

        rows.append(
            {
                "program": program,
                "params": params,
                "nodes": comp.num_nodes,
                "closure_seconds": round(closure_s, 6),
                "witness_seconds": round(witness_s, 6),
                "oracle_seconds": round(oracle_s, 6),
                "oracle_over_witness": round(oracle_s / witness_s, 2),
            }
        )

    metrics = {
        "workloads": len(rows),
        "nodes_total": sum(r["nodes"] for r in rows),
        "witness_seconds_total": round(
            sum(r["witness_seconds"] for r in rows), 6
        ),
        "oracle_seconds_total": round(
            sum(r["oracle_seconds"] for r in rows), 6
        ),
        "max_oracle_over_witness": max(
            r["oracle_over_witness"] for r in rows
        ),
    }
    if quick:
        return metrics

    if check:
        big = [r for r in rows if r["nodes"] >= 2000]
        assert big, "benchmark must include a ≥2,000-node workload"
        for r in big:
            assert r["witness_seconds"] < 1.0, r
            assert r["oracle_over_witness"] >= 10.0, r

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
