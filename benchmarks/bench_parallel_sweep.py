"""The parallel sweep engine — equivalence and speedup vs the seed path.

Three runs of the full Figure-1/Theorem-23 battery on the standard
universes (inclusion sweep on n ≤ 3, witness searches and Theorem-23
counts on the n ≤ 4 witness universe):

* **baseline** — the seed code path: one serial enumeration sweep per
  question (inclusion matrix, per-edge witness searches, per-model
  Theorem-12 sweeps, the Theorem-23 loop) with every memoization layer
  disabled via :func:`repro._caching.sweep_caching`.
* **engine jobs=1** — the fused, memoized, sharded engine, serial.
* **engine jobs=4** — the same engine over a 4-worker process pool.

The assertions check all three produce *identical* results — the same
inclusion matrix, the same witnesses pair-for-pair (the engine's
canonical-order merge guarantees first-witness determinism), the same
Theorem-23 counts — and that the engine with 4 workers beats the
baseline by at least 2×.  Everything measured is emitted as
``BENCH_parallel_sweep.json`` in the repository root for the CI
artifact trail.
"""

import json
import time
from pathlib import Path

from repro._caching import sweep_caching
from repro.analysis.lattice import (
    PAPER_EDGES,
    PAPER_INCOMPARABLE,
    PAPER_MODELS,
    _seed_pairs,
)
from repro.core.ops import N as NOP, R
from repro.models import (
    LC,
    NN,
    SeparationWitness,
    Universe,
    augmentation_closed_at,
    find_nonconstructibility_witness,
    inclusion_matrix,
    separating_witness,
)
from repro.runtime.parallel import (
    clear_sweep_caches,
    parallel_inclusion_matrix,
    parallel_lattice_battery,
)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_parallel_sweep.json"

THM23_PROBES = (R("x"), NOP)


def _seed_path_battery(sweep_universe, witness_universe):
    """The seed code's battery: one serial sweep per question."""
    models = PAPER_MODELS
    by_name = {m.name: m for m in models}
    inclusions = inclusion_matrix(models, sweep_universe)

    def find_separation(a_name, b_name):
        a, b = by_name[a_name], by_name[b_name]
        for comp, phi in _seed_pairs():
            if b.contains(comp, phi) and not a.contains(comp, phi):
                return SeparationWitness(comp, phi, b.name, a.name)
        return separating_witness(a, b, witness_universe)

    strictness = {(a, b): find_separation(a, b) for a, b in PAPER_EDGES}
    incomparability = {
        (a, b): (find_separation(b, a), find_separation(a, b))
        for a, b in PAPER_INCOMPARABLE
    }
    constructibility = {
        m.name: find_nonconstructibility_witness(m, witness_universe)
        for m in models
    }
    lc_in_nn = nn_minus_lc = stuck = 0
    for comp, phi in witness_universe.model_pairs(NN):
        if LC.contains(comp, phi):
            lc_in_nn += 1
            continue
        nn_minus_lc += 1
        if augmentation_closed_at(NN, comp, phi, THM23_PROBES) is not None:
            stuck += 1
    return {
        "inclusions": inclusions,
        "strictness": strictness,
        "incomparability": incomparability,
        "constructibility": constructibility,
        "thm23": (lc_in_nn, nn_minus_lc, stuck),
    }


def _engine_battery(sweep_universe, witness_universe, jobs):
    """The same questions through the engine's fused single-pass battery.

    Mirrors :func:`repro.analysis.lattice.compute_lattice` — paper-figure
    seeds first, then one sharded pass for everything unresolved — with
    the Theorem-23 counts fused into the same pass rather than swept
    separately.
    """
    by_name = {m.name: m for m in PAPER_MODELS}
    inclusions, inc_stats = parallel_inclusion_matrix(
        PAPER_MODELS, sweep_universe, jobs=jobs
    )

    def seeded(a_name, b_name):
        a, b = by_name[a_name], by_name[b_name]
        for comp, phi in _seed_pairs():
            if b.contains(comp, phi) and not a.contains(comp, phi):
                return SeparationWitness(comp, phi, b.name, a.name)
        return None

    wanted = list(PAPER_EDGES)
    for a, b in PAPER_INCOMPARABLE:
        wanted += [(b, a), (a, b)]
    separations = {edge: seeded(*edge) for edge in dict.fromkeys(wanted)}
    unresolved = [e for e, w in separations.items() if w is None]

    battery, bat_stats = parallel_lattice_battery(
        witness_universe,
        edges=unresolved,
        constructibility=PAPER_MODELS,
        thm23_probes=THM23_PROBES,
        jobs=jobs,
    )
    for edge in unresolved:
        separations[edge] = battery.witnesses[edge]
    return {
        "inclusions": inclusions,
        "strictness": {(a, b): separations[(a, b)] for a, b in PAPER_EDGES},
        "incomparability": {
            (a, b): (separations[(b, a)], separations[(a, b)])
            for a, b in PAPER_INCOMPARABLE
        },
        "constructibility": {
            m.name: battery.nonconstructibility[m.name] for m in PAPER_MODELS
        },
        "thm23": battery.thm23,
    }, [inc_stats, bat_stats]


def _assert_identical(a, b, label):
    assert a["inclusions"] == b["inclusions"], f"{label}: inclusion matrices differ"
    assert a["strictness"] == b["strictness"], f"{label}: edge witnesses differ"
    assert (
        a["incomparability"] == b["incomparability"]
    ), f"{label}: incomparability witnesses differ"
    assert (
        a["constructibility"] == b["constructibility"]
    ), f"{label}: constructibility witnesses differ"
    assert a["thm23"] == b["thm23"], f"{label}: Theorem-23 counts differ"


def test_parallel_sweep_speedup(benchmark, sweep_universe, witness_universe):
    # Baseline: seed path, caches off, measured cold.
    with sweep_caching(False):
        clear_sweep_caches()
        t0 = time.perf_counter()
        baseline = _seed_path_battery(sweep_universe, witness_universe)
        baseline_seconds = time.perf_counter() - t0

    # Engine, serial and 4 workers, each repetition from cold caches.
    # Wall clock is the best of three: on a loaded machine the pool legs
    # are noisy, and min-of-repeats is the standard noise-robust read.
    runs = {}
    for jobs in (1, 4):
        seconds = []
        for _ in range(3):
            clear_sweep_caches()
            t0 = time.perf_counter()
            result, stats = _engine_battery(
                sweep_universe, witness_universe, jobs
            )
            seconds.append(time.perf_counter() - t0)
        runs[jobs] = {
            "result": result,
            "stats": stats,
            "seconds": min(seconds),
            "runs": seconds,
        }

    _assert_identical(baseline, runs[1]["result"], "engine jobs=1 vs baseline")
    _assert_identical(runs[1]["result"], runs[4]["result"], "jobs=4 vs jobs=1")

    # Uncached engine at 4 workers: sweep_caching(False) must propagate
    # into the pool workers (carried by each ShardSpec), and the
    # worker-side cache telemetry must prove the run was truly cold —
    # zero cache consultations across every shard of every sweep.
    with sweep_caching(False):
        clear_sweep_caches()
        t0 = time.perf_counter()
        uncached_result, uncached_stats = _engine_battery(
            sweep_universe, witness_universe, 4
        )
        uncached_seconds = time.perf_counter() - t0
    for stats in uncached_stats:
        consultations = stats.cache_consultations()
        assert consultations == 0, (
            f"{stats.label}: uncached sweep consulted memoization caches "
            f"{consultations} times inside workers"
        )
    _assert_identical(baseline, uncached_result, "uncached jobs=4 vs baseline")

    # The timed leg pytest-benchmark records: the engine at 4 workers.
    def timed():
        clear_sweep_caches()
        return _engine_battery(sweep_universe, witness_universe, 4)

    benchmark.pedantic(timed, rounds=1, iterations=1)

    payload = {
        "benchmark": "parallel_sweep",
        "sweep_universe": repr(sweep_universe),
        "witness_universe": repr(witness_universe),
        "baseline_seconds": round(baseline_seconds, 4),
        "engine": {
            f"jobs{jobs}": {
                "seconds": round(run["seconds"], 4),
                "runs": [round(s, 4) for s in run["runs"]],
                "speedup_vs_baseline": round(
                    baseline_seconds / run["seconds"], 2
                ),
                "sweeps": [s.to_dict() for s in run["stats"]],
            }
            for jobs, run in runs.items()
        },
        "uncached_jobs4": {
            "seconds": round(uncached_seconds, 4),
            "cache_consultations": 0,
            "sweeps": [s.to_dict() for s in uncached_stats],
        },
        "results_identical": True,
        "thm23": list(runs[4]["result"]["thm23"]),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    speedup4 = baseline_seconds / runs[4]["seconds"]
    print()
    print(
        f"baseline (seed path, uncached): {baseline_seconds:.3f}s; "
        f"engine jobs=1: {runs[1]['seconds']:.3f}s "
        f"({baseline_seconds / runs[1]['seconds']:.2f}x); "
        f"engine jobs=4: {runs[4]['seconds']:.3f}s ({speedup4:.2f}x)"
    )
    print(f"wrote {BENCH_JSON.name}")
    assert speedup4 >= 2.0, (
        f"engine with 4 workers only {speedup4:.2f}x vs the seed path "
        f"(needed 2x)"
    )


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Quick mode shrinks both universes one node and uses a 2-worker
    pool; full mode mirrors :func:`test_parallel_sweep_speedup` —
    baseline, engine at jobs 1 and 4 (min of 3), the uncached pool leg
    — and refreshes ``BENCH_parallel_sweep.json`` with environment and
    git-sha metadata.
    """
    from repro.obs.ledger import env_metadata, git_sha

    sweep = Universe(max_nodes=2 if quick else 3, locations=("x",))
    witness = Universe(
        max_nodes=3 if quick else 4, locations=("x",), include_nop=False
    )
    pool_jobs = 2 if quick else 4

    with sweep_caching(False):
        clear_sweep_caches()
        t0 = time.perf_counter()
        baseline = _seed_path_battery(sweep, witness)
        baseline_seconds = time.perf_counter() - t0

    runs = {}
    for jobs in (1, pool_jobs):
        seconds = []
        result = stats = None
        for _ in range(1 if quick else 3):
            clear_sweep_caches()
            t0 = time.perf_counter()
            result, stats = _engine_battery(sweep, witness, jobs)
            seconds.append(time.perf_counter() - t0)
        runs[jobs] = {
            "result": result,
            "stats": stats,
            "seconds": min(seconds),
            "runs": seconds,
        }
    if check:
        _assert_identical(baseline, runs[1]["result"], "engine jobs=1 vs baseline")
        _assert_identical(
            runs[1]["result"], runs[pool_jobs]["result"],
            f"jobs={pool_jobs} vs jobs=1",
        )

    metrics = {
        "baseline_seconds": round(baseline_seconds, 4),
        "engine_jobs1_seconds": round(runs[1]["seconds"], 4),
        "engine_pool_seconds": round(runs[pool_jobs]["seconds"], 4),
        "pool_jobs": pool_jobs,
        "speedup_pool_vs_baseline": round(
            baseline_seconds / runs[pool_jobs]["seconds"], 2
        ),
    }
    if quick:
        return metrics

    # Full mode: the uncached pool leg (worker-side cache telemetry must
    # prove a truly cold run) and the JSON artifact refresh.
    with sweep_caching(False):
        clear_sweep_caches()
        t0 = time.perf_counter()
        uncached_result, uncached_stats = _engine_battery(
            sweep, witness, pool_jobs
        )
        uncached_seconds = time.perf_counter() - t0
    consultations = sum(s.cache_consultations() for s in uncached_stats)
    if check:
        assert consultations == 0, (
            f"uncached sweep consulted memoization caches {consultations} "
            "times inside workers"
        )
        _assert_identical(baseline, uncached_result, "uncached vs baseline")
        speedup = baseline_seconds / runs[pool_jobs]["seconds"]
        assert speedup >= 2.0, (
            f"engine with {pool_jobs} workers only {speedup:.2f}x vs the "
            "seed path (needed 2x)"
        )
    metrics["uncached_pool_seconds"] = round(uncached_seconds, 4)

    payload = {
        "benchmark": "parallel_sweep",
        "git_sha": git_sha(),
        "env": env_metadata(),
        "sweep_universe": repr(sweep),
        "witness_universe": repr(witness),
        "baseline_seconds": round(baseline_seconds, 4),
        "engine": {
            f"jobs{jobs}": {
                "seconds": round(run_["seconds"], 4),
                "runs": [round(s, 4) for s in run_["runs"]],
                "speedup_vs_baseline": round(
                    baseline_seconds / run_["seconds"], 2
                ),
                "sweeps": [s.to_dict() for s in run_["stats"]],
            }
            for jobs, run_ in runs.items()
        },
        "uncached_jobs4": {
            "seconds": round(uncached_seconds, 4),
            "cache_consultations": consultations,
            "sweeps": [s.to_dict() for s in uncached_stats],
        },
        "results_identical": check,
        "thm23": list(runs[pool_jobs]["result"]["thm23"]),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return metrics
