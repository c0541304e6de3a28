"""The three workloads, one per product path, untraced and traced.

Each workload is a function ``(seed, seconds, traced) -> Outcome``.
Untraced runs repeat one *unit* of work (a cold lattice, a 1020-item
serve stream, one simulator grid) until ``seconds`` is spent and
report medians.  Traced runs alternate an untraced unit with a unit
under a :class:`~layers.Tracer` and report per-layer times per unit.

Only public entry points drive the program.  The traced run patches the
functions each layer is made of (see :func:`install`), so a layer is
timed wherever the program calls it.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import gen
from layers import Tracer

JOBS = 2
"""Pool size for the sweep and the service: one worker per CPU of the
2-CPU machine the benchmark is sized for (``run.py`` refuses to run
with fewer CPUs, so pool numbers never measure oversubscription)."""

SWEEP_NODES = 4
SERVE_CHECKS = ("lc", "streaming")
KNOWN_SERVE_ERROR = "TypeError: '<' not supported between instances of"
"""``request_fingerprint`` compares ``None`` with ``int`` on some traces
whose reads observe ⊥; the service answers those items ``ok: false``."""

IMPORTS = {
    "sweep-lattice": (
        "repro.analysis.lattice",
        "repro.runtime.parallel",
        "repro.models.constructibility",
        "repro.paperfigures",
    ),
    "serve-mixed": ("repro.serve.service", "repro.verify", "repro.io"),
    "sim-hier": (
        "repro.runtime.hier_sweep",
        "repro.lang.programs",
        "repro.verify.streaming",
    ),
}
"""What each workload imports before its first timed operation."""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: Per-repeat set-up seconds (added to the import time for ``setup_s``).
    setups: list[float] = field(default_factory=list)
    #: Human-readable facts for the log lines (input digest, aliases).
    notes: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _repeat(seconds: float, unit: Callable[[], float]) -> None:
    """Run ``unit`` (returning its duration) until another would end
    past ``seconds``; always at least once."""
    start = time.perf_counter()
    while True:
        last = unit()
        if time.perf_counter() - start + last > seconds:
            return


def _mean_layers(per_unit: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.fmean(d[k] for d in per_unit) for k in per_unit[0]}


def install(tracer: Tracer, in_shard: bool) -> None:
    """Patch every named layer of all three paths.

    ``in_shard`` adds the layers that run inside sweep shards; only a
    serial sweep runs them in this process where the tracer can see
    them.  Layers of the paths a workload does not drive stay at zero,
    which is the "flat elsewhere" prediction measured, not assumed.
    """
    import repro.kernels as kernels
    import repro.models.base as base
    import repro.models.constructibility as constructibility
    import repro.runtime.executor as executor
    import repro.runtime.hier_sweep as hier_sweep
    import repro.runtime.parallel as parallel
    import repro.runtime.scheduler as scheduler
    import repro.serve.service as service
    from repro.models.universe import Universe
    from repro.verify.streaming import StreamingLCVerifier

    tracer.patch(parallel, "parallel_inclusion_matrix", "lattice.inclusion")
    tracer.patch(parallel, "parallel_lattice_battery", "lattice.battery")
    tracer.patch(
        parallel,
        "run_shards",
        "sweep.run_shards",
        key=lambda *a, **k: k.get("label", "sweep"),
    )
    if in_shard:
        tracer.patch(Universe, "pairs", "sweep.enumerate", iterator=True)
        tracer.patch(base, "cached_membership", "sweep.membership")
        tracer.patch(constructibility, "augmentation_closed_at", "sweep.augment")
        tracer.patch(kernels, "inclusion_fold", "sweep.fold")
    tracer.patch(service, "parse_request_ex", "serve.parse")
    # The service binds the repro.io loaders in a format table.
    for fmt in list(getattr(service, "_LOADERS", {})):
        tracer.patch_item(service._LOADERS, fmt, "serve.load")
    tracer.patch(
        service,
        "request_fingerprint",
        "serve.fingerprint",
        key=lambda obj, *a, **k: obj.comp.num_nodes,
    )
    tracer.patch(scheduler, "work_stealing_schedule", "sim.schedule")
    tracer.patch(executor, "execute", "sim.memory")
    tracer.patch(hier_sweep, "execute", "sim.memory")
    tracer.patch(StreamingLCVerifier, "check_trace", "sim.verify")


# ----------------------------------------------------------------------
# sweep-lattice
# ----------------------------------------------------------------------


def _lattice(jobs: int) -> tuple[float, float, Any]:
    """(setup s, wall s, LatticeResult) of one cold lattice."""
    from repro.analysis.lattice import compute_lattice
    from repro.models.universe import Universe
    from repro.runtime.parallel import clear_sweep_caches

    t0 = time.perf_counter()
    clear_sweep_caches()
    universe = Universe(max_nodes=SWEEP_NODES, locations=("x",))
    t1 = time.perf_counter()
    result = compute_lattice(universe, universe, jobs=jobs)
    return t1 - t0, time.perf_counter() - t1, result


def _check_lattice(out: Outcome, result: Any) -> None:
    out.attempted += 1
    problems = result.matches_paper()
    if problems:
        out.fail(f"lattice: {problems}")


def sweep_lattice(seed: int, seconds: float, traced: bool) -> Outcome:
    # The lattice universe is fixed; the seed has nothing to vary.
    out = Outcome(notes={"inputs": gen.digest(["lattice", SWEEP_NODES, "x"])})
    if not traced:
        walls: list[float] = []
        shard_ms: list[float] = []
        pairs = 0

        def unit() -> float:
            nonlocal pairs
            setup, wall, result = _lattice(JOBS)
            _check_lattice(out, result)
            out.setups.append(setup)
            walls.append(wall)
            stats = result.sweep_stats.values()
            shard_ms.extend(1e3 * m.seconds for st in stats for m in st.shards)
            pairs += sum(st.pairs for st in stats)
            return wall

        _repeat(seconds, unit)
        unit_s = statistics.median(walls)
        out.metrics = {
            "unit_s": unit_s,
            "items_per_s": pairs / sum(walls),
            "item_p50_ms": percentile(shard_ms, 50),
            "item_p90_ms": percentile(shard_ms, 90),
        }
        out.notes.update(lattice_s=unit_s, unit_walls=walls, shards=len(shard_ms))
        return out

    cycles: list[dict[str, float]] = []

    def cycle() -> float:
        t0 = time.perf_counter()
        _, wall_u, result = _lattice(JOBS)
        _check_lattice(out, result)
        # Pool pass: only parent-side layers are visible.
        with Tracer() as pool_tr:
            install(pool_tr, in_shard=False)
            _, wall_t, result = _lattice(JOBS)
        _check_lattice(out, result)
        stats = result.sweep_stats
        shards = [m for st in stats.values() for m in st.shards]
        busy = sum(m.seconds for m in shards)
        outside = pool_tr.by_key["sweep.run_shards"]
        ipc = 0.0
        for label, st in stats.items():
            per_worker: dict[int, float] = {}
            for m in st.shards:
                per_worker[m.pid] = per_worker.get(m.pid, 0.0) + m.seconds
            ipc += sum(outside[label]) - max(per_worker.values())
        run_shards_s = pool_tr.inclusive_s["sweep.run_shards"]
        membership = {"hits": 0, "misses": 0}
        for st in stats.values():
            for k, v in st.cache_totals().get("membership", {}).items():
                membership[k] += v
        pairs = sum(st.pairs for st in stats.values())
        # Serial pass: every layer runs in this process.
        _, wall_us, result = _lattice(1)
        _check_lattice(out, result)
        with Tracer() as tr:
            install(tr, in_shard=True)
            _, wall_ts, result = _lattice(1)
        _check_lattice(out, result)
        named = tr.seconds(
            "sweep.enumerate",
            "sweep.membership",
            "sweep.augment",
            "sweep.fold",
            "lattice.inclusion",
            "lattice.battery",
        )
        lookups = membership["hits"] + membership["misses"]
        cycles.append(
            {
                "sweep.enumerate_s": tr.seconds("sweep.enumerate"),
                "sweep.membership_s": tr.seconds("sweep.membership"),
                "sweep.augment_s": tr.seconds("sweep.augment"),
                "sweep.fold_s": tr.seconds("sweep.fold"),
                "sweep.merge_s": pool_tr.seconds("lattice.inclusion", "lattice.battery"),
                "sweep.ipc_s": ipc,
                "sweep.worker_busy_ratio": busy / (JOBS * run_shards_s),
                "sweep.pairs": pairs,
                "sweep.us_per_pair": 1e6 * busy / pairs,
                "sweep.membership_hit_ratio": membership["hits"] / lookups if lookups else 0.0,
                "lattice.inclusion_s": pool_tr.inclusive_s["lattice.inclusion"],
                "lattice.battery_s": pool_tr.inclusive_s["lattice.battery"],
                "traced_wall_s": wall_t + wall_ts,
                "untraced_wall_s": wall_u + wall_us,
                "unattributed_s": wall_ts - named,
                "unattributed_share": (wall_ts - named) / wall_ts,
                **_zero_layers(tr, "serve", "sim"),
            }
        )
        return time.perf_counter() - t0

    _repeat(seconds, cycle)
    out.metrics = _mean_layers(cycles)
    out.notes.update(cycles=len(cycles))
    return out


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


def serve_oracle(lines: list[str]) -> dict[str, dict[str, Any]]:
    """In-process expected verdicts, one per distinct request line."""
    from repro.io import load_trace
    from repro.verify import trace_admits_lc
    from repro.verify.streaming import StreamingLCVerifier

    expected = {}
    for line in dict.fromkeys(lines):
        trace = load_trace(json.loads(line))
        violation = StreamingLCVerifier.check_trace(trace)
        expected[line] = {
            "streaming": violation is None,
            "lc": trace_admits_lc(trace.partial_observer()),
            "witness_node": None if violation is None else violation.node,
        }
    return expected


def serve_problem(verdict: dict, expected: dict[str, Any]) -> str | None:
    """Why ``verdict`` is wrong for a request the oracle judged as
    ``expected``, or ``None``.  The documented ⊥-fingerprint error is
    not a problem (see :data:`KNOWN_SERVE_ERROR`)."""
    if not verdict.get("ok"):
        error = str(verdict.get("error", ""))
        return None if error.startswith(KNOWN_SERVE_ERROR) else f"error {error!r}"
    got = verdict.get("verdicts", {})
    for check in ("streaming", "lc"):
        if got.get(check) is not expected[check]:
            return f"{check} verdict {got.get(check)!r}, oracle says {expected[check]!r}"
    if verdict.get("admitted") is not (expected["streaming"] and expected["lc"]):
        return f"admitted {verdict.get('admitted')!r} disagrees with its checks"
    if verdict.get("admitted") is False:
        witness = verdict.get("witness")
        if not isinstance(witness, dict):
            return "reject without a witness"
        if witness.get("node") != expected["witness_node"]:
            return f"witness node {witness.get('node')!r}, oracle says {expected['witness_node']!r}"
    return None


def _serve_pass(
    lines: list[str], warmup: list[str], tracer: Tracer | None = None
) -> tuple[float, float, float, list[float], list[Any]]:
    """(setup s, stream wall s, summed batch walls s, item latencies s,
    results in corpus order) of one fresh service."""
    from repro.runtime.parallel import clear_sweep_caches
    from repro.serve.service import CheckOptions, TraceCheckService

    t0 = time.perf_counter()
    clear_sweep_caches()
    service = TraceCheckService(options=CheckOptions(checks=SERVE_CHECKS), jobs=JOBS)
    try:
        service.check_batch(warmup)  # starts the pool
        setup = time.perf_counter() - t0
        if tracer is not None:
            install(tracer, in_shard=False)
            tracer.patch(service.cache, "get", "serve.cache")
            tracer.patch(service.cache, "put", "serve.cache")
        latencies: list[float] = []
        results: list[Any] = []
        batch_walls = 0.0
        t1 = time.perf_counter()
        for batch in gen.batches(lines):
            sent = time.perf_counter()
            answered = service.check_batch(
                batch,
                on_result=lambda item, sent=sent: latencies.append(
                    time.perf_counter() - sent
                ),
            )
            batch_walls += time.perf_counter() - sent
            results.extend(answered)
        wall = time.perf_counter() - t1
    finally:
        if tracer is not None:
            tracer.restore()
        service.close()
    return setup, wall, batch_walls, latencies, results


def _check_serve(out: Outcome, lines: list[str], results: list[Any], expected: dict) -> None:
    """Judge one pass against the oracle."""
    known = 0
    for line, item in zip(lines, results):
        out.attempted += 1
        problem = serve_problem(item.verdict, expected[line])
        if problem is not None:
            out.fail(f"serve item: {problem}")
        elif not item.verdict.get("ok"):
            known += 1
    out.notes["known_error_items"] = known


def serve_mixed(seed: int, seconds: float, traced: bool) -> Outcome:
    lines = gen.serve_corpus(seed)
    warmup = gen.warmup_batch(seed)
    out = Outcome(notes={"inputs": gen.digest([lines, warmup])})
    # Each pass clears the sweep caches this warms before it starts.
    expected = serve_oracle(lines)
    if not traced:
        walls: list[float] = []
        latencies: list[float] = []

        def unit() -> float:
            setup, wall, _, lat, results = _serve_pass(lines, warmup)
            _check_serve(out, lines, results, expected)
            out.setups.append(setup)
            walls.append(wall)
            latencies.extend(lat)
            return setup + wall

        _repeat(seconds, unit)
        out.metrics = {
            "unit_s": statistics.median(walls),
            "items_per_s": len(lines) * len(walls) / sum(walls),
            "item_p50_ms": 1e3 * percentile(latencies, 50),
            "item_p90_ms": 1e3 * percentile(latencies, 90),
        }
        out.notes.update(
            serve_items_per_s=out.metrics["items_per_s"],
            serve_item_p50_ms=out.metrics["item_p50_ms"],
            serve_item_p90_ms=out.metrics["item_p90_ms"],
            unit_walls=walls,
        )
        return out

    cycles: list[dict[str, float]] = []

    def cycle() -> float:
        t0 = time.perf_counter()
        _, wall_u, _, _, results = _serve_pass(lines, warmup)
        _check_serve(out, lines, results, expected)
        tr = Tracer()
        _, wall_t, batch_walls, _, results = _serve_pass(lines, warmup, tr)
        _check_serve(out, lines, results, expected)
        parent = tr.seconds("serve.parse", "serve.load", "serve.fingerprint", "serve.cache")
        fresh = [r.verdict for r in results if not r.cached]
        answered = [r.verdict for r in results if r.verdict.get("ok")]
        cycles.append(
            {
                "serve.parse_s": tr.seconds("serve.parse"),
                "serve.load_s": tr.seconds("serve.load"),
                "serve.fingerprint_s": tr.seconds("serve.fingerprint"),
                "serve.fingerprint_ms_n5": tr.mean_ms("serve.fingerprint", 5),
                "serve.fingerprint_ms_n6": tr.mean_ms("serve.fingerprint", 6),
                "serve.fingerprint_ms_n7": tr.mean_ms("serve.fingerprint", 7),
                "serve.cache_s": tr.seconds("serve.cache"),
                "serve.check_s": sum(float(v.get("seconds", 0.0)) for v in fresh),
                "serve.dispatch_s": batch_walls - parent,
                "serve.dedupe_hit_ratio": sum(r.cached for r in results) / len(results),
                "serve.reject_ratio": sum(v.get("admitted") is False for v in answered)
                / len(answered),
                "serve.known_error_items": out.notes["known_error_items"],
                "traced_wall_s": wall_t,
                "untraced_wall_s": wall_u,
                "unattributed_s": wall_t - batch_walls,
                "unattributed_share": (wall_t - batch_walls) / wall_t,
                **_zero_layers(tr, "sweep", "sim"),
            }
        )
        return time.perf_counter() - t0

    _repeat(seconds, cycle)
    out.metrics = _mean_layers(cycles)
    out.notes.update(cycles=len(cycles))
    return out


# ----------------------------------------------------------------------
# sim-hier
# ----------------------------------------------------------------------


def _unfold() -> dict[str, Any]:
    import repro.lang.programs as programs

    return {
        name: getattr(programs, factory)(*args)[0]
        for name, (factory, args) in gen.SIM_PROGRAMS.items()
    }


def _grid(plan: list[dict], comps: dict[str, Any]) -> tuple[float, list[float], dict[str, int], list[str]]:
    """(wall s, per-run latencies s, traffic counts, problems) of one grid."""
    from repro.runtime import executor, hier_sweep, scheduler
    from repro.runtime.hierarchy import HierarchicalBackerMemory, HierarchyConfig
    from repro.verify.streaming import StreamingLCVerifier

    counts: dict[str, int] = dict.fromkeys(
        ("events", "nodes", "memory_fetches", "writebacks", "false_sharing",
         "data_messages", "control_messages", "messages", "runs_verified",
         "probes", "probes_rejected", "L1.hits", "L1.fetches", "L2.hits",
         "L2.fetches", "L3.hits", "L3.fetches"),
        0,
    )
    writes = {name: sum(op.is_write for op in comp.ops) for name, comp in comps.items()}
    problems: list[str] = []
    latencies: list[float] = []
    schedules: dict[tuple, Any] = {}
    t0 = time.perf_counter()
    for cell in plan:
        comp = comps[cell["program"]]
        key = (cell["program"], cell["procs"], cell["schedule_seed"])
        if key not in schedules:
            schedules[key] = scheduler.work_stealing_schedule(
                comp, cell["procs"], rng=cell["schedule_seed"]
            )
        memory = HierarchicalBackerMemory(cell["shape"])
        t1 = time.perf_counter()
        trace = executor.execute(schedules[key], memory)
        violation = StreamingLCVerifier.check_trace(trace)
        latencies.append(time.perf_counter() - t1)
        if violation is None:
            counts["runs_verified"] += 1
        else:
            problems.append(f"faithful run {cell} rejected: {violation.reason}")
        st = memory.stats
        counts["events"] += len(trace.reads) + writes[cell["program"]] + st.memory_fetches
        for level, ls in enumerate(st.levels, start=1):
            counts["events"] += ls.fetches + ls.hits + ls.writebacks + ls.evictions
            counts[f"L{level}.hits"] += ls.hits
            counts[f"L{level}.fetches"] += ls.fetches
        counts["nodes"] += comp.num_nodes
        counts["memory_fetches"] += st.memory_fetches
        counts["writebacks"] += st.writebacks
        counts["false_sharing"] += st.false_sharing_total
        counts["data_messages"] += st.data_messages
        counts["control_messages"] += st.control_messages
        counts["messages"] += st.messages
    for shape in gen.SIM_SHAPES:
        config = HierarchyConfig.preset(shape)
        for level in range(1, config.depth + 1):
            for mode in ("reconcile", "flush"):
                record = hier_sweep.fault_probe(config, level, mode)
                counts["probes"] += 1
                if record["lc_verified"]:
                    problems.append(f"fault probe {shape} L{level} {mode} verified")
                else:
                    counts["probes_rejected"] += 1
    return time.perf_counter() - t0, latencies, counts, problems


def sim_hier(seed: int, seconds: float, traced: bool) -> Outcome:
    plan = gen.sim_plan(seed)
    out = Outcome(notes={"inputs": gen.digest([plan, gen.SIM_PROGRAMS])})
    first_counts: dict[str, int] | None = None

    def grid(comps: dict[str, Any]) -> tuple[float, list[float], dict[str, int]]:
        nonlocal first_counts
        wall, latencies, counts, problems = _grid(plan, comps)
        out.attempted += len(plan) + counts["probes"]
        for problem in problems:
            out.fail(problem)
        # Traffic is modelled, not measured: every repeat must agree.
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            out.fail("simulated traffic counts differ between repeats")
        return wall, latencies, counts

    def unfold() -> dict[str, Any]:
        t0 = time.perf_counter()
        comps = _unfold()
        out.setups.append(time.perf_counter() - t0)
        return comps

    if not traced:
        walls: list[float] = []
        latencies: list[float] = []
        events = 0

        def unit() -> float:
            nonlocal events
            wall, lat, counts = grid(unfold())
            walls.append(wall)
            latencies.extend(lat)
            events += counts["events"]
            return out.setups[-1] + wall

        _repeat(seconds, unit)
        unit_s = statistics.median(walls)
        out.metrics = {
            "unit_s": unit_s,
            "items_per_s": events / sum(walls),
            "item_p50_ms": 1e3 * percentile(latencies, 50),
            "item_p90_ms": 1e3 * percentile(latencies, 90),
        }
        out.notes.update(sim_s=unit_s, sim_messages=first_counts["messages"], unit_walls=walls)
        return out

    cycles: list[dict[str, float]] = []

    def cycle() -> float:
        t0 = time.perf_counter()
        comps = unfold()
        wall_u, _, _ = grid(comps)
        with Tracer() as tr:
            install(tr, in_shard=True)
            wall_t, _, c = grid(comps)
        memory_s = tr.seconds("sim.memory")
        verify_s = tr.seconds("sim.verify")
        named = tr.seconds("sim.schedule") + memory_s + verify_s
        cycles.append(
            {
                "sim.schedule_s": tr.seconds("sim.schedule"),
                "sim.memory_s": memory_s,
                "sim.verify_s": verify_s,
                "sim.events": c["events"],
                "sim.memory_us_per_event": 1e6 * memory_s / c["events"],
                "sim.verify_us_per_node": 1e6 * verify_s / c["nodes"],
                "sim.L1.hit_ratio": _ratio(c["L1.hits"], c["L1.fetches"]),
                "sim.L2.hit_ratio": _ratio(c["L2.hits"], c["L2.fetches"]),
                "sim.L3.hit_ratio": _ratio(c["L3.hits"], c["L3.fetches"]),
                **{
                    f"sim.{k}": c[k]
                    for k in ("memory_fetches", "writebacks", "false_sharing",
                              "data_messages", "control_messages", "messages",
                              "runs_verified", "probes_rejected")
                },
                "traced_wall_s": wall_t,
                "untraced_wall_s": wall_u,
                "unattributed_s": wall_t - named,
                "unattributed_share": (wall_t - named) / wall_t,
                **_zero_layers(tr, "sweep", "serve"),
            }
        )
        return time.perf_counter() - t0

    _repeat(seconds, cycle)
    out.metrics = _mean_layers(cycles)
    out.notes.update(cycles=len(cycles))
    return out


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------------
# Metric catalogue
# ----------------------------------------------------------------------

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("unit_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("item_p90_ms", "ms", "lower"),
)

PER_LAYER = (
    ("sweep.enumerate_s", "s", "lower"),
    ("sweep.membership_s", "s", "lower"),
    ("sweep.augment_s", "s", "lower"),
    ("sweep.fold_s", "s", "lower"),
    ("sweep.merge_s", "s", "lower"),
    ("sweep.ipc_s", "s", "lower"),
    ("sweep.worker_busy_ratio", "ratio", "higher"),
    ("sweep.pairs", "count", "lower"),
    ("sweep.us_per_pair", "us", "lower"),
    ("sweep.membership_hit_ratio", "ratio", "higher"),
    ("lattice.inclusion_s", "s", "lower"),
    ("lattice.battery_s", "s", "lower"),
    ("serve.parse_s", "s", "lower"),
    ("serve.load_s", "s", "lower"),
    ("serve.fingerprint_s", "s", "lower"),
    ("serve.fingerprint_ms_n5", "ms", "lower"),
    ("serve.fingerprint_ms_n6", "ms", "lower"),
    ("serve.fingerprint_ms_n7", "ms", "lower"),
    ("serve.cache_s", "s", "lower"),
    ("serve.check_s", "s", "lower"),
    ("serve.dispatch_s", "s", "lower"),
    ("serve.dedupe_hit_ratio", "ratio", "higher"),
    ("serve.reject_ratio", "ratio", "lower"),
    ("serve.known_error_items", "count", "lower"),
    ("sim.schedule_s", "s", "lower"),
    ("sim.memory_s", "s", "lower"),
    ("sim.verify_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.memory_us_per_event", "us", "lower"),
    ("sim.verify_us_per_node", "us", "lower"),
    ("sim.L1.hit_ratio", "ratio", "higher"),
    ("sim.L2.hit_ratio", "ratio", "higher"),
    ("sim.L3.hit_ratio", "ratio", "higher"),
    ("sim.memory_fetches", "count", "lower"),
    ("sim.writebacks", "count", "lower"),
    ("sim.false_sharing", "count", "lower"),
    ("sim.data_messages", "count", "lower"),
    ("sim.control_messages", "count", "lower"),
    ("sim.messages", "count", "lower"),
    ("sim.runs_verified", "count", "higher"),
    ("sim.probes_rejected", "count", "higher"),
    ("trace_overhead_ratio", "ratio", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("untraced_wall_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("unattributed_share", "ratio", "lower"),
)

LAYER_TIMES = {
    "sweep.enumerate_s": "sweep.enumerate",
    "sweep.membership_s": "sweep.membership",
    "sweep.augment_s": "sweep.augment",
    "sweep.fold_s": "sweep.fold",
    "sweep.merge_s": ("lattice.inclusion", "lattice.battery"),
    "lattice.inclusion_s": "lattice.inclusion",
    "lattice.battery_s": "lattice.battery",
    "serve.parse_s": "serve.parse",
    "serve.load_s": "serve.load",
    "serve.fingerprint_s": "serve.fingerprint",
    "serve.cache_s": "serve.cache",
    "sim.schedule_s": "sim.schedule",
    "sim.memory_s": "sim.memory",
    "sim.verify_s": "sim.verify",
}
"""Per-layer metrics that are a tracer's self time of some layers."""

PATHS = {"sweep": ("sweep.", "lattice."), "serve": ("serve.",), "sim": ("sim.",)}


def _zero_layers(tracer: Tracer, *paths: str) -> dict[str, float]:
    """The per-layer metrics of paths this workload does not drive: the
    layer times the tracer saw (expected zero), every other metric 0."""
    out = {}
    for name, _, _ in PER_LAYER:
        if not any(name.startswith(p) for path in paths for p in PATHS[path]):
            continue
        layers = LAYER_TIMES.get(name, ())
        out[name] = tracer.seconds(*((layers,) if isinstance(layers, str) else layers))
    return out


WORKLOADS: dict[str, Callable[[int, float, bool], Outcome]] = {
    "sweep-lattice": sweep_lattice,
    "serve-mixed": serve_mixed,
    "sim-hier": sim_hier,
}
