"""Tests for the multi-level BACKER hierarchy and its telemetry.

Four layers of guarantees:

* **Config** — shapes validate, round-trip through the JSON schema, and
  resolve from presets.
* **Protocol** — the flat preset is observationally identical to the
  flat :class:`~repro.runtime.backer.BackerMemory`; every faithful
  hierarchy execution (random shapes × random small computations) is
  location consistent under both the streaming and the batch checker.
* **Faults** — a dropped reconcile or flush at *any* level of any
  preset loses a masked write on the deterministic producer/consumer
  scenario, and the streaming checker rejects it with a witness.
* **Telemetry** — per-level counters and miss-latency histograms land
  in ``repro.obs`` (and render to Prometheus), miss latencies are
  monotone in depth, false sharing is structurally zero at unit lines
  and attributed to location pairs otherwise, and the Chrome exporter
  emits one named track per (processor, level).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import Computation, R, W
from repro.dag import Dag
from repro.obs import export_chrome, render_prometheus
from repro.runtime import (
    BackerMemory,
    HIERARCHY_PRESETS,
    HierarchicalBackerMemory,
    HierarchyConfig,
    LevelConfig,
    execute,
    work_stealing_schedule,
)
from repro.runtime.hier_sweep import (
    SWEEP_WORKLOADS,
    fault_probe,
    hier_sweep,
    render_sweep_table,
    resolve_shape,
    sweep_workload,
)
from repro.verify import trace_admits_lc
from repro.verify.streaming import StreamingLCVerifier
from tests.conftest import computations


@pytest.fixture(autouse=True)
def _clean_global_collector():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ---------------------------------------------------------------------------
# Configuration schema
# ---------------------------------------------------------------------------


class TestConfig:
    def test_level_validation(self):
        with pytest.raises(ValueError):
            LevelConfig(capacity=0)
        with pytest.raises(ValueError):
            LevelConfig(line_size=0)
        with pytest.raises(ValueError):
            LevelConfig(latency=0)
        # Ill-typed values from a JSON shape file: strings, floats, bools.
        for bad in (
            {"capacity": "8"},
            {"capacity": True},
            {"line_size": 2.5},
            {"latency": False},
        ):
            with pytest.raises(ValueError, match="must be an int"):
                LevelConfig(**bad)
            with pytest.raises(ValueError, match="must be an int"):
                LevelConfig.from_dict(bad)
        with pytest.raises(ValueError, match="must be an object"):
            LevelConfig.from_dict(3)
        LevelConfig(capacity=None, line_size=1, latency=1)  # ok

    def test_hierarchy_validation(self):
        with pytest.raises(ValueError):
            HierarchyConfig(levels=())
        with pytest.raises(ValueError):
            HierarchyConfig(levels=(LevelConfig(),), memory_latency=0)
        for bad in ("x", 2.0, True):
            with pytest.raises(ValueError, match="memory_latency"):
                HierarchyConfig(levels=(LevelConfig(),), memory_latency=bad)
            with pytest.raises(ValueError, match="memory_latency"):
                HierarchyConfig.from_dict(
                    {"memory_latency": bad, "levels": [{}]}
                )
        with pytest.raises(ValueError, match="must be a JSON object"):
            HierarchyConfig.from_dict([{"levels": [{}]}])

    def test_round_trip(self):
        cfg = HIERARCHY_PRESETS["l1l2l3"]
        doc = json.loads(json.dumps(cfg.to_dict()))
        again = HierarchyConfig.from_dict(doc)
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            HierarchyConfig.from_dict({"levels": [{}], "oops": 1})
        with pytest.raises(ValueError, match="unknown"):
            LevelConfig.from_dict({"capacity": 4, "oops": 1})

    def test_preset_lookup(self):
        assert HierarchyConfig.preset("flat").depth == 1
        assert HierarchyConfig.preset("l1l2l3").depth == 3
        with pytest.raises(ValueError, match="unknown hierarchy preset"):
            HierarchyConfig.preset("l9")

    def test_constructor_accepts_name_dict_and_default(self):
        assert HierarchicalBackerMemory("l1").config.name == "l1"
        doc = HIERARCHY_PRESETS["l1l2"].to_dict()
        assert HierarchicalBackerMemory(doc).config.depth == 2
        assert HierarchicalBackerMemory().config.name == "l1l2"

    def test_fault_level_bounds(self):
        with pytest.raises(ValueError, match="fault_level"):
            HierarchicalBackerMemory("l1", fault_level=2)

    def test_resolve_shape_file(self, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(HIERARCHY_PRESETS["l1"].to_dict()))
        assert resolve_shape(f"@{path}") == HIERARCHY_PRESETS["l1"]
        assert resolve_shape("flat") == HIERARCHY_PRESETS["flat"]


# ---------------------------------------------------------------------------
# Protocol correctness
# ---------------------------------------------------------------------------


def _workload(name: str) -> Computation:
    return sweep_workload(name, quick=True)


class TestFlatParity:
    """The flat preset (one unbounded unit-line level) *is* BackerMemory."""

    @pytest.mark.parametrize("workload", sorted(SWEEP_WORKLOADS))
    def test_observed_values_identical(self, workload):
        comp = _workload(workload)
        sched = work_stealing_schedule(comp, 3, rng=7)
        flat_trace = execute(sched, HierarchicalBackerMemory("flat"))
        backer_trace = execute(sched, BackerMemory())
        assert [
            (ev.node, ev.loc, ev.observed) for ev in flat_trace.reads
        ] == [(ev.node, ev.loc, ev.observed) for ev in backer_trace.reads]


class TestFaithfulLC:
    @pytest.mark.parametrize("preset", sorted(HIERARCHY_PRESETS))
    @pytest.mark.parametrize("workload", sorted(SWEEP_WORKLOADS))
    def test_presets_verify_on_workloads(self, preset, workload):
        comp = _workload(workload)
        sched = work_stealing_schedule(comp, 3, rng=1)
        trace = execute(sched, HierarchicalBackerMemory(preset))
        assert StreamingLCVerifier.check_trace(trace) is None

    @settings(max_examples=60, deadline=None)
    @given(
        comp=computations(max_nodes=6, locations=("x", "y"), include_nop=True),
        preset=st.sampled_from(sorted(HIERARCHY_PRESETS)),
        procs=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_random_runs_always_lc(self, comp, preset, procs, seed):
        """The property the sweep leans on: faithful ⇒ LC, any shape."""
        sched = work_stealing_schedule(comp, procs, rng=seed)
        trace = execute(sched, HierarchicalBackerMemory(preset))
        assert StreamingLCVerifier.check_trace(trace) is None
        assert trace_admits_lc(trace.partial_observer())


def _fault_scenario():
    comp = Computation(Dag(3, [(0, 2), (1, 2)]), (R("x"), W("x"), R("x")))
    from repro.runtime import Schedule

    return comp, Schedule(comp, (1, 0, 1), (0, 1, 2), 2)


class TestFaultInjection:
    @pytest.mark.parametrize("preset", sorted(HIERARCHY_PRESETS))
    @pytest.mark.parametrize("mode", ["reconcile", "flush"])
    def test_dropped_message_caught_at_every_level(self, preset, mode):
        shape = HIERARCHY_PRESETS[preset]
        comp, sched = _fault_scenario()
        for level in range(1, shape.depth + 1):
            kwargs = {f"drop_{mode}_probability": 1.0}
            mem = HierarchicalBackerMemory(
                shape, fault_level=level, rng=0, **kwargs
            )
            trace = execute(sched, mem)
            violation = StreamingLCVerifier.check_trace(trace)
            assert violation is not None, (
                f"dropped {mode} at L{level} of {preset} must lose the "
                "masked write"
            )
            assert violation.reason  # a rendered witness, not a bare flag
            dropped = (
                mem.stats.dropped_reconciles
                if mode == "reconcile"
                else mem.stats.dropped_flushes
            )
            assert dropped > 0

    def test_fault_probe_records_rejection(self):
        record = fault_probe(HIERARCHY_PRESETS["l1l2"], 2, "flush")
        assert record["faithful"] is False
        assert record["lc_verified"] is False
        assert record["violation"]

    def test_faithful_probe_scenario_passes(self):
        comp, sched = _fault_scenario()
        trace = execute(sched, HierarchicalBackerMemory("l1l2"))
        assert StreamingLCVerifier.check_trace(trace) is None


# ---------------------------------------------------------------------------
# Cache mechanics
# ---------------------------------------------------------------------------


class TestCacheMechanics:
    def test_lru_eviction_respects_capacity(self):
        cfg = HierarchyConfig(
            levels=(LevelConfig(capacity=2, line_size=1, latency=1),),
            name="tiny",
        )
        mem = HierarchicalBackerMemory(cfg)
        mem.attach(1)
        for i, loc in enumerate(("a", "b", "c")):
            mem.write(0, i, loc)
        cached = mem.cached_locations(0, 0)
        assert cached == {"b", "c"}  # "a" was LRU
        assert mem.stats.levels[0].evictions == 1
        # The evicted dirty value went to the store, not nowhere.
        assert mem._main["a"] == 0

    def test_own_write_visible_through_stack(self):
        mem = HierarchicalBackerMemory("l1l2l3")
        mem.attach(1)
        mem.write(0, 1, "x")
        assert mem.read(0, 2, "x") == 1

    def test_deep_hit_promotes_to_l1(self):
        mem = HierarchicalBackerMemory("l1l2")
        mem.attach(2)
        mem.write(0, 1, "x")
        mem.node_completed(0, 1, True)  # reconcile to store
        mem.node_starting(1, 2, True)  # p1 flush (empty)
        assert mem.read(1, 2, "x") == 1  # store fetch fills L1 and L2
        assert mem.stats.memory_fetches == 1
        assert "x" in mem.cached_locations(1, 0)
        assert "x" in mem.cached_locations(1, 1)
        assert mem.read(1, 3, "x") == 1  # now an L1 hit
        assert mem.stats.levels[0].hits == 1

    def test_miss_latency_monotone_across_levels(self):
        comp = _workload("fib")
        sched = work_stealing_schedule(comp, 3, rng=2)
        mem = HierarchicalBackerMemory("l1l2l3")
        execute(sched, mem)
        p50s = [
            ls.miss_latency.p50
            for ls in mem.stats.levels
            if ls.miss_latency.count
        ]
        assert len(p50s) >= 2
        assert p50s == sorted(p50s), "deeper misses must cost more"

    def test_stats_message_accounting(self):
        comp = _workload("racy")
        sched = work_stealing_schedule(comp, 3, rng=3)
        mem = HierarchicalBackerMemory("l1l2")
        execute(sched, mem)
        st = mem.stats
        assert st.fetches == st.memory_fetches
        assert st.writebacks == st.levels[-1].writebacks
        assert st.data_messages == sum(
            ls.fetches + ls.writebacks for ls in st.levels
        )
        assert st.control_messages == st.reconciles + st.flushes
        assert st.messages == st.data_messages + st.control_messages
        assert st.reconciles > 0 and st.flushes > 0


# ---------------------------------------------------------------------------
# False sharing
# ---------------------------------------------------------------------------


class TestFalseSharing:
    def _shape(self, line_size: int) -> HierarchyConfig:
        return HierarchyConfig(
            levels=(LevelConfig(capacity=4, line_size=line_size, latency=1),),
            name=f"line{line_size}",
        )

    def _drive(self, line_size: int) -> HierarchicalBackerMemory:
        # p0 repeatedly rewrites "b" while p1 rereads "a"; with a and b
        # on one line every p1 refetch is caused by b alone.
        mem = HierarchicalBackerMemory(self._shape(line_size))
        mem.attach(2)
        mem.write(0, 0, "a")
        mem.write(0, 1, "b")
        mem.node_completed(0, 1, True)
        node = 2
        for _round in range(4):
            mem.node_starting(1, node, True)
            mem.read(1, node, "a")
            node += 1
            mem.write(0, node, "b")
            mem.node_completed(0, node, True)
            node += 1
        return mem

    def test_zero_at_unit_lines(self):
        mem = self._drive(1)
        assert mem.stats.false_sharing_total == 0
        assert mem.stats.false_sharing_pairs == {}

    def test_counted_and_attributed_at_shared_lines(self):
        mem = self._drive(2)
        assert mem.stats.false_sharing_total > 0
        ((level, pair), count), *_ = sorted(
            mem.stats.false_sharing_pairs.items()
        )
        assert level == 0
        assert pair == ("a", "b")
        assert count == mem.stats.false_sharing_total
        top = mem.stats.top_pairs()
        assert top[0] == (0, ("a", "b"), count)

    def test_true_miss_not_counted(self):
        # The requested location itself changed: a true miss, no blame.
        mem = HierarchicalBackerMemory(self._shape(2))
        mem.attach(2)
        mem.write(0, 0, "a")
        mem.node_completed(0, 0, True)
        mem.node_starting(1, 1, True)
        assert mem.read(1, 1, "a") == 0
        mem.write(0, 2, "a")
        mem.node_completed(0, 2, True)
        mem.node_starting(1, 3, True)
        assert mem.read(1, 3, "a") == 2
        assert mem.stats.false_sharing_total == 0

    def test_sweep_shows_line_size_effect(self):
        """The acceptance-criterion experiment: fs shrinks to 0 at line 1."""
        comp = _workload("fib")
        sched = work_stealing_schedule(comp, 4, rng=0)
        by_line = {}
        for line_size in (1, 8):
            mem = HierarchicalBackerMemory(
                HierarchyConfig(
                    levels=(
                        LevelConfig(capacity=8, line_size=line_size, latency=1),
                    ),
                    name=f"line{line_size}",
                )
            )
            execute(sched, mem)
            by_line[line_size] = mem.stats.false_sharing_total
        assert by_line[1] == 0
        assert by_line[8] > 0


# ---------------------------------------------------------------------------
# Observability integration
# ---------------------------------------------------------------------------


class TestObsIntegration:
    def _run_instrumented(self, preset: str = "l1l2"):
        obs.enable()
        comp = _workload("fib")
        sched = work_stealing_schedule(comp, 3, rng=5)
        mem = HierarchicalBackerMemory(preset)
        execute(sched, mem)
        return mem

    def test_counters_and_histograms_published(self):
        mem = self._run_instrumented()
        o = obs.get()
        for k in (1, 2):
            for metric in ("fetches", "hits", "writebacks", "evictions"):
                assert f"hier.L{k}.{metric}" in o.counters
            assert f"hier.L{k}.miss_latency" in o.histograms
        assert o.counters["hier.L1.fetches"] == mem.stats.levels[0].fetches
        assert (
            o.histograms["hier.L1.miss_latency"].count
            == mem.stats.levels[0].miss_latency.count
        )
        assert o.counters["hier.reconciles"] == mem.stats.reconciles
        assert o.counters["hier.flushes"] == mem.stats.flushes

    def test_prometheus_rendering(self):
        self._run_instrumented()
        text = render_prometheus(obs.get())
        assert "repro_hier_L1_fetches" in text
        assert "repro_hier_L2_miss_latency" in text

    def test_chrome_trace_has_level_tracks(self):
        self._run_instrumented()
        doc = json.loads(export_chrome(obs.get()))
        names = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "process_name"
        }
        tracks = {n for n in names if n.startswith("hier p")}
        assert len(tracks) >= 2, f"want per-(proc, level) tracks, got {names}"
        levels = {n.rsplit("L", 1)[-1] for n in tracks}
        assert len(levels) >= 2, "tracks must span at least two levels"

    def test_obs_on_and_off_runs_agree(self):
        """Observability changes what is recorded, never the run."""

        def counters(mem):
            st = mem.stats
            return (
                [
                    (ls.fetches, ls.hits, ls.writebacks, ls.evictions,
                     ls.false_sharing, ls.miss_latency.count,
                     ls.miss_latency.total, ls.miss_latency.buckets)
                    for ls in st.levels
                ],
                st.reconciles, st.flushes, st.dropped_reconciles,
                st.dropped_flushes, st.memory_fetches, st.cache_hits,
                st.false_sharing_pairs,
            )

        def tracks():
            return [
                sp for root in obs.get().roots for sp in root.children
                if sp.name == "hier.tracks"
            ]

        comp = _workload("fib")
        sched = work_stealing_schedule(comp, 3, rng=4)
        runs = []
        for on in (False, True):
            obs.reset()
            (obs.enable if on else obs.disable)()
            # Faults make the sanitizer halt the run part-way.
            mem = HierarchicalBackerMemory(
                "l1l2",
                drop_reconcile_probability=0.5,
                drop_flush_probability=0.5,
                rng=0,
            )
            sanitizer = StreamingLCVerifier()
            trace = execute(sched, mem, sanitizer=sanitizer)
            runs.append((trace, mem, tracks()))
            obs.disable()
        (off_trace, off_mem, off_tracks), (on_trace, on_mem, on_tracks) = runs
        assert off_trace.reads == on_trace.reads
        assert off_trace.violation == on_trace.violation is not None
        assert counters(off_mem) == counters(on_mem)
        assert off_mem._track_events == {} and not off_tracks
        assert on_mem._track_events and len(on_tracks) == 1
        # The traced run's executor counters describe the nodes it ran.
        c = obs.get().counters
        ran = sched.order[: sanitizer.events]
        assert c["executor.nodes"] == sanitizer.events < comp.num_nodes
        assert c["executor.reads"] == len(on_trace.reads)
        assert c["executor.writes"] == sum(comp.ops[u].is_write for u in ran)

    def test_publish_obs_noop_when_disabled(self):
        comp = _workload("racy")
        sched = work_stealing_schedule(comp, 2, rng=6)
        mem = HierarchicalBackerMemory("l1")
        execute(sched, mem)
        mem.publish_obs()
        assert obs.get().counters == {}


# ---------------------------------------------------------------------------
# Sweep engine
# ---------------------------------------------------------------------------


class TestSweepEngine:
    def test_quick_sweep_passes_and_streams(self):
        seen = []
        result = hier_sweep(
            [resolve_shape("l1"), resolve_shape("l1l2")],
            ["stencil", "racy"],
            [2],
            quick=True,
            progress=seen.append,
        )
        assert result.ok
        assert result.faithful_runs == 4
        assert result.fault_probes == 2 * (1 + 2)
        assert len(seen) == len(result.records)
        assert result.simulated_ops > 0

    def test_sweep_table_renders(self):
        result = hier_sweep(
            [resolve_shape("l1")], ["racy"], [2], quick=True
        )
        table = render_sweep_table(result)
        assert "racy" in table and "l1" in table
        assert "LC-verified" in table

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep workload"):
            sweep_workload("nope", quick=True)


class TestCli:
    def test_hier_sweep_quick(self, capsys, tmp_path):
        from repro.cli import main

        out_file = tmp_path / "runs.jsonl"
        rc = main(
            [
                "hier",
                "sweep",
                "--quick",
                "--shapes",
                "flat,l1",
                "--workloads",
                "racy",
                "--procs",
                "2",
                "--out",
                str(out_file),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "LC-verified" in out
        records = [
            json.loads(line) for line in out_file.read_text().splitlines()
        ]
        faithful = [r for r in records if r["faithful"]]
        probes = [r for r in records if not r["faithful"]]
        assert faithful and probes
        assert all(r["lc_verified"] for r in faithful)
        assert all(not r["lc_verified"] for r in probes)

    def test_run_with_hier_memory(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "run",
                "--program",
                "fib",
                "--size",
                "6",
                "--procs",
                "2",
                "--memory",
                "hier",
                "--hier-shape",
                "l1l2",
            ]
        )
        assert rc == 0

    def test_bad_shape_exits_cleanly(self, capsys):
        from repro.cli import main

        rc = main(["hier", "sweep", "--quick", "--shapes", "l9"])
        assert rc == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"levels": [{"capacity": "8"}]},
            {"memory_latency": "x", "levels": [{}]},
            {"levels": [{"line_size": 2.5}]},
            {"levels": [{"capacity": True}]},
            {"levels": [3]},
            ["not", "an", "object"],
        ],
    )
    def test_bad_shape_file_exits_cleanly(self, capsys, tmp_path, doc):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(
            ["run", "--program", "fib", "--size", "4", "--procs", "2",
             "--memory", "hier", "--hier-shape", f"@{path}"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
