"""The multi-rule analysis engine: registry, rules, SARIF, baselines.

Exercises the framework around the detectors: rule selection semantics
(``--select``/``--ignore`` prefixes, opt-in and trace-only gating),
report shapes (including the PR 2 legacy JSON keys the CI smoke
asserts), the deadlock and portability rules on matched positive /
negative fixtures, SARIF 2.1.0 structural validity, and the baseline
fingerprint contract (stable across re-unfolds, suppression
round-trip, versioned files).
"""

import json

import pytest

from repro.analysis import (
    AnalysisContext,
    Finding,
    all_rules,
    apply_baseline,
    check_portability,
    finding_fingerprint,
    get_rule,
    load_baseline,
    lock_cycles,
    lock_graph,
    register_rule,
    run_analysis,
    sarif_document,
    select_rules,
    validate_sarif,
    write_baseline,
)
from repro.lang import (
    deadlock_computation,
    iriw_computation,
    locked_counter_computation,
    racy_counter_computation,
    store_buffer_computation,
    tree_sum_computation,
    unfold,
)
from repro.runtime import (
    BackerMemory,
    SerialMemory,
    execute,
    work_stealing_schedule,
)

EXPECTED_RULES = ("DL001", "LC001", "PORT001", "RACE001", "RACE002")


def _ctx(factory, target="t", **kwargs):
    comp, info = factory()
    return AnalysisContext(
        comp,
        target=target,
        sp=info.sp,
        lock_sections=info.lock_sections,
        node_paths=info.node_paths,
        names=info.names,
        **kwargs,
    )


def _trace(comp, drop, seed):
    sched = work_stealing_schedule(comp, 4, rng=seed)
    mem = BackerMemory(
        drop_reconcile_probability=drop,
        drop_flush_probability=drop,
        rng=seed,
    )
    return execute(sched, mem)


class TestRegistry:
    def test_all_expected_rules_registered(self):
        assert tuple(r.id for r in all_rules()) == EXPECTED_RULES
        for rule in all_rules():
            assert rule.doc and rule.severity in ("error", "warning", "note")

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_rule("RACE001", name="dup", severity="error")(
                lambda ctx: []
            )

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            register_rule("X999", name="x", severity="fatal")(
                lambda ctx: []
            )

    def test_get_rule_unknown(self):
        with pytest.raises(ValueError, match="unknown rule"):
            get_rule("NOPE")

    def test_select_prefix_and_exact(self):
        assert [r.id for r in select_rules("RACE")] == [
            "RACE001",
            "RACE002",
        ]
        assert [r.id for r in select_rules("RACE001,DL001")] == [
            "DL001",
            "RACE001",
        ]

    def test_ignore_filters(self):
        ids = [r.id for r in select_rules(None, "RACE,LC001")]
        assert ids == ["DL001", "PORT001"]

    def test_unknown_pattern_is_error(self):
        with pytest.raises(ValueError, match="unknown rule"):
            select_rules("ZZZ")
        with pytest.raises(ValueError, match="unknown rule"):
            select_rules(None, "ZZZ")

    def test_trace_only_skipped_without_trace(self):
        report = run_analysis(_ctx(lambda: tree_sum_computation(4)))
        assert "LC001" not in report.rules_run
        assert set(report.rules_run) == set(EXPECTED_RULES) - {"LC001"}


class TestReportShape:
    def test_legacy_json_keys(self):
        report = run_analysis(
            _ctx(lambda: racy_counter_computation(4, 2), target="racy")
        )
        d = report.to_dict()
        assert d["target"] == "racy"
        assert d["engine"] == "sp-bags"
        assert not d["clean"]
        assert d["data_races"] > 0
        assert d["races"] == len(d["diagnostics"])
        for diag in d["diagnostics"]:
            assert diag["classification"] in (
                "data-race",
                "lock-mediated",
            )
        assert d["errors"] > 0 and d["suppressed"] == 0

    def test_clean_render(self):
        report = run_analysis(_ctx(lambda: tree_sum_computation(4)))
        assert report.clean
        assert "clean — no races" in report.render_text()

    def test_severity_counts_in_render(self):
        report = run_analysis(_ctx(deadlock_computation))
        text = report.render_text()
        assert "1 error(s)" in text and "note(s)" in text
        assert "[DL001 error]" in text


class TestDeadlockRule:
    def test_inverted_abba_is_error(self):
        report = run_analysis(_ctx(deadlock_computation))
        dl = [f for f in report.findings if f.rule == "DL001"]
        assert len(dl) == 1
        f = dl[0]
        assert f.severity == "error" and f.kind == "lock-cycle"
        assert "A → B → A" in f.message
        assert len(f.nodes) == 2 and all(f.paths)
        assert not report.clean

    def test_aligned_order_is_clean(self):
        report = run_analysis(
            _ctx(lambda: deadlock_computation(False))
        )
        assert report.clean
        assert not [f for f in report.findings if f.rule == "DL001"]

    def test_serialized_inversion_is_note(self):
        """ABBA nesting on dag-*ordered* branches cannot hang: note."""

        def worker(ctx, first, second):
            with ctx.lock(first):
                with ctx.lock(second):
                    ctx.read("ctr")
                    ctx.write("ctr")

        def main(ctx):
            ctx.write("ctr")
            ctx.spawn(worker, "A", "B")
            ctx.sync()
            ctx.spawn(worker, "B", "A")
            ctx.sync()
            ctx.read("ctr")

        comp, info = unfold(main)
        cycles = lock_cycles(comp, info.lock_sections)
        assert len(cycles) == 1 and not cycles[0].concurrent
        ctx = AnalysisContext(
            comp,
            target="serialized",
            sp=info.sp,
            lock_sections=info.lock_sections,
            node_paths=info.node_paths,
            names=info.names,
        )
        report = run_analysis(ctx)
        dl = [f for f in report.findings if f.rule == "DL001"]
        assert len(dl) == 1
        assert dl[0].severity == "note"
        assert dl[0].kind == "lock-cycle-serialized"
        assert report.clean

    def test_lock_graph_edges(self):
        comp, info = deadlock_computation(True)
        edges = lock_graph(comp, info.lock_sections)
        assert {(e.outer, e.inner) for e in edges} == {
            ("A", "B"),
            ("B", "A"),
        }
        for e in edges:
            for a1, r1, a2 in e.witnesses:
                assert comp.dag.precedes_eq(a1, a2)
                assert comp.dag.precedes_eq(a2, r1)


class TestPortabilityRule:
    def test_store_buffer_diverges(self):
        report = run_analysis(_ctx(store_buffer_computation))
        port = [f for f in report.findings if f.rule == "PORT001"]
        assert len(port) == 1
        assert port[0].severity == "warning"
        assert port[0].kind == "sc-lc-divergence"

    def test_iriw_diverges(self):
        report = run_analysis(_ctx(iriw_computation))
        assert any(
            f.rule == "PORT001" and f.kind == "sc-lc-divergence"
            for f in report.findings
        )

    def test_race_free_is_portable(self):
        report = run_analysis(_ctx(lambda: tree_sum_computation(4)))
        assert not [f for f in report.findings if f.rule == "PORT001"]

    def test_single_written_location_is_portable(self):
        """Racy counter: one written location, so LC = SC (Theorem)."""
        report = run_analysis(
            _ctx(lambda: racy_counter_computation(4, 2))
        )
        assert not [f for f in report.findings if f.rule == "PORT001"]

    def test_budget_exhaustion_is_undecided(self):
        comp, _ = store_buffer_computation()
        verdict = check_portability(comp, budget=1)
        assert verdict.status == "undecided"
        assert not verdict.portable
        full = check_portability(comp)
        assert full.status == "divergent"
        assert full.witness is not None


class TestTraceRules:
    def test_lc001_reports_every_violation(self):
        comp, info = racy_counter_computation(4, 3)
        flagged = 0
        for seed in range(10):
            trace = _trace(comp, 1.0, seed)
            ctx = AnalysisContext(
                comp,
                target=f"trace-{seed}",
                sp=info.sp,
                lock_sections=info.lock_sections,
                node_paths=info.node_paths,
                names=info.names,
                trace=trace,
            )
            report = run_analysis(ctx)
            assert "LC001" in report.rules_run
            lc = [f for f in report.findings if f.rule == "LC001"]
            from repro.verify import StreamingLCVerifier

            expected = StreamingLCVerifier.collect_violations(trace)
            assert len(lc) == len(expected)
            flagged += len(lc)
            for f, v in zip(lc, expected):
                assert f.severity == "error"
                assert f.kind == "lc-violation"
                assert f.nodes == tuple(v.witness)
        assert flagged >= 5

    def test_clean_trace_no_lc_findings(self):
        comp, info = racy_counter_computation(4, 2)
        sched = work_stealing_schedule(comp, 2, rng=0)
        trace = execute(sched, SerialMemory())
        ctx = AnalysisContext(comp, target="clean", trace=trace)
        report = run_analysis(ctx, select_rules("LC001"))
        assert report.rules_run == ("LC001",)
        assert report.findings == []

    def test_race002_silent_when_detectors_agree(self):
        for factory in (
            lambda: racy_counter_computation(4, 2),
            lambda: tree_sum_computation(8),
            store_buffer_computation,
            deadlock_computation,
        ):
            report = run_analysis(_ctx(factory))
            assert "RACE002" in report.rules_run
            assert not [
                f for f in report.findings if f.rule == "RACE002"
            ]


class TestSarif:
    def _reports(self):
        return [
            run_analysis(
                _ctx(lambda: racy_counter_computation(4, 2), "racy")
            ),
            run_analysis(_ctx(deadlock_computation, "deadlock")),
            run_analysis(_ctx(lambda: tree_sum_computation(4), "tree")),
        ]

    def test_document_is_valid(self):
        reports = self._reports()
        fps = {
            id(f): finding_fingerprint(r.target, f)
            for r in reports
            for f in r.findings
        }
        doc = sarif_document(reports, all_rules(), fingerprints=fps)
        validate_sarif(doc)
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert len(run["tool"]["driver"]["rules"]) == len(EXPECTED_RULES)
        assert len(run["results"]) == sum(
            len(r.findings) for r in reports
        )
        for res in run["results"]:
            assert res["partialFingerprints"]["reproLint/v1"]
            uri = res["locations"][0]["physicalLocation"][
                "artifactLocation"
            ]["uri"]
            assert uri in ("racy", "deadlock", "tree")

    def test_logical_locations_carry_paths(self):
        doc = sarif_document(
            [run_analysis(_ctx(deadlock_computation, "dl"))],
            all_rules(),
        )
        dl = [
            r for r in doc["runs"][0]["results"]
            if r["ruleId"] == "DL001"
        ]
        names = [
            loc["fullyQualifiedName"]
            for loc in dl[0]["locations"][0]["logicalLocations"]
        ]
        assert all(name.startswith("main/") for name in names)

    def test_validation_rejects_broken_documents(self):
        good = sarif_document(self._reports()[:1], all_rules())
        for mutate, pattern in (
            (lambda d: d.update(version="2.0.0"), "version"),
            (lambda d: d.update(runs=[]), "runs"),
            (
                lambda d: d["runs"][0]["results"][0].update(
                    ruleId="NOPE"
                ),
                "ruleId",
            ),
            (
                lambda d: d["runs"][0]["results"][0].update(
                    level="catastrophic"
                ),
                "level",
            ),
            (
                lambda d: d["runs"][0]["results"][0]["message"].update(
                    text=""
                ),
                "message",
            ),
            (
                lambda d: d["runs"][0]["results"][0].update(ruleIndex=4),
                "ruleIndex",
            ),
        ):
            doc = json.loads(json.dumps(good))
            mutate(doc)
            with pytest.raises(ValueError, match=pattern):
                validate_sarif(doc)

    def test_suppressed_findings_marked(self):
        report = run_analysis(
            _ctx(lambda: racy_counter_computation(4, 2), "racy")
        )
        report.findings[0].suppressed = True
        doc = sarif_document([report], all_rules())
        flags = [
            bool(r.get("suppressions"))
            for r in doc["runs"][0]["results"]
        ]
        assert flags[0] and not all(flags)


class TestBaseline:
    def test_fingerprints_stable_across_reunfold(self):
        """Same program re-unfolded → identical fingerprints (paths,
        not node ids, feed the hash)."""

        def fps(report):
            return sorted(
                finding_fingerprint(report.target, f)
                for f in report.findings
            )

        a = run_analysis(_ctx(lambda: racy_counter_computation(4, 2), "racy"))
        b = run_analysis(_ctx(lambda: racy_counter_computation(4, 2), "racy"))
        assert fps(a) == fps(b)

    def test_fingerprint_depends_on_target_and_identity(self):
        f = Finding(
            "RACE001", "error", "m", loc="'x'", paths=("a", "b"),
            kind="data-race",
        )
        assert finding_fingerprint("t1", f) != finding_fingerprint(
            "t2", f
        )
        g = Finding(
            "RACE001", "error", "other message", loc="'x'",
            paths=("a", "b"), kind="data-race",
        )
        assert finding_fingerprint("t1", f) == finding_fingerprint(
            "t1", g
        ), "messages must not affect fingerprints"

    def test_round_trip_suppression(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        report = run_analysis(
            _ctx(lambda: racy_counter_computation(4, 2), "racy")
        )
        assert not report.clean
        doc = write_baseline(path, [report])
        assert doc["version"] == 1
        accepted = load_baseline(path)
        assert accepted == set(doc["findings"])

        fresh = run_analysis(
            _ctx(lambda: racy_counter_computation(4, 2), "racy")
        )
        n = apply_baseline([fresh], accepted)
        assert n == len(fresh.findings)
        assert fresh.clean
        assert len(fresh.suppressed) == n

    def test_new_findings_survive_baseline(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        small = run_analysis(
            _ctx(lambda: racy_counter_computation(4, 2), "racy")
        )
        write_baseline(path, [small])
        grown = run_analysis(
            _ctx(lambda: racy_counter_computation(6, 2), "racy")
        )
        apply_baseline([grown], load_baseline(path))
        assert not grown.clean, "new findings must still fail"
        assert grown.suppressed, "old findings must be suppressed"

    def test_bad_files_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"findings": {}}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(str(p))
        p.write_text(json.dumps({"version": 1}))
        with pytest.raises(ValueError, match="findings"):
            load_baseline(str(p))


class TestObsWiring:
    def test_per_rule_spans_and_counters(self):
        from repro import obs

        obs.disable()
        obs.reset()
        obs.enable()
        try:
            run_analysis(_ctx(lambda: racy_counter_computation(4, 2)))
            names = set()
            stack = list(obs.get().roots)
            while stack:
                sp = stack.pop()
                names.add(sp.name)
                stack.extend(sp.children)
            counters = obs.counters()
        finally:
            obs.disable()
            obs.reset()
        assert "analysis.run" in names
        for rid in ("RACE001", "DL001", "PORT001"):
            assert f"analysis.{rid}" in names
        assert counters.get("analysis.runs") == 1
        assert counters.get("analysis.findings", 0) > 0
        assert counters.get("analysis.RACE001.findings", 0) > 0
