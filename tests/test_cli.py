"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.program == "fib"
        assert args.procs == 4

    def test_all_programs_parse(self):
        from repro.cli import PROGRAMS

        for prog in PROGRAMS:
            args = build_parser().parse_args(["run", "--program", prog])
            assert args.program == prog


class TestFigures:
    def test_exit_code_and_output(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "Figure 4" in out
        assert "SC=∉" in out


class TestLattice:
    def test_small_lattice(self, capsys):
        # 2-node universes keep this fast; the constructibility witnesses
        # are out of range, so a nonzero exit (documented gap) is fine —
        # we only require the report to render.
        rc = main(["lattice", "--sweep-nodes", "2", "--witness-nodes", "2"])
        out = capsys.readouterr().out
        assert "Inclusion matrix" in out
        assert rc in (0, 1)


class TestRunAndCheck:
    def test_run_fib_serial_memory(self, capsys):
        rc = main(
            ["run", "--program", "fib", "--size", "5", "--procs", "2",
             "--memory", "serial"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "location consistent: yes" in out
        assert "sequentially consistent: yes" in out

    def test_run_store_buffer_weak(self, capsys):
        rc = main(["run", "--program", "store-buffer", "--procs", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "location consistent: yes" in out

    def test_run_faulty_detected(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        rc = main(
            ["run", "--program", "racy", "--procs", "4", "--seed", "3",
             "--drop-reconcile", "1.0", "--drop-flush", "1.0",
             "--out", str(out_path)]
        )
        out = capsys.readouterr().out
        assert "trace written" in out
        data = json.loads(out_path.read_text())
        assert data["format"] == "repro/trace"
        # Whether this specific seed violates LC is workload-dependent;
        # the exit code must agree with the printed verdict.
        violated = "NO — protocol violation" in out
        assert rc == (2 if violated else 0)

    def test_check_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        main(["run", "--program", "tree-sum", "--size", "4",
              "--procs", "2", "--out", str(out_path)])
        capsys.readouterr()
        rc = main(["check", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "completable within LC: yes" in out

    def test_check_observer_document(self, capsys, tmp_path):
        from repro.io import dumps
        from repro.paperfigures import figure2_pair

        comp, phi = figure2_pair()
        path = tmp_path / "phi.json"
        path.write_text(dumps(phi))
        rc = main(["check", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "NW: ∈" in out and "WN: ∉" in out

    def test_check_computation_document(self, capsys, tmp_path):
        from repro.io import dumps
        from repro.paperfigures import figure2_pair

        comp, _ = figure2_pair()
        path = tmp_path / "comp.json"
        path.write_text(dumps(comp))
        rc = main(["check", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "computation: 4 nodes" in out


class TestLint:
    def test_clean_program_exits_zero(self, capsys):
        rc = main(["lint", "tree-sum"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean — no races" in out

    def test_racy_program_exits_nonzero_with_diagnostics(self, capsys):
        rc = main(["lint", "racy"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "data-race" in out
        assert "main/s0" in out  # node paths in diagnostics

    def test_locked_counter_passes_with_lock_mediated_report(self, capsys):
        rc = main(["lint", "locked-counter"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "lock-mediated" in out
        assert "locks {L} vs {L}" in out

    def test_json_output(self, capsys):
        rc = main(["lint", "racy", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 2
        data = json.loads(out)
        assert data["clean"] is False
        assert "engine" not in data
        assert data["data_races"] == len(data["diagnostics"])
        d = data["diagnostics"][0]
        assert set(d) == {
            "loc", "kind", "classification", "u", "v", "locks_u", "locks_v",
        }

    def test_lint_serialized_computation(self, capsys, tmp_path):
        from repro.io import dumps
        from repro.lang import tree_sum_computation

        path = tmp_path / "comp.json"
        path.write_text(dumps(tree_sum_computation(4)[0]))
        rc = main(["lint", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean" in out

    def test_lint_serialized_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        main(["run", "--program", "racy", "--out", str(path)])
        capsys.readouterr()
        rc = main(["lint", str(path)])
        assert rc == 2


class TestCleanErrors:
    """Malformed inputs: one-line error + exit 2, never a traceback."""

    def test_unknown_program_or_file(self, capsys):
        rc = main(["lint", "no-such-thing"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1
        assert "neither a bundled program" in err

    def test_malformed_json_lint(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("this is not json {{{")
        rc = main(["lint", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "repro lint: error:" in err
        assert "Traceback" not in err

    def test_malformed_json_check(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2")
        rc = main(["check", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "repro check: error:" in err

    @pytest.mark.parametrize("command", ["check", "lint"])
    def test_deeply_nested_json(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        rc = main([command, str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1
        assert f"repro {command}: error:" in err

    def test_missing_file_check(self, capsys, tmp_path):
        rc = main(["check", str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "repro check: error:" in err

    def test_wrong_document_type_lint(self, capsys, tmp_path):
        from repro.io import dumps
        from repro.paperfigures import figure2_pair

        _, phi = figure2_pair()
        path = tmp_path / "phi.json"
        path.write_text(dumps(phi))
        # An observer function carries its computation — lint accepts it.
        rc = main(["lint", str(path)])
        assert rc in (0, 2)
        assert "Traceback" not in capsys.readouterr().err


class TestRunSanitize:
    def test_sanitize_flags_faulty_backer(self, capsys):
        rc = main(["run", "--program", "racy", "--procs", "4",
                   "--drop-reconcile", "1.0", "--drop-flush", "1.0",
                   "--sanitize"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "sanitizer: violation at event" in out
        assert "witness nodes" in out

    def test_sanitize_clean_on_faithful_memory(self, capsys):
        rc = main(["run", "--program", "tree-sum", "--size", "4",
                   "--procs", "2", "--sanitize"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sanitizer" not in out


class TestInferAndConformance:
    def test_infer_serial_memory(self, capsys):
        rc = main(["infer", "--program", "racy", "--memory", "serial",
                   "--runs", "3", "--procs", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "strongest consistent model: SC" in out

    def test_infer_backer_store_buffer(self, capsys):
        rc = main(["infer", "--program", "store-buffer", "--procs", "2",
                   "--runs", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SC: VIOLATED" in out
        assert "strongest consistent model: LC" in out

    def test_conformance_pass(self, capsys):
        rc = main(["conformance", "--target", "LC", "--runs", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 violations" in out

    def test_conformance_fail(self, capsys):
        rc = main(["conformance", "--target", "LC", "--runs", "4",
                   "--drop-reconcile", "0.9", "--drop-flush", "0.9"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "violations" in out


class TestReproduce:
    def test_quick_profile_passes(self, capsys):
        rc = main(["reproduce", "--profile", "quick"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OVERALL: all artifacts reproduced" in out
        assert out.count("[PASS]") == 5
        assert "[FAIL]" not in out


class TestBadConfig:
    def test_invalid_repro_jobs_is_one_clean_line(self, capsys, monkeypatch):
        """REPRO_JOBS=lots exits 2 with one stderr line, no traceback."""
        monkeypatch.setenv("REPRO_JOBS", "lots")
        rc = main(["lattice", "--sweep-nodes", "2", "--witness-nodes", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        err_lines = [ln for ln in captured.err.splitlines() if ln]
        assert err_lines == [
            "repro lattice: error: REPRO_JOBS must be an integer, got 'lots'"
        ]

    def test_config_error_is_a_value_error(self):
        from repro.errors import ConfigError, ReproError

        assert issubclass(ConfigError, ValueError)
        assert issubclass(ConfigError, ReproError)


class TestObservability:
    def test_run_trace_writes_valid_json(self, capsys, tmp_path):
        from repro import obs
        from repro.obs import validate_trace

        path = tmp_path / "trace.json"
        rc = main(
            ["run", "--program", "fib", "--size", "5", "--procs", "2",
             "--sanitize", "--trace", str(path)]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert f"trace written to {path}" in captured.err
        assert not obs.enabled()  # collector shut down after the command
        doc = json.loads(path.read_text())
        assert validate_trace(doc) == []
        (root,) = doc["spans"]
        assert root["name"] == "repro.run"
        names = {sp["name"] for sp in _walk_spans(doc["spans"])}
        assert {"execute", "step", "verify.lc", "verify.sc"} <= names
        c = doc["counters"]
        assert c["executor.runs"] == 1
        assert c["executor.reads"] + c["executor.writes"] <= c["executor.nodes"]
        assert c["sanitizer.events"] == c["executor.nodes"]

    def test_run_profile_prints_to_stderr(self, capsys):
        rc = main(
            ["run", "--program", "fib", "--size", "5", "--procs", "2",
             "--profile"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "counters:" in captured.err
        assert "executor.nodes" in captured.err
        assert "counters:" not in captured.out  # stdout stays machine-clean

    def test_reproduce_trace_consistent_with_sweep_stats(self, capsys, tmp_path):
        from repro.obs import validate_trace

        path = tmp_path / "rep.json"
        rc = main(
            ["reproduce", "--profile", "quick", "--jobs", "2",
             "--trace", str(path)]
        )
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(path.read_text())
        assert validate_trace(doc) == []
        spans = list(_walk_spans(doc["spans"]))
        section_names = {
            sp["name"] for sp in spans if sp["name"].startswith("reproduce.")
        }
        assert "reproduce.lattice" in section_names
        assert "reproduce.theorem23" in section_names
        sweeps = [sp for sp in spans if sp["name"].startswith("sweep:")]
        assert sweeps, "the lattice/thm23 sections run sharded sweeps"
        shard_pairs = sum(
            child["attrs"]["pairs"]
            for sweep in sweeps
            for child in sweep["children"]
            if child["name"] == "shard"
        )
        assert shard_pairs == doc["counters"]["sweep.pairs"]
        consultations = sum(
            info["hits"] + info["misses"]
            for sweep in sweeps
            for child in sweep["children"]
            if child["name"] == "shard"
            for info in child["attrs"]["caches"].values()
        )
        assert consultations == doc["counters"]["sweep.cache.consultations"]

    def test_lint_trace_flag(self, capsys, tmp_path):
        path = tmp_path / "lint.json"
        rc = main(["lint", "racy", "--trace", str(path)])
        capsys.readouterr()
        assert rc == 2  # racy program still fails the lint
        doc = json.loads(path.read_text())
        names = {sp["name"] for sp in _walk_spans(doc["spans"])}
        assert "verify.lint" in names
        assert doc["counters"]["lint.runs"] == 1


def _walk_spans(spans):
    stack = list(spans)
    while stack:
        sp = stack.pop()
        yield sp
        stack.extend(sp.get("children", ()))


class TestChromeTrace:
    def test_run_writes_perfetto_loadable_trace(self, capsys, tmp_path):
        from repro.obs import validate_chrome_trace

        path = tmp_path / "trace_chrome.json"
        rc = main(
            ["run", "--program", "fib", "--size", "6",
             "--trace", str(path), "--trace-format", "chrome"]
        )
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        complete = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert any(ev["name"] == "execute" for ev in complete)

    def test_reproduce_pool_trace_has_parallel_worker_tracks(
        self, capsys, tmp_path
    ):
        from repro.obs import validate_chrome_trace

        path = tmp_path / "repro_chrome.json"
        rc = main(
            ["reproduce", "--jobs", "2", "--trace", str(path),
             "--trace-format", "chrome"]
        )
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        pids = {
            ev["pid"] for ev in doc["traceEvents"] if ev.get("ph") == "X"
        }
        assert len(pids) >= 2, (
            f"pool sweep must fan out over ≥2 pid tracks, got {sorted(pids)}"
        )

    def test_mem_flag_attributes_bytes_to_execute_span(self, capsys, tmp_path):
        path = tmp_path / "mem.json"
        rc = main(
            ["run", "--program", "fib", "--size", "6",
             "--trace", str(path), "--mem"]
        )
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(path.read_text())
        executes = [
            sp for sp in _walk_spans(doc["spans"]) if sp["name"] == "execute"
        ]
        assert executes
        for sp in executes:
            assert sp["attrs"]["mem_peak_bytes"] >= sp["attrs"]["mem_net_bytes"]
            assert sp["attrs"]["mem_peak_bytes"] > 0


class TestBench:
    def _run(self, capsys, tmp_path, *extra):
        ledger = tmp_path / "ledger.jsonl"
        rc = main(
            ["bench", "--quick", "--repeats", "2", "--warmup", "0",
             "--only", "fig1-lattice,backer-overhead",
             "--ledger", str(ledger), *extra]
        )
        out = capsys.readouterr().out
        return rc, ledger, out

    def test_quick_appends_schema_valid_records(self, capsys, tmp_path):
        from repro.obs.ledger import read_ledger

        rc, ledger, _ = self._run(capsys, tmp_path)
        assert rc == 0
        records = read_ledger(str(ledger), strict=True)
        assert [r["benchmark"] for r in records] == [
            "fig1-lattice", "backer-overhead",
        ]
        for rec in records:
            assert rec["quick"] is True
            assert rec["repeats"] == 2
            assert len(rec["wall_seconds"]["runs"]) == 2

    def test_unchanged_rerun_gates_flat(self, capsys, tmp_path):
        rc1, ledger, _ = self._run(capsys, tmp_path)
        assert rc1 == 0
        rc2, _, out = self._run(capsys, tmp_path, "--compare")
        assert rc2 == 0
        assert "0 regression(s)" in out

    def test_list_names_every_registered_benchmark(self, capsys, tmp_path):
        rc = main(["bench", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("parallel-sweep", "races", "fig1-lattice",
                     "streaming-verifier", "backer-overhead"):
            assert name in out

    def test_unknown_benchmark_is_a_clean_error(self, capsys, tmp_path):
        rc = main(["bench", "--only", "no-such-bench"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown benchmark" in err

    def test_every_bench_module_is_registered(self):
        """No ``bench_*.py`` runs nowhere: each is a registry entry with
        a ``run`` entrypoint, and no module under ``benchmarks/`` carries
        pytest tests (reproduction asserts live in ``run`` or tier-1)."""
        import ast
        from pathlib import Path

        from repro.cli import _load_bench_registry

        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        registered = {s.module for s in _load_bench_registry(str(bench_dir)).MANIFEST}
        for path in sorted(bench_dir.glob("*.py")):
            tree = ast.parse(path.read_text())
            assert not [
                node.name
                for node in ast.walk(tree)
                if (isinstance(node, ast.FunctionDef) and node.name.startswith("test_"))
                or (isinstance(node, ast.ClassDef) and node.name.startswith("Test"))
            ], path.name
            if path.name.startswith("bench_"):
                assert path.stem in registered, path.name
                assert any(
                    isinstance(node, ast.FunctionDef) and node.name == "run"
                    for node in tree.body
                ), path.name


class TestLiveTelemetryFlags:
    def test_flags_parse_on_all_entry_commands(self):
        for cmd in ("run", "reproduce", "bench"):
            args = build_parser().parse_args(
                [cmd, "--journal", "j.jsonl", "--live", "--metrics-port", "0"]
            )
            assert args.obs_journal == "j.jsonl"
            assert args.obs_live is True
            assert args.obs_metrics_port == 0

    def test_flags_default_off(self):
        args = build_parser().parse_args(["run"])
        assert args.obs_journal is None
        assert args.obs_live is False
        assert args.obs_metrics_port is None

    def test_obs_subcommand_parses(self):
        args = build_parser().parse_args(
            ["obs", "export", "t.json", "--format", "prom"]
        )
        assert args.obs_command == "export"
        assert args.path == "t.json"
        args = build_parser().parse_args(
            ["obs", "replay", "j.jsonl", "--format", "chrome", "--out", "o"]
        )
        assert args.obs_command == "replay"
        assert args.journal == "j.jsonl"

    def test_run_with_journal_spools_replayable_records(
        self, capsys, tmp_path
    ):
        from repro import obs
        from repro.obs import replay_journal, validate_trace

        path = tmp_path / "run.jsonl"
        rc = main(
            ["run", "--program", "fib", "--size", "5", "--procs", "2",
             "--journal", str(path)]
        )
        capsys.readouterr()
        assert rc == 0
        assert not obs.enabled()
        replay = replay_journal(str(path))
        assert replay.clean  # journal_close written on orderly shutdown
        assert replay.aborted == []
        assert validate_trace(replay.to_trace_dict()) == []
        names = {sp["name"] for sp in _walk_spans(
            replay.to_trace_dict()["spans"]
        )}
        assert "repro.run" in names
        assert "execute" in names

    def test_obs_replay_recovers_a_torn_journal(self, capsys, tmp_path):
        from repro.obs import validate_trace

        path = tmp_path / "torn.jsonl"
        rc = main(
            ["run", "--program", "fib", "--size", "5", "--journal", str(path)]
        )
        capsys.readouterr()
        assert rc == 0
        # Tear off the orderly shutdown plus half of the previous record,
        # as a kill -9 mid-write would.
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-2]) + lines[-2][: 10])
        out_path = tmp_path / "recovered.json"
        rc = main(
            ["obs", "replay", str(path), "--format", "json",
             "--out", str(out_path)]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "torn journal" in captured.err
        doc = json.loads(out_path.read_text())
        assert validate_trace(doc) == []

    def test_obs_export_prometheus_from_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        rc = main(
            ["run", "--program", "fib", "--size", "5", "--trace", str(trace)]
        )
        capsys.readouterr()
        assert rc == 0
        rc = main(["obs", "export", str(trace), "--format", "prom"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "# TYPE repro_executor_nodes counter" in captured.out
        assert "repro_executor_runs 1" in captured.out

    def test_obs_export_reads_journals_too(self, capsys, tmp_path):
        path = tmp_path / "j.jsonl"
        rc = main(
            ["run", "--program", "fib", "--size", "5", "--journal", str(path)]
        )
        capsys.readouterr()
        assert rc == 0
        rc = main(["obs", "export", str(path), "--format", "text"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "executor.nodes" in captured.out

    def test_metrics_port_zero_serves_during_run(self, capsys):
        import re
        import urllib.request

        # Scraping after the command returns is impossible, so assert the
        # startup banner (with the ephemeral port resolved) and that the
        # server came down with the command.
        rc = main(
            ["run", "--program", "fib", "--size", "5", "--metrics-port", "0"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        m = re.search(
            r"serving metrics at (http://127\.0\.0\.1:\d+/metrics)",
            captured.err,
        )
        assert m, captured.err
        # The ephemeral port is released once the command finishes.
        with pytest.raises(Exception):
            urllib.request.urlopen(m.group(1), timeout=0.5)

    def test_obs_export_rejects_garbage_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        rc = main(["obs", "export", str(bad)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error" in captured.err


class TestLintMultiRule:
    """The analysis-framework face of ``repro lint``: multiple targets,
    rule selection, SARIF, baselines, and the new rule fixtures."""

    def test_multi_target_aggregates_exit_code(self, capsys):
        assert main(["lint", "tree-sum", "fib", "locked-counter"]) == 0
        out = capsys.readouterr().out
        assert out.count("clean — no races") == 2  # locked has notes
        assert main(["lint", "tree-sum", "racy"]) == 2
        out = capsys.readouterr().out
        assert "tree-sum:" in out and "racy:" in out

    def test_deadlock_program(self, capsys):
        rc = main(["lint", "deadlock"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "[DL001 error]" in out
        assert "lock-order cycle A → B → A" in out

    def test_select_and_ignore(self, capsys):
        assert main(["lint", "deadlock", "--ignore", "DL001"]) == 0
        capsys.readouterr()
        assert main(["lint", "deadlock", "--select", "RACE"]) == 0
        out = capsys.readouterr().out
        assert "DL001" not in out
        rc = main(["lint", "deadlock", "--select", "NOPE"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown rule" in err

    def test_list_rules(self, capsys):
        rc = main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for rule in ("RACE001", "DL001", "PORT001", "LC001"):
            assert rule in out
        assert "trace-only" in out

    def test_no_targets_is_clean_error(self, capsys):
        rc = main(["lint"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "no lint targets" in err

    def test_portability_warning_on_store_buffer(self, capsys):
        main(["lint", "store-buffer"])
        out = capsys.readouterr().out
        assert "[PORT001 warning]" in out
        assert "not SC-portable" in out

    def test_sarif_output_is_valid(self, capsys):
        from repro.analysis import validate_sarif

        rc = main(["lint", "racy", "deadlock", "--format", "sarif"])
        out = capsys.readouterr().out
        assert rc == 2
        doc = json.loads(out)
        validate_sarif(doc)
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        uris = {
            res["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
            for res in run["results"]
        }
        assert uris == {"racy", "deadlock"}
        assert all(
            res["partialFingerprints"]["reproLint/v1"]
            for res in run["results"]
        )

    def test_baseline_roundtrip_e2e(self, capsys, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        # Seed: everything current is accepted, exit drops to 0.
        rc = main(
            ["lint", "racy", "deadlock", "--write-baseline",
             "--baseline", baseline]
        )
        assert rc == 0
        capsys.readouterr()
        # Re-lint against the baseline: still 0.
        rc = main(["lint", "racy", "deadlock", "--baseline", baseline])
        captured = capsys.readouterr()
        assert rc == 0
        assert "baseline-suppressed" in captured.out
        # A grown program introduces findings the baseline has never
        # seen: exit 2 again, old findings still marked suppressed.
        rc = main(
            ["lint", "racy", "--size", "6", "--baseline", baseline]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "(baseline)" in captured.out
        suppressed = captured.out.count("(baseline)")
        total = captured.out.count("[RACE001")
        assert 0 < suppressed < total

    def test_baseline_suppressions_reach_sarif(self, capsys, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        main(["lint", "racy", "--write-baseline", "--baseline", baseline])
        capsys.readouterr()
        main(
            ["lint", "racy", "--size", "6", "--baseline", baseline,
             "--format", "sarif"]
        )
        doc = json.loads(capsys.readouterr().out)
        results = doc["runs"][0]["results"]
        assert any(res.get("suppressions") for res in results)
        assert any(not res.get("suppressions") for res in results)

    def test_corrupt_baseline_is_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 99, "findings": {}}))
        rc = main(["lint", "racy", "--baseline", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "repro lint: error:" in err
        assert "Traceback" not in err

    def test_directory_target(self, capsys, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        main(["run", "--program", "tree-sum", "--out",
              str(tmp_path / "clean.json")])
        main(["run", "--program", "racy", "--out",
              str(sub / "racy.json")])
        capsys.readouterr()
        rc = main(["lint", str(tmp_path), "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 2
        data = json.loads(out)
        assert data["targets"] == 2
        assert data["clean"] is False
        # Trace documents get the trace-only LC001 pass as well.
        for report in data["reports"]:
            assert "LC001" in report["rules"]

    def test_empty_directory_is_clean_error(self, capsys, tmp_path):
        rc = main(["lint", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "contains no *.json" in err

    def test_trace_target_runs_lc001(self, capsys, tmp_path):
        path = tmp_path / "faulty.json"
        main(["run", "--program", "racy", "--procs", "4",
              "--drop-reconcile", "1.0", "--drop-flush", "1.0",
              "--seed", "0", "--out", str(path)])
        capsys.readouterr()
        rc = main(["lint", str(path), "--select", "LC001",
                   "--format", "json"])
        out = capsys.readouterr().out
        data = json.loads(out)
        if data["findings"]:
            assert rc == 2
            assert all(
                f["rule"] == "LC001" and f["kind"] == "lc-violation"
                for f in data["findings"]
            )
        else:  # this seed stayed consistent: clean lint
            assert rc == 0
