"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import workloads  # noqa: E402
from layers import Tracer  # noqa: E402


# -- generators --------------------------------------------------------


def test_generators_are_deterministic_per_seed():
    assert gen.serve_corpus(7) == gen.serve_corpus(7)
    assert gen.warmup_batch(7) == gen.warmup_batch(7)
    assert gen.sim_plan(7) == gen.sim_plan(7)
    assert gen.digest(gen.serve_corpus(7)) == gen.digest(gen.serve_corpus(7))
    assert gen.serve_corpus(7) != gen.serve_corpus(8)
    assert gen.sim_plan(7) != gen.sim_plan(8)


def test_serve_corpus_mix_is_exact():
    docs = [json.loads(line) for line in gen.serve_corpus(3)]
    sizes = [d["computation"]["num_nodes"] for d in docs]
    for n in gen.SERVE_SIZES:
        extra = 2 * gen.BOTTOM_PAIRS if n == 3 else 0
        assert sizes.count(n) == 2 * gen.BASES_PER_SIZE + extra
    faulty = sum(d["memory"] == "backer-faulty" for d in docs)
    assert faulty == 2 * len(gen.SERVE_SIZES) * round(gen.BASES_PER_SIZE * gen.FAULTY_SHARE)
    assert any(r["observed"] is None for d in docs for r in d["reads"])
    warm = {r["loc"] for line in gen.warmup_batch(3) for r in json.loads(line)["reads"]}
    assert warm <= {gen.WARMUP_LOCATION}


def test_generated_traces_load_and_faithful_runs_are_lc():
    from repro.io import load_trace
    from repro.verify.streaming import StreamingLCVerifier

    for line in gen.serve_corpus(5)[:200]:
        doc = json.loads(line)
        trace = load_trace(doc)  # validates the schedule and observers
        if doc["memory"] == "backer":
            assert StreamingLCVerifier.check_trace(trace) is None


# -- serve oracle ------------------------------------------------------


@pytest.fixture(scope="module")
def judged():
    """(line, expected, verdict) for a reject and an admitted item."""
    from repro.serve.service import CheckOptions, check_document

    options = CheckOptions(checks=workloads.SERVE_CHECKS)
    lines = gen.serve_corpus(11)
    expected = workloads.serve_oracle(lines)
    out = {}
    for line in lines:
        verdict = check_document(json.loads(line), options)
        kind = "reject" if verdict.get("admitted") is False else "admit"
        out.setdefault(kind, (line, expected[line], verdict))
        if len(out) == 2:
            return out
    raise AssertionError("corpus has no reject")


def test_serve_oracle_accepts_true_verdicts(judged):
    for _, expected, verdict in judged.values():
        assert workloads.serve_problem(verdict, expected) is None


@pytest.mark.parametrize(
    "kind, tamper",
    [
        ("admit", lambda v: v["verdicts"].update(lc=False)),
        ("admit", lambda v: v.update(admitted=False)),
        ("reject", lambda v: v["verdicts"].update(streaming=True)),
        ("reject", lambda v: v.pop("witness")),
        ("reject", lambda v: v["witness"].update(node=v["witness"]["node"] + 1)),
        ("admit", lambda v: v.update(ok=False, error="KeyError: 'reads'")),
    ],
)
def test_serve_oracle_flags_a_tampered_verdict(judged, kind, tamper):
    _, expected, verdict = judged[kind]
    tampered = json.loads(json.dumps(verdict))
    tamper(tampered)
    assert workloads.serve_problem(tampered, expected) is not None


def test_serve_oracle_tolerates_only_the_documented_error(judged):
    _, expected, _ = judged["admit"]
    known = {"ok": False, "error": workloads.KNOWN_SERVE_ERROR + " 'NoneType' and 'int'"}
    assert workloads.serve_problem(known, expected) is None


# -- metrics -----------------------------------------------------------


def test_metric_names_and_the_benchmark_file_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    name = re.compile(r"[A-Za-z0-9_.-]+")
    for group, catalogue in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[group]]
        assert listed == list(catalogue)
        assert all(name.fullmatch(n) and len(n) <= 64 for n, _, _ in catalogue)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- tracing -----------------------------------------------------------


class _Spin:
    @staticmethod
    def spin(seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def outer(self) -> None:
        self.spin(0.01)
        for _ in self.items():
            self.spin(0.002)

    def items(self):
        for _ in range(3):
            self.spin(0.003)
            yield None


def test_tracer_self_times_fit_in_the_wall_and_restore_cleanly():
    obj = _Spin()
    originals = dict(vars(_Spin))
    with Tracer() as tr:
        tr.patch(_Spin, "outer", "outer")
        tr.patch(_Spin, "spin", "spin")
        tr.patch(_Spin, "items", "items", iterator=True)
        t0 = time.perf_counter()
        obj.outer()
        wall = time.perf_counter() - t0
    assert dict(vars(_Spin)) == originals
    assert tr.calls["spin"] == 7
    assert tr.seconds("outer", "spin", "items") <= wall
    assert tr.inclusive_s["outer"] <= wall
    assert tr.seconds("spin") >= 0.01 + 3 * (0.003 + 0.002)
    # The iterator's own spins are charged to "spin", not to "items".
    assert tr.seconds("items") < 0.009


def test_install_and_restore_leave_the_program_untouched():
    import repro.runtime.executor as executor
    import repro.serve.service as service
    from repro.models.universe import Universe
    from repro.verify.streaming import StreamingLCVerifier

    before = (
        executor.execute,
        service.request_fingerprint,
        dict(service._LOADERS),
        Universe.__dict__["pairs"],
        StreamingLCVerifier.__dict__["check_trace"],
    )
    with Tracer() as tr:
        workloads.install(tr, in_shard=True)
        assert executor.execute is not before[0]
    after = (
        executor.execute,
        service.request_fingerprint,
        dict(service._LOADERS),
        Universe.__dict__["pairs"],
        StreamingLCVerifier.__dict__["check_trace"],
    )
    assert after == before


@pytest.mark.parametrize("workload", ["sim-hier", "serve-mixed"])
def test_layer_times_do_not_exceed_the_traced_wall(workload):
    out = workloads.WORKLOADS[workload](1, 0.1, True)
    assert out.failed == 0
    m = out.metrics
    times = [k for k, unit, _ in workloads.PER_LAYER if unit == "s" and not k.endswith("wall_s")]
    for k in times:
        assert 0 <= m[k] <= m["traced_wall_s"], k
    named = sum(m[k] for k in times if k != "unattributed_s" and k != "serve.check_s")
    assert named <= m["traced_wall_s"]
    assert abs(named + m["unattributed_s"] - m["traced_wall_s"]) < 1e-6
