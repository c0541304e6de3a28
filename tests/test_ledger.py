"""The performance ledger and its regression gate.

``repro.obs.ledger`` promises (a) records that validate against the
schema and survive a JSONL round-trip byte-for-byte, (b) refusal to
append anything invalid, and (c) a gate whose verdicts are noise-aware:
a genuine slowdown regresses, an improvement is celebrated, jitter
within the history's own MAD never flaps the gate, and quick records
never contaminate full baselines.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.ledger import (
    DEFAULT_THRESHOLD,
    DEFAULT_WINDOW,
    append_records,
    compare_records,
    gate_ledger,
    make_record,
    read_ledger,
    validate_record,
)


def _rec(name="sweep", p50=1.0, jitter=0.0, quick=False, **kw):
    """A synthetic record whose three runs straddle ``p50 ± jitter``."""
    runs = [p50 - jitter, p50, p50 + jitter]
    return make_record(name, runs, quick=quick, **kw)


# ---------------------------------------------------------------------------
# Records: schema, round-trip, refusal
# ---------------------------------------------------------------------------


def test_make_record_is_schema_valid_and_round_trips(tmp_path):
    rec = _rec(counters={"pairs": 510, "note": "dropped", "ok": True})
    assert validate_record(rec) == []
    # Non-numeric counter values are dropped, bools are not numbers.
    assert rec["counters"] == {"pairs": 510}
    path = tmp_path / "ledger.jsonl"
    assert append_records(str(path), [rec]) == 1
    assert read_ledger(str(path), strict=True) == [rec]
    # Appending accumulates; order is preserved.
    rec2 = _rec(p50=2.0)
    append_records(str(path), [rec2])
    assert read_ledger(str(path)) == [rec, rec2]


def test_make_record_rejects_empty_runs():
    with pytest.raises(ValueError):
        make_record("empty", [])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.pop("benchmark"),
        lambda r: r.pop("wall_seconds"),
        lambda r: r.__setitem__("schema", 99),
        lambda r: r["wall_seconds"].pop("p50"),
        lambda r: r["wall_seconds"].__setitem__("p50", "fast"),
        lambda r: r.__setitem__("counters", ["not", "a", "dict"]),
        lambda r: r.__setitem__("timestamp", 12345),
    ],
)
def test_validate_record_rejects_mutations(mutate):
    rec = _rec()
    mutate(rec)
    assert validate_record(rec) != []


def test_append_refuses_invalid_batch_without_partial_write(tmp_path):
    path = tmp_path / "ledger.jsonl"
    good, bad = _rec(), _rec()
    del bad["wall_seconds"]
    with pytest.raises(ValueError):
        append_records(str(path), [good, bad])
    assert not path.exists() or path.read_text() == ""


def test_read_ledger_skips_garbage_unless_strict(tmp_path):
    path = tmp_path / "ledger.jsonl"
    rec = _rec()
    path.write_text(
        "not json at all\n"
        + json.dumps({"schema": 1, "benchmark": "broken"})
        + "\n"
        + json.dumps(rec, sort_keys=True)
        + "\n"
    )
    assert read_ledger(str(path)) == [rec]
    with pytest.raises(ValueError):
        read_ledger(str(path), strict=True)


# ---------------------------------------------------------------------------
# The gate: verdicts on synthetic histories
# ---------------------------------------------------------------------------


def _history(p50s, name="sweep", jitter=0.0):
    return [_rec(name, p50=p, jitter=jitter) for p in p50s]


def test_gate_flags_a_clear_regression():
    history = _history([1.0, 1.02, 0.98, 1.01, 0.99])
    report = compare_records(history, [_rec(p50=2.0)])
    (delta,) = report.deltas
    assert delta.verdict == "regressed"
    assert not report.ok
    assert delta.baseline_p50 == pytest.approx(1.0, rel=0.05)


def test_gate_celebrates_an_improvement():
    history = _history([1.0, 1.02, 0.98, 1.01, 0.99])
    report = compare_records(history, [_rec(p50=0.5)])
    (delta,) = report.deltas
    assert delta.verdict == "improved"
    assert report.ok


def test_gate_stays_flat_on_an_unchanged_rerun():
    history = _history([1.0, 1.02, 0.98, 1.01, 0.99])
    report = compare_records(history, [_rec(p50=1.01)])
    assert report.deltas[0].verdict == "flat"
    assert report.ok


def test_gate_tolerates_noisy_histories():
    # Swings of ±40% around 0.8s: the MAD guard keeps a 1.1s sample —
    # nominally +37% over the median — from tripping the gate.
    history = _history([0.5, 1.1, 0.6, 1.0, 0.8])
    report = compare_records(history, [_rec(p50=1.1)])
    assert report.deltas[0].verdict == "flat"
    assert report.ok


def test_gate_marks_unknown_benchmarks_new():
    report = compare_records([], [_rec("never-seen", p50=1.0)])
    (delta,) = report.deltas
    assert delta.verdict == "new"
    assert delta.baseline_p50 is None
    assert report.ok


def test_gate_never_compares_quick_against_full():
    # A full history must not baseline a quick candidate (and vice
    # versa): quick problem sizes are 10x smaller, every quick run would
    # read "improved" and every full run "regressed".
    history = _history([1.0] * 5)
    report = compare_records(history, [_rec(p50=0.1, quick=True)])
    assert report.deltas[0].verdict == "new"


def test_legacy_kernel_fields_validate_and_compare_like_any_record():
    # Records written while two bitset backends existed carry
    # env.kernel/env.numpy; they still validate, and the gate compares
    # them with fresh records exactly like any other history.
    history = _history([1.0] * 5)
    for rec, kernel in zip(history, ["numpy", "python", "numpy", "python", "numpy"]):
        rec["env"]["kernel"] = kernel
        rec["env"]["numpy"] = "2.4.6"
        assert validate_record(rec) == []
    assert "kernel" not in _rec()["env"]
    assert compare_records(history, [_rec(p50=1.01)]).deltas[0].verdict == "flat"
    assert compare_records(history, [_rec(p50=4.0)]).deltas[0].verdict == "regressed"


def test_gate_treats_legacy_records_as_python_kernel():
    # Records written before the kernel fingerprint existed ran the
    # pure-python kernels, the only backend left, so they baseline
    # every fresh candidate.
    history = _history([1.0] * 5)
    for rec in history:
        rec["env"].pop("kernel", None)
        rec["env"].pop("numpy", None)
    assert validate_record(history[0]) == []
    assert compare_records(history, [_rec(p50=1.01)]).deltas[0].verdict == "flat"
    assert compare_records(history, [_rec(p50=4.0)]).deltas[0].verdict == "regressed"


def test_validate_rejects_blank_kernel():
    # A present env.kernel must still be a non-empty string.
    rec = _rec()
    rec["env"]["kernel"] = ""
    assert any("kernel" in e for e in validate_record(rec))
    rec["env"]["kernel"] = 7
    assert any("kernel" in e for e in validate_record(rec))


def test_gate_window_uses_only_recent_history():
    # Ancient 10s records fell out of the window: only the last 5 count.
    history = _history([10.0, 10.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    report = compare_records(history, [_rec(p50=1.05)], window=5)
    assert report.deltas[0].verdict == "flat"


def test_gate_ledger_last_record_shape(tmp_path):
    # Without a candidate file the newest record per benchmark is the
    # candidate and the earlier ones are its history.
    path = tmp_path / "ledger.jsonl"
    append_records(str(path), _history([1.0, 1.0, 1.0, 1.0]) + [_rec(p50=3.0)])
    report = gate_ledger(str(path))
    assert [d.verdict for d in report.deltas] == ["regressed"]

    report = gate_ledger(str(path), threshold=250.0)
    assert report.ok, "a huge threshold must swallow the regression"


def test_gate_ledger_candidate_file_shape(tmp_path):
    history_path = tmp_path / "ledger.jsonl"
    fresh_path = tmp_path / "fresh.jsonl"
    append_records(str(history_path), _history([1.0] * 5))
    append_records(str(fresh_path), [_rec(p50=0.99)])
    report = gate_ledger(str(history_path), candidate_path=str(fresh_path))
    assert [d.verdict for d in report.deltas] == ["flat"]


def test_gate_report_renders_both_formats():
    history = _history([1.0] * 5)
    report = compare_records(
        history, [_rec(p50=2.0)], window=DEFAULT_WINDOW,
        threshold=DEFAULT_THRESHOLD,
    )
    text = report.render()
    md = report.render(markdown=True)
    assert "regressed" in text and "regression(s)" in text
    assert md.startswith("| benchmark |") and "regressed" in md


# ---------------------------------------------------------------------------
# Environment fingerprint: affinity-aware CPU count
# ---------------------------------------------------------------------------


def test_available_cpus_prefers_scheduler_affinity():
    import os

    from repro.obs.ledger import available_cpus

    got = available_cpus()
    assert got >= 1
    if hasattr(os, "sched_getaffinity"):
        assert got == len(os.sched_getaffinity(0))


def test_env_metadata_records_both_cpu_counts():
    import os

    from repro.obs.ledger import env_metadata

    env = env_metadata()
    assert env["cpus"] >= 1
    assert env["cpus_logical"] == (os.cpu_count() or 1)
    # Affinity can only shrink the visible set, never grow it.
    assert env["cpus"] <= env["cpus_logical"]


def test_validate_accepts_records_without_cpus_logical():
    """Schema-v1 records written before the affinity fix stay valid."""
    rec = _rec()
    del rec["env"]["cpus_logical"]
    assert validate_record(rec) == []


def test_validate_rejects_bad_cpus_logical():
    rec = _rec()
    rec["env"]["cpus_logical"] = "many"
    assert any("cpus_logical" in e for e in validate_record(rec))
    rec["env"]["cpus_logical"] = 0
    assert any("cpus_logical" in e for e in validate_record(rec))


def test_gate_absolute_noise_floor_shields_tiny_benchmarks():
    """A 25%+ swing that is only milliseconds of wall clock is noise,
    not a regression — and symmetrically not an improvement."""
    history = _history([0.008, 0.008, 0.008, 0.008, 0.008])
    (up,) = compare_records(history, [_rec(p50=0.012)]).deltas
    assert up.verdict == "flat"
    (down,) = compare_records(history, [_rec(p50=0.004)]).deltas
    assert down.verdict == "flat"
    # Past the floor the relative threshold bites again.
    (real,) = compare_records(history, [_rec(p50=0.020)]).deltas
    assert real.verdict == "regressed"
