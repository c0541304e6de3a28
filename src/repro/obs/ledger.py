"""The performance ledger: a persistent, append-only benchmark trajectory.

Every ``repro bench`` run appends one schema-validated JSON record per
benchmark to ``BENCH_LEDGER.jsonl``.  A record captures what you need to
compare runs months apart: the git sha and timestamp, the execution
environment (python, platform, core count), noise-robust wall-clock
statistics over N repeats, the process's peak RSS, and the benchmark's
own key counters (pairs swept, nodes analyzed, speedups).

The *gate* (:func:`compare_records`, surfaced as ``repro bench
--compare`` and ``scripts/bench_gate.py``) turns that trajectory into a
CI verdict: a candidate record is compared against the median of the
last K records of the same benchmark, with the median absolute
deviation (MAD) of that history as the noise floor.  A wall-clock
regression must clear *both* the relative threshold (default 25%) and
``max(3 × MAD, 5 ms)`` of absolute wall clock — so neither a noisy
benchmark whose history wobbles by 30% nor a millisecond-scale quick
benchmark riding a scheduler preemption can flap the gate, while a
tight benchmark that doubles fails loudly.

Everything here is dependency-free stdlib; records are one JSON object
per line so the ledger diffs, merges, and greps like a log file.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_LEDGER",
    "NOISE_FLOOR_SECONDS",
    "available_cpus",
    "env_metadata",
    "git_sha",
    "peak_rss_kb",
    "make_record",
    "validate_record",
    "append_records",
    "read_ledger",
    "Delta",
    "GateReport",
    "compare_records",
    "gate_ledger",
]

SCHEMA_VERSION = 1
DEFAULT_LEDGER = "BENCH_LEDGER.jsonl"

DEFAULT_WINDOW = 5
"""How many historical records per benchmark the gate compares against."""

DEFAULT_THRESHOLD = 0.25
"""Relative wall-clock regression that fails the gate (25%)."""

NOISE_FLOOR_SECONDS = 0.005
"""Absolute wall-clock slack below which a delta is never a verdict.

Sub-millisecond quick benchmarks can swing 25% on a single scheduler
preemption; a 3 ms excursion on an 11 ms benchmark is timer noise, not
a regression.  A candidate must beat the baseline by *both* the
relative threshold and this many seconds before the gate moves."""


# ----------------------------------------------------------------------
# Record construction
# ----------------------------------------------------------------------


def git_sha(default: str = "unknown") -> str:
    """The repository HEAD sha, or ``default`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return default
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else default


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine's logical CPUs, which
    misattributes pool speedups when the process is pinned to a subset
    (containers, cgroup quotas, ``taskset``) — the classic symptom is a
    ledger full of ``env.cpus: 1`` on a 64-core host, or the reverse.
    The scheduling affinity mask is authoritative where it exists.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # e.g. macOS has no sched_getaffinity
        return os.cpu_count() or 1


def env_metadata() -> dict[str, Any]:
    """The environment block stamped into every ledger record.

    ``cpus`` is the *usable* CPU count (scheduling affinity — what pool
    speedups should be judged against); ``cpus_logical`` records the
    machine's logical CPU count alongside it so a pinned run is visible
    as such in the ledger.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": available_cpus(),
        "cpus_logical": os.cpu_count() or 1,
    }


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 if unavailable)."""
    try:
        import resource
    except ImportError:  # non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return int(rss // 1024) if sys.platform == "darwin" else int(rss)


def _percentile(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    import math

    if not sorted_vals:
        return 0.0
    rank = max(1, math.ceil(len(sorted_vals) * q / 100.0))
    return sorted_vals[rank - 1]


def make_record(
    benchmark: str,
    wall_seconds: Sequence[float],
    counters: dict[str, Any] | None = None,
    check: bool = True,
    quick: bool = False,
    warmup: int = 0,
    timestamp: float | None = None,
    sha: str | None = None,
    env: dict[str, Any] | None = None,
    rss_kb: int | None = None,
) -> dict[str, Any]:
    """Assemble one schema-valid ledger record from measured repeats.

    ``counters`` is the benchmark's own key-metric dict; non-numeric
    values are dropped (the ledger stores trends, not blobs).
    """
    if not wall_seconds:
        raise ValueError(f"benchmark {benchmark!r}: no wall-clock samples")
    runs = [float(s) for s in wall_seconds]
    ordered = sorted(runs)
    ts = time.time() if timestamp is None else timestamp
    clean_counters = {
        k: v
        for k, v in (counters or {}).items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }
    return {
        "schema": SCHEMA_VERSION,
        "benchmark": benchmark,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts)),
        "git_sha": git_sha() if sha is None else sha,
        "env": env_metadata() if env is None else env,
        "quick": bool(quick),
        "warmup": int(warmup),
        "repeats": len(runs),
        "wall_seconds": {
            "p50": round(_percentile(ordered, 50.0), 6),
            "p90": round(_percentile(ordered, 90.0), 6),
            "min": round(ordered[0], 6),
            "max": round(ordered[-1], 6),
            "runs": [round(s, 6) for s in runs],
        },
        "max_rss_kb": peak_rss_kb() if rss_kb is None else int(rss_kb),
        "counters": clean_counters,
        "check": bool(check),
    }


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------


def validate_record(rec: Any) -> list[str]:
    """Structural validation of one ledger record; ``[]`` means valid."""
    problems: list[str] = []
    if not isinstance(rec, dict):
        return ["record is not a JSON object"]
    if rec.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"missing or unsupported schema (expected {SCHEMA_VERSION})"
        )
    name = rec.get("benchmark")
    if not isinstance(name, str) or not name:
        problems.append("'benchmark' must be a non-empty string")
    for key in ("timestamp", "git_sha"):
        if not isinstance(rec.get(key), str) or not rec.get(key):
            problems.append(f"{key!r} must be a non-empty string")
    env = rec.get("env")
    if not isinstance(env, dict):
        problems.append("'env' must be an object")
    else:
        if not isinstance(env.get("python"), str):
            problems.append("'env.python' must be a string")
        cpus = env.get("cpus")
        if not isinstance(cpus, int) or isinstance(cpus, bool) or cpus < 1:
            problems.append("'env.cpus' must be a positive integer")
        # Optional (absent from schema-v1 records written before the
        # affinity fix); validated only when present.
        logical = env.get("cpus_logical")
        if logical is not None and (
            not isinstance(logical, int)
            or isinstance(logical, bool)
            or logical < 1
        ):
            problems.append("'env.cpus_logical' must be a positive integer")
        # Legacy: records written while two bitset backends existed
        # name theirs; the field is no longer written or compared.
        kernel = env.get("kernel")
        if kernel is not None and (not isinstance(kernel, str) or not kernel):
            problems.append("'env.kernel' must be a non-empty string")
    for key in ("quick", "check"):
        if not isinstance(rec.get(key), bool):
            problems.append(f"{key!r} must be a boolean")
    for key in ("warmup", "repeats", "max_rss_kb"):
        v = rec.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            problems.append(f"{key!r} must be a non-negative integer")
    if isinstance(rec.get("repeats"), int) and rec.get("repeats", 0) < 1:
        problems.append("'repeats' must be at least 1")
    wall = rec.get("wall_seconds")
    if not isinstance(wall, dict):
        problems.append("'wall_seconds' must be an object")
    else:
        for key in ("p50", "p90", "min", "max"):
            v = wall.get(key)
            if (
                not isinstance(v, (int, float))
                or isinstance(v, bool)
                or v < 0
            ):
                problems.append(
                    f"'wall_seconds.{key}' must be a non-negative number"
                )
        runs = wall.get("runs")
        if not isinstance(runs, list) or not runs:
            problems.append("'wall_seconds.runs' must be a non-empty list")
        elif any(
            not isinstance(s, (int, float)) or isinstance(s, bool) or s < 0
            for s in runs
        ):
            problems.append(
                "'wall_seconds.runs' entries must be non-negative numbers"
            )
    counters = rec.get("counters")
    if not isinstance(counters, dict):
        problems.append("'counters' must be an object")
    else:
        for k, v in counters.items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                problems.append(f"counter {k!r} must be a number")
    return problems


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------


def append_records(path: str, records: Iterable[dict]) -> int:
    """Append validated records to a JSONL ledger; returns count written.

    Invalid records raise ``ValueError`` *before* anything is written, so
    a partially-bad batch never corrupts the ledger.
    """
    batch = list(records)
    for rec in batch:
        problems = validate_record(rec)
        if problems:
            raise ValueError(
                f"refusing to append invalid ledger record for "
                f"{rec.get('benchmark')!r}: {'; '.join(problems)}"
            )
    with open(path, "a") as f:
        for rec in batch:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    return len(batch)


def read_ledger(path: str, strict: bool = False) -> list[dict]:
    """Load a JSONL ledger, oldest first.

    Malformed lines raise ``ValueError`` when ``strict`` else are
    skipped (a ledger that survived merges should not brick the gate).
    """
    records: list[dict] = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                if strict:
                    raise ValueError(
                        f"{path}:{lineno}: not JSON ({exc})"
                    ) from None
                continue
            problems = validate_record(rec)
            if problems:
                if strict:
                    raise ValueError(
                        f"{path}:{lineno}: invalid record: "
                        f"{'; '.join(problems)}"
                    )
                continue
            records.append(rec)
    return records


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------


@dataclass
class Delta:
    """One benchmark's gate verdict."""

    benchmark: str
    verdict: str  # "regressed" | "improved" | "flat" | "new"
    candidate_p50: float
    baseline_p50: float | None = None
    mad: float | None = None
    history: int = 0

    @property
    def ratio(self) -> float | None:
        if self.baseline_p50 in (None, 0.0):
            return None
        return self.candidate_p50 / self.baseline_p50


@dataclass
class GateReport:
    """All per-benchmark verdicts of one gate evaluation."""

    deltas: list[Delta] = field(default_factory=list)
    window: int = DEFAULT_WINDOW
    threshold: float = DEFAULT_THRESHOLD

    @property
    def regressions(self) -> list[Delta]:
        return [d for d in self.deltas if d.verdict == "regressed"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self, markdown: bool = False) -> str:
        """The report table (plain text or GitHub-flavored markdown)."""
        header = ("benchmark", "baseline p50", "candidate p50", "Δ", "verdict")
        rows = []
        for d in sorted(self.deltas, key=lambda d: d.benchmark):
            base = "—" if d.baseline_p50 is None else f"{d.baseline_p50:.4f}s"
            ratio = d.ratio
            delta = "—" if ratio is None else f"{(ratio - 1) * 100:+.1f}%"
            rows.append(
                (d.benchmark, base, f"{d.candidate_p50:.4f}s", delta, d.verdict)
            )
        if markdown:
            lines = [
                "| " + " | ".join(header) + " |",
                "|" + "|".join("---" for _ in header) + "|",
            ]
            lines += ["| " + " | ".join(r) + " |" for r in rows]
        else:
            widths = [
                max(len(str(x)) for x in col)
                for col in zip(header, *rows)
            ] if rows else [len(h) for h in header]
            fmt = "  ".join(f"{{:<{w}}}" for w in widths)
            lines = [fmt.format(*header)]
            lines += [fmt.format(*r) for r in rows]
        lines.append("")
        tail = (
            f"gate: {len(self.regressions)} regression(s) out of "
            f"{len(self.deltas)} benchmark(s) "
            f"(window={self.window}, threshold={self.threshold * 100:.0f}%)"
        )
        lines.append(tail)
        return "\n".join(lines)


def _wall_p50(rec: dict) -> float:
    return float(rec["wall_seconds"]["p50"])


def compare_records(
    history: Sequence[dict],
    candidates: Sequence[dict],
    window: int = DEFAULT_WINDOW,
    threshold: float = DEFAULT_THRESHOLD,
) -> GateReport:
    """Noise-aware comparison of candidate records against a history.

    For each candidate benchmark, the baseline is the *median* wall p50
    of the last ``window`` historical records of that benchmark, and the
    noise floor is the MAD of those records.  Verdicts:

    * ``regressed`` — candidate exceeds baseline by more than the
      relative ``threshold`` *and* by more than ``3 × MAD`` *and* by
      more than :data:`NOISE_FLOOR_SECONDS` of absolute wall clock;
    * ``improved`` — symmetric in the other direction;
    * ``flat`` — inside the envelope;
    * ``new`` — no history to compare against.

    Quick-mode and full-mode records measure different workloads, so
    candidates are only compared against history with the same
    ``quick`` flag.
    """
    by_name: dict[str, list[dict]] = {}
    for rec in history:
        by_name.setdefault(rec["benchmark"], []).append(rec)
    report = GateReport(window=window, threshold=threshold)
    for cand in candidates:
        name = cand["benchmark"]
        cand_p50 = _wall_p50(cand)
        prior = [
            r
            for r in by_name.get(name, [])
            if r is not cand and r.get("quick") == cand.get("quick")
        ][-window:]
        if not prior:
            report.deltas.append(
                Delta(benchmark=name, verdict="new", candidate_p50=cand_p50)
            )
            continue
        p50s = [_wall_p50(r) for r in prior]
        base = statistics.median(p50s)
        mad = statistics.median([abs(x - base) for x in p50s])
        slack = max(3.0 * mad, NOISE_FLOOR_SECONDS)
        if cand_p50 > base * (1.0 + threshold) and cand_p50 > base + slack:
            verdict = "regressed"
        elif cand_p50 < base * (1.0 - threshold) and cand_p50 < base - slack:
            verdict = "improved"
        else:
            verdict = "flat"
        report.deltas.append(
            Delta(
                benchmark=name,
                verdict=verdict,
                candidate_p50=cand_p50,
                baseline_p50=base,
                mad=mad,
                history=len(prior),
            )
        )
    return report


def gate_ledger(
    path: str,
    candidate_path: str | None = None,
    window: int = DEFAULT_WINDOW,
    threshold: float = DEFAULT_THRESHOLD,
) -> GateReport:
    """Gate a ledger file: newest record per benchmark vs its history.

    With ``candidate_path``, every record of that file is a candidate
    and the whole of ``path`` is history (the CI shape: gate a fresh
    run's ledger against the committed trajectory).  Without it, the
    last record of each benchmark in ``path`` is the candidate and the
    earlier records are its history (the local re-run shape).
    """
    history = read_ledger(path)
    if candidate_path is not None:
        candidates = read_ledger(candidate_path)
        return compare_records(history, candidates, window, threshold)
    latest: dict[str, dict] = {}
    for rec in history:
        latest[rec["benchmark"]] = rec
    candidates = list(latest.values())
    prior = [r for r in history if all(r is not c for c in candidates)]
    return compare_records(prior, candidates, window, threshold)
