"""Golden verdicts of the streaming LC verifier.

The verifier's violations (node, location, blocks, witness chain and
event index) are part of its output: ``repro lint``, ``repro check``
and the service all print them.  These digests pin that output on two
fixed inputs, so a change to the engine's data structures cannot move a
witness unnoticed:

* every violation ``collect_violations`` reports on the 180-trace fault
  battery of ``tests/test_streaming.py::TestAgreement``;
* the first violation (or none) of every request of the seed-1
  ``serve-mixed`` benchmark corpus (``perfbench/gen.py``).

The digests were captured from the dict/frozenset engine that preceded
the bitset one.  To recapture (only when the witness definition itself
changes on purpose), run from the repository root::

    PYTHONPATH=src python -c "from tests.test_streaming_golden import \
digests; print(digests())"
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

from repro.io import load_trace
from repro.lang import racy_counter_computation, stencil_computation
from repro.runtime import BackerMemory, execute, work_stealing_schedule
from repro.verify import StreamingLCVerifier

ROOT = Path(__file__).resolve().parent.parent

BATTERY_DIGEST = "3825a8411f5c63fd91e692206e8baebf50dc0f593ffbf85f578cacdbe71adfb9"
SERVE_CORPUS_DIGEST = "84e2c278c1bbdcf5b319f87808a6cd6dcc3b377e65573307108a69e45b9c1a09"
SERVE_DIGEST = "b46a92041333c7980d3e91ebc72b82d79e896daeb2c7b21f1d93ff43b6f9366e"


def _record(v) -> list:
    if v is None:
        return [None]
    return [v.node, repr(v.loc), list(v.blocks), list(v.witness), v.event_index]


def _sha(records: list) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def battery_records() -> list:
    """``collect_violations`` on the fault battery, trace by trace."""
    records = []
    for comp in (racy_counter_computation(4, 3)[0], stencil_computation(6, 3)[0]):
        for drop in (0.0, 0.5, 1.0):
            for seed in range(30):
                sched = work_stealing_schedule(comp, 4, rng=seed)
                mem = BackerMemory(
                    drop_reconcile_probability=drop,
                    drop_flush_probability=drop,
                    rng=seed,
                )
                trace = execute(sched, mem)
                records.append(
                    [_record(v) for v in StreamingLCVerifier.collect_violations(trace)]
                )
    return records


def serve_corpus() -> list[str]:
    """The seed-1 ``serve-mixed`` request lines."""
    spec = importlib.util.spec_from_file_location("_perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.serve_corpus(1)


def serve_records(lines: list[str]) -> list:
    """The first violation of every request, in stream order."""
    return [
        _record(StreamingLCVerifier.check_trace(load_trace(json.loads(line))))
        for line in lines
    ]


def digests() -> dict[str, str]:
    lines = serve_corpus()
    return {
        "battery": _sha(battery_records()),
        "serve_corpus": _sha(lines),
        "serve": _sha(serve_records(lines)),
    }


def test_fault_battery_violations_are_pinned():
    records = battery_records()
    assert sum(1 for r in records if r) >= 40
    assert _sha(records) == BATTERY_DIGEST


def test_serve_corpus_first_violations_are_pinned():
    lines = serve_corpus()
    # A different corpus would need a recapture, not an engine fix.
    assert _sha(lines) == SERVE_CORPUS_DIGEST
    records = serve_records(lines)
    assert sum(1 for r in records if r != [None]) >= 40
    assert _sha(records) == SERVE_DIGEST
