"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency.  This pins it on the
two pool-backed product paths — a 2-worker Figure-1 lattice sweep and a
2-worker ``repro serve`` batch — run in a fresh interpreter, so nothing
the test session imported can leak in.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
from repro.analysis.lattice import compute_lattice
from repro.core import Computation, R, W
from repro.dag import Dag
from repro.io import dump_trace
from repro.models import Universe
from repro.runtime import ExecutionTrace, ReadEvent
from repro.runtime.scheduler import Schedule
from repro.serve import TraceCheckService

result = compute_lattice(Universe(max_nodes=3, locations=("x",)), jobs=2)
assert result.inclusions[("SC", "LC")]

comp = Computation(Dag(2, [(0, 1)]), (W("x"), R("x")))
trace = ExecutionTrace(
    comp, Schedule(comp, (0, 0), (0, 1), 1), "test", [ReadEvent(1, "x", 0)]
)
with TraceCheckService(jobs=2) as svc:
    (item,) = svc.check_batch([json.dumps(dump_trace(trace))])
assert item.verdict["ok"] and item.verdict["admitted"], item.verdict

loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
print(json.dumps(loaded))
"""


def test_sweep_and_serve_never_import_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
