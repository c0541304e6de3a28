"""Litmus-outcome table: the model zoo on classical litmus shapes.

Processor-centric programs embed into the computation framework as one
chain per processor (the paper's §1 observation).  This bench classifies
the standard litmus tests' weak outcomes against all six models,
regenerating the kind of allowed/forbidden table the memory-model
literature uses to compare models:

======== ==== ==== ==== ==== ==== ====
test      SC   LC   NN   NW   WN   WW
======== ==== ==== ==== ==== ==== ====
SB        no  yes  yes  yes  yes  yes
MP        no  yes  yes  yes  yes  yes
CoRR      no   no   no  yes  yes  yes
IRIW      no  yes  yes  yes  yes  yes
LB        no  yes  yes  yes  yes  yes
WRC       no  yes  yes  yes  yes  yes
SB+sync   no   no   no   no  yes  yes
======== ==== ==== ==== ==== ==== ====

SC forbids every weak outcome; LC (= coherence = NN*, Theorem 23) adds
exactly per-location ordering, so only the coherence test CoRR
distinguishes it from the weaker dag models (and CoRR also exhibits
NN's strength over NW/WN/WW).  WRC shows coherence is not causality.
SB+sync turns the store buffer's races into dag edges — the paper's
"synchronization = edges" move — after which the weak outcome is a
stale-⊥ read, forbidden by everything except WN/WW (the stale-read
anomaly those two models are criticized for).
"""

from repro.lang import LITMUS_TESTS, litmus_outcome_allowed

MODELS = ("SC", "LC", "NN", "NW", "WN", "WW")

EXPECTED = {
    "SB": (False, True, True, True, True, True),
    "MP": (False, True, True, True, True, True),
    "CoRR": (False, False, False, True, True, True),
    "IRIW": (False, True, True, True, True, True),
    "LB": (False, True, True, True, True, True),
    "WRC": (False, True, True, True, True, True),
    "SB+sync": (False, False, False, False, True, True),
}


def run(check: bool = True, quick: bool = False) -> dict:
    """Unified-runner entrypoint (``repro bench``, see registry.py).

    Times the full litmus table (all tests × all six models).  Quick
    mode classifies only the first three tests; ``check`` compares every
    classified row against the expected table.
    """
    import time

    tests = LITMUS_TESTS[:3] if quick else LITMUS_TESTS
    t0 = time.perf_counter()
    table = {
        t.name: tuple(litmus_outcome_allowed(t, m) for m in MODELS)
        for t in tests
    }
    seconds = time.perf_counter() - t0
    if check:
        for name, row in table.items():
            assert row == EXPECTED[name], f"litmus row {name} deviates"
    return {
        "table_seconds": round(seconds, 4),
        "tests": len(table),
        "allowed_outcomes": sum(sum(row) for row in table.values()),
    }
