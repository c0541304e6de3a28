"""The one admission check and the callers that ask it.

``repro.verify.admits`` answers "does model M admit this document" for
``repro check``, ``run``, ``infer``, ``conformance``, the litmus table
and ``repro serve``.  These tests pin its policies (which decision
procedure, the SC node cap, the completion budget), check that
``repro check`` prints exactly what serve's ``check_document`` returns
on every document kind, and pin the verdict outputs of ``infer``,
``conformance`` and the litmus table's CC column.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import PROGRAMS, SC_NODE_LIMIT, main
from repro.core import Computation, ObserverFunction, R, W
from repro.dag import Dag
from repro.io import dump_partial_observer, dumps, loads
from repro.models import MODELS, ZOO
from repro.paperfigures import figure2_pair, figure3_pair, figure4_pair, lc_not_sc_pair
from repro.runtime import PartialObserver
from repro.serve import CheckOptions, check_document
from repro.verify import admits, find_completion, trace_admits_lc, trace_admits_sc

FIGURE_PAIRS = {
    "fig2": figure2_pair,
    "fig3": figure3_pair,
    "fig4": figure4_pair,
    "store-buffer": lc_not_sc_pair,
}


def _racy_partial() -> PartialObserver:
    """W x ∥ R x, R x: the reads see the write, then ⊥ (new-then-old)."""
    comp = Computation(Dag(3, [(1, 2)]), (W("x"), R("x"), R("x")))
    return PartialObserver(comp, {"x": {1: 0, 2: None}})


class TestPolicies:
    def test_full_observers_use_membership(self):
        for make in FIGURE_PAIRS.values():
            comp, phi = make()
            for name, model in MODELS.items():
                assert admits(name, phi).verdict == model.contains(comp, phi)
                assert admits(name, phi).witness is None

    def test_partials_use_the_trace_checkers(self):
        partial = _racy_partial()
        assert admits("LC", partial).verdict is trace_admits_lc(partial)
        assert admits("SC", partial) == (False, None)
        comp = Computation(Dag(2, [(0, 1)]), (W("x"), R("x")))
        good = PartialObserver(comp, {"x": {1: 0}})
        assert admits("SC", good) == (True, trace_admits_sc(good))

    def test_dag_models_search_for_a_completion(self):
        partial = _racy_partial()
        for name in ("NN", "NW", "WN", "WW", "CC"):
            found = find_completion(MODELS[name], partial) is not None
            assert admits(name, partial).verdict is found, name

    def test_lc_completable_traces_skip_the_search(self):
        comp = Computation(Dag(2, [(0, 1)]), (W("x"), R("x")))
        partial = PartialObserver(comp, {"x": {1: 0}})
        # A zero budget decides nothing by search.
        for name in ("NN", "NW", "WN", "WW"):
            assert admits(name, partial, completion_budget=0).verdict is True
        assert admits("CC", partial, completion_budget=0).verdict is None

    def test_over_budget_is_undecided(self):
        partial = _racy_partial()
        assert admits("NN", partial, completion_budget=0).verdict is None

    def test_sc_node_cap(self):
        comp, phi = lc_not_sc_pair()
        n = comp.num_nodes
        assert admits("SC", phi, sc_node_limit=n).verdict is False
        assert admits("SC", phi, sc_node_limit=n - 1).verdict is None
        # The cap is SC's alone.
        assert admits("LC", phi, sc_node_limit=0).verdict is True

    def test_traces_are_checked_through_their_partial_observer(self, tmp_path):
        path = tmp_path / "trace.json"
        main(["run", "--program", "store-buffer", "--procs", "2", "--out", str(path)])
        trace = loads(path.read_text())
        for name in ZOO:
            assert admits(name, trace) == admits(name, trace.partial_observer())

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            admits("TSO", _racy_partial())


# ---------------------------------------------------------------------------
# repro check renders check_document's verdicts
# ---------------------------------------------------------------------------


def _printed_verdicts(out: str) -> dict[str, bool | None]:
    """The verdicts a ``repro check`` report states, keyed like serve's."""
    verdicts: dict[str, bool | None] = {}
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("completable within "):
            model, answer = line[len("completable within ") :].split(": ")
            verdicts[model.lower()] = answer == "yes"
        elif line[:2] in ZOO and line[2:4] == ": ":
            answer = line[4:]
            verdicts[line[:2].lower()] = {"∈": True, "∉": False}.get(answer)
    return verdicts


def _check_both(path, capsys, checks: tuple[str, ...]):
    rc = main(["check", str(path)])
    out = capsys.readouterr().out
    served = check_document(
        json.loads(path.read_text()),
        CheckOptions(checks=checks, sc_node_limit=SC_NODE_LIMIT),
    )
    assert served["ok"], served
    return rc, _printed_verdicts(out), served["verdicts"]


RUNS = [(program, []) for program in sorted(PROGRAMS)] + [
    ("racy", ["--drop-reconcile", "1.0", "--drop-flush", "1.0", "--seed", "3"]),
    ("tree-sum", ["--drop-reconcile", "1.0", "--drop-flush", "1.0"]),
]


@pytest.mark.parametrize(
    "program, extra", RUNS, ids=[f"{p}{'-faulty' if e else ''}" for p, e in RUNS]
)
def test_check_prints_check_documents_verdicts_on_traces(
    program, extra, tmp_path, capsys
):
    trace_path = tmp_path / "trace.json"
    main(["run", "--program", program, "--procs", "4", "--out", str(trace_path)] + extra)
    capsys.readouterr()
    partial_path = tmp_path / "partial.json"
    partial = loads(trace_path.read_text()).partial_observer()
    partial_path.write_text(json.dumps(dump_partial_observer(partial)))
    for path in (trace_path, partial_path):
        rc, printed, expected = _check_both(path, capsys, ("lc", "sc"))
        printed.setdefault("sc", None)  # a skipped SC prints no line
        assert printed == expected, path.name
        assert rc == (0 if expected["lc"] else 2)


@pytest.mark.parametrize("name", sorted(FIGURE_PAIRS))
def test_check_prints_check_documents_verdicts_on_observers(name, tmp_path, capsys):
    _, phi = FIGURE_PAIRS[name]()
    path = tmp_path / "phi.json"
    path.write_text(dumps(phi))
    rc, printed, expected = _check_both(path, capsys, tuple(m.lower() for m in ZOO))
    assert rc == 0
    assert printed == expected
    assert set(printed) == {m.lower() for m in ZOO}


def test_check_reports_a_skipped_sc_on_large_observers(tmp_path, capsys):
    n = SC_NODE_LIMIT + 1
    comp = Computation(Dag(n, [(u, u + 1) for u in range(n - 1)]), (W("x"),) * n)
    phi = ObserverFunction(comp, {"x": tuple(range(n))})
    path = tmp_path / "phi.json"
    path.write_text(dumps(phi))
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "  SC: (skipped, computation too large)" in out
    assert "  LC: ∈" in out


# ---------------------------------------------------------------------------
# infer, conformance and the litmus table keep their verdicts
# ---------------------------------------------------------------------------

FAULTY = ["--drop-reconcile", "1.0", "--drop-flush", "1.0"]


def test_infer_output_pinned(capsys):
    assert main(["infer", "--program", "racy", "--runs", "4"] + FAULTY) == 0
    assert capsys.readouterr().out == (
        "observed 4 traces of racy under backer\n"
        "  SC: VIOLATED  (eliminated by trace #0)\n"
        "  LC: VIOLATED  (eliminated by trace #0)\n"
        "  NN: VIOLATED  (eliminated by trace #0)\n"
        "  NW: VIOLATED  (eliminated by trace #0)\n"
        "  WN: consistent\n"
        "  WW: consistent\n"
        "strongest consistent model: WN\n"
    )


@pytest.mark.parametrize(
    "target, faulty, expected",
    [
        ("NN", True, "conformance vs NN: 12 runs, 4 violations\n"),
        ("NW", True, "conformance vs NW: 12 runs, 4 violations\n"),
        ("WW", True, "conformance vs WW: 12 runs, 0 violations\n"),
        ("SC", False, "conformance vs SC: 12 runs, 4 violations\n"),
    ],
)
def test_conformance_output_pinned(target, faulty, expected, capsys):
    argv = ["conformance", "--target", target, "--runs", "2"]
    rc = main(argv + (FAULTY if faulty else []))
    out = capsys.readouterr().out
    assert out.splitlines()[0] + "\n" == expected
    assert rc == (2 if "0 violations" not in expected else 0)
    if target in ("NN", "NW"):
        assert "workload #1 procs=2 seed=0 (26 constraints)" in out


def test_litmus_cc_column_pinned():
    from repro.lang import LITMUS_TESTS, litmus_outcome_allowed

    cc = {t.name: litmus_outcome_allowed(t, "CC") for t in LITMUS_TESTS}
    assert cc == {
        "SB": True,
        "MP": False,
        "CoRR": False,
        "IRIW": True,
        "LB": False,
        "WRC": False,
        "SB+sync": False,
    }
