"""Seeded fuzz corpus: malformed documents fail with one line, never more.

A deterministic mutator damages the four document kinds (trace,
partial observer, observer function, computation) — it swaps fields for
junk values of the wrong type, deletes fields, duplicates list items and
wraps values in lists — and every entry point that reads outside input
must answer each mutant with a verdict or a one-line error:
``repro.io.loads`` raises only :class:`repro.io.FormatError`, serve's
``parse_request_ex`` and ``check_document`` never raise past their
contract, and ``repro check`` / ``repro lint`` never print a traceback.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

import repro.errors
from repro.cli import main
from repro.errors import ReproError
from repro.io import (
    FormatError,
    dump_computation,
    dump_observer,
    dump_partial_observer,
    dump_trace,
    loads,
)
from repro.serve.service import CheckOptions, check_document, parse_request_ex

MUTANTS = 400
SEED = 0

REPRO_ERRORS = {"FormatError", *repro.errors.__all__}

JUNK = (
    None, True, False, 0, -1, 1, 2, 3, 10**30, float("inf"), 0.5,
    "", "x", "W", [], [[]], [0], [0, 1], [-1, 0], {},
    {"tuple": 1}, {"tuple": ["x"]}, {"kind": "W"}, "repro/trace",
)
"""Replacement values: wrong types, out-of-range ids, an integer too
large for an index, infinity (JSON ``Infinity``), near-miss encodings."""


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def mutate(doc: dict, rng: random.Random) -> dict:
    """``doc`` with one to three random structural mutations."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice([p for p in _paths(doc) if p])
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        key = path[-1]
        op = rng.randrange(5)
        if op == 0:
            parent[key] = copy.deepcopy(rng.choice(JUNK))
        elif op == 1:
            del parent[key]
        elif op == 2 and isinstance(parent[key], list) and parent[key]:
            parent[key].append(copy.deepcopy(rng.choice(parent[key])))
        elif op == 3:
            parent[key] = [parent[key]]
        elif isinstance(parent, dict):
            field = rng.choice(["extra", "loc", "node", "value", "kind"])
            parent[field] = copy.deepcopy(rng.choice(JUNK))
        else:
            parent.insert(key, copy.deepcopy(rng.choice(JUNK)))
    return doc


def _bases() -> list[dict]:
    from repro.lang import racy_counter_computation
    from repro.paperfigures import figure2_pair
    from repro.runtime import BackerMemory, execute, work_stealing_schedule

    comp, _ = racy_counter_computation(2, 1)
    trace = execute(work_stealing_schedule(comp, 2, rng=0), BackerMemory(rng=0))
    fig_comp, phi = figure2_pair()
    return [
        dump_trace(trace),
        dump_partial_observer(trace.partial_observer()),
        dump_observer(phi),
        dump_computation(fig_comp),
    ]


@pytest.fixture(scope="module")
def corpus() -> list[str]:
    rng = random.Random(SEED)
    bases = _bases()
    return [json.dumps(mutate(bases[i % 4], rng)) for i in range(MUTANTS)]


def test_corpus_is_mostly_malformed(corpus):
    """The mutator must damage documents, not just reshuffle them."""
    failures = 0
    for line in corpus:
        try:
            loads(line)
        except FormatError:
            failures += 1
    assert failures > MUTANTS // 2


def test_loads_raises_only_one_line_format_errors(corpus):
    for line in corpus:
        try:
            loads(line)
        except FormatError as exc:
            assert "\n" not in str(exc), line


def test_serve_parse_and_check_answer_every_mutant(corpus):
    options = CheckOptions(sanitize=True, rules=("RACE", "DL", "LC", "PORT"))
    for line in corpus:
        for request in (line, json.dumps({"document": json.loads(line)})):
            try:
                parse_request_ex(request, options)
            except (ValueError, ReproError) as exc:
                assert "\n" not in str(exc), request
        verdict = check_document(json.loads(line), options)
        if not verdict["ok"]:
            assert verdict["error"].split(":")[0] in REPRO_ERRORS, verdict
            assert "\n" not in verdict["error"]


@pytest.mark.parametrize("command", ["check", "lint"])
def test_cli_gives_a_verdict_or_one_line(corpus, command, tmp_path, capsys):
    path = tmp_path / "doc.json"
    for line in corpus[::2]:
        path.write_text(line)
        rc = main([command, str(path)])
        err = capsys.readouterr().err
        assert rc in (0, 2), line
        if err:
            assert err.count("\n") == 1, err
            assert err.startswith(f"repro {command}: error: "), err


def _list_op_computation() -> str:
    """A computation whose first op is a list instead of an object."""
    doc = _bases()[3]
    doc["ops"][0] = []
    return json.dumps(doc)


@pytest.mark.parametrize("command", ["check", "lint"])
def test_list_op_is_a_one_line_error(command, tmp_path, capsys):
    path = tmp_path / "comp.json"
    path.write_text(_list_op_computation())
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "FormatError" not in err and "malformed repro/computation" in err


def test_list_op_fails_its_item_not_the_batch(tmp_path, capsys):
    from repro.serve import TraceCheckService, run_batch_file

    batch = tmp_path / "batch.jsonl"
    batch.write_text(_list_op_computation() + "\n" + json.dumps(_bases()[0]) + "\n")
    out = tmp_path / "verdicts.jsonl"
    with TraceCheckService(jobs=1) as svc:
        run_batch_file(svc, str(batch), str(out))
    bad, good = [json.loads(line) for line in out.read_text().splitlines()]
    assert not bad["ok"] and bad["error"].startswith("FormatError: malformed")
    assert good["ok"] and good["kind"] == "trace"


def _chain_document() -> dict:
    """W x → R x → W x, the read observing the first write."""
    from repro.core import Computation, R, W
    from repro.dag import Dag
    from repro.runtime import ExecutionTrace, ReadEvent
    from repro.runtime.scheduler import Schedule

    comp = Computation(Dag(3, [(0, 1), (1, 2)]), (W("x"), R("x"), W("x")))
    sched = Schedule(comp, (0, 0, 0), (0, 1, 2), 1)
    return dump_trace(ExecutionTrace(comp, sched, "test", [ReadEvent(1, "x", 0)]))


def _observing(observed: int) -> dict:
    doc = _chain_document()
    doc["reads"][0]["observed"] = observed
    return doc


# A read observing itself (a non-write), and one observing a later write.
DEFINITION_2_BREAKS = {"non-write": _observing(1), "later write": _observing(2)}


@pytest.mark.parametrize("shape", sorted(DEFINITION_2_BREAKS))
def test_trace_breaking_definition_2_fails_to_load_with_one_line(shape):
    from repro.io import load_document

    with pytest.raises(FormatError) as info:
        load_document(DEFINITION_2_BREAKS[shape])
    assert "\n" not in str(info.value)
    assert "invalid read" in str(info.value)


@pytest.mark.parametrize("shape", sorted(DEFINITION_2_BREAKS))
def test_trace_breaking_definition_2_fails_its_item_not_the_batch(shape):
    from repro.serve import TraceCheckService

    lines = [json.dumps(_chain_document()), json.dumps(DEFINITION_2_BREAKS[shape])]
    with TraceCheckService(jobs=1) as svc:
        good, bad = svc.check_batch(lines)
    assert good.verdict["ok"] and good.verdict["admitted"] is True
    assert bad.verdict["ok"] is False
    assert bad.verdict["error"].startswith("FormatError: invalid read")
    assert "\n" not in bad.verdict["error"]
