"""Tests for JSON serialization (repro.io)."""

import json

import pytest
from hypothesis import given, settings

from repro.core import Computation, N, ObserverFunction, R, W
from repro.dag import Dag
from repro.errors import InvalidObserverError
from repro.io import (
    FormatError,
    dump_computation,
    dump_observer,
    dump_partial_observer,
    dump_trace,
    dumps,
    load_computation,
    load_observer,
    load_partial_observer,
    load_trace,
    loads,
)
from repro.runtime import (
    BackerMemory,
    PartialObserver,
    execute,
    work_stealing_schedule,
)
from tests.conftest import computations, computations_with_observer


class TestComputationRoundtrip:
    @given(computations(max_nodes=6))
    @settings(max_examples=40)
    def test_roundtrip(self, comp):
        assert load_computation(dump_computation(comp)) == comp

    def test_tuple_locations(self):
        comp = Computation(Dag(2, [(0, 1)]), (W(("fib", 3, "l")), R(("fib", 3, "l"))))
        again = load_computation(dump_computation(comp))
        assert again == comp
        assert again.op(0).loc == ("fib", 3, "l")

    def test_json_serializable(self):
        comp = Computation(Dag(1), (W("x"),))
        text = json.dumps(dump_computation(comp))
        assert load_computation(json.loads(text)) == comp

    def test_bad_header(self):
        with pytest.raises(FormatError):
            load_computation({"format": "nope"})

    def test_bad_version(self):
        comp = Computation(Dag(1), (N,))
        doc = dump_computation(comp)
        doc["version"] = 99
        with pytest.raises(FormatError):
            load_computation(doc)

    def test_unsupported_location_type(self):
        comp = Computation(Dag(1), (W(frozenset([1])),))
        with pytest.raises(FormatError):
            dump_computation(comp)


class TestObserverRoundtrip:
    @given(computations_with_observer(max_nodes=5))
    @settings(max_examples=40)
    def test_roundtrip(self, pair):
        comp, phi = pair
        again = loads(dumps(phi))
        assert again == phi
        assert again.computation == comp

    def test_corrupted_row_fails_validation(self):
        comp = Computation(Dag(2, [(0, 1)]), (R("x"), W("x")))
        phi = ObserverFunction(comp, {"x": (None, 1)})
        doc = dump_observer(phi)
        doc["rows"][0]["row"] = [1, 1]  # node 0 would observe its successor
        with pytest.raises(InvalidObserverError):
            load_observer(doc)


class TestPartialObserverRoundtrip:
    def test_roundtrip(self):
        comp = Computation(Dag(3, [(0, 1)]), (W("x"), R("x"), R("x")))
        po = PartialObserver(comp, {"x": {0: 0, 1: 0, 2: None}})
        again = load_partial_observer(dump_partial_observer(po))
        assert again.constrained("x") == po.constrained("x")
        assert again.comp == comp


class TestTraceRoundtrip:
    def test_roundtrip(self):
        from repro.lang import racy_counter_computation

        comp = racy_counter_computation(3, 2)[0]
        sched = work_stealing_schedule(comp, 3, rng=1)
        trace = execute(sched, BackerMemory())
        again = load_trace(dump_trace(trace))
        assert again.comp == comp
        assert again.schedule.proc_of == sched.proc_of
        assert [
            (e.node, e.loc, e.observed) for e in again.reads
        ] == [(e.node, e.loc, e.observed) for e in trace.reads]

    def test_trace_verdict_preserved(self):
        from repro.lang import store_buffer_computation
        from repro.verify import trace_admits_lc

        comp = store_buffer_computation()[0]
        sched = work_stealing_schedule(comp, 2, rng=0)
        trace = execute(sched, BackerMemory())
        again = loads(dumps(trace))
        assert trace_admits_lc(again.partial_observer()) == trace_admits_lc(
            trace.partial_observer()
        )

    def test_corrupted_schedule_rejected(self):
        from repro.errors import ScheduleError

        comp = Computation(Dag(2, [(0, 1)]), (W("x"), R("x")))
        from repro.runtime import serial_schedule, SerialMemory

        trace = execute(serial_schedule(comp), SerialMemory())
        doc = dump_trace(trace)
        doc["start_of"] = [1, 0]  # violates the edge
        with pytest.raises(ScheduleError):
            load_trace(doc)

    def test_loaded_observer_is_reused_until_the_reads_change(self):
        from repro.runtime import ReadEvent

        comp = Computation(Dag(3, [(0, 1)]), (W("x"), R("x"), R("x")))
        from repro.runtime import serial_schedule, SerialMemory

        trace = load_trace(dump_trace(execute(serial_schedule(comp), SerialMemory())))
        first = trace.partial_observer()
        assert trace.partial_observer() is first
        trace.reads[-1] = ReadEvent(2, "x", None)  # same length, new read
        assert trace.partial_observer().constrained("x")[2] is None
        trace.reads.append(ReadEvent(2, "x", 0))  # an executor appending
        assert trace.partial_observer().constrained("x")[2] == 0
        trace.reads.append(ReadEvent(1, "x", 2))  # observes a non-write
        with pytest.raises(InvalidObserverError):
            trace.partial_observer()


class TestStringDispatch:
    def test_dumps_unknown_type(self):
        with pytest.raises(FormatError):
            dumps(42)

    def test_loads_missing_format(self):
        with pytest.raises(FormatError):
            loads("{}")

    def test_loads_unknown_format(self):
        with pytest.raises(FormatError):
            loads('{"format": "repro/quux"}')
        with pytest.raises(FormatError):
            loads('{"format": ["repro/trace"]}')

    def test_loads_deeply_nested(self):
        with pytest.raises(FormatError, match="nested too deeply"):
            loads("[" * 100_000 + "]" * 100_000)

    def test_loads_dispatches_computation(self):
        comp = Computation(Dag(1), (N,))
        assert loads(dumps(comp)) == comp
