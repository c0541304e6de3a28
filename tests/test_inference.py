"""Tests for model inference and conformance campaigns."""

import pytest

from repro.lang import (
    racy_counter_computation,
    store_buffer_computation,
    tree_sum_computation,
)
from repro.runtime import (
    BackerMemory,
    SerialMemory,
    execute,
    work_stealing_schedule,
)
from repro.verify.inference import (
    InferenceResult,
    conformance_campaign,
    infer_models,
)


def collect_traces(comp, memory_factory, procs, seeds):
    out = []
    for seed in seeds:
        sched = work_stealing_schedule(comp, procs, rng=seed)
        trace = execute(sched, memory_factory(seed))
        out.append(trace.partial_observer())
    return out


class TestInference:
    def test_serial_memory_keeps_sc(self):
        comp = racy_counter_computation(3, 2)[0]
        traces = collect_traces(comp, lambda s: SerialMemory(), 4, range(5))
        result = infer_models(traces)
        assert result.consistent["SC"]
        assert result.strongest_consistent() == "SC"

    def test_backer_on_store_buffer_eliminates_sc_keeps_lc(self):
        comp = store_buffer_computation()[0]
        traces = collect_traces(comp, lambda s: BackerMemory(), 2, range(5))
        result = infer_models(traces)
        assert not result.consistent["SC"]
        assert result.consistent["LC"]
        assert result.strongest_consistent() == "LC"
        assert result.eliminated_by["SC"] <= 2  # SB kills SC almost at once

    def test_faulty_backer_eliminates_lc(self):
        comp = racy_counter_computation(4, 3)[0]
        traces = collect_traces(
            comp,
            lambda s: BackerMemory(
                drop_reconcile_probability=0.9,
                drop_flush_probability=0.9,
                rng=s,
            ),
            4,
            range(15),
        )
        result = infer_models(traces)
        assert not result.consistent["LC"]
        # Weak models may or may not survive, but WW is very permissive:
        # the verdict ordering must respect the lattice.
        order = ["SC", "LC", "NN", "NW", "WN", "WW"]
        seen_true = False
        for name in order:
            if result.consistent[name]:
                seen_true = True
            else:
                assert not seen_true or name in ("NW", "WN"), (
                    "a weaker model eliminated while a stronger survived"
                )

    def test_elimination_index_recorded(self):
        comp = store_buffer_computation()[0]
        traces = collect_traces(comp, lambda s: BackerMemory(), 2, range(3))
        result = infer_models(traces)
        if not result.consistent["SC"]:
            assert result.eliminated_by["SC"] < result.traces_seen

    def test_empty_batch(self):
        result = infer_models([])
        assert result.traces_seen == 0
        assert result.strongest_consistent() == "SC"

    def test_result_dataclass(self):
        r = InferenceResult()
        assert all(r.consistent.values())


class TestConformance:
    WORKLOADS = [
        tree_sum_computation(8)[0],
        racy_counter_computation(3, 2)[0],
    ]

    def test_faithful_backer_conforms_to_lc(self):
        report = conformance_campaign(
            lambda s: BackerMemory(),
            self.WORKLOADS,
            target="LC",
            procs=(2, 4),
            seeds=range(5),
        )
        assert report.ok
        assert report.runs == len(self.WORKLOADS) * 2 * 5

    def test_faulty_backer_fails_lc(self):
        report = conformance_campaign(
            lambda s: BackerMemory(
                drop_reconcile_probability=0.9,
                drop_flush_probability=0.9,
                rng=s,
            ),
            [racy_counter_computation(4, 3)[0]],
            target="LC",
            procs=(4,),
            seeds=range(10),
        )
        assert not report.ok
        v = report.violations[0]
        # The violation's reproduction parameters actually reproduce it.
        from repro.runtime import work_stealing_schedule
        from repro.verify import trace_admits_lc
        import random

        comp = racy_counter_computation(4, 3)[0]
        sched = work_stealing_schedule(comp, v.procs, rng=random.Random(v.seed))
        mem = BackerMemory(
            drop_reconcile_probability=0.9,
            drop_flush_probability=0.9,
            rng=v.seed,
        )
        trace = execute(sched, mem)
        assert not trace_admits_lc(trace.partial_observer())

    def test_serial_memory_conforms_to_sc(self):
        report = conformance_campaign(
            lambda s: SerialMemory(),
            self.WORKLOADS,
            target="SC",
            procs=(3,),
            seeds=range(4),
        )
        assert report.ok

    def test_backer_fails_sc_conformance(self):
        report = conformance_campaign(
            lambda s: BackerMemory(),
            [store_buffer_computation()[0]],
            target="SC",
            procs=(2,),
            seeds=range(5),
        )
        assert not report.ok  # SB weak outcomes are reachable

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            conformance_campaign(lambda s: SerialMemory(), [], target="XX")
