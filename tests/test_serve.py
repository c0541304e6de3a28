"""End-to-end tests for the ``repro serve`` trace-checking service.

Covers the ISSUE's acceptance surface: batch submit → verdicts that
agree with the batch checkers, dedupe hits on duplicate (and
isomorphic) canonical forms, SIGTERM draining in-flight work, and
SIGKILL + journal replay yielding a ``validate_trace``-clean record.
"""

import io
import itertools
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (
    Computation,
    N,
    ObserverFunction,
    R,
    W,
    relabel_computation,
    relabel_observer,
)
from repro.dag import Dag
from repro.io import FormatError, dump_partial_observer, dump_trace
from repro.runtime import ExecutionTrace, PartialObserver, ReadEvent
from repro.runtime.scheduler import Schedule, greedy_schedule
from repro.serve import (
    CheckOptions,
    TraceCheckService,
    parse_request,
    replay_serve_ledger,
    request_fingerprint,
    run_batch_file,
)
from repro.serve.service import _signature_parts
from tests.conftest import computations, computations_with_observer

REPO = Path(__file__).resolve().parent.parent


def good_trace():
    """W x → R x observing it: admitted by every model."""
    comp = Computation(Dag(2, [(0, 1)]), (W("x"), R("x")))
    sched = Schedule(comp, (0, 0), (0, 1), 1)
    return ExecutionTrace(comp, sched, "test", [ReadEvent(1, "x", 0)])


def bad_trace():
    """Serialization cycle (non-identity execution order): rejected."""
    comp = Computation(Dag(3, [(2, 0), (0, 1)]), (W("x"), R("x"), W("x")))
    sched = Schedule(comp, (0, 0, 0), (1, 2, 0), 1)
    return ExecutionTrace(comp, sched, "test", [ReadEvent(1, "x", 2)])


def bad_trace_relabelled():
    """``bad_trace`` under the relabelling 0→1, 1→2, 2→0."""
    comp = Computation(Dag(3, [(0, 1), (1, 2)]), (W("x"), W("x"), R("x")))
    sched = Schedule(comp, (0, 0, 0), (0, 1, 2), 1)
    return ExecutionTrace(comp, sched, "test", [ReadEvent(2, "x", 0)])


def chain_trace(k):
    """``k`` chained writes, then a read observing the last one; each
    ``k`` is its own fingerprint."""
    comp = Computation(
        Dag(k + 1, [(u, u + 1) for u in range(k)]),
        (W("x"),) * k + (R("x"),),
    )
    sched = Schedule(comp, (0,) * (k + 1), tuple(range(k + 1)), 1)
    return ExecutionTrace(comp, sched, "test", [ReadEvent(k, "x", k - 1)])


def lines_for(*traces):
    return [json.dumps(dump_trace(t)) for t in traces]


def bottom_trace(ordered):
    """One W and two R of it, the first read observing ⊥.

    Unordered (``ordered=False``), the reads sit on the writer's
    processor after it and on another processor at the same step, and
    LC admits.  Ordered, both reads follow the write, so the ⊥ read is
    an LC violation.  Either way, swapping the reads is an automorphism
    of the dag and ops that only the observer tells apart.
    """
    ops = (W("x"), R("x"), R("x"))
    if ordered:
        comp = Computation(Dag(3, [(0, 1), (0, 2)]), ops)
        sched = Schedule(comp, (0, 0, 1), (0, 1, 1), 2)
    else:
        comp = Computation(Dag(3, []), ops)
        sched = Schedule(comp, (1, 0, 1), (0, 0, 1), 2)
    return ExecutionTrace(
        comp, sched, "backer", [ReadEvent(1, "x", None), ReadEvent(2, "x", 0)]
    )


def relabel_trace(trace, perm):
    """The isomorphic trace with node ``u`` renamed ``perm[u]``."""
    comp, sched = trace.comp, trace.schedule
    n = comp.num_nodes
    ops, proc_of, start_of = [None] * n, [0] * n, [0] * n
    for u in range(n):
        ops[perm[u]] = comp.ops[u]
        proc_of[perm[u]] = sched.proc_of[u]
        start_of[perm[u]] = sched.start_of[u]
    new = Computation(
        Dag(n, [(perm[a], perm[b]) for a, b in comp.dag.edges]), tuple(ops)
    )
    reads = [
        ReadEvent(
            perm[e.node], e.loc, None if e.observed is None else perm[e.observed]
        )
        for e in trace.reads
    ]
    return ExecutionTrace(
        new,
        Schedule(new, tuple(proc_of), tuple(start_of), sched.num_procs),
        trace.memory_name,
        reads,
    )


# ---------------------------------------------------------------------------
# Request parsing and fingerprinting
# ---------------------------------------------------------------------------


class TestParsing:
    def test_bare_document_uses_defaults(self):
        defaults = CheckOptions(checks=("lc",))
        doc, options = parse_request(
            json.dumps(dump_trace(good_trace())), defaults
        )
        assert doc["format"] == "repro/trace"
        assert options is defaults

    def test_envelope_overrides_options(self):
        defaults = CheckOptions()
        line = json.dumps(
            {
                "document": dump_trace(good_trace()),
                "checks": ["lc"],
                "sanitize": True,
            }
        )
        _, options = parse_request(line, defaults)
        assert options.checks == ("lc",)
        assert options.sanitize is True

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            CheckOptions(checks=("lc", "tso"))

    @pytest.mark.parametrize(
        "field",
        [
            '"sc_node_limit": 1e400',
            '"sanitize": "no"',
            '"rules": {"a": 1}',
            '"checks": "lc"',
        ],
    )
    def test_envelope_option_of_wrong_type_fails_its_item(self, field, tmp_path):
        document = json.dumps(dump_trace(bad_trace()))
        line = f'{{"document": {document}, {field}}}'
        with pytest.raises(FormatError):
            parse_request(line, CheckOptions())
        batch = tmp_path / "batch.jsonl"
        batch.write_text(f"{line}\n{json.dumps(dump_trace(good_trace()))}\n")
        out = tmp_path / "verdicts.jsonl"
        with TraceCheckService(jobs=1) as svc:
            run_batch_file(svc, str(batch), str(out), log=io.StringIO())
        bad, good = [json.loads(row) for row in out.read_text().splitlines()]
        assert bad["ok"] is False and bad["error"].startswith("FormatError: ")
        assert "\n" not in bad["error"]
        assert good["ok"] is True and good["admitted"] is True

    def test_fingerprint_matches_isomorphic_twins(self):
        from repro.io import load_trace

        opts = CheckOptions()
        key_a, perm_a = request_fingerprint(
            load_trace(dump_trace(bad_trace())), opts
        )
        key_b, perm_b = request_fingerprint(
            load_trace(dump_trace(bad_trace_relabelled())), opts
        )
        assert key_a == key_b
        assert perm_a != perm_b

    def test_fingerprint_separates_different_shapes(self):
        from repro.io import load_trace

        opts = CheckOptions()
        key_good, _ = request_fingerprint(
            load_trace(dump_trace(good_trace())), opts
        )
        key_bad, _ = request_fingerprint(
            load_trace(dump_trace(bad_trace())), opts
        )
        assert key_good != key_bad

    def test_fingerprint_includes_options(self):
        from repro.io import load_trace

        obj = load_trace(dump_trace(good_trace()))
        key_a, _ = request_fingerprint(obj, CheckOptions(checks=("lc",)))
        key_b, _ = request_fingerprint(obj, CheckOptions(checks=("sc",)))
        assert key_a != key_b

    @pytest.mark.parametrize("ordered", [False, True])
    def test_bottom_reads_fingerprint_and_check_under_every_relabelling(
        self, ordered
    ):
        """⊥ next to a node id in the observer must neither crash the
        fingerprint nor split its isomorphism class."""
        from repro.io import load_trace
        from repro.verify import trace_admits_lc
        from repro.verify.streaming import StreamingLCVerifier

        opts = CheckOptions(checks=("lc", "streaming"))
        traces = [
            load_trace(dump_trace(relabel_trace(bottom_trace(ordered), perm)))
            for perm in itertools.permutations(range(3))
        ]
        keys = {request_fingerprint(t, opts)[0] for t in traces}
        assert len(keys) == 1
        with TraceCheckService(options=opts, jobs=1) as svc:
            results = svc.check_batch(lines_for(*traces))
        assert sum(r.cached for r in results) == len(traces) - 1
        for item, trace in zip(results, traces):
            verdict = item.verdict
            assert verdict["ok"], verdict
            violation = StreamingLCVerifier.check_trace(trace)
            lc = trace_admits_lc(trace.partial_observer())
            assert verdict["verdicts"] == {
                "lc": lc,
                "streaming": violation is None,
            }
            assert lc is not ordered
            if ordered:
                # The witness names this submitter's ⊥ read.
                (bottom_read,) = [e.node for e in trace.reads if e.observed is None]
                assert verdict["witness"]["node"] == violation.node == bottom_read


# ---------------------------------------------------------------------------
# Canonical fingerprints against the brute-force oracle
# ---------------------------------------------------------------------------


def brute_force_key(obj, options):
    """The fingerprint key by exhaustive search (the oracle, n <= 7).

    The least ``(edges, ops, constraints, rows)`` over all ``n!``
    relabellings, with ⊥ encoded as -1; the service's canonical
    labelling must induce exactly the same key classes.
    """
    comp, triples, rows = _signature_parts(obj)
    n = comp.num_nodes
    ops_sig = tuple((op.kind, repr(op.loc)) for op in comp.ops)
    cons = [(repr(loc), u, -1 if v is None else v) for loc, u, v in triples]
    best = None
    for perm in itertools.permutations(range(n)):
        new_ops, new_rows = [None] * n, [None] * n if rows else []
        for u in range(n):
            new_ops[perm[u]] = ops_sig[u]
            if rows:
                new_rows[perm[u]] = rows[u]
        cand = (
            tuple(sorted((perm[a], perm[b]) for a, b in comp.dag.edges)),
            tuple(new_ops),
            tuple(
                sorted((loc, perm[u], v if v < 0 else perm[v]) for loc, u, v in cons)
            ),
            tuple(new_rows),
        )
        if best is None or cand < best:
            best = cand
    return ("brute", n) + best + (options.key(),)


def relabel_request(obj, perm):
    """Any fingerprintable request with node ``u`` renamed ``perm[u]``."""
    if isinstance(obj, ExecutionTrace):
        return relabel_trace(obj, perm)
    if isinstance(obj, Computation):
        return relabel_computation(obj, perm)
    if isinstance(obj, ObserverFunction):
        comp = relabel_computation(obj.computation, perm)
        return relabel_observer(obj, perm, comp)
    comp = relabel_computation(obj.comp, perm)
    constraints = {}
    for loc, u, v in obj.entries():
        constraints.setdefault(loc, {})[perm[u]] = None if v is None else perm[v]
    return PartialObserver(comp, constraints)


def request_certificate(obj):
    """``(edges, labels, constraints)`` of a request as it is numbered:
    what the canonical key spells out for its canonical relabelling."""
    comp, triples, rows = _signature_parts(obj)
    ops_sig = tuple((op.kind, repr(op.loc)) for op in comp.ops)
    return (
        tuple(sorted(comp.dag.edges)),
        tuple(zip(ops_sig, rows)) if rows else ops_sig,
        tuple(
            sorted((repr(loc), u, -1 if v is None else v) for loc, u, v in triples)
        ),
    )


LOCS = ("x", "y")


@st.composite
def symmetric_computations(draw):
    """No edges and one op everywhere: every node lands in one cell."""
    n = draw(st.integers(0, 6))
    op = draw(st.sampled_from([R("x"), W("x"), N]))
    return Computation(Dag(n), (op,) * n)


@st.composite
def observers(draw):
    _, phi = draw(computations_with_observer(max_nodes=6, locations=LOCS))
    return phi


@st.composite
def partial_observers(draw):
    """An observer restricted to some of its entries (⊥ reads included)."""
    _, phi = draw(computations_with_observer(max_nodes=6, locations=LOCS))
    constraints = {}
    for loc in phi.locations:
        for u in range(phi.computation.num_nodes):
            if draw(st.booleans()):
                constraints.setdefault(loc, {})[u] = phi.value(loc, u)
    return PartialObserver(phi.computation, constraints)


@st.composite
def traces(draw):
    """A schedule with arbitrary reads: each sees ⊥ or an earlier write.

    Every candidate edge is drawn with even odds, so paths are common,
    and the reads ignore any memory: many traces violate LC and the
    verdicts carry witnesses.
    """
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    alphabet = [R(loc) for loc in LOCS] + [W(loc) for loc in LOCS] + [N]
    comp = Computation(
        Dag(n, [pair for pair in pairs if draw(st.booleans())]),
        draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)),
    )
    sched = greedy_schedule(comp, draw(st.integers(1, 3)), rng=draw(st.integers(0, 99)))
    reads = []
    for u in comp.nodes():
        op = comp.op(u)
        if op.is_read:
            earlier = [
                w
                for w in comp.nodes()
                if comp.op(w).writes(op.loc)
                and sched.start_of[w] < sched.start_of[u]
            ]
            reads.append(
                ReadEvent(u, op.loc, draw(st.sampled_from([None, *earlier])))
            )
    return ExecutionTrace(comp, sched, "test", reads)


requests = st.one_of(
    traces(),
    partial_observers(),
    observers(),
    computations(max_nodes=6, locations=LOCS),
    symmetric_computations(),
)


def random_relabelling(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


@pytest.fixture(scope="module")
def serve_svc():
    """One service for a whole property run (a fresh pool per example
    would dominate the test); its cache carries across examples."""
    with TraceCheckService(
        options=CheckOptions(checks=("lc", "streaming")), jobs=1
    ) as svc:
        yield svc


class TestCanonicalFingerprint:
    @given(st.lists(requests, min_size=2, max_size=4), st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_keys_partition_like_the_oracle(self, objs, seed):
        """Relabelled copies of each request, and the requests among
        themselves, share a key exactly when the oracle's keys agree."""
        opts = CheckOptions()
        rng = random.Random(seed)
        pool = []
        for obj in objs:
            n = _signature_parts(obj)[0].num_nodes
            pool.append(obj)
            pool.append(relabel_request(obj, random_relabelling(n, rng.random())))
        keys = [request_fingerprint(o, opts)[0] for o in pool]
        oracle = [brute_force_key(o, opts) for o in pool]
        for i in range(len(pool)):
            for j in range(len(pool)):
                assert (keys[i] == keys[j]) == (oracle[i] == oracle[j])
        assert keys[0] == keys[1]

    @given(requests)
    @settings(max_examples=150, deadline=None)
    def test_permutation_yields_the_canonical_object(self, obj):
        key, perm = request_fingerprint(obj, CheckOptions())
        assert sorted(perm) == list(range(len(perm)))
        assert request_certificate(relabel_request(obj, perm)) == key[2:5]

    def test_pairing_across_cells_is_part_of_the_key(self):
        """Two writes and two reads, each read seeing its own write:
        refinement leaves a cell of writes and a cell of reads that are
        not twins, and only the relation says which read goes with which
        write.  Every relabelling must still land on one key."""
        comp = Computation(Dag(4), (W("x"), W("x"), R("x"), R("x")))
        paired = PartialObserver(comp, {"x": {0: 0, 1: 1, 2: 0, 3: 1}})
        shared = PartialObserver(comp, {"x": {0: 0, 1: 1, 2: 0, 3: 0}})
        opts = CheckOptions()
        keys = {
            request_fingerprint(relabel_request(paired, perm), opts)[0]
            for perm in itertools.permutations(range(4))
        }
        assert len(keys) == 1
        assert request_fingerprint(shared, opts)[0] not in keys

    @given(traces(), st.integers(0, 10**6))
    @example(trace=bad_trace(), seed=1)
    @example(trace=bottom_trace(ordered=True), seed=2)
    @settings(max_examples=100, deadline=None)
    def test_cached_twin_carries_its_own_streaming_witness(
        self, serve_svc, trace, seed
    ):
        """A relabelled twin answered from the cache reports the witness
        node the streaming verifier finds on the twin itself."""
        from repro.verify.streaming import StreamingLCVerifier

        twin = relabel_trace(
            trace, random_relabelling(trace.comp.num_nodes, seed)
        )
        first, second = serve_svc.check_batch(lines_for(trace, twin))
        assert second.cached
        for item, t in ((first, trace), (second, twin)):
            violation = StreamingLCVerifier.check_trace(t)
            assert item.verdict["verdicts"]["streaming"] is (violation is None)
            if violation is not None:
                assert item.verdict["witness"]["node"] == violation.node


# ---------------------------------------------------------------------------
# The service: verdicts, dedupe, witnesses
# ---------------------------------------------------------------------------


class TestService:
    def test_verdicts_agree_with_batch_checkers(self):
        from repro.verify import trace_admits_lc, trace_admits_sc

        traces = [good_trace(), bad_trace()]
        with TraceCheckService(jobs=1) as svc:
            results = svc.check_batch(lines_for(*traces))
        assert len(results) == 2
        for item, trace in zip(results, traces):
            partial = trace.partial_observer()
            assert item.verdict["ok"]
            assert item.verdict["verdicts"]["lc"] == trace_admits_lc(partial)
            assert item.verdict["verdicts"]["sc"] == (
                trace_admits_sc(partial) is not None
            )
            assert item.verdict["admitted"] == trace_admits_lc(partial)

    def test_rejection_carries_translated_witness(self):
        with TraceCheckService(jobs=1) as svc:
            (item,) = svc.check_batch(lines_for(bad_trace()))
        witness = item.verdict["witness"]
        assert witness["node"] == 1
        assert witness["blocks"] == [0, 2]
        assert "write 0" in witness["reason"]
        assert "write 2" in witness["reason"]

    def test_exact_duplicates_dedupe_within_batch(self):
        with TraceCheckService(jobs=1) as svc:
            results = svc.check_batch(lines_for(*([good_trace()] * 5)))
        cached = [r for r in results if r.cached]
        assert len(cached) == 4
        verdicts = {json.dumps(r.verdict["verdicts"]) for r in results}
        assert len(verdicts) == 1

    def test_duplicates_dedupe_across_batches(self):
        with TraceCheckService(jobs=1) as svc:
            svc.check_batch(lines_for(good_trace()))
            (item,) = svc.check_batch(lines_for(good_trace()))
        assert item.cached
        assert svc.cache.hits == 1

    def test_isomorphic_twin_hits_cache_with_remapped_witness(self):
        with TraceCheckService(jobs=1) as svc:
            svc.check_batch(lines_for(bad_trace()))
            (item,) = svc.check_batch(lines_for(bad_trace_relabelled()))
        assert item.cached
        witness = item.verdict["witness"]
        # In the relabelled trace the read is node 2 and the cycle is
        # between writes 1 and 0.
        assert witness["node"] == 2
        assert witness["blocks"] == [1, 0]
        assert "write 1" in witness["reason"]
        assert "write 0" in witness["reason"]

    def test_malformed_lines_fail_item_not_batch(self):
        deep = "[" * 100_000 + "]" * 100_000
        with TraceCheckService(jobs=1) as svc:
            results = svc.check_batch(
                ["{broken", json.dumps({"format": "nope"}), deep]
                + lines_for(good_trace())
            )
        assert [r.verdict["ok"] for r in results] == [False, False, False, True]
        assert "nested too deeply" in results[2].verdict["error"]

    def test_crashing_check_fails_item_not_batch(self, monkeypatch):
        """A check raising outside the caught input errors becomes that
        item's error verdict: never cached, its twin still answered, the
        rest of the batch checked."""
        import repro.serve.service as service

        real = service._check_object

        def crash_on_three_nodes(obj, options):
            if obj.comp.num_nodes == 3:
                raise RuntimeError("checker bug")
            return real(obj, options)

        # Patched before the first batch forks the pool.
        monkeypatch.setattr(service, "_check_object", crash_on_three_nodes)
        with TraceCheckService(jobs=1) as svc:
            first, good, twin = svc.check_batch(
                lines_for(bad_trace(), good_trace(), bad_trace())
            )
            (again,) = svc.check_batch(lines_for(bad_trace()))
        for item in (first, twin, again):
            assert item.verdict["ok"] is False
            assert item.verdict["error"] == "RuntimeError: checker bug"
        assert good.verdict["ok"] and good.verdict["admitted"]
        assert not again.cached

    def test_crash_after_broken_pool_fails_item_not_batch(self, monkeypatch):
        """The in-process retry after a broken pool handles a crashing
        check like the pool does: that item (and its twin) get the
        error verdict, nothing is cached for it, and the other items
        are still answered."""
        import repro.serve.service as service

        real = service._check_object
        parent = os.getpid()

        def kill_worker_then_crash(obj, options):
            if obj.comp.num_nodes == 3:
                if os.getpid() != parent:
                    os._exit(1)  # a dying worker breaks the pool
                raise RuntimeError("checker bug")
            return real(obj, options)

        # Patched before the first batch forks the pool.
        monkeypatch.setattr(service, "_check_object", kill_worker_then_crash)
        with TraceCheckService(jobs=2) as svc:
            first, good, twin = svc.check_batch(
                lines_for(bad_trace(), good_trace(), bad_trace())
            )
            (again,) = svc.check_batch(lines_for(bad_trace()))
            cached = len(svc.cache)
        for item in (first, twin, again):
            assert item.verdict["ok"] is False
            assert item.verdict["error"] == "RuntimeError: checker bug"
        assert good.verdict["ok"] and good.verdict["admitted"]
        assert not again.cached
        assert cached == 1  # the good trace only

    def test_crashing_untranslatable_twin_fails_item_not_batch(self, monkeypatch):
        """A twin whose sanitizer payload cannot be translated is checked
        in-process; if that check crashes, the twin alone gets the error
        verdict."""
        import repro.serve.service as service

        real = service._check_object
        parent = os.getpid()

        def crash_relabelled_in_parent(obj, options):
            if os.getpid() == parent and obj.comp.op(2) == R("x"):
                raise RuntimeError("checker bug")
            return real(obj, options)

        monkeypatch.setattr(service, "_check_object", crash_relabelled_in_parent)
        lines = [
            json.dumps({"document": dump_trace(t), "sanitize": True})
            for t in (bad_trace(), bad_trace_relabelled(), good_trace())
        ]
        with TraceCheckService(jobs=1) as svc:
            head, twin, good = svc.check_batch(lines)
        assert head.verdict["ok"] and head.verdict["admitted"] is False
        assert twin.verdict == {
            "ok": False,
            "error": "RuntimeError: checker bug",
            "seconds": 0.0,
        }
        assert not twin.cached
        assert good.verdict["ok"] and good.verdict["admitted"]

    @staticmethod
    def _monitored_batches(*batches):
        """Run ``batches`` through one ``jobs=2`` service (closed at the
        end) under a sweep monitor; return their results and the
        heartbeats the monitor received."""
        from repro.runtime.parallel import SweepMonitor, set_sweep_monitor

        class Beats:
            def __init__(self):
                self.seen = []

            def on_heartbeat(self, hb):
                self.seen.append(hb)

        beats = Beats()
        set_sweep_monitor(SweepMonitor(listeners=[beats], interval=0.05))
        try:
            with TraceCheckService(jobs=2) as svc:
                results = [svc.check_batch(lines) for lines in batches]
        finally:
            set_sweep_monitor(None)
        return results, beats.seen

    def test_pool_heartbeats_reach_the_sweep_monitor(self):
        """Serve workers heartbeat over the sweep engine's channel: with
        a monitor installed, a pool batch delivers worker heartbeats."""
        (results,), seen = self._monitored_batches(
            lines_for(*(chain_trace(k) for k in range(1, 9)))
        )
        assert all(r.verdict["admitted"] for r in results)
        me = os.getpid()
        assert any(hb.get("serve") is True and hb["pid"] != me for hb in seen)

    def test_last_items_heartbeats_are_delivered_not_dropped(self):
        """A batch's final beats may arrive after its results: they are
        drained after the batch and again when the pool shuts down, so
        two one-item batches deliver both items' heartbeats."""
        _, seen = self._monitored_batches(
            lines_for(chain_trace(2)), lines_for(chain_trace(3))
        )
        assert len([hb for hb in seen if hb.get("serve") is True]) == 2

    def test_no_heartbeat_queue_without_a_monitor(self):
        """With no monitor installed at pool start nobody listens, so
        the pool gets no heartbeat queue and the batch still checks."""
        with TraceCheckService(jobs=2) as svc:
            results = svc.check_batch(
                lines_for(*(chain_trace(k) for k in range(1, 9)))
            )
            assert svc._pool is not None and svc._hb_queue is None
        assert all(r.verdict["admitted"] for r in results)

    def test_zero_capacity_cache_disables_cross_batch_dedupe(self):
        with TraceCheckService(jobs=1, cache_size=0) as svc:
            svc.check_batch(lines_for(good_trace()))
            (item,) = svc.check_batch(lines_for(good_trace()))
        assert not item.cached

    def test_sc_skipped_above_node_limit(self):
        with TraceCheckService(
            jobs=1, options=CheckOptions(sc_node_limit=1)
        ) as svc:
            (item,) = svc.check_batch(lines_for(good_trace()))
        assert item.verdict["verdicts"]["sc"] is None
        assert item.verdict["verdicts"]["lc"] is True

    def test_partial_observer_documents_check(self):
        trace = good_trace()
        line = json.dumps(dump_partial_observer(trace.partial_observer()))
        with TraceCheckService(jobs=1) as svc:
            (item,) = svc.check_batch([line])
        assert item.verdict["kind"] == "partial-observer"
        assert item.verdict["verdicts"]["lc"] is True

    def test_observer_documents_check_and_dedupe(self):
        """An observer and its relabelled twin: one check, one hit."""
        from repro.io import dump_observer

        comp = Computation(Dag(3, [(0, 1)]), (W("x"), R("x"), R("x")))
        phi = ObserverFunction(comp, {"x": (0, 0, None)})
        twin = relabel_request(phi, [2, 0, 1])
        lines = [json.dumps(dump_observer(o)) for o in (phi, twin)]
        with TraceCheckService(jobs=1) as svc:
            first, second = svc.check_batch(lines)
        assert first.verdict["kind"] == "observer"
        assert first.verdict["verdicts"] == {"lc": True, "sc": True}
        assert second.cached
        assert second.verdict["verdicts"] == first.verdict["verdicts"]

    def test_sanitize_and_rules_ride_along(self):
        options = CheckOptions(sanitize=True, rules=("RACE001",))
        with TraceCheckService(jobs=1, options=options) as svc:
            good, bad = svc.check_batch(
                lines_for(good_trace(), bad_trace())
            )
        assert good.verdict["sanitizer"] == []
        assert bad.verdict["sanitizer"]
        assert "findings" in good.verdict

    def test_serve_counters_accumulate(self):
        obs.reset()
        obs.enable()
        try:
            with TraceCheckService(jobs=1) as svc:
                svc.check_batch(
                    lines_for(good_trace(), good_trace(), bad_trace())
                )
            counters = obs.get().counters
            assert counters["serve.items"] == 3
            assert counters["serve.verdicts.admitted"] == 2
            assert counters["serve.verdicts.rejected"] == 1
            assert counters["serve.dedupe.hits"] == 1
            assert counters["serve.dedupe.misses"] == 2
            assert "serve.check_seconds" in obs.get().histograms
        finally:
            obs.reset()


def _smoke_module():
    """``scripts/serve_smoke.py`` (a script, not a package) as a module."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "serve_smoke", REPO / "scripts" / "serve_smoke.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _share_of(lines, jobs, index):
    """Batch positions of the worker share that holds ``lines[index]``
    (the fingerprint phase splits a batch's lines by length)."""
    from repro.serve.service import _plan_shares

    for share in _plan_shares([len(line) for line in lines], jobs):
        if index in share:
            return share
    raise AssertionError(f"no share holds item {index}")


def _without_seconds(results):
    return [
        ({k: v for k, v in r.verdict.items() if k != "seconds"}, r.cached)
        for r in results
    ]


def _old_dedupe(lines, options):
    """The ``cached`` flags of one batch on an empty cache, computed in
    this process the way a service that loads, fingerprints and dedupes
    every line in the parent decides them (every check cacheable)."""
    from repro.io import load_document
    from repro.serve.service import _compose_remap, parse_request_ex

    first = {}
    flags = []
    for line in lines:
        try:
            doc, opts, _ = parse_request_ex(line, options)
            key, perm = request_fingerprint(load_document(doc), opts)
        except Exception:
            flags.append(False)
            continue
        if key not in first:
            first[key] = perm
            flags.append(False)
            continue
        translatable = not (opts.sanitize or opts.rules)
        flags.append(_compose_remap(first[key], perm) is None or translatable)
    return flags


class TestChunkedDispatch:
    """A batch reaches the workers as one chunk of lines per worker,
    balanced by length; each worker fingerprints its chunk and later
    checks the unique items it holds, while everything downstream of a
    worker's answers stays per item."""

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 40), max_size=60),
        jobs=st.integers(1, 6),
    )
    def test_planner_covers_each_item_once_in_few_chunks(self, weights, jobs):
        from repro.serve.service import _plan_shares

        shares = _plan_shares(weights, jobs)
        assert sorted(p for c in shares for p in c) == list(range(len(weights)))
        assert len(shares) == min(len(weights), jobs)
        assert all(shares)
        assert all(c == sorted(c) for c in shares)

    @settings(max_examples=60, deadline=None)
    @given(
        others=st.lists(st.integers(1, 9), min_size=1, max_size=40),
        at=st.integers(0, 40),
        jobs=st.integers(2, 4),
    )
    def test_planner_gives_an_oversized_item_its_own_chunk(self, others, at, jobs):
        from repro.serve.service import _plan_shares

        at = min(at, len(others))
        weights = others[:at] + [sum(others) + 1] + others[at:]
        assert [at] in _plan_shares(weights, jobs)

    def test_two_workers_answer_like_one(self):
        """A ~200-item batch (the smoke corpus's chains and relabelled
        cycles plus distinct long chains) gets the same verdicts,
        ``cached`` flags and translated witnesses at ``jobs=2`` as at
        ``jobs=1``, and every fresh verdict is ``check_document``'s."""
        from repro.serve.service import check_document

        smoke = _smoke_module().batch_lines(168)
        longs = lines_for(*(chain_trace(k) for k in range(8, 40)))
        lines = list(smoke)
        for i, line in enumerate(longs):
            lines.insert(6 * i + 3, line)
        assert len(lines) == 200

        def run(jobs):
            with TraceCheckService(jobs=jobs) as svc:
                return _without_seconds(svc.check_batch(lines))

        one, two = run(1), run(2)
        assert one == two
        assert sum(cached for _, cached in two) > 100
        assert any(v.get("witness") for v, _ in two)
        for line, (verdict, cached) in zip(lines, two):
            if not cached:
                expected = check_document(json.loads(line), CheckOptions())
                del expected["seconds"]
                assert verdict == expected

    def test_raising_check_leaves_its_chunk_mates_answered_and_cached(
        self, monkeypatch
    ):
        import repro.serve.service as service

        real = service._check_object

        def crash_on_four_nodes(obj, options):
            if obj.comp.num_nodes == 4:
                raise RuntimeError("checker bug")
            return real(obj, options)

        # Patched before the first batch starts the workers.
        monkeypatch.setattr(service, "_check_object", crash_on_four_nodes)
        traces = [chain_trace(k) for k in range(1, 7)]  # 2..7 nodes
        with TraceCheckService(jobs=1) as svc:  # one worker holds them all
            results = svc.check_batch(lines_for(*traces))
            cached = len(svc.cache)
            again = svc.check_batch(lines_for(*traces))
        for trace, item, repeat in zip(traces, results, again):
            if trace.comp.num_nodes == 4:
                assert item.verdict["error"] == "RuntimeError: checker bug"
                assert not repeat.cached
            else:
                assert item.verdict["ok"] and item.verdict["admitted"]
                assert repeat.cached
        assert cached == 5

    def test_worker_death_retries_every_chunk_mate_in_process(
        self, monkeypatch
    ):
        import repro.serve.service as service

        real = service._check_object
        parent = os.getpid()
        checked_here = []

        def die_in_worker_on_four_nodes(obj, options):
            if os.getpid() == parent:
                checked_here.append(obj.comp.num_nodes)
            elif obj.comp.num_nodes == 4:
                os._exit(1)  # the worker dies mid-check
            return real(obj, options)

        # Patched before the first batch starts the workers.
        monkeypatch.setattr(service, "_check_object", die_in_worker_on_four_nodes)
        traces = [chain_trace(k) for k in range(1, 7)]
        with TraceCheckService(jobs=1) as svc:  # one worker holds them all
            results = svc.check_batch(lines_for(*traces))
            cached = len(svc.cache)
        assert all(r.verdict["ok"] and r.verdict["admitted"] for r in results)
        assert sorted(checked_here) == [t.comp.num_nodes for t in traces]
        assert cached == 6

    def test_inflight_gauge_counts_items_not_chunks(self, monkeypatch):
        import repro.serve.service as service

        real = service._check_object

        def slow(obj, options):
            time.sleep(0.01)
            return real(obj, options)

        monkeypatch.setattr(service, "_check_object", slow)
        gauges = []
        real_gauge = obs.set_gauge

        def record(name, value, *args, **kwargs):
            if name == "serve.inflight":
                gauges.append(value)
            return real_gauge(name, value, *args, **kwargs)

        monkeypatch.setattr(obs, "set_gauge", record)
        lines = lines_for(*(chain_trace(k) for k in range(1, 21)))
        shares = service._plan_shares([len(line) for line in lines], 2)
        sizes = {len(c) for c in shares}
        assert min(sizes) > len(shares)  # item counts cannot pass for chunk counts
        obs.reset()
        obs.enable()
        try:
            with TraceCheckService(jobs=2) as svc:
                svc.check_batch(lines)
        finally:
            obs.reset()
        assert gauges[-1] == 0
        assert set(gauges) <= sizes | {0}
        assert sizes & set(gauges)

    def test_worker_killed_while_fingerprinting_loses_no_item(self, monkeypatch):
        """A worker that dies in the fingerprint phase has its whole
        chunk loaded, fingerprinted and checked in-process; the answers
        equal an undisturbed ``jobs=1`` run."""
        import repro.serve.service as service

        lines = _smoke_module().batch_lines(40) + lines_for(chain_trace(9))
        with TraceCheckService(jobs=1) as svc:
            expected = _without_seconds(svc.check_batch(lines))

        real_fp, real_check = service.request_fingerprint, service._check_object
        parent = os.getpid()
        checked_here = []

        def die_on_ten_nodes(obj, options):
            if os.getpid() != parent and obj.comp.num_nodes == 10:
                os._exit(1)
            return real_fp(obj, options)

        def record(obj, options):
            if os.getpid() == parent:
                checked_here.append(obj.comp.num_nodes)
            return real_check(obj, options)

        monkeypatch.setattr(service, "request_fingerprint", die_on_ten_nodes)
        monkeypatch.setattr(service, "_check_object", record)
        with TraceCheckService(jobs=2) as svc:
            got = _without_seconds(svc.check_batch(lines))
            again = _without_seconds(svc.check_batch(lines[:4]))
            assert len(svc._pool) == 2  # the dead worker was replaced
        assert got == expected
        assert 10 in checked_here
        assert again == [(v, True) for v, _ in expected[:4]]

    def test_worker_killed_while_checking_loses_no_item(self, monkeypatch):
        """A worker that dies in the check phase has the items it was
        asked to check loaded and checked in-process; the answers equal
        an undisturbed ``jobs=1`` run."""
        import repro.serve.service as service

        lines = _smoke_module().batch_lines(40) + lines_for(chain_trace(9))
        with TraceCheckService(jobs=1) as svc:
            expected = _without_seconds(svc.check_batch(lines))
        real = service._check_object
        parent = os.getpid()
        checked_here = []

        def die_on_ten_nodes(obj, options):
            if os.getpid() == parent:
                checked_here.append(obj.comp.num_nodes)
            elif obj.comp.num_nodes == 10:
                os._exit(1)
            return real(obj, options)

        monkeypatch.setattr(service, "_check_object", die_on_ten_nodes)
        with TraceCheckService(jobs=2) as svc:
            got = _without_seconds(svc.check_batch(lines))
        assert got == expected
        assert 10 in checked_here

    def test_raising_check_at_two_workers_fails_only_its_item(self, monkeypatch):
        import repro.serve.service as service

        real = service._check_object

        def crash_on_five_nodes(obj, options):
            if obj.comp.num_nodes == 5:
                raise RuntimeError("checker bug")
            return real(obj, options)

        monkeypatch.setattr(service, "_check_object", crash_on_five_nodes)
        traces = [chain_trace(k) for k in range(1, 9)]
        with TraceCheckService(jobs=2) as svc:
            results = svc.check_batch(lines_for(*traces))
            (again,) = svc.check_batch(lines_for(chain_trace(4)))
        for trace, item in zip(traces, results):
            if trace.comp.num_nodes == 5:
                assert item.verdict == {
                    "ok": False,
                    "error": "RuntimeError: checker bug",
                    "seconds": 0.0,
                }
            else:
                assert item.verdict["ok"] and item.verdict["admitted"]
        assert not again.cached and not again.verdict["ok"]

    def test_relabelled_twins_on_different_workers_get_remapped_witnesses(self):
        lines = lines_for(bad_trace(), bad_trace_relabelled())
        assert _share_of(lines, 2, 0) != _share_of(lines, 2, 1)
        with TraceCheckService(jobs=2) as svc:
            head, twin = svc.check_batch(lines)
        assert not head.cached and twin.cached
        assert head.verdict["witness"]["node"] == 1
        assert twin.verdict["witness"]["node"] == 2
        assert twin.verdict["witness"]["blocks"] == [1, 0]

    @pytest.mark.parametrize("envelope", [{"sanitize": True}, {"rules": ["RACE001"]}])
    def test_untranslatable_twins_are_rechecked(self, envelope):
        from repro.serve.service import check_document

        docs = [dump_trace(t) for t in (bad_trace(), bad_trace_relabelled())]
        lines = [json.dumps({"document": d, **envelope}) for d in docs]
        with TraceCheckService(jobs=2) as svc:
            results = svc.check_batch(lines)
        options = CheckOptions.merged(envelope, CheckOptions())
        for doc, item in zip(docs, results):
            assert not item.cached
            expected = check_document(doc, options)
            del expected["seconds"]
            assert {k: v for k, v in item.verdict.items() if k != "seconds"} == expected

    def test_close_leaves_no_child_process(self):
        import multiprocessing

        # A module-scoped service may still be running: compare to it.
        before = set(multiprocessing.active_children())
        svc = TraceCheckService(jobs=2)
        svc.check_batch(lines_for(good_trace(), bad_trace()))
        workers = set(multiprocessing.active_children()) - before
        assert len(workers) == 2
        svc.close()
        assert set(multiprocessing.active_children()) == before
        assert not any(p.is_alive() for p in workers)

    def test_parity_with_in_process_checks_on_a_seeded_corpus(self):
        """A ``jobs=2`` service over the smoke corpus with bad lines,
        exact twins and relabelled twins mixed in: every verdict, fresh
        or served from a (remapped) twin, is in-process
        ``check_document``'s, and every ``cached`` flag is the dedupe a
        parent that loads and fingerprints every line makes."""
        from repro.serve.service import check_document

        rng = random.Random(7)
        lines = _smoke_module().batch_lines(120)
        extras = (
            ["{broken", json.dumps({"format": "nope"}), json.dumps([1])]
            + lines_for(bad_trace(), bad_trace_relabelled(), bad_trace())
            + lines_for(*(relabel_trace(chain_trace(k), [k, *range(k)]) for k in (3, 5)))
            + lines_for(bottom_trace(True), bottom_trace(False))
        )
        for line in extras:
            lines.insert(rng.randrange(len(lines) + 1), line)
        with TraceCheckService(jobs=2) as svc:
            results = svc.check_batch(lines)
        assert [r.index for r in results] == list(range(len(lines)))
        assert [r.cached for r in results] == _old_dedupe(lines, CheckOptions())
        for line, item in zip(lines, results):
            assert item.verdict["ok"] == (line not in extras[:3])
            if not item.verdict["ok"]:
                continue
            expected = check_document(json.loads(line), CheckOptions())
            del expected["seconds"]
            assert {k: v for k, v in item.verdict.items() if k != "seconds"} == expected


# ---------------------------------------------------------------------------
# Trace propagation: ids on verdicts, journal records, worker spans
# ---------------------------------------------------------------------------


TP = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
TID = "0af7651916cd43dd8448eb211c80319c"


class TestTracing:
    def test_inbound_traceparent_echoed_on_every_verdict(self):
        with TraceCheckService(jobs=1) as svc:
            results = svc.check_batch(
                lines_for(good_trace(), bad_trace(), good_trace()),
                traceparent=TP,
            )
        assert [r.trace_id for r in results] == [TID] * 3
        request_ids = [r.request_id for r in results]
        assert all(request_ids)
        assert len(set(request_ids)) == 3  # distinct even for the dupe
        row = results[0].to_json()
        assert row["trace_id"] == TID
        assert row["request_id"] == results[0].request_id

    def test_parse_errors_echo_ids_too(self):
        with TraceCheckService(jobs=1) as svc:
            bad, good = svc.check_batch(
                ["{broken"] + lines_for(good_trace()), traceparent=TP
            )
        assert not bad.verdict["ok"]
        assert bad.trace_id == TID and bad.request_id

    def test_envelope_trace_field_overrides_per_item(self):
        other = "00-" + "c" * 32 + "-" + "d" * 16 + "-01"
        enveloped = json.dumps(
            {"document": dump_trace(bad_trace()), "trace": other}
        )
        with TraceCheckService(jobs=1) as svc:
            plain, routed = svc.check_batch(
                lines_for(good_trace()) + [enveloped], traceparent=TP
            )
        assert plain.trace_id == TID
        assert routed.trace_id == "c" * 32

    def test_generated_ids_when_no_header(self):
        with TraceCheckService(jobs=1) as svc:
            (a,) = svc.check_batch(lines_for(good_trace()))
            (b,) = svc.check_batch(lines_for(good_trace()))
        assert a.trace_id and b.trace_id
        assert a.trace_id != b.trace_id  # one trace per batch

    def test_unsampled_batches_still_echo_ids_but_record_no_spans(self):
        # Head sampling gates the *recording* work, never the ids: an
        # unsampled verdict still correlates with client-side logs.
        obs.reset()
        obs.enable()
        try:
            with TraceCheckService(jobs=1, trace_sample_rate=0.0) as svc:
                (item,) = svc.check_batch(lines_for(good_trace()))
            assert item.to_json()["trace_id"]
            assert item.to_json()["request_id"]
            spans = list(obs.iter_trace_spans(obs.get().to_dict()))
            assert all("trace_id" not in s["attrs"] for s in spans)
        finally:
            obs.reset()

    def test_worker_spans_graft_across_the_fork_boundary(self):
        obs.reset()
        obs.enable()
        try:
            with TraceCheckService(jobs=2) as svc:
                svc.check_batch(
                    lines_for(good_trace(), bad_trace()), traceparent=TP
                )
            spans = list(obs.iter_trace_spans(obs.get().to_dict()))
            checks = [s for s in spans if s["name"] == "serve.check"]
            assert len(checks) == 2  # one per unique fingerprint
            by_span = {
                s["attrs"]["span_id"]: s
                for s in spans
                if s["attrs"].get("span_id")
            }
            me = os.getpid()
            for sp in checks:
                attrs = sp["attrs"]
                assert attrs["trace_id"] == TID
                assert attrs["pid"] != me  # measured in the worker
                parent = by_span[attrs["parent_span_id"]]
                assert parent["attrs"]["trace_id"] == TID
        finally:
            obs.reset()

    def test_journal_and_ledger_bucket_by_trace(self, tmp_path):
        from repro.obs.core import set_journal
        from repro.obs.journal import Journal

        path = str(tmp_path / "serve.jsonl")
        obs.reset()
        obs.enable()
        journal = Journal(path)
        set_journal(journal)
        try:
            with TraceCheckService(jobs=1) as svc:
                svc.check_batch(
                    lines_for(good_trace(), bad_trace()), traceparent=TP
                )
                svc.check_batch(lines_for(good_trace()))
        finally:
            journal.close()
            set_journal(None)
            obs.reset()
        records = [
            json.loads(ln) for ln in Path(path).read_text().splitlines()
        ]
        items = [r for r in records if r["kind"] == "serve_item"]
        assert [r["trace_id"] for r in items[:2]] == [TID] * 2
        assert all(r["request_id"] for r in items)
        ledger = replay_serve_ledger(path)
        bucket = ledger["traces"][TID]
        assert bucket["items_accepted"] == 2
        assert bucket["items_done"] == 2
        assert bucket["pending"] == 0
        assert bucket["admitted"] == 1 and bucket["rejected"] == 1
        assert len(ledger["traces"]) == 2  # the headerless batch too


# ---------------------------------------------------------------------------
# Journal: crash replay ledger
# ---------------------------------------------------------------------------


class TestJournal:
    def test_batch_records_replay_to_clean_ledger(self, tmp_path):
        from repro.obs.core import set_journal
        from repro.obs.export import validate_trace
        from repro.obs.journal import Journal, replay_journal

        path = str(tmp_path / "serve.jsonl")
        obs.reset()
        obs.enable()
        journal = Journal(path)
        set_journal(journal)
        try:
            with TraceCheckService(jobs=1) as svc:
                svc.check_batch(lines_for(good_trace(), bad_trace()))
        finally:
            journal.close()
            set_journal(None)
            obs.reset()
        ledger = replay_serve_ledger(path)
        assert ledger["clean"]
        assert ledger["items_accepted"] == 2
        assert ledger["items_done"] == 2
        assert ledger["admitted"] == 1
        assert ledger["rejected"] == 1
        assert ledger["pending"] == 0
        # The replayed collector renders a validate_trace-clean record.
        doc = replay_journal(path).to_trace_dict()
        assert validate_trace(doc) == []

    def test_torn_journal_reports_pending_items(self, tmp_path):
        from repro.obs.core import set_journal
        from repro.obs.journal import Journal

        path = str(tmp_path / "serve.jsonl")
        obs.reset()
        obs.enable()
        journal = Journal(path)
        set_journal(journal)
        try:
            with TraceCheckService(jobs=1) as svc:
                svc.check_batch(lines_for(good_trace(), bad_trace()))
        finally:
            journal.close()
            set_journal(None)
            obs.reset()
        # Simulate a SIGKILL mid-batch: keep the accepted-batch record,
        # drop the second item and the batch-done marker, tear the tail.
        lines = Path(path).read_bytes().splitlines()
        keep = [
            ln
            for ln in lines
            if b"serve_batch_done" not in ln
            and not (b"serve_item" in ln and b'"index": 1' in ln)
            and b"journal_close" not in ln
        ]
        Path(path).write_bytes(b"\n".join(keep) + b"\n" + b'{"kind": "tor')
        ledger = replay_serve_ledger(path)
        assert not ledger["clean"]
        assert ledger["items_accepted"] == 2
        assert ledger["items_done"] == 1
        assert ledger["pending"] == 1
        assert ledger["batches_done"] == 0


# ---------------------------------------------------------------------------
# Offline batch mode
# ---------------------------------------------------------------------------


def test_run_batch_file_roundtrip(tmp_path, capsys):
    batch = tmp_path / "batch.jsonl"
    out = tmp_path / "out.jsonl"
    batch.write_text(
        "\n".join(lines_for(good_trace(), bad_trace(), good_trace())) + "\n"
    )
    with TraceCheckService(jobs=1) as svc:
        code = run_batch_file(svc, str(batch), str(out))
    assert code == 0
    rows = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert [row["index"] for row in rows] == [0, 1, 2]
    assert [row["admitted"] for row in rows] == [True, False, True]
    assert rows[2]["cached"] is True


# ---------------------------------------------------------------------------
# The HTTP front-end (subprocess: real signals, real sockets)
# ---------------------------------------------------------------------------


def _start_server(tmp_path, *extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    err_path = tmp_path / "server_err.txt"
    err = open(err_path, "w")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--jobs",
            "1",
            *extra_args,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=err,
        # Own process group, so a SIGKILL test can take the pool
        # workers down with the server instead of orphaning them.
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 30
        port = None
        while time.monotonic() < deadline:
            text = err_path.read_text()
            for line in text.splitlines():
                if "listening on http://" in line:
                    port = int(line.split(":")[-1].split("/")[0])
                    break
            if port is not None:
                break
            if proc.poll() is not None:
                raise AssertionError(
                    f"server died at startup:\n{text}"
                )
            time.sleep(0.1)
        assert port is not None, "server never announced its port"
        return proc, port
    finally:
        err.close()


def _post(port, body, timeout=60):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/check",
        data=body.encode("utf-8"),
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.read().decode("utf-8")


def test_http_batch_and_sigterm_drain(tmp_path):
    journal = tmp_path / "serve.jsonl"
    proc, port = _start_server(tmp_path, "--journal", str(journal))
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=10
        ) as resp:
            assert json.loads(resp.read())["status"] == "ok"
        body = "\n".join(lines_for(good_trace(), bad_trace(), good_trace()))
        rows = [json.loads(ln) for ln in _post(port, body).splitlines()]
        assert len(rows) == 3
        by_index = {row["index"]: row for row in rows}
        assert by_index[0]["admitted"] is True
        assert by_index[1]["admitted"] is False
        assert by_index[2]["cached"] is True
        # SIGTERM: graceful drain, exit 0, clean journal.
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        ledger = replay_serve_ledger(str(journal))
        assert ledger["clean"]
        assert ledger["items_done"] == 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_http_sigkill_journal_replays_consistently(tmp_path):
    from repro.obs.export import validate_trace
    from repro.obs.journal import replay_journal

    journal = tmp_path / "serve.jsonl"
    proc, port = _start_server(tmp_path, "--journal", str(journal))
    try:
        body = "\n".join(lines_for(good_trace(), bad_trace()))
        rows = [json.loads(ln) for ln in _post(port, body).splitlines()]
        assert len(rows) == 2
        # SIGKILL the whole group: no drain, no journal_close record.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        ledger = replay_serve_ledger(str(journal))
        assert not ledger["clean"]
        assert ledger["items_accepted"] == 2
        assert ledger["items_done"] == 2
        assert ledger["pending"] == 0
        doc = replay_journal(str(journal)).to_trace_dict()
        assert validate_trace(doc) == []
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)


def test_port_zero_binds_ephemeral():
    # The serve front-end depends on MetricsServer-style port-0
    # resolution; make sure the pattern holds for plain sockets too
    # (regression guard for the CI smoke's port parsing).
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    assert s.getsockname()[1] > 0
    s.close()
