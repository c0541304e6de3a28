"""The parallel sweep engine: sharding, dispatch, and serial equivalence.

The engine's contract is that the process-pool path is *bit-identical*
to the serial sweep: shards partition the canonical enumeration order,
specs pickle cleanly into worker processes, and merges fold shard
results back in order.  These tests pin each piece on n ≤ 4 universes
(small enough to cross-check against direct serial loops), forcing the
pool with ``parallel_threshold=0`` where the universes would otherwise
demote to the in-process fallback.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
from functools import partial
from itertools import permutations

import pytest

from repro import obs
from repro._caching import caches_enabled, sweep_caching
from repro.core import relabel_computation, relabel_observer
from repro.core.ops import N as NOP, R
from repro.dag.canon import canonical_labelling
from repro.errors import ConfigError
from repro.models import (
    LC,
    NN,
    NW,
    SC,
    WW,
    Universe,
    augmentation_closed_at,
    find_nonconstructibility_witness,
    inclusion_matrix,
    separating_witness,
)
from repro.runtime.parallel import (
    ShardSpec,
    clear_sweep_caches,
    effective_jobs,
    lattice_battery_kernel,
    make_shards,
    parallel_inclusion_matrix,
    parallel_lattice_battery,
    run_shards,
)

SWEEP = Universe(max_nodes=3, locations=("x",))
WITNESS = Universe(max_nodes=4, locations=("x",), include_nop=False)

#: The battery asked only the inclusion question, over (SC, LC).
_inclusion_kernel = partial(
    lattice_battery_kernel,
    edges=(),
    constructibility=(),
    thm23_probes=None,
    inclusion=("SC", "LC"),
)


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("universe", [SWEEP, WITNESS])
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_shards_partition_enumeration_space(universe, jobs):
    """Shards exactly tile every size's edge-mask range, in order."""
    shards = make_shards(universe, jobs=jobs)
    for n in range(universe.max_nodes + 1):
        ranges = [(s.mask_lo, s.mask_hi) for s in shards if s.n == n]
        assert ranges, f"size {n} has no shard"
        assert ranges[0][0] == 0
        assert ranges[-1][1] == universe.num_edge_masks(n)
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo, "shard mask ranges overlap or leave gaps"
    # Canonical order: size ascending, then mask ascending.
    keys = [(s.n, s.mask_lo) for s in shards]
    assert keys == sorted(keys)


ORBIT_UNIVERSES = (
    Universe(max_nodes=4, locations=("x",)),
    Universe(max_nodes=4, locations=("x",), include_nop=False),
    Universe(max_nodes=3, locations=("x", "y")),
)


def _renamings(comp):
    """Every distinct ordered computation isomorphic to ``comp``, each
    with the first node permutation (in ``permutations`` order) giving it."""
    out = {}
    for perm in permutations(range(comp.num_nodes)):
        if all(perm[u] < perm[v] for u, v in comp.dag.edges):
            out.setdefault(relabel_computation(comp, perm), perm)
    return out


def test_shards_cover_every_pair_exactly_once():
    """Shards yield one computation per isomorphism class, weighted by
    the class size, and account for every labelled pair exactly once.

    * The representatives, concatenated over shards, are the first
      computation of each ``canonical_labelling`` certificate in the
      labelled ``computations_of_size`` order.
    * ``Σ weight × observers`` is ``count_pairs(n)``.
    * Carrying each representative pair to each isomorphic ordered
      computation (along one fixed renaming per computation) gives
      every labelled pair once.
    """
    for universe in ORBIT_UNIVERSES:
        sharded = [
            triple
            for shard in make_shards(universe, jobs=4)
            for triple in shard.iter_pairs()
        ]
        for n in range(universe.max_nodes + 1):
            first = {}
            for comp in universe.computations_of_size(n):
                cert, _ = canonical_labelling(
                    n, comp.dag.edges, [repr(op) for op in comp.ops]
                )
                first.setdefault(cert, comp)
            observers = {}
            for comp, phi, weight in sharded:
                if comp.num_nodes == n:
                    observers.setdefault((comp, weight), []).append(phi)
            assert [c for c, _ in observers] == list(first.values())
            assert sum(
                w * len(phis) for (_, w), phis in observers.items()
            ) == universe.count_pairs(n)

            labelled = list(universe.pairs(n))
            carried = []
            for (comp, weight), phis in observers.items():
                renamings = _renamings(comp)
                assert len(renamings) == weight
                for phi in phis:
                    for moved, perm in renamings.items():
                        carried.append(
                            (moved, relabel_observer(phi, perm, moved))
                        )
            assert len(carried) == len(labelled)
            assert set(carried) == set(labelled), (universe, n)


def test_shard_spec_pickle_round_trip():
    """Work items must survive the pipe to a worker process unchanged."""
    for shard in make_shards(WITNESS, jobs=4):
        clone = pickle.loads(pickle.dumps(shard))
        assert clone == shard
        assert clone.universe() == shard.universe()
        first = next(iter(shard.iter_pairs()), None)
        assert next(iter(clone.iter_pairs()), None) == first


# ---------------------------------------------------------------------------
# Worker-count resolution
# ---------------------------------------------------------------------------


def test_effective_jobs_explicit_argument_wins(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert effective_jobs(3) == 3


def test_effective_jobs_env_fallback(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert effective_jobs() == 1  # default: serial
    monkeypatch.setenv("REPRO_JOBS", "1")
    assert effective_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert effective_jobs() == 5
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert effective_jobs() == (os.cpu_count() or 1)


def test_effective_jobs_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError):
        effective_jobs()


# ---------------------------------------------------------------------------
# Parallel == serial (pool forced via parallel_threshold=0)
# ---------------------------------------------------------------------------


def test_parallel_inclusion_matrix_matches_serial():
    models = (SC, LC, NN, WW)
    serial = inclusion_matrix(models, SWEEP)
    for jobs in (1, 2):
        clear_sweep_caches()
        matrix, stats = parallel_inclusion_matrix(
            models, SWEEP, jobs=jobs, parallel_threshold=0
        )
        assert matrix == serial
        if jobs == 1:
            assert stats.mode == "serial"
        else:
            assert stats.mode.startswith("process-pool")


@pytest.mark.parametrize(
    "universe",
    [
        Universe(max_nodes=4, locations=("x",)),
        Universe(max_nodes=3, locations=("x", "y")),
        Universe(max_nodes=4, locations=("x",), include_nop=False),
    ],
)
def test_battery_inclusion_question_matches_labelled_oracle(universe):
    """The battery's inclusion answer, asked alongside every Figure-1
    witness question, equals the labelled serial fold of
    :func:`inclusion_matrix` on the whole universe."""
    from repro.analysis.lattice import PAPER_EDGES, PAPER_MODELS

    oracle = inclusion_matrix(PAPER_MODELS, universe, jobs=None)
    for jobs in (1, 2):
        clear_sweep_caches()
        battery, stats = parallel_lattice_battery(
            universe,
            edges=PAPER_EDGES,
            constructibility=PAPER_MODELS,
            inclusion=PAPER_MODELS,
            jobs=jobs,
            parallel_threshold=0,
        )
        assert battery.inclusions == oracle
        assert stats.pairs == sum(
            universe.count_pairs(n) for n in range(universe.max_nodes + 1)
        )


#: sha256 of the ``repr`` of the inclusions, strictness and
#: incomparability witnesses and constructibility witnesses of
#: ``compute_lattice(U, U)`` on ``U = Universe(4, ("x",))``, as computed
#: by the former two-pass lattice (an inclusion sweep, then a battery
#: sweep).
LATTICE_U4_DIGEST = (
    "54cc33fb8374cd6176304414d51fff0964ebd4768465f67742f99b5b6ed0a29d"
)


@pytest.mark.parametrize("jobs", [1, 2])
def test_fused_lattice_is_repr_identical_to_two_pass_lattice(jobs):
    """One battery pass per lattice changes no inclusion cell, witness
    (computation, observer, blocking op) or constructibility verdict."""
    from repro.analysis.lattice import compute_lattice

    universe = Universe(max_nodes=4, locations=("x",))
    clear_sweep_caches()
    result = compute_lattice(universe, universe, jobs=jobs)
    assert list(result.sweep_stats) == ["lattice-battery"]
    text = repr(
        (
            result.inclusions,
            result.strictness,
            result.incomparability,
            result.constructibility,
        )
    )
    assert hashlib.sha256(text.encode()).hexdigest() == LATTICE_U4_DIGEST
    assert result.matches_paper() == []


def test_parallel_witnesses_match_serial_first_witness():
    """First-witness determinism: the merged witness is the one the
    serial enumeration finds, for every requested edge at once."""
    edges = (("LC", "NN"), ("NN", "WW"))
    by_name = {m.name: m for m in (LC, NN, WW)}
    serial = {
        (a, b): separating_witness(by_name[a], by_name[b], WITNESS)
        for a, b in edges
    }
    for jobs in (1, 2):
        clear_sweep_caches()
        battery, _stats = parallel_lattice_battery(
            WITNESS, edges=edges, jobs=jobs, parallel_threshold=0
        )
        found = battery.witnesses
        for edge in edges:
            assert serial[edge] is not None, f"{edge} should separate at n<=4"
            assert found[edge] is not None
            assert found[edge].comp == serial[edge].comp
            assert found[edge].phi == serial[edge].phi


def test_parallel_nonconstructibility_matches_serial():
    models = (NN, LC)
    serial = {
        m.name: find_nonconstructibility_witness(m, WITNESS) for m in models
    }
    clear_sweep_caches()
    battery, _stats = parallel_lattice_battery(
        WITNESS, constructibility=models, jobs=2, parallel_threshold=0
    )
    found = battery.nonconstructibility
    for m in models:
        got, want = found[m.name], serial[m.name]
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.comp == want.comp
            assert got.phi == want.phi


def test_battery_stops_once_every_witness_is_found():
    """A shard asked only first-witness questions stops scanning once
    each has its answer: NN and NW both fail Theorem 12 on n <= 4, so
    the sweep checks fewer than the universe's 1,721 orbit pairs."""
    models = (NN, NW)
    serial = {
        m.name: find_nonconstructibility_witness(m, WITNESS) for m in models
    }
    clear_sweep_caches()
    battery, stats = parallel_lattice_battery(
        WITNESS, constructibility=models, jobs=1
    )
    assert repr(battery.nonconstructibility) == repr(serial)
    assert all(w is not None for w in serial.values())
    assert stats.evaluated < 1721


def test_parallel_thm23_counts_match_serial_loop():
    probes = (R("x"), NOP)
    lc_in_nn = nn_minus_lc = stuck = 0
    for comp, phi in WITNESS.model_pairs(NN):
        if LC.contains(comp, phi):
            lc_in_nn += 1
            continue
        nn_minus_lc += 1
        if augmentation_closed_at(NN, comp, phi, probes) is not None:
            stuck += 1
    for jobs in (1, 2):
        clear_sweep_caches()
        battery, _stats = parallel_lattice_battery(
            WITNESS, thm23_probes=probes, jobs=jobs, parallel_threshold=0
        )
        assert battery.thm23 == (lc_in_nn, nn_minus_lc, stuck)
    # Theorem 23 at n <= 4: NN is strictly bigger than LC, and one
    # augmentation step prunes every pair of the difference.
    assert 0 < nn_minus_lc == stuck


@pytest.mark.parametrize(
    "universe, probes",
    [
        (SWEEP, (R("x"), NOP)),
        (WITNESS, (R("x"),)),
    ],
)
def test_cached_battery_matches_uncached_generic_path(universe, probes):
    """The closed-form Theorem-12 hooks and the memo layer change no
    result: ``sweep_caching(False)`` runs the generic candidate search,
    and the battery's witnesses, blocking ops and Theorem-23 counts are
    ``repr``-identical either way."""
    from repro.analysis.lattice import (
        PAPER_EDGES,
        PAPER_INCOMPARABLE,
        PAPER_MODELS,
    )

    edges = list(PAPER_EDGES)
    for a, b in PAPER_INCOMPARABLE:
        edges += [(a, b), (b, a)]

    def run():
        clear_sweep_caches()
        battery, _ = parallel_lattice_battery(
            universe,
            edges=edges,
            constructibility=PAPER_MODELS,
            thm23_probes=probes,
            jobs=1,
        )
        return repr(
            (
                battery.witnesses,
                battery.nonconstructibility,
                battery.thm23,
            )
        )

    cached = run()
    with sweep_caching(False):
        uncached = run()
    assert cached == uncached


def test_each_model_is_decided_once_per_pair(monkeypatch):
    """One serial battery pass decides every model's membership at most
    once per pair, and one whole Figure-1 lattice decides every model
    exactly once per pair: the inclusion fold reuses the verdicts of
    the witness questions in the same pass.

    A decision is an outermost call of a model's ``contains`` or of its
    Theorem-12 hook (which answers membership too); a hook's own
    ``contains`` call is part of its decision.  Asking ``contains``
    and then the hook at one pair decides twice, memo or no memo.
    """
    from collections import Counter

    from repro.analysis.lattice import (
        PAPER_EDGES,
        PAPER_INCOMPARABLE,
        PAPER_MODELS,
        compute_lattice,
    )

    decisions: Counter = Counter()
    deciding: set[str] = set()

    def counted(model, fn):
        def decide(comp, phi):
            if model.name in deciding:
                return fn(comp, phi)
            deciding.add(model.name)
            decisions[(model.name, comp, phi)] += 1
            try:
                return fn(comp, phi)
            finally:
                deciding.discard(model.name)

        return decide

    for m in PAPER_MODELS:
        # Instance entries shadow the methods and are removed on undo.
        for attr in ("contains", "augmentation_stuck_locations"):
            monkeypatch.setitem(vars(m), attr, counted(m, getattr(m, attr)))
    edges = list(PAPER_EDGES)
    for a, b in PAPER_INCOMPARABLE:
        edges += [(a, b), (b, a)]
    clear_sweep_caches()
    battery, stats = parallel_lattice_battery(
        SWEEP,
        edges=edges,
        constructibility=PAPER_MODELS,
        thm23_probes=SWEEP.alphabet,
        jobs=1,
    )
    assert stats.evaluated > 0 and battery.thm23[0] > 0
    assert set(decisions.values()) == {1}
    decisions.clear()
    lattice = compute_lattice(SWEEP, SWEEP, jobs=1)
    (lattice_stats,) = lattice.sweep_stats.values()
    assert lattice_stats.evaluated == stats.evaluated
    # The paper-figure seeds are decided outside the sweep, on pairs
    # the n <= 3 universe does not hold.
    swept = {
        (comp, phi)
        for shard in make_shards(SWEEP)
        for comp, phi, _weight in shard.iter_pairs()
    }
    per_pair = {k: v for k, v in decisions.items() if k[1:] in swept}
    assert len(per_pair) == len(PAPER_MODELS) * stats.evaluated
    assert set(per_pair.values()) == {1}


@pytest.mark.parametrize("jobs", [1, 2])
def test_full_scan_counts_universe_pairs_and_evaluated_orbits(jobs):
    """``pairs`` is the universe's pair count on a full scan; only one
    computation per isomorphism class is evaluated."""
    _, stats = parallel_inclusion_matrix(
        (SC, LC), WITNESS, jobs=jobs, parallel_threshold=0
    )
    assert sum(WITNESS.count_pairs(n) for n in range(5)) == 4734
    assert (stats.pairs, stats.evaluated) == (4734, 1721)
    assert all(m.evaluated <= m.pairs for m in stats.shards)
    assert stats.to_dict()["evaluated"] == 1721
    assert "4734 pairs (1721 evaluated)" in stats.render()


def test_small_universe_demotes_to_serial_despite_jobs():
    """Below the amortization threshold the pool is skipped entirely."""
    _, stats = parallel_inclusion_matrix((SC, LC), SWEEP, jobs=4)
    assert stats.mode == "serial"


def test_repro_jobs_env_drives_sweeps(monkeypatch):
    """jobs=None defers to REPRO_JOBS; '1' means the serial fallback."""
    monkeypatch.setenv("REPRO_JOBS", "1")
    _, stats = parallel_inclusion_matrix(
        (SC, LC), SWEEP, jobs=None, parallel_threshold=0
    )
    assert stats.jobs == 1
    assert stats.mode == "serial"
    monkeypatch.setenv("REPRO_JOBS", "2")
    matrix, stats = parallel_inclusion_matrix(
        (SC, LC), SWEEP, jobs=None, parallel_threshold=0
    )
    assert stats.jobs == 2
    assert stats.mode.startswith("process-pool")
    assert matrix == inclusion_matrix((SC, LC), SWEEP)


def test_effective_jobs_garbage_raises_config_error(monkeypatch):
    """The CLI's clean-exit path relies on the precise exception type."""
    monkeypatch.setenv("REPRO_JOBS", "lots")
    with pytest.raises(ConfigError, match="REPRO_JOBS must be an integer"):
        effective_jobs()


# ---------------------------------------------------------------------------
# Cache-state propagation into workers (the sweep_caching(False) leak fix)
# ---------------------------------------------------------------------------


def test_make_shards_snapshots_caching_flag():
    """Specs carry the caching state active at planning time."""
    assert all(s.cache_enabled for s in make_shards(SWEEP, jobs=2))
    with sweep_caching(False):
        shards = make_shards(SWEEP, jobs=2)
    assert shards and all(not s.cache_enabled for s in shards)


def test_kernel_obeys_spec_flag_not_ambient_state():
    """The shard's flag — not the caller's module global — rules the kernel."""
    assert caches_enabled()  # parent process: caching on
    clear_sweep_caches()
    shard = dataclasses.replace(make_shards(SWEEP, jobs=1)[0], cache_enabled=False)
    outcome = _inclusion_kernel(shard)
    assert outcome.meta.cache_enabled is False
    assert outcome.meta.consultations == 0
    assert caches_enabled()  # scoped: caller's state restored


def test_uncached_pool_sweep_reports_zero_worker_consultations():
    """sweep_caching(False) reaches ProcessPoolExecutor workers.

    Workers are fresh processes whose module state defaults to caching
    on; only the flag carried by the ShardSpec can turn it off there.
    The per-worker cache telemetry proves the baseline really ran
    uncached: zero cache consultations across every shard.
    """
    with sweep_caching(False):
        matrix, stats = parallel_inclusion_matrix(
            (SC, LC), SWEEP, jobs=2, parallel_threshold=0
        )
    assert stats.mode.startswith("process-pool")
    assert {s.cache_enabled for s in stats.shards} == {False}
    assert stats.cache_consultations() == 0
    assert matrix == inclusion_matrix((SC, LC), SWEEP)


def test_cached_pool_sweep_reports_consultations():
    """Control: the same sweep with caching on consults the caches."""
    _, stats = parallel_inclusion_matrix(
        (SC, LC), SWEEP, jobs=2, parallel_threshold=0
    )
    assert stats.mode.startswith("process-pool")
    assert {s.cache_enabled for s in stats.shards} == {True}
    assert stats.cache_consultations() > 0


# ---------------------------------------------------------------------------
# Broken-pool recovery (serial retry of shards lost to worker death)
# ---------------------------------------------------------------------------

_MAIN_PID = os.getpid()


def _crashy_inclusion_kernel(shard):
    """Dies abruptly in any worker process; behaves normally in-process."""
    if os.getpid() != _MAIN_PID:
        os._exit(17)  # hard exit: poisons the pool (BrokenProcessPool)
    return _inclusion_kernel(shard)


def test_broken_pool_retries_shards_serially(caplog):
    """Worker death degrades to a serial retry with identical results."""
    import logging

    shards = make_shards(SWEEP, jobs=2)
    serial_payloads, _ = run_shards(
        _crashy_inclusion_kernel, shards, jobs=1, label="crash-test"
    )
    with caplog.at_level(logging.WARNING, logger="repro.obs"):
        pool_payloads, stats = run_shards(
            _crashy_inclusion_kernel, shards, jobs=2, label="crash-test"
        )
    assert stats.mode.startswith("process-pool")
    assert stats.retried_shards >= 1
    assert pool_payloads == serial_payloads
    assert "retrying shards serially" in caplog.text


@pytest.mark.parametrize("nth", [1, 3])
def test_broken_pool_at_submit_retries_unsubmitted_shards(monkeypatch, nth):
    """A worker that dies before every shard is queued makes ``submit``
    raise ``BrokenProcessPool``; the shards never submitted go to the
    serial retry like the lost running ones."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.runtime import parallel as par

    calls = {"submit": 0}

    class SubmitBreaksPool(par.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            calls["submit"] += 1
            if calls["submit"] == nth:
                raise BrokenProcessPool("worker died before submit")
            return super().submit(*args, **kwargs)

    shards = make_shards(SWEEP, jobs=2)
    assert len(shards) > nth
    serial_payloads, _ = run_shards(
        _inclusion_kernel, shards, jobs=1, label="submit-crash"
    )
    monkeypatch.setattr(par, "ProcessPoolExecutor", SubmitBreaksPool)
    payloads, stats = run_shards(
        _inclusion_kernel, shards, jobs=2, label="submit-crash"
    )
    assert calls["submit"] == nth
    assert stats.mode.startswith("process-pool")
    assert payloads == serial_payloads
    assert stats.retried_shards == len(shards) - (nth - 1)
    assert [(m.n, m.mask_lo) for m in stats.shards] == [
        (s.n, s.mask_lo) for s in shards
    ]


def test_healthy_pool_reports_zero_retries():
    _, stats = run_shards(
        _crashy_inclusion_kernel,
        make_shards(SWEEP, jobs=1),
        jobs=1,
        label="serial",
    )
    assert stats.retried_shards == 0
    assert stats.mode == "serial"


# ---------------------------------------------------------------------------
# SweepStats as a view over the obs span substrate
# ---------------------------------------------------------------------------


def test_sweep_stats_span_grafted_into_live_trace():
    """--trace and --stats read the same span object: they cannot disagree."""
    obs.reset()
    obs.enable()
    try:
        with obs.span("harness"):
            _, stats = parallel_inclusion_matrix(
                (SC, LC), SWEEP, jobs=2, parallel_threshold=0
            )
        (root,) = obs.get().roots
        sweep_spans = [c for c in root.children if c.name.startswith("sweep:")]
        assert stats.span in sweep_spans
        counts = obs.counters()
        assert counts["sweep.pairs"] == stats.pairs
        assert counts["sweep.evaluated"] == stats.evaluated
        assert counts["sweep.cache.consultations"] == stats.cache_consultations()
        totals = stats.cache_totals()
        assert counts["sweep.cache.hits"] == sum(
            c["hits"] for c in totals.values()
        )
        shard_pairs = sum(
            sp.attrs["pairs"]
            for sp in stats.span.children
            if sp.name == "shard"
        )
        assert shard_pairs == stats.pairs
    finally:
        obs.disable()
        obs.reset()


def _counter_totals(shards, jobs):
    """Counter + histogram totals of one run_shards pass under a tracer."""
    obs.reset()
    obs.enable()
    try:
        _, stats = run_shards(
            _inclusion_kernel,
            shards,
            jobs=jobs,
            label="parity",
        )
        counters = dict(obs.counters())
        hist = {k: v.to_dict() for k, v in obs.histograms().items()}
    finally:
        obs.disable()
        obs.reset()
    return counters, hist, stats


def test_worker_counters_survive_the_pool():
    """Counters incremented inside pool workers reach the parent trace.

    Before the fix, ``obs.add`` calls in a ProcessPoolExecutor worker
    landed in the worker's (forked or spawned) collector copy and died
    with the process, so ``--trace --jobs 4`` silently under-reported
    every kernel-side counter.  The shard metas now carry the worker
    counter deltas home and ``_record_sweep`` merges them exactly once:
    jobs=1 and jobs=4 runs over the *same* shard list must report
    identical totals for every non-cache counter.  (Cache hit/miss
    counters legitimately differ — a warm serial process vs cold
    workers — so they are excluded.)
    """
    obs.enable()  # make_shards snapshots the tracer flag into the specs
    try:
        shards = make_shards(SWEEP, jobs=4)
    finally:
        obs.disable()
    assert all(s.obs_enabled for s in shards)

    serial_counters, serial_hist, _ = _counter_totals(shards, jobs=1)
    pool_counters, pool_hist, stats = _counter_totals(shards, jobs=4)
    assert stats.mode.startswith("process-pool")

    strip = lambda c: {  # noqa: E731
        k: v
        for k, v in c.items()
        # Cache hit/miss totals differ warm-vs-cold — not a
        # worker-counter propagation question.
        if not k.startswith("sweep.cache.")
    }
    assert strip(pool_counters) == strip(serial_counters)
    # The kernel-side counters are the ones that used to vanish.
    assert pool_counters["sweep.kernel.shards"] == len(shards)
    assert pool_counters["sweep.kernel.pairs"] == pool_counters["sweep.pairs"]
    # Every shard contributed one sample to the wall-time histogram.
    assert serial_hist["sweep.shard_seconds"]["count"] == len(shards)
    assert pool_hist["sweep.shard_seconds"]["count"] == len(shards)


def test_worker_counters_not_double_counted_on_crash_retry():
    """A BrokenProcessPool retry re-runs shards in the parent, where the
    collector is already live — merging those metas again would double
    count.  The pid check in ``_record_sweep`` must keep totals exact."""
    obs.enable()
    try:
        shards = make_shards(SWEEP, jobs=2)
        _, stats = run_shards(
            _crashy_inclusion_kernel, shards, jobs=2, label="crash-parity"
        )
        counters = dict(obs.counters())
    finally:
        obs.disable()
        obs.reset()
    assert stats.retried_shards > 0
    assert counters["sweep.kernel.shards"] == len(shards)
    assert counters["sweep.kernel.pairs"] == counters["sweep.pairs"]


# ----------------------------------------------------------------------
# Heartbeats and the sweep monitor
# ----------------------------------------------------------------------


class _RecordingListener:
    def __init__(self):
        self.events = []

    def on_sweep_start(self, label, shards, jobs):
        self.events.append(("start", label, shards, jobs))

    def on_heartbeat(self, hb):
        self.events.append(("hb", hb))

    def on_shard_done(self, meta):
        self.events.append(("done", meta))

    def on_sweep_done(self, label, wall_seconds):
        self.events.append(("sweep_done", label))


@pytest.fixture
def monitored():
    from repro.runtime.parallel import SweepMonitor, set_sweep_monitor

    listener = _RecordingListener()
    monitor = SweepMonitor(listeners=[listener], interval=0.01)
    set_sweep_monitor(monitor)
    yield monitor, listener
    set_sweep_monitor(None)


class TestSweepMonitor:
    def test_serial_monitored_sweep_streams_events(self, monitored):
        monitor, listener = monitored
        universe = Universe(max_nodes=3, locations=("x",))
        clear_sweep_caches()
        _, stats = parallel_lattice_battery(
            universe, thm23_probes=(R("x"), NOP), jobs=1
        )
        kinds = [e[0] for e in listener.events]
        assert kinds[0] == "start"
        assert kinds[-1] == "sweep_done"
        assert kinds.count("done") == len(stats.shards)
        assert monitor.heartbeats > 0
        # Every shard announces itself at pair 0, from this process.
        first_beats = [
            e[1] for e in listener.events if e[0] == "hb"
        ]
        assert all(hb["pid"] == os.getpid() for hb in first_beats)
        assert any(hb["pairs_done"] == 0 for hb in first_beats)

    def test_pool_monitored_sweep_matches_unmonitored(self, monitored):
        from repro.runtime.parallel import set_sweep_monitor

        monitor, listener = monitored
        universe = Universe(max_nodes=3, locations=("x",))
        clear_sweep_caches()
        battery, stats = parallel_lattice_battery(
            universe, thm23_probes=(R("x"), NOP), jobs=2, parallel_threshold=0
        )
        assert stats.mode.startswith("process-pool")
        assert monitor.heartbeats > 0
        dones = [e[1] for e in listener.events if e[0] == "done"]
        assert len(dones) == len(stats.shards)
        assert all(
            {"n", "mask_lo", "mask_hi", "seconds", "pairs", "pid"} <= set(d)
            for d in dones
        )
        set_sweep_monitor(None)
        clear_sweep_caches()
        plain, _ = parallel_lattice_battery(
            universe, thm23_probes=(R("x"), NOP), jobs=2, parallel_threshold=0
        )
        assert battery.thm23 == plain.thm23

    def test_pool_crash_retry_reports_each_shard_once(self, monitored):
        """The monitored dispatch recovers from worker death like the
        unmonitored one, and the serial retry reports every lost shard."""
        monitor, listener = monitored
        shards = make_shards(SWEEP, jobs=2)
        serial_payloads, _ = run_shards(
            _crashy_inclusion_kernel, shards, jobs=1, label="crash-test"
        )
        listener.events.clear()
        payloads, stats = run_shards(
            _crashy_inclusion_kernel, shards, jobs=2, label="crash-test"
        )
        assert payloads == serial_payloads
        assert stats.mode.startswith("process-pool")
        assert stats.retried_shards >= 1
        dones = [e[1] for e in listener.events if e[0] == "done"]
        assert sorted((d["n"], d["mask_lo"]) for d in dones) == [
            (s.n, s.mask_lo) for s in shards
        ]

    def test_no_monitor_means_no_heartbeat_channel(self):
        from repro.runtime import parallel as par

        assert par.get_sweep_monitor() is None
        spec = ShardSpec(
            max_nodes=2, locations=("x",), include_nop=True,
            n=2, mask_lo=0, mask_hi=2,
        )
        assert par._HB is None
        # iter_pairs hands back the raw enumeration, not the heartbeat
        # wrapper (zero overhead on the unmonitored hot path).
        pairs = list(spec.iter_pairs())
        universe = spec.universe()
        assert pairs == [
            (comp, phi, weight)
            for comp, weight in universe.representatives(2, (0, 2))
            for phi in universe.observers(comp)
        ]

    def test_listener_exceptions_are_swallowed(self):
        from repro.runtime.parallel import SweepMonitor

        class Broken:
            def on_heartbeat(self, hb):
                raise RuntimeError("board fell over")

        monitor = SweepMonitor(listeners=[Broken()], interval=0.01)
        monitor.on_worker_heartbeat({"pid": 1, "pairs_done": 1})
        assert monitor.heartbeats == 1


class TestStallWatchdog:
    def _clock(self, start=0.0):
        state = {"t": start}

        def clock():
            return state["t"]

        clock.advance = lambda dt: state.__setitem__("t", state["t"] + dt)
        return clock

    def test_silent_worker_is_flagged_once(self):
        from repro.runtime.parallel import SweepMonitor

        clock = self._clock()
        stalls = []
        monitor = SweepMonitor(
            interval=1.0,
            stall_intervals=3,
            on_stall=lambda pid, hb: stalls.append((pid, hb)),
            clock=clock,
        )
        obs.reset()
        obs.enable()
        try:
            monitor.on_sweep_start("lab", 4, 2)
            monitor.on_worker_heartbeat({"pid": 42, "n": 4, "pairs_done": 10})
            clock.advance(2.9)
            assert monitor.check_stalls() == []
            clock.advance(0.2)  # now 3.1 intervals silent
            assert monitor.check_stalls() == [42]
            assert monitor.check_stalls() == []  # warn once per stall
            assert stalls and stalls[0][0] == 42
            warnings = [
                e for e in obs.get().events if e.get("kind") == "warning"
            ]
            assert len(warnings) == 1
            assert warnings[0]["message"] == "worker heartbeat stalled"
            assert warnings[0]["attrs"]["pid"] == 42
            assert warnings[0]["attrs"]["sweep"] == "lab"
        finally:
            obs.disable()
            obs.reset()

    def test_resumed_worker_can_stall_again(self):
        from repro.runtime.parallel import SweepMonitor

        clock = self._clock()
        monitor = SweepMonitor(interval=1.0, stall_intervals=2, clock=clock)
        monitor.on_sweep_start("lab", 2, 1)
        monitor.on_worker_heartbeat({"pid": 7, "pairs_done": 1})
        clock.advance(2.5)
        assert monitor.check_stalls() == [7]
        monitor.on_worker_heartbeat({"pid": 7, "pairs_done": 2})  # resumes
        assert monitor.check_stalls() == []
        clock.advance(2.5)
        assert monitor.check_stalls() == [7]
        assert monitor.stall_warnings == 2

    def test_completed_shard_clears_the_watch(self):
        from repro.runtime.parallel import ShardMeta, SweepMonitor

        clock = self._clock()
        monitor = SweepMonitor(interval=1.0, stall_intervals=2, clock=clock)
        monitor.on_sweep_start("lab", 1, 1)
        monitor.on_worker_heartbeat({"pid": 9, "pairs_done": 5})
        meta = ShardMeta(
            n=3, mask_lo=0, mask_hi=8, seconds=0.5, pairs=64, pid=9
        )
        monitor.on_shard_done(meta)
        clock.advance(10.0)
        assert monitor.check_stalls() == []


class TestHeartbeatInterval:
    def test_default_and_env_override(self, monkeypatch):
        from repro.runtime.parallel import heartbeat_interval

        monkeypatch.delenv("REPRO_HEARTBEAT_SECS", raising=False)
        assert heartbeat_interval() == 1.0
        monkeypatch.setenv("REPRO_HEARTBEAT_SECS", "0.25")
        assert heartbeat_interval() == 0.25
        monkeypatch.setenv("REPRO_HEARTBEAT_SECS", "banana")
        assert heartbeat_interval() == 1.0
        monkeypatch.setenv("REPRO_HEARTBEAT_SECS", "-3")
        assert heartbeat_interval() == 1.0


# ---------------------------------------------------------------------------
# Cache audit: every memoized helper is tracked, clearable, and gauged
# ---------------------------------------------------------------------------


def test_merged_locations_is_tracked():
    """Regression: this memoized helper was invisible to the
    sweep-cache registry, so a long-running server could neither reset
    nor observe it between batches."""
    from repro.core.ops import merged_locations
    from repro.runtime.parallel import sweep_cache_info

    clear_sweep_caches()
    info = sweep_cache_info()
    assert info["merged_locations"]["currsize"] == 0

    merged_locations(("x",), ("y",))
    info = sweep_cache_info()
    assert info["merged_locations"]["currsize"] == 1

    clear_sweep_caches()
    info = sweep_cache_info()
    assert info["merged_locations"]["currsize"] == 0


def test_merged_locations_respects_cache_switch():
    from repro import _caching
    from repro.core.ops import merged_locations
    from repro.runtime.parallel import sweep_cache_info

    clear_sweep_caches()
    with _caching.sweep_caching(False):
        assert merged_locations(("a",), ("b",)) == ("a", "b")
    assert sweep_cache_info()["merged_locations"]["currsize"] == 0
    assert merged_locations(("a",), ("b",)) == ("a", "b")
    assert sweep_cache_info()["merged_locations"]["currsize"] == 1
    clear_sweep_caches()


def test_publish_cache_gauges_exports_sizes():
    from repro.core.ops import merged_locations
    from repro.runtime.parallel import publish_cache_gauges, sweep_cache_info

    clear_sweep_caches()
    obs.reset()
    publish_cache_gauges()  # collector disabled: no-op
    assert "cache.entries" not in obs.gauges()

    obs.enable()
    try:
        merged_locations(("p",), ("q",))
        publish_cache_gauges()
        gauges = obs.gauges()
        assert gauges["cache.merged_locations.entries"] == 1
        assert gauges["cache.entries"] >= 1
        for name in sweep_cache_info():
            assert f"cache.{name}.entries" in gauges
    finally:
        obs.reset()
        clear_sweep_caches()
