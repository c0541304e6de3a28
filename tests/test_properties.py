"""Cross-cutting property-based tests.

These tie several subsystems together: every property here is a theorem
of the paper (or a corollary this reproduction surfaced) quantified over
random computations, observer functions, schedules, and memories.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ObserverFunction, last_writer_function
from repro.dag.metrics import span, width, work
from repro.dag.toposort import random_topological_sort
from repro.models import LC, NN, NW, SC, WN, WW
from repro.runtime import (
    BackerMemory,
    SerialMemory,
    execute,
    greedy_schedule,
    work_stealing_schedule,
)
from repro.verify import lc_completion, trace_admits_lc, trace_admits_sc
from tests.conftest import computations, computations_with_observer

MODELS = (SC, LC, NN, NW, WN, WW)


# ---------------------------------------------------------------------------
# Model-theoretic properties
# ---------------------------------------------------------------------------


@given(computations(max_nodes=6), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_last_writer_of_any_sort_is_in_every_model(comp, seed):
    """W_T ∈ SC for every sort T, and SC is the strongest model here."""
    order = random_topological_sort(comp.dag, random.Random(seed))
    phi = last_writer_function(comp, order, check_order=False)
    for m in MODELS:
        assert m.contains(comp, phi), m.name


@given(
    st.one_of(
        computations_with_observer(max_nodes=5),
        computations_with_observer(max_nodes=12),
        computations_with_observer(max_nodes=8, locations=("x", "y")),
    )
)
@settings(max_examples=200, deadline=None)
def test_full_inclusion_chain(pair):
    """SC ⊆ LC ⊆ NN ⊆ NW ⊆ WW and NN ⊆ WN ⊆ WW on every single pair.

    Sizes up to 12 nodes (and 8 with two locations) lie far beyond the
    exhaustive universes, which stop at n ≈ 5."""
    comp, phi = pair
    member = {m.name: m.contains(comp, phi) for m in MODELS}
    chain = [("SC", "LC"), ("LC", "NN"), ("NN", "NW"), ("NN", "WN"),
             ("NW", "WW"), ("WN", "WW")]
    for a, b in chain:
        if member[a]:
            assert member[b], f"{a} ⊆ {b} violated"


@given(computations_with_observer(max_nodes=5))
@settings(max_examples=60, deadline=None)
def test_sc_equals_lc_on_single_location(pair):
    """With one location, SC and LC coincide (a corollary of Defs 17/18:
    there is only one location to serialize)."""
    comp, phi = pair
    assert SC.contains(comp, phi) == LC.contains(comp, phi)


@given(computations_with_observer(max_nodes=4))
@settings(max_examples=40, deadline=None)
def test_observer_restriction_preserves_memberships_downward(pair):
    """Restricting an LC pair to a prefix keeps it in LC (the paper's
    online reading: prefixes of valid behaviours are valid)."""
    comp, phi = pair
    if not LC.contains(comp, phi):
        return
    full = (1 << comp.num_nodes) - 1
    for mask in comp.prefix_masks():
        if mask == full:
            continue
        prefix, old_ids = comp.restrict(mask)
        try:
            sub = phi.relabel(prefix, old_ids)
        except Exception:
            continue  # prefix drops an observed write: not a restriction
        assert LC.contains(prefix, sub)


# ---------------------------------------------------------------------------
# Runtime properties
# ---------------------------------------------------------------------------


@given(computations(max_nodes=8), st.integers(1, 4), st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_serial_memory_traces_always_sc(comp, procs, seed):
    sched = greedy_schedule(comp, procs, rng=seed)
    trace = execute(sched, SerialMemory())
    assert trace_admits_sc(trace.partial_observer()) is not None


@given(computations(max_nodes=8), st.integers(1, 4), st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_backer_traces_always_lc_on_random_dags(comp, procs, seed):
    """BACKER maintains LC on arbitrary dags, not just fork/join ones."""
    sched = work_stealing_schedule(comp, procs, rng=seed)
    trace = execute(sched, BackerMemory())
    po = trace.partial_observer()
    assert trace_admits_lc(po)
    phi = lc_completion(po)
    assert phi is not None and LC.contains(comp, phi)


@given(computations(max_nodes=8), st.integers(1, 4), st.integers(0, 99))
@settings(max_examples=30, deadline=None)
def test_schedules_valid_and_bounded(comp, procs, seed):
    """Greedy schedules satisfy the work/span laws and Graham's bound."""
    sched = greedy_schedule(comp, procs, rng=seed)
    t1, tinf = work(comp.dag), span(comp.dag)
    if t1 == 0:
        assert sched.makespan == 0
        return
    assert sched.makespan >= max(tinf, -(-t1 // procs))
    assert sched.makespan <= t1 / procs + tinf


@given(computations(max_nodes=7))
@settings(max_examples=30, deadline=None)
def test_width_bounds_parallel_time(comp):
    """No schedule can use more than `width` processors at once, so a
    width-processor greedy schedule already achieves the span bound
    within Graham's envelope."""
    w = width(comp.dag)
    if w == 0:
        return
    sched = greedy_schedule(comp, w, rng=0)
    assert sched.makespan >= span(comp.dag)


# ---------------------------------------------------------------------------
# Serialization properties
# ---------------------------------------------------------------------------


@given(computations_with_observer(max_nodes=5))
@settings(max_examples=40, deadline=None)
def test_model_verdicts_survive_serialization(pair):
    from repro.io import dumps, loads

    comp, phi = pair
    again = loads(dumps(phi))
    for m in MODELS:
        assert m.contains(comp, phi) == m.contains(again.computation, again)


@given(computations_with_observer(max_nodes=5))
@settings(max_examples=40, deadline=None)
def test_augmented_observer_extends(pair):
    """Every augmentation extension restricts back to the original
    (the Galois-style relationship behind Theorem 12)."""
    from repro.core.ops import R
    from repro.models import augmentation_extensions

    comp, phi = pair
    for aug, phi2 in augmentation_extensions(comp, phi, R("x")):
        restricted = phi2.restrict_to_prefix(comp)
        assert restricted == ObserverFunction(
            comp, {loc: phi.row(loc) for loc in phi.locations}, validate=False
        )
