"""The closed-form Theorem-12 hooks agree with the generic search.

SC, LC, NN, NW, WN and WW answer the one-step augmentation test from
``augmentation_stuck_locations`` without building ``aug_o(C)``.  The
oracle here is the generic search: build every candidate Φ' on
``aug_o(C)`` with :func:`augmentation_extensions` and test its
membership with ``contains``.  Every test compares the two on every op
of the alphabet, for members and non-members alike, and checks that
:func:`augmentation_closed_at` reports the first blocking op; the
Figure-4 and random cases also go through
:func:`can_extend_to_augmentation` op by op.  The exhaustive cases stay
within a few seconds by taking every third isomorphism class at n = 4.
"""

from __future__ import annotations

import random
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Computation, N, ObserverFunction, R, W
from repro.core.last_writer import last_writer_row
from repro.core.observer import candidate_values
from repro.dag.random_dags import gnp_dag
from repro.models import (
    LC,
    NN,
    NW,
    SC,
    WN,
    WW,
    Universe,
    augmentation_closed_at,
    augmentation_extensions,
    can_extend_to_augmentation,
)
from repro.paperfigures import figure4_blocking_ops, figure4_pair

MODELS = (SC, LC, NN, NW, WN, WW)


def generic_extends(model, candidates) -> bool:
    return any(model.contains(aug, phi2) for aug, phi2 in candidates)


def assert_hooks_match_search(comp, phi, alphabet) -> None:
    """Every model's stuck locations against the generic search, op by
    op, and :func:`augmentation_closed_at` against its first blocker."""
    candidates = {o: list(augmentation_extensions(comp, phi, o)) for o in alphabet}
    for model in MODELS:
        stuck = model.augmentation_stuck_locations(comp, phi)
        assert (stuck is None) == (not model.contains(comp, phi)), model.name
        first_blocker = None
        for o in alphabet:
            want = generic_extends(model, candidates[o])
            got = stuck is not None and all(o.writes(loc) for loc in stuck)
            assert got == want, (model.name, comp, phi, o, stuck)
            if not want and first_blocker is None:
                first_blocker = o
        assert augmentation_closed_at(model, comp, phi, alphabet) == first_blocker


def test_orbit_representatives_one_location():
    """Every observer of one computation per isomorphism class, n ≤ 4,
    with the no-op; at n = 4 every third class, to fit the time budget."""
    universe = Universe(max_nodes=4, locations=("x",))
    alphabet = universe.alphabet
    assert N in alphabet
    for n in range(universe.max_nodes + 1):
        reps = universe.representatives(n)
        if n == universe.max_nodes:
            reps = islice(reps, 0, None, 3)
        for comp, _orbit in reps:
            for phi in universe.observers(comp):
                assert_hooks_match_search(comp, phi, alphabet)


def test_every_labelled_pair_two_locations():
    """Every labelled pair at n ≤ 3 over two locations, non-members
    included, so location order and writer numbering are exercised."""
    universe = Universe(max_nodes=3, locations=("x", "y"), include_nop=False)
    for comp, phi in universe.pairs():
        assert_hooks_match_search(comp, phi, universe.alphabet)


def test_figure4_blocking_ops():
    comp, phi = figure4_pair()
    blocking = figure4_blocking_ops()
    assert NN.augmentation_stuck_locations(comp, phi) == ("x",)
    for o in blocking:
        assert not can_extend_to_augmentation(NN, comp, phi, o)
    assert can_extend_to_augmentation(NN, comp, phi, W("x"))
    assert_hooks_match_search(comp, phi, (*blocking, W("x")))


def _random_sort(comp: Computation, rng: random.Random) -> list[int]:
    """A random topological sort: repeatedly take a random ready node."""
    dag = comp.dag
    order: list[int] = []
    done = 0
    while len(order) < comp.num_nodes:
        ready = [
            u
            for u in comp.nodes()
            if not done >> u & 1 and dag.ancestors_mask(u) & ~done == 0
        ]
        u = rng.choice(ready)
        order.append(u)
        done |= 1 << u
    return order


@st.composite
def two_location_pairs(draw):
    """A random n = 5–7 computation over x and y with a valid observer.

    Uniform observers are rarely dag-consistent at these sizes, so most
    draws build each row from last-writer rows instead: ``lc`` takes one
    random sort per location (an LC member, hence in every
    dag-consistent model), ``mixed`` lets each node follow one of two
    sorts (NN members outside LC, now and then stuck as in Figure 4), and
    ``perturbed`` redirects one node of an ``lc`` row.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(5, 7))
    dag = gnp_dag(n, draw(st.sampled_from((0.2, 0.35, 0.5))), rng)
    alphabet = (R("x"), W("x"), R("y"), W("y"), N)
    comp = Computation(dag, [rng.choice(alphabet) for _ in range(n)])
    mode = draw(st.sampled_from(("uniform", "lc", "mixed", "perturbed")))
    mapping = {}
    for loc in comp.locations:
        if mode == "uniform":
            row = [rng.choice(candidate_values(comp, loc, u)) for u in comp.nodes()]
        else:
            row = list(last_writer_row(comp, _random_sort(comp, rng), loc))
        if mode == "mixed":
            other = last_writer_row(comp, _random_sort(comp, rng), loc)
            row = [rng.choice(pair) for pair in zip(row, other)]
        mapping[loc] = row
    if mode == "perturbed" and comp.locations:
        loc = rng.choice(comp.locations)
        u = rng.randrange(n)
        mapping[loc][u] = rng.choice(candidate_values(comp, loc, u))
    return comp, ObserverFunction(
        comp, {loc: tuple(row) for loc, row in mapping.items()}
    )


@given(two_location_pairs())
@settings(max_examples=60, deadline=None)
def test_random_two_location_computations(pair):
    comp, phi = pair
    alphabet = (R("x"), W("x"), R("y"), W("y"), N)
    assert_hooks_match_search(comp, phi, alphabet)
    for o in alphabet:
        candidates = list(augmentation_extensions(comp, phi, o))
        for model in MODELS:
            assert can_extend_to_augmentation(
                model, comp, phi, o
            ) == generic_extends(model, candidates)
