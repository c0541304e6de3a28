"""Bitset kernels vs naive oracles.

Every function in :mod:`repro.kernels` is pinned *sequence-equal* to a
deliberately simple oracle — same values, same order, same python
types:

* ``closure`` against DFS reachability (and, through
  :func:`repro.verify.races.find_races`, the race sweep built on its
  rows against a direct pairwise scan);
* ``quotient_is_acyclic`` against a DFS cycle check;
* ``inclusion_fold`` against the direct product.

The inputs are exhaustive where small (every ordered dag up to n = 4),
random dags crossing the 64-bit word boundary (n = 63/64/65 and
beyond), and the degenerate masks (empty, full) where bitset bugs
live.
"""

from __future__ import annotations

import random

import pytest

from repro import kernels
from repro.core.computation import Computation
from repro.core.ops import R, W
from repro.dag.digraph import Dag
from repro.dag.enumerate import ordered_dags
from repro.models import Universe
from repro.verify.races import find_races


def _random_dag(rng: random.Random, n: int, density: float) -> Dag:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    ]
    return Dag(n, edges)


def _closure_inputs(dag: Dag):
    return (
        dag.num_nodes,
        [dag.successor_mask(u) for u in range(dag.num_nodes)],
        [dag.predecessor_mask(u) for u in range(dag.num_nodes)],
        dag.topological_order,
    )


# ---------------------------------------------------------------------------
# Closure vs DFS reachability
# ---------------------------------------------------------------------------


def _dfs_closure(dag: Dag) -> tuple[list[int], list[int]]:
    """Strict descendant/ancestor rows by one DFS per node."""
    n = dag.num_nodes
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in dag.edges:
        adj[u].append(v)
    desc = [0] * n
    anc = [0] * n
    for u in range(n):
        stack, seen = list(adj[u]), set()
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(adj[v])
        for v in seen:
            desc[u] |= 1 << v
            anc[v] |= 1 << u
    return desc, anc


def _assert_closure_matches_dfs(dag: Dag) -> None:
    got = kernels.closure(*_closure_inputs(dag))
    assert got == _dfs_closure(dag)
    assert all(type(x) is int for row in got for x in row)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_closure_parity_exhaustive_small(n):
    """Every ordered dag up to n = 4."""
    for dag in ordered_dags(n):
        _assert_closure_matches_dfs(dag)


@pytest.mark.parametrize(
    "n", [1, 5, 17, 63, 64, 65, 100, 130], ids=lambda n: f"n{n}"
)
def test_closure_parity_word_boundaries(n):
    """Random dags at sizes straddling 64-bit words."""
    rng = random.Random(0xC105 + n)
    for density in (0.02, 0.15, 0.5, 0.9):
        _assert_closure_matches_dfs(_random_dag(rng, n, density))


def test_closure_parity_random_dags():
    """200 random dags across sizes and densities (the property sweep)."""
    rng = random.Random(0xDA6)
    for _ in range(200):
        n = rng.randint(0, 40)
        _assert_closure_matches_dfs(
            _random_dag(rng, n, rng.choice((0.05, 0.2, 0.5, 0.8)))
        )


def test_closure_parity_extreme_densities():
    """The empty and the complete dag — all-zero and all-ones rows."""
    for n in (4, 64, 65):
        _assert_closure_matches_dfs(Dag(n, ()))
        _assert_closure_matches_dfs(
            Dag(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        )


# ---------------------------------------------------------------------------
# Races on closure rows vs a direct pairwise scan
# ---------------------------------------------------------------------------


def test_find_races_matches_naive_on_random_computations():
    """Every conflicting unordered pair, once, from ``dag.precedes``."""
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(1, 9)
        dag = _random_dag(rng, n, 0.4)
        ops = [rng.choice((R("x"), W("x"), R("y"), W("y"))) for _ in range(n)]
        comp = Computation(dag, ops)
        expected = {
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if ops[u].loc == ops[v].loc
            and (ops[u].is_write or ops[v].is_write)
            and not dag.comparable(u, v)
        }
        got = [(r.u, r.v) for r in find_races(comp)]
        assert len(got) == len(set(got))
        assert set(got) == expected


# ---------------------------------------------------------------------------
# Inclusion fold vs the direct product, quotient vs DFS cycle check
# ---------------------------------------------------------------------------


def _direct_product(num_models: int, verdicts) -> list[int]:
    """bad[i] bit j set iff some row has i true and j false."""
    return [
        sum(
            1 << j
            for j in range(num_models)
            if any(row[i] and not row[j] for row in verdicts)
        )
        for i in range(num_models)
    ]


def test_inclusion_fold_parity():
    rng = random.Random(0xF01D)
    for num_models in (1, 2, 7):
        for rows in (0, 1, 5, 4097):
            verdicts = [
                tuple(rng.random() < 0.5 for _ in range(num_models))
                for _ in range(rows)
            ]
            assert kernels.inclusion_fold(
                num_models, iter(verdicts)
            ) == _direct_product(num_models, verdicts)


def test_inclusion_fold_matches_direct_product():
    verdicts = [(True, False, True), (True, True, True), (False, True, False)]
    assert kernels.inclusion_fold(3, iter(verdicts)) == [0b010, 0b101, 0b010]
    assert _direct_product(3, verdicts) == [0b010, 0b101, 0b010]
    # Degenerate rows: all-true and all-false refute nothing.
    assert kernels.inclusion_fold(3, iter([(True,) * 3, (False,) * 3])) == [0] * 3


def _dfs_has_cycle(k: int, srcs, dsts) -> bool:
    adj: list[list[int]] = [[] for _ in range(k)]
    for u, v in zip(srcs, dsts):
        adj[u].append(v)
    color = [0] * k  # 0 white, 1 on the stack, 2 done

    def visit(u: int) -> bool:
        color[u] = 1
        for v in adj[u]:
            if color[v] == 1 or (color[v] == 0 and visit(v)):
                return True
        color[u] = 2
        return False

    return any(color[u] == 0 and visit(u) for u in range(k))


def test_quotient_is_acyclic_parity():
    rng = random.Random(0xACDC)
    for _ in range(100):
        k = rng.randint(0, 12)
        edges = [
            (rng.randrange(k), rng.randrange(k))
            for _ in range(rng.randint(0, 3 * k))
            if k
        ]
        srcs = [u for u, _ in edges]
        dsts = [v for _, v in edges]
        assert kernels.quotient_is_acyclic(k, srcs, dsts) == (
            not _dfs_has_cycle(k, srcs, dsts)
        )


def test_quotient_oracle_basics():
    assert kernels.quotient_is_acyclic(0, [], [])
    assert kernels.quotient_is_acyclic(3, [0, 1], [1, 2])
    assert not kernels.quotient_is_acyclic(2, [0, 1], [1, 0])
    assert not kernels.quotient_is_acyclic(1, [0], [0])  # self-loop


# ---------------------------------------------------------------------------
# Whole-universe: the folded sweep vs the definition of inclusion
# ---------------------------------------------------------------------------


def test_inclusion_matrix_matches_direct_definition():
    """``x ⊆ y`` iff every pair of the universe in ``x`` is in ``y``."""
    from repro.models import CC, LC, SC
    from repro.models.relations import inclusion_matrix

    universe = Universe(max_nodes=3, locations=("x",))
    models = [SC, LC, CC]
    rows = [
        tuple(m.contains(comp, phi) for m in models)
        for comp, phi in universe.pairs()
    ]
    want = {
        (x.name, y.name): all(r[j] for r in rows if r[i])
        for i, x in enumerate(models)
        for j, y in enumerate(models)
    }
    assert inclusion_matrix(models, universe) == want
    assert want[("SC", "LC")]  # SC is strongest; always included upward
