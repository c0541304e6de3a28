"""Seeded input generators for the benchmark.

Everything here is plain Python with no import of ``repro``: the inputs
a run feeds the program depend only on the workload seed, never on the
code under test, so two commits given the same seed see byte-identical
inputs (compare the printed :func:`digest`).

The serve corpus is a list of ``repro/trace`` JSON documents.  Each
base item is a random computation of 3-9 nodes, scheduled on 2-3
processors and executed by a small BACKER model (per-processor caches:
flush on a cross-processor predecessor, reconcile before a
cross-processor successor).  A third of the base items run with faults
injected (dropped reconciles and flushes), so some verdicts are LC
rejects; reads that find no write observe ⊥ (``null``).  Every base
item comes with a twin, an exact repeat or a relabelling, which is what
the service's dedupe cache exists for.  A few items are the symmetric
⊥-read shape the service's fingerprint cannot order (it answers them
``ok: false``); they stay in the corpus so a fix shows as fewer errors.
"""

from __future__ import annotations

import hashlib
import json
import random

SERVE_BATCH = 50
SERVE_SIZES = range(3, 10)
BASES_PER_SIZE = 72  # 7 sizes x 72 bases x (base + twin) = 1008 items
SERVE_LOCATIONS = ("x", "y")
EDGE_DENSITIES = (0.2, 0.35, 0.5)  # shares of node pairs joined by an edge, in turn
FAULTY_SHARE = 1 / 3
FAULT_DROP_PROBABILITY = 0.5
BOTTOM_PAIRS = 6  # symmetric ⊥-read bases (+ twins) the fingerprint rejects
WARMUP_ITEMS = 8
WARMUP_LOCATION = "w"  # never used by the corpus, so warm-up verdicts cannot be hits

SIM_PROGRAMS = {  # name: (repro.lang.programs factory, arguments)
    "fib": ("fib_computation", (15,)),
    "racy": ("racy_counter_computation", (64, 32)),
    "tree-sum": ("tree_sum_computation", (1024,)),
    "stencil": ("stencil_computation", (10, 10)),
}
SIM_SHAPES = ("l1", "l1l2", "l1l2l3")
SIM_PROCS = (2, 4)


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


def digest(obj: object) -> str:
    """A short stable hash of JSON-serializable inputs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Serve corpus
# ----------------------------------------------------------------------


def _random_schedule(
    rng: random.Random, n: int, edges: list[tuple[int, int]], procs: int
) -> tuple[list[int], list[int]]:
    """Greedy list scheduling: each step runs up to ``procs`` ready nodes."""
    preds: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        preds[v].add(u)
    proc_of = [0] * n
    start_of = [0] * n
    done: set[int] = set()
    t = 0
    while len(done) < n:
        ready = [u for u in range(n) if u not in done and preds[u] <= done]
        running = rng.sample(ready, min(procs, len(ready)))
        for p, u in zip(rng.sample(range(procs), len(running)), running):
            proc_of[u], start_of[u] = p, t
        done.update(running)
        t += 1
    return proc_of, start_of


def _backer_reads(
    rng: random.Random,
    n: int,
    edges: list[tuple[int, int]],
    ops: list[tuple[str, str]],
    proc_of: list[int],
    start_of: list[int],
    drop: float,
) -> list[dict]:
    """Read events of one BACKER execution, with each flush and each
    reconcile dropped with probability ``drop``."""
    cross_pred = [False] * n
    cross_succ = [False] * n
    for u, v in edges:
        if proc_of[u] != proc_of[v]:
            cross_pred[v] = cross_succ[u] = True
    main: dict[str, int] = {}
    caches: list[dict[str, tuple[int | None, bool]]] = [
        {} for _ in range(max(proc_of) + 1)
    ]

    def reconcile(p: int) -> None:
        for loc, (value, dirty) in list(caches[p].items()):
            if dirty:
                main[loc] = value  # type: ignore[assignment]
                caches[p][loc] = (value, False)

    reads = []
    for u in sorted(range(n), key=lambda u: (start_of[u], proc_of[u])):
        p = proc_of[u]
        cache = caches[p]
        if cross_pred[u] and rng.random() >= drop:
            reconcile(p)
            cache.clear()
        kind, loc = ops[u]
        if kind == "R":
            if loc not in cache:
                cache[loc] = (main.get(loc), False)
            reads.append({"node": u, "loc": loc, "observed": cache[loc][0]})
        else:
            cache[loc] = (u, True)
        if cross_succ[u] and rng.random() >= drop:
            reconcile(p)
    return reads


def trace_document(
    rng: random.Random,
    n: int,
    locations: tuple[str, ...],
    faulty: bool,
    density: float = EDGE_DENSITIES[1],
) -> dict:
    """One random ``repro/trace`` document of ``n`` nodes whose dag has
    ``density`` of all possible edges."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = sorted(rng.sample(pairs, round(density * len(pairs))))
    ops = [(rng.choice("RW"), rng.choice(locations)) for _ in range(n)]
    proc_of, start_of = _random_schedule(rng, n, edges, rng.choice((2, 3)))
    drop = FAULT_DROP_PROBABILITY if faulty else 0.0
    reads = _backer_reads(rng, n, edges, ops, proc_of, start_of, drop)
    doc = {
        "format": "repro/trace",
        "version": 1,
        "computation": {
            "format": "repro/computation",
            "version": 1,
            "num_nodes": n,
            "edges": [list(e) for e in edges],
            "ops": [{"kind": k, "loc": loc} for k, loc in ops],
        },
        "memory": "backer-faulty" if faulty else "backer",
        "num_procs": max(proc_of) + 1,
        "proc_of": proc_of,
        "start_of": start_of,
        "reads": reads,
    }
    # Generated in topological labelling; shuffle so ids carry no order.
    return relabel(doc, _permutation(rng, n))


def symmetric_bottom_document(rng: random.Random) -> dict:
    """Three unordered nodes: one write and two reads of it, one read
    before the write (observing ⊥) and one after, on the writer's
    processor.  Swapping the two reads is an automorphism, which is
    where ``request_fingerprint`` compares ⊥ with a node id."""
    loc = rng.choice(SERVE_LOCATIONS)
    ops = [("W", loc), ("R", loc), ("R", loc)]
    proc_of, start_of = [1, 0, 1], [0, 0, 1]
    reads = _backer_reads(rng, 3, [], ops, proc_of, start_of, 0.0)
    doc = {
        "format": "repro/trace",
        "version": 1,
        "computation": {
            "format": "repro/computation",
            "version": 1,
            "num_nodes": 3,
            "edges": [],
            "ops": [{"kind": k, "loc": loc} for k, loc in ops],
        },
        "memory": "backer",
        "num_procs": 2,
        "proc_of": proc_of,
        "start_of": start_of,
        "reads": reads,
    }
    return relabel(doc, _permutation(rng, 3))


def _permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(doc: dict, perm: list[int]) -> dict:
    """The isomorphic trace document with node ``u`` renamed ``perm[u]``."""
    comp = doc["computation"]
    n = comp["num_nodes"]
    ops: list = [None] * n
    proc_of: list = [None] * n
    start_of: list = [None] * n
    for u in range(n):
        ops[perm[u]] = comp["ops"][u]
        proc_of[perm[u]] = doc["proc_of"][u]
        start_of[perm[u]] = doc["start_of"][u]
    reads = [
        {
            "node": perm[r["node"]],
            "loc": r["loc"],
            "observed": None if r["observed"] is None else perm[r["observed"]],
        }
        for r in doc["reads"]
    ]
    return {
        **doc,
        "computation": {
            **comp,
            "edges": sorted([perm[u], perm[v]] for u, v in comp["edges"]),
            "ops": ops,
        },
        "proc_of": proc_of,
        "start_of": start_of,
        "reads": reads,
    }


def serve_corpus(seed: int) -> list[str]:
    """The JSONL request lines of one serve stream, in random order.

    The mix is exact, not sampled, so every seed costs about the same:
    :data:`BASES_PER_SIZE` base items of each size, a third of them
    faulty, and one twin per base — alternately an exact repeat and a
    relabelling — plus :data:`BOTTOM_PAIRS` symmetric ⊥-read items with
    relabelled twins.
    """
    rng = _rng(seed, "serve")
    classes = []
    for n in SERVE_SIZES:
        docs = []
        for i in range(BASES_PER_SIZE):
            base = trace_document(
                rng,
                n,
                SERVE_LOCATIONS,
                faulty=i < BASES_PER_SIZE * FAULTY_SHARE,
                density=EDGE_DENSITIES[i % len(EDGE_DENSITIES)],
            )
            twin = base if i % 2 else relabel(base, _permutation(rng, n))
            docs += [base, twin]
        classes.append(docs)
    bottom = [symmetric_bottom_document(rng) for _ in range(BOTTOM_PAIRS)]
    classes.append(bottom + [relabel(d, _permutation(rng, 3)) for d in bottom])
    keyed = []
    for docs in classes:
        rng.shuffle(docs)
        # Spread each size evenly over the stream, so every batch gets
        # about the same mix whatever the seed.
        keyed += [((j + rng.random()) / len(docs), doc) for j, doc in enumerate(docs)]
    keyed.sort(key=lambda kd: kd[0])
    return [json.dumps(doc, separators=(",", ":")) for _, doc in keyed]


def warmup_batch(seed: int) -> list[str]:
    """Small pool warm-up items on a location the corpus never uses."""
    rng = _rng(seed, "warmup")
    return [
        json.dumps(trace_document(rng, 3, (WARMUP_LOCATION,), False))
        for _ in range(WARMUP_ITEMS)
    ]


def batches(lines: list[str], size: int = SERVE_BATCH) -> list[list[str]]:
    return [lines[i : i + size] for i in range(0, len(lines), size)]


# ----------------------------------------------------------------------
# Simulator grid
# ----------------------------------------------------------------------


def sim_plan(seed: int) -> list[dict]:
    """The grid cells: one work-stealing schedule seed per (program,
    procs) and every hierarchy shape run on it."""
    rng = _rng(seed, "sim")
    cells = []
    for program in SIM_PROGRAMS:
        for procs in SIM_PROCS:
            sched_seed = rng.randrange(2**31)
            for shape in SIM_SHAPES:
                cells.append(
                    {
                        "program": program,
                        "procs": procs,
                        "schedule_seed": sched_seed,
                        "shape": shape,
                    }
                )
    return cells
