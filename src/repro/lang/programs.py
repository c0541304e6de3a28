"""Canonical Cilk-style programs unfolded into computations.

These are the workload generators used by the examples, the BACKER
benchmarks, and the scaling benchmarks.  Each returns a computation whose
memory operations are *meaningful* (reads genuinely depend on writes the
way the algorithm's dataflow dictates), so that post-mortem verification
exercises non-trivial observer structure.

* :func:`fib_computation` — the classic Cilk fibonacci: each call writes
  its result location; parents read children's results after sync.
* :func:`matmul_computation` — blocked matrix multiply ``C = A·B``:
  block tasks read row/column blocks and accumulate into output blocks.
* :func:`scan_computation` — two-phase parallel prefix sum (upsweep /
  downsweep over a binary tree).
* :func:`stencil_computation` — iterated 1-d 3-point stencil with
  double buffering (reads neighbours from the previous generation).
* :func:`tree_sum_computation` — fork/join reduction over an array.
* :func:`racy_counter_computation` — deliberately racy concurrent
  increments of one location (used to show weak-model behaviours:
  LC-consistent but not SC-explainable traces can arise).
"""

from __future__ import annotations

from repro.core.computation import Computation
from repro.lang.cilk import CilkContext, UnfoldInfo, unfold

__all__ = [
    "deadlock_computation",
    "fib_computation",
    "locked_counter_computation",
    "matmul_computation",
    "scan_computation",
    "stencil_computation",
    "tree_sum_computation",
    "racy_counter_computation",
    "store_buffer_computation",
    "iriw_computation",
]


def fib_computation(n: int) -> tuple[Computation, UnfoldInfo]:
    """Cilk fib: ``fib(n)`` spawns ``fib(n-1)`` and ``fib(n-2)``.

    Each activation owns a result location ``("fib", path)``; after the
    sync it reads both children's results and writes its own.
    """

    def fib(ctx: CilkContext, k: int, path: str) -> None:
        my_loc = ("fib", path)
        if k < 2:
            ctx.write(my_loc)
            return
        ctx.spawn(fib, k - 1, path + "l")
        ctx.spawn(fib, k - 2, path + "r")
        ctx.sync()
        ctx.read(("fib", path + "l"))
        ctx.read(("fib", path + "r"))
        ctx.write(my_loc)

    return unfold(fib, n, "")


def matmul_computation(
    blocks: int = 2,
) -> tuple[Computation, UnfoldInfo]:
    """Blocked matrix multiply: ``C[i,j] += A[i,k] · B[k,j]``.

    ``blocks × blocks`` block grid; the ``(i, j)`` task is spawned for
    every output block, and serially accumulates over ``k`` (reading
    ``A[i,k]``, ``B[k,j]``, reading-then-writing ``C[i,j]``).  Input
    blocks are written up front in parallel.
    """

    def init(ctx: CilkContext, name: tuple) -> None:
        ctx.write(name)

    def block_task(ctx: CilkContext, i: int, j: int) -> None:
        for k in range(blocks):
            ctx.read(("A", i, k))
            ctx.read(("B", k, j))
            ctx.read(("C", i, j))
            ctx.write(("C", i, j))

    def main(ctx: CilkContext) -> None:
        for i in range(blocks):
            for k in range(blocks):
                ctx.spawn(init, ("A", i, k))
                ctx.spawn(init, ("B", i, k))
                ctx.spawn(init, ("C", i, k))
        ctx.sync()
        for i in range(blocks):
            for j in range(blocks):
                ctx.spawn(block_task, i, j)
        ctx.sync()
        for i in range(blocks):
            for j in range(blocks):
                ctx.read(("C", i, j))

    return unfold(main)


def scan_computation(n: int = 8) -> tuple[Computation, UnfoldInfo]:
    """Two-phase parallel prefix sum over ``n`` leaves (n a power of two).

    Upsweep writes partial sums up a binary tree; downsweep pushes
    prefixes back down.  Locations are ``("s", level, index)``.
    """
    if n & (n - 1):
        raise ValueError("n must be a power of two")
    import math

    levels = int(math.log2(n))

    def upsweep(ctx: CilkContext, level: int, idx: int) -> None:
        if level == 0:
            ctx.write(("s", 0, idx))
            return
        ctx.spawn(upsweep, level - 1, 2 * idx)
        ctx.spawn(upsweep, level - 1, 2 * idx + 1)
        ctx.sync()
        ctx.read(("s", level - 1, 2 * idx))
        ctx.read(("s", level - 1, 2 * idx + 1))
        ctx.write(("s", level, idx))

    def downsweep(ctx: CilkContext, level: int, idx: int) -> None:
        if level == 0:
            ctx.read(("p", 0, idx))
            return
        # Children's prefixes derive from mine and the left child's sum.
        ctx.read(("p", level, idx))
        ctx.read(("s", level - 1, 2 * idx))
        ctx.write(("p", level - 1, 2 * idx))
        ctx.write(("p", level - 1, 2 * idx + 1))
        ctx.spawn(downsweep, level - 1, 2 * idx)
        ctx.spawn(downsweep, level - 1, 2 * idx + 1)
        ctx.sync()

    def main(ctx: CilkContext) -> None:
        ctx.spawn(upsweep, levels, 0)
        ctx.sync()
        ctx.write(("p", levels, 0))
        ctx.spawn(downsweep, levels, 0)
        ctx.sync()

    return unfold(main)


def stencil_computation(
    width: int = 6, steps: int = 3
) -> tuple[Computation, UnfoldInfo]:
    """Iterated 1-d 3-point stencil with double buffering.

    Generation ``t`` cell ``i`` reads cells ``i-1, i, i+1`` of generation
    ``t-1`` (clamped at the borders) and writes ``("g", t, i)``.  Each
    generation's cells are spawned in parallel; generations are separated
    by syncs (a layered, BSP-like dag).
    """

    def cell(ctx: CilkContext, t: int, i: int) -> None:
        for j in (i - 1, i, i + 1):
            if 0 <= j < width:
                ctx.read(("g", t - 1, j))
        ctx.write(("g", t, i))

    def seed(ctx: CilkContext, i: int) -> None:
        ctx.write(("g", 0, i))

    def main(ctx: CilkContext) -> None:
        for i in range(width):
            ctx.spawn(seed, i)
        ctx.sync()
        for t in range(1, steps + 1):
            for i in range(width):
                ctx.spawn(cell, t, i)
            ctx.sync()

    return unfold(main)


def tree_sum_computation(n_leaves: int = 8) -> tuple[Computation, UnfoldInfo]:
    """Fork/join reduction: leaves write inputs, internal nodes combine."""

    def node(ctx: CilkContext, lo: int, hi: int) -> None:
        loc = ("t", lo, hi)
        if hi - lo == 1:
            ctx.write(loc)
            return
        mid = (lo + hi) // 2
        ctx.spawn(node, lo, mid)
        ctx.spawn(node, mid, hi)
        ctx.sync()
        ctx.read(("t", lo, mid))
        ctx.read(("t", mid, hi))
        ctx.write(loc)

    def main(ctx: CilkContext) -> None:
        ctx.spawn(node, 0, n_leaves)
        ctx.sync()
        ctx.read(("t", 0, n_leaves))

    return unfold(main)


def racy_counter_computation(
    n_tasks: int = 4, increments: int = 2
) -> tuple[Computation, UnfoldInfo]:
    """Concurrent unsynchronized increments of one counter location.

    Each task performs ``increments`` read-modify-write pairs on ``"ctr"``
    with no cross-task ordering — the archetypal determinacy race.  Under
    a weak memory (BACKER) different tasks may observe different write
    serializations *prefixes*; the trace remains LC but is typically not
    SC-explainable at higher processor counts.
    """

    def task(ctx: CilkContext) -> None:
        for _ in range(increments):
            ctx.read("ctr")
            ctx.write("ctr")

    def main(ctx: CilkContext) -> None:
        ctx.write("ctr")  # initialize
        for _ in range(n_tasks):
            ctx.spawn(task)
        ctx.sync()
        ctx.read("ctr")

    return unfold(main)


def locked_counter_computation(
    n_tasks: int = 4, increments: int = 2, lock: str | None = "L"
) -> tuple[Computation, UnfoldInfo]:
    """The racy counter with every increment inside a critical section.

    Shape-identical to :func:`racy_counter_computation` but each task's
    read-modify-write pairs run under ``with ctx.lock(lock)``, so the
    bare dag's determinacy races are all *lock-mediated*: any
    serialization of the sections (:mod:`repro.locks`) orders them, and
    the lockset analyzer (:mod:`repro.verify.races`) classifies the
    program as data-race free.  Pass ``lock=None`` to drop the locks
    and recover the racy variant — handy for lint fixtures needing a
    clean/racy pair of equal shape.
    """

    def task(ctx: CilkContext) -> None:
        for _ in range(increments):
            if lock is None:
                ctx.read("ctr")
                ctx.write("ctr")
            else:
                with ctx.lock(lock):
                    ctx.read("ctr")
                    ctx.write("ctr")

    def main(ctx: CilkContext) -> None:
        ctx.write("ctr")  # initialize
        for _ in range(n_tasks):
            ctx.spawn(task)
        ctx.sync()
        ctx.read("ctr")

    return unfold(main)


def deadlock_computation(
    inverted: bool = True,
) -> tuple[Computation, UnfoldInfo]:
    """The classic ABBA lock-order inversion as a fork/join program.

    Two concurrent workers update a shared counter under *two* nested
    locks.  With ``inverted=True`` (default) one worker acquires
    ``A`` then ``B`` while the other acquires ``B`` then ``A`` — the
    counter races are all lock-mediated (both sides hold both locks),
    but the acquisition orders form a cycle between dag-incomparable
    sections: the textbook potential deadlock the ``DL001`` lint rule
    exists to catch.  ``inverted=False`` makes both workers acquire
    ``A`` then ``B``, the cycle disappears, and the program is clean —
    a matched negative fixture of identical shape.
    """

    def worker(ctx: CilkContext, first: str, second: str) -> None:
        with ctx.lock(first):
            with ctx.lock(second):
                ctx.read("ctr")
                ctx.write("ctr")

    def main(ctx: CilkContext) -> None:
        ctx.write("ctr")  # initialize
        ctx.spawn(worker, "A", "B")
        ctx.spawn(worker, *(("B", "A") if inverted else ("A", "B")))
        ctx.sync()
        ctx.read("ctr")

    return unfold(main)


def store_buffer_computation() -> tuple[Computation, UnfoldInfo]:
    """The store-buffer (Dekker) litmus shape as a fork/join program.

    Two concurrent tasks: one writes ``x`` then reads ``y``; the other
    writes ``y`` then reads ``x``.  Under BACKER with the tasks on
    different processors, both reads can miss the other task's write
    (each write sits dirty in its own cache) — an execution that is
    location consistent but **not** sequentially consistent, realizing
    :func:`repro.paperfigures.lc_not_sc_pair` on real simulated hardware.
    """

    def left(ctx: CilkContext) -> None:
        ctx.write("x")
        ctx.read("y")

    def right(ctx: CilkContext) -> None:
        ctx.write("y")
        ctx.read("x")

    def main(ctx: CilkContext) -> None:
        ctx.spawn(left)
        ctx.spawn(right)
        ctx.sync()

    return unfold(main)


def iriw_computation() -> tuple[Computation, UnfoldInfo]:
    """Independent-reads-of-independent-writes litmus shape.

    Two writer tasks (to ``x`` and ``y``) and two reader tasks reading
    both locations in opposite orders.  Weak memories can let the
    readers disagree on the order of the two writes; with spontaneous
    reconciliation enabled in :class:`~repro.runtime.backer.BackerMemory`
    such outcomes become reachable while remaining location consistent.
    """

    def writer(ctx: CilkContext, loc: str) -> None:
        ctx.write(loc)

    def reader(ctx: CilkContext, first: str, second: str) -> None:
        ctx.read(first)
        ctx.read(second)

    def main(ctx: CilkContext) -> None:
        ctx.spawn(writer, "x")
        ctx.spawn(writer, "y")
        ctx.spawn(reader, "x", "y")
        ctx.spawn(reader, "y", "x")
        ctx.sync()

    return unfold(main)
