"""A Cilk-style spawn/sync frontend that unfolds programs into computations.

The paper's motivating setting is Cilk [BJK+95]: a multithreaded program
whose fork/join constructs induce the dependency dag.  This module lets
you write such programs as ordinary Python functions against a
:class:`CilkContext`; running the program *once* records its unfolding —
exactly the paper's notion that "a computation models the way a program
unfolds in a particular execution".

Semantics recorded (matching Cilk's strand model):

* Operations within a frame are serially dependent.
* ``spawn(f, *args)`` starts a child frame whose first operation depends
  on the parent's current position; the parent continues concurrently.
* ``sync()`` makes the parent's next operation depend on the completion
  of every child spawned since the previous sync.
* Returning from a function performs an implicit ``sync`` (as in Cilk).

The resulting dag is always series-parallel (verified by the test suite
via :func:`repro.dag.sp.is_series_parallel`).

Example::

    def prog(ctx: CilkContext) -> None:
        ctx.write("x")
        ctx.spawn(child)
        ctx.read("x")
        ctx.sync()
        ctx.read("x")

    comp, info = unfold(prog)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.builder import ComputationBuilder
from repro.core.computation import Computation
from repro.core.ops import N, Op, R, W, Location

__all__ = ["CilkContext", "UnfoldInfo", "unfold"]


@dataclass
class _Frame:
    """Bookkeeping for one function activation.

    ``current_deps`` is the set of node ids the frame's next operation
    must depend on (more than one immediately after a sync); ``pending``
    collects the final dependency sets of unsynced children.  ``path``
    names the frame for diagnostics ("main", "main/s3", ...);
    ``op_count`` numbers its ops.
    """

    current_deps: tuple[int, ...]
    pending: list[tuple[int, ...]] = field(default_factory=list)
    path: str = "main"
    op_count: int = 0
    spawn_seq: int = 0


@dataclass
class UnfoldInfo:
    """Metadata produced by :func:`unfold` alongside the computation.

    Attributes
    ----------
    names:
        Mapping from node name to node id for nodes given explicit names.
    spawn_count / sync_count:
        Structural statistics of the unfolding (handy for tests and for
        sizing benchmark workloads).
    lock_sections:
        For each lock name, the list of ``(acquire_node, release_node)``
        pairs emitted by :meth:`CilkContext.lock`, in unfold order.  The
        plain computation does *not* order sections on the same lock —
        that is a memory-model-level choice; see :mod:`repro.locks`.
    node_paths:
        Per node, a human-readable source path ``frame:opindex`` where
        frames are named ``main`` / ``main/s<k>`` by spawn position —
        the "location" field of lint diagnostics.
    """

    names: dict[str, int]
    spawn_count: int
    sync_count: int
    lock_sections: dict[object, list[tuple[int, int]]] = field(
        default_factory=dict
    )
    node_paths: tuple[str, ...] = ()


class CilkContext:
    """The handle a program uses to emit operations and structure.

    One context exists per frame; :meth:`spawn` creates the child's
    context internally.  Contexts must not be used after their frame
    returns (attempting to is a programming error, unchecked for speed).
    """

    def __init__(self, recorder: "_Recorder", frame: _Frame) -> None:
        self._rec = recorder
        self._frame = frame

    # -- operations ----------------------------------------------------

    def read(self, loc: Location, name: str | None = None) -> int:
        """Emit a read of ``loc``; returns the node id."""
        return self._op(R(loc), name)

    def write(self, loc: Location, name: str | None = None) -> int:
        """Emit a write to ``loc``; returns the node id."""
        return self._op(W(loc), name)

    def nop(self, name: str | None = None) -> int:
        """Emit a no-op (a synchronization-visible step); returns the id."""
        return self._op(N, name)

    def _op(self, op: Op, name: str | None) -> int:
        frame = self._frame
        node = self._rec.builder.add(op, name=name, after=frame.current_deps)
        frame.current_deps = (node.node_id,)
        self._rec.node_paths[node.node_id] = f"{frame.path}:{frame.op_count}"
        frame.op_count += 1
        return node.node_id

    # -- structure -----------------------------------------------------

    def spawn(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        """Run ``fn(child_ctx, *args, **kwargs)`` as a spawned child.

        The child is recorded as concurrent with the parent's
        continuation; its effects are joined at the next :meth:`sync`
        (or the parent's implicit sync on return).
        """
        parent = self._frame
        child_frame = _Frame(
            current_deps=parent.current_deps,
            path=f"{parent.path}/s{parent.spawn_seq}",
        )
        parent.spawn_seq += 1
        child_ctx = CilkContext(self._rec, child_frame)
        self._rec.spawn_count += 1
        fn(child_ctx, *args, **kwargs)
        # Implicit sync at child return: its final deps include any
        # children it did not sync itself.
        final = _join(child_frame.current_deps, child_frame.pending)
        parent.pending.append(final)

    def sync(self) -> None:
        """Join all children spawned since the last sync."""
        self._rec.sync_count += 1
        self._frame.current_deps = _join(
            self._frame.current_deps, self._frame.pending
        )
        self._frame.pending.clear()

    def lock(self, name: object) -> "_LockSection":
        """A critical section on lock ``name`` (use as a context manager).

        Emits an *acquire* node on entry and a *release* node on exit
        (both no-ops from the memory's point of view — locks are
        synchronization, not data) and records the pair in
        :attr:`UnfoldInfo.lock_sections`.  Mutual exclusion between
        sections on the same lock is **not** encoded in the dag; it is a
        per-execution serialization choice, handled by
        :mod:`repro.locks`::

            with ctx.lock("L"):
                ctx.read("ctr")
                ctx.write("ctr")
        """
        return _LockSection(self, name)


class _LockSection:
    """Context manager emitting acquire/release nodes for one section."""

    def __init__(self, ctx: CilkContext, name: object) -> None:
        self._ctx = ctx
        self._name = name
        self._acquire: int | None = None

    def __enter__(self) -> "_LockSection":
        self._acquire = self._ctx.nop()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        release = self._ctx.nop()
        assert self._acquire is not None
        self._ctx._rec.lock_sections.setdefault(self._name, []).append(
            (self._acquire, release)
        )


def _join(
    deps: tuple[int, ...], pending: list[tuple[int, ...]]
) -> tuple[int, ...]:
    """Union of a dependency set with all pending child sets, deduplicated.

    Drops dominated dependencies is *not* attempted — the builder's dag
    construction deduplicates edges, and transitive edges are harmless
    (models are defined on the precedence relation).
    """
    out = set(deps)
    for p in pending:
        out.update(p)
    return tuple(sorted(out))


class _Recorder:
    """Shared mutable state of one unfolding."""

    def __init__(self) -> None:
        self.builder = ComputationBuilder()
        self.spawn_count = 0
        self.sync_count = 0
        self.lock_sections: dict[object, list[tuple[int, int]]] = {}
        self.node_paths: dict[int, str] = {}


def unfold(
    program: Callable[..., Any], *args: Any, **kwargs: Any
) -> tuple[Computation, UnfoldInfo]:
    """Run ``program(root_ctx, *args, **kwargs)`` and record its computation.

    The program is executed exactly once, serially; the recorded dag
    captures the concurrency structure the spawn/sync calls declare.
    """
    rec = _Recorder()
    root = _Frame(current_deps=())
    ctx = CilkContext(rec, root)
    program(ctx, *args, **kwargs)
    # Implicit sync at program end (so the unfolding is well-formed even
    # if the program forgot to sync; the dag is unchanged by this unless
    # further ops were to follow, but we keep the counter honest).
    comp = rec.builder.build()
    info = UnfoldInfo(
        names=rec.builder.names(),
        spawn_count=rec.spawn_count,
        sync_count=rec.sync_count,
        lock_sections={k: list(v) for k, v in rec.lock_sections.items()},
        node_paths=tuple(
            rec.node_paths[i] for i in range(comp.dag.num_nodes)
        ),
    )
    return comp, info
