"""Global switch for the sweep memoization layer.

The enumeration sweeps lean on ``functools.lru_cache`` memoization of
pure hot paths (canonical forms, topological-sort sets, last-writer
rows, augmentations, per-computation row sets).  Membership verdicts
are not memoized: a sweep decides each model once per pair.  All of
those caches, the closed-form Theorem-12 hooks and the dag-consistency
models' fiber reuse consult :data:`ENABLED` so that benchmarks can
measure the *uncached* baseline — the code path as it stood before the
parallel sweep engine existed — without reverting the library.

This module is intentionally dependency-free: it sits below ``core``,
``dag`` and ``models`` in the import graph so every layer may consult it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["ENABLED", "caches_enabled", "set_caches_enabled", "sweep_caching"]

ENABLED: bool = True
"""Whether the sweep memoization layer is active (module-global)."""


def caches_enabled() -> bool:
    """Current state of the sweep memoization layer."""
    return ENABLED


def set_caches_enabled(enabled: bool) -> None:
    """Turn the sweep memoization layer on or off process-wide.

    Off means every memoized helper recomputes from scratch on each
    call (existing cache entries are retained but not consulted, so
    re-enabling restores prior hits).
    """
    global ENABLED
    ENABLED = bool(enabled)


@contextmanager
def sweep_caching(enabled: bool) -> Iterator[None]:
    """Context manager scoping :func:`set_caches_enabled`.

    ``with sweep_caching(False): ...`` runs its body on the uncached
    code paths — the honest baseline for speedup measurements.
    """
    previous = ENABLED
    set_caches_enabled(enabled)
    try:
        yield
    finally:
        set_caches_enabled(previous)
