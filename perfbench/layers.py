"""Layer timing from outside the program.

A :class:`Tracer` replaces a module attribute, class attribute or
instance method with a wrapper that times each call, and puts the
original back on :meth:`Tracer.restore`.  Times are *self* times: a
wrapped call made while another wrapped call is running is charged to
its own layer and subtracted from the caller's, so the layers of one
traced run never double-count and their sum never exceeds the wall
time around them.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Per-layer, per-key call times, for layers patched with a ``key``.
        self.by_key: dict[str, dict[Any, list[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self._children: list[float] = []
        self._undo: list[Callable[[], None]] = []

    # -- timing ---------------------------------------------------------

    def _charge(self, layer: str, elapsed: float, child: float) -> None:
        self.self_s[layer] += elapsed - child
        self.inclusive_s[layer] += elapsed
        self.calls[layer] += 1
        if self._children:
            self._children[-1] += elapsed

    def timed(
        self,
        layer: str,
        fn: Callable,
        key: Callable[..., Any] | None = None,
    ) -> Callable:
        """``fn`` wrapped so each call is charged to ``layer``.

        ``key(*args, **kwargs)`` (optional) files the call's inclusive
        time under ``by_key[layer][key]`` as well.
        """

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._charge(layer, elapsed, self._children.pop())
                if key is not None:
                    self.by_key[layer][key(*args, **kwargs)].append(elapsed)

        return wrapper

    def timed_iter(self, layer: str, it: Iterator) -> Iterator:
        """Charge the production of every item of ``it`` to ``layer``
        (the consumer's work between items is not charged)."""
        it = iter(it)
        while True:
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                item = next(it)
            except StopIteration:
                self._charge(layer, time.perf_counter() - t0, self._children.pop())
                return
            except BaseException:
                self._charge(layer, time.perf_counter() - t0, self._children.pop())
                raise
            self._charge(layer, time.perf_counter() - t0, self._children.pop())
            yield item

    # -- patching -------------------------------------------------------

    def patch(
        self,
        owner: Any,
        name: str,
        layer: str,
        key: Callable[..., Any] | None = None,
        iterator: bool = False,
    ) -> None:
        """Replace ``owner.name`` by a timed wrapper until :meth:`restore`.

        ``iterator=True`` is for functions that return iterators: the
        call and every ``next`` on its result are charged to ``layer``.
        """
        target = getattr(owner, name)
        if iterator:
            inner = target

            def target(*args: Any, **kwargs: Any) -> Iterator:
                return self.timed_iter(layer, inner(*args, **kwargs))

        wrapped = self.timed(layer, target, key)
        if inspect.isclass(owner):
            original = inspect.getattr_static(owner, name)
            if isinstance(original, (classmethod, staticmethod)):
                # ``target`` is already bound: install it as-is.
                wrapped = staticmethod(wrapped)
            self._undo.append(lambda: setattr(owner, name, original))
        elif name in vars(owner):
            original = vars(owner)[name]
            self._undo.append(lambda: setattr(owner, name, original))
        else:
            # An instance that only inherits the method: drop the shadow.
            self._undo.append(lambda: delattr(owner, name))
        setattr(owner, name, wrapped)

    def patch_item(self, mapping: dict, key: Any, layer: str) -> None:
        """Replace ``mapping[key]`` by a timed wrapper until :meth:`restore`."""
        original = mapping[key]
        mapping[key] = self.timed(layer, original)
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # -- results --------------------------------------------------------

    def seconds(self, *layers: str) -> float:
        """Summed self time of ``layers``."""
        return sum(self.self_s.get(layer, 0.0) for layer in layers)

    def mean_ms(self, layer: str, key: Any) -> float:
        """Mean inclusive milliseconds of ``layer`` calls filed under ``key``."""
        samples = self.by_key.get(layer, {}).get(key, [])
        return 1e3 * sum(samples) / len(samples) if samples else 0.0
