"""Outside-in call tracing of the camtrack layers.

A ``Tracer`` replaces each public function of the layer modules, in every
namespace that binds it (``step`` lives in ``world`` but is also bound in
``training``, ``evaluate`` and the package), by a wrapper that counts calls
and accumulates self time: the wrapper's span minus the spans of the traced
calls made inside it. The program's code is not changed, and ``restore``
puts every original object back, so untraced code in the same process runs
exactly as before.
"""
from __future__ import annotations

import functools
import inspect
import time
from types import ModuleType
from typing import Callable


class CallStats:
    """Calls, self time and successful outcomes of one traced function."""

    __slots__ = ("calls", "self_s", "ok")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.ok = 0


def public_functions(module: ModuleType) -> dict[str, Callable]:
    """Public functions defined in ``module`` itself, by name."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    """Wraps layer functions for call counts and self time.

    layers maps a short layer name ("world") to its module; the traced key of
    a function is "<layer>.<function>". namespaces are all modules whose
    bindings get replaced. outcomes maps a key to a predicate on the return
    value; each call for which it holds counts in ``CallStats.ok``. counted
    lists (class, method name, key) triples whose calls are only counted,
    for hot leaf methods where a timer would cost more than the call.
    """

    def __init__(self, layers: dict[str, ModuleType], namespaces: list[ModuleType],
                 outcomes: dict[str, Callable[[object], bool]] | None = None,
                 counted: tuple[tuple[type, str, str], ...] = (),
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self._layers = layers
        self._namespaces = namespaces
        self._outcomes = outcomes or {}
        self._counted = counted
        self._clock = clock
        self._stack: list[float] = []  # child time accumulated per open span
        self._patched: list[tuple[object, str, object]] = []
        self.stats: dict[str, CallStats] = {}
        self.counts: dict[str, list[int]] = {}

    def _timed(self, fn: Callable, key: str) -> Callable:
        stat = self.stats.setdefault(key, CallStats())
        stack = self._stack
        clock = self._clock
        outcome = self._outcomes.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.self_s += span - child
                if stack:
                    stack[-1] += span
            if outcome is not None and outcome(result):
                stat.ok += 1
            return result

        return wrapper

    def _count_only(self, fn: Callable, key: str) -> Callable:
        box = self.counts.setdefault(key, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every binding of a layer function with its wrapper."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[Callable, Callable] = {}
        for layer, module in self._layers.items():
            for name, fn in public_functions(module).items():
                wrappers[fn] = self._timed(fn, f"{layer}.{name}")
        for ns in self._namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((ns, name, obj))
                    setattr(ns, name, wrappers[obj])
        for owner, name, key in self._counted:
            original = vars(owner)[name]
            self._patched.append((owner, name, original))
            setattr(owner, name, self._count_only(original, key))

    def restore(self) -> None:
        """Put every original binding back."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def take(self) -> tuple[dict[str, tuple[int, float, int]], dict[str, int]]:
        """Per-key (calls, self seconds, ok) and counted calls since the last
        take; resets all of them to zero."""
        stats = {key: (s.calls, s.self_s, s.ok) for key, s in self.stats.items()}
        counts = {key: box[0] for key, box in self.counts.items()}
        for s in self.stats.values():
            s.calls, s.self_s, s.ok = 0, 0.0, 0
        for box in self.counts.values():
            box[0] = 0
        return stats, counts
