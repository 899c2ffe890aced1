"""Per-layer timing by wrapping the module attributes that callers look up.

A traced function is replaced, for the duration of a `with` block, in every
module whose namespace holds it (`from .numpoly import poly_gcd` binds a
second name in `certify`, and that is the one `certify` calls).  Each call
opens a span; a span's self time is its duration minus the durations of the
spans opened directly inside it.  Only aggregates are kept: calls and self
seconds per name, plus counters that observers derive from arguments and
results at the same boundary.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    """Aggregating span recorder; `clock` is replaceable so tests can script time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._stack: list[list] = []  # [name, seconds spent in child spans]

    def note_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, name: str, fn, observe=None):
        """Return fn wrapped in a span; observe(tracer, parent, args, result, exc)
        runs after the span closes, so its cost is not charged to the layer."""

        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            result = exc = None
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                duration = self.clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += duration
                stats = self.stats.setdefault(name, LayerStats())
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if observe is not None:
                    observe(self, parent, args, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, modules, targets):
        """Wrap every binding of each target function while the block runs.

        targets maps a span name to (owner module, attribute, observer).  All
        bindings in `modules` that are the owner's function object are
        replaced, and every one is restored on exit, also when the block
        raises.
        """
        saved = []
        try:
            for name, (owner, attr, observe) in targets.items():
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, observe)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, original in reversed(saved):
                setattr(module, key, original)

