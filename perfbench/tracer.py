"""Spans and counts recorded from outside the program.

The tracer wraps public functions of the ``mfed`` modules. A function is
looked up once, at the module that defines it; the wrapper then replaces
every binding of that same object in every loaded ``mfed`` module, so a
caller that did ``from .signal_core import detect_pois`` calls the wrapper
too. A target that no longer exists is recorded as absent and skipped.

Spans are aggregated as they close: per span name the call count, the
total time and the self time (total minus the time of wrapped calls made
inside it). Durations of chosen spans are kept for percentiles.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str  # defining module, e.g. "mfed.signal_core"
    attr: str  # "detect_pois" or "StreamDetector.observe"
    span: str | Callable  # span name, or a function of (args, kwargs) giving it
    hook: Callable | None = None  # called as hook(args, kwargs, result)


class Tracer:
    def __init__(self, keep_durations=()):
        self.keep = frozenset(keep_durations)
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []

    def _wrap(self, fn, span, hook):
        perf = time.perf_counter
        tracer = self  # read attributes at call time: reset() replaces them

        def wrapper(*args, **kwargs):
            name = span if isinstance(span, str) else span(args, kwargs)
            frame = [perf(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - frame[0]
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[1]
                if name in tracer.keep:
                    tracer.durations[name].append(dur)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets):
        self.absent = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mfed" or name.startswith("mfed."))]
        for target in targets:
            owner = sys.modules.get(target.module)
            *path, leaf = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(original, target.span, target.hook)
            if path:  # a method: patch the class attribute
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def layer_self(self) -> dict[str, float]:
        """Self time per layer, the layer being the span name's first part."""
        out: dict[str, float] = defaultdict(float)
        for name, s in self.self_time.items():
            out[name.split(".", 1)[0]] += s
        return out
