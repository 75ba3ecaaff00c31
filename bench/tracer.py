"""Span tracing of hqw's public functions, installed from outside the package.

`Tracer.install()` wraps every public function and public method (plus
`__init__`) defined in the six hqw modules, rebinding each wrapper wherever
another hqw module imported the original. A call records a span
[id, name, parent id, start, end] in memory; the child process writes the
spans out when its invocation ends.

The `cli.cmd_*` handlers stay unwrapped, so that argument handling, CSV/JSON
formatting and writing the artifact count as `cli.main` self time.

Counters computed from call arguments and results (not read from the
program) sit next to the spans:

* walk.step.distinct_t: new (walk, t) pairs seen by `HybridWalk.step`, the
  propagator-cache misses;
* walk.step.bytes_computed: coin_dim * n^2 * 16 per step, the bytes of the
  dense sector matvecs;
* matmul.amps_scanned: sum of len(state.amps) over projection calls;
* matmul.entries: n^2 of each validated regular sequence.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
import types
import weakref
from collections import defaultdict

MODULES = ("graphs", "linalg", "walk", "pst", "matmul", "cli")

SPAN_ID, SPAN_NAME, SPAN_PARENT, SPAN_START, SPAN_END = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._walk_ts = weakref.WeakKeyDictionary()
        self._hooks = {
            "walk.HybridWalk.step": self._on_step,
            "matmul.projection_probability": self._on_projection,
            "matmul.regular_sequence": self._on_sequence,
        }

    # -- counters -----------------------------------------------------------

    def _on_step(self, args, kwargs, result):
        walk, t = args[0], float(args[1] if len(args) > 1 else kwargs["t"])
        seen = self._walk_ts.setdefault(walk, set())
        if t not in seen:
            seen.add(t)
            self.counters["walk.step.distinct_t"] += 1
        self.counters["walk.step.bytes_computed"] += walk.coin_dim * walk.pos_dim ** 2 * 16

    def _on_projection(self, args, kwargs, result):
        state = args[0] if args else kwargs["state"]
        self.counters["matmul.amps_scanned"] += len(state.amps)

    def _on_sequence(self, args, kwargs, result):
        self.counters["matmul.entries"] += result.n ** 2

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [next(ids), name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(span[SPAN_ID])
            span[SPAN_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[SPAN_END] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public callables of the hqw modules."""
        mods = {m: importlib.import_module(f"hqw.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("cmd_"):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        public = not meth.startswith("_") or meth == "__init__"
                        if public and isinstance(fn, types.FunctionType):
                            setattr(obj, meth, self._wrap(fn, f"{short}.{obj.__name__}.{meth}"))
        # rebind in every module, so `from .graphs import f` call sites see the wrapper
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[str, tuple[float, int, float]]:
    """Per span name: (self seconds, calls, inclusive seconds).

    Self time is a span's duration minus the part of it its children cover.
    """
    children = defaultdict(list)
    for s in spans:
        children[s[SPAN_PARENT]].append((s[SPAN_START], s[SPAN_END]))
    out: dict[str, list] = defaultdict(lambda: [0.0, 0, 0.0])
    for s in spans:
        dur = s[SPAN_END] - s[SPAN_START]
        acc = out[s[SPAN_NAME]]
        acc[0] += dur - _covered(children[s[SPAN_ID]], s[SPAN_START], s[SPAN_END])
        acc[1] += 1
        acc[2] += dur
    return {k: tuple(v) for k, v in out.items()}
