"""Outside-in span tracer for the latentprox package.

The tracer replaces functions with timing wrappers from outside the program:
for every loaded ``latentprox`` module it rebinds each package function that
the module binds under its bare name (``samplers.decode``, ``runner.sample``,
``dpo.vjp`` and so on), so a call is recorded whichever module it goes
through.  A span is (name, start, end, parent); spans stay in flat in-memory
arrays while the workload runs and are written out once at the end.  A span's
self time is its duration minus the durations of its direct child spans.

Hooks observe the arguments and the result (or exception) of named functions
to count work done inside a layer.  A hook runs inside its own span named
``HOOK``, so its cost is charged to neither the caller nor the callee.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "latentprox"
HOOK = "perfbench.hook"


def _home(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    """Wraps package functions, records spans and runs counting hooks."""

    def __init__(self, private=(), hooks=None):
        self.private = frozenset(private)  # private names traced as well
        self.hooks = dict(hooks or {})     # span name -> hook(args, res, exc)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._hook_id = self._intern(HOOK)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    def _run_hook(self, hook, args, result, exc) -> None:
        sid = self._open(self._hook_id)
        t0 = time.perf_counter()
        try:
            hook(args, result, exc)
        finally:
            self._close(sid, t0, time.perf_counter())

    def _wrap(self, fn):
        name = f"{_home(fn)}.{fn.__name__}"
        name_id = self._intern(name)
        hook = self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, t0, clock())
                if hook is not None:
                    self._run_hook(hook, args, None, exc)
                raise
            self._close(sid, t0, clock())
            if hook is not None:
                self._run_hook(hook, args, result, None)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def _traceable(self, attr: str, obj) -> bool:
        return (isinstance(obj, types.FunctionType)
                and obj.__module__.split(".")[0] == PACKAGE
                and obj.__name__ == attr
                and (not attr.startswith("_") or attr in self.private))

    def _bindings(self):
        """(module, attribute, function) for every traceable binding."""
        for n, mod in list(sys.modules.items()):
            if n == PACKAGE or n.startswith(PACKAGE + "."):
                for attr, obj in list(vars(mod).items()):
                    if self._traceable(attr, obj):
                        yield mod, attr, obj

    @contextmanager
    def installed(self):
        """Wrap every traceable binding for the duration of the block."""
        wrappers, patched = {}, []
        for mod, attr, obj in self._bindings():
            if obj not in wrappers:
                wrappers[obj] = self._wrap(obj)
            setattr(mod, attr, wrappers[obj])
            patched.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def wrapped_names(self) -> set[str]:
        """Every span name the package offers to trace, installed or not."""
        return {f"{_home(obj)}.{obj.__name__}"
                for _, _, obj in self._bindings()}

    def mark(self) -> int:
        """Index of the next span, to cut the record into phases."""
        return len(self.name_id)

    def summary(self, lo: int = 0, hi: int | None = None):
        """Calls and self seconds per span name over spans [lo, hi)."""
        hi = self.mark() if hi is None else hi
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        child = parent >= lo   # a span's parent always precedes it
        child_time = np.bincount(parent[child] - lo, weights=dur[child],
                                 minlength=len(dur))
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        selfs = np.bincount(ids, weights=self_time, minlength=k)
        return {name: (int(calls[i]), float(selfs[i]))
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span: name table plus one row per span."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
