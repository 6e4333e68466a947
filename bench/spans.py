"""Spans around calls into the package, recorded from outside it.

``Tracer.install`` replaces every public function and public method of
each gamma13 module (plus the arithmetic and ``__str__`` dunders of its
classes, and a few private hot spots named in ``EXTRA``) by a wrapper that
records one span: callee, parent span, start and end.  Every module that
imported a wrapped function by name gets the wrapper too.  Spans live in
flat arrays and are written out by ``write``; ``summary`` derives call
counts, inclusive time and self time (span time minus the time its child
spans cover) per callee and per module.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import inspect
import json
import time
from array import array
from pathlib import Path
from types import ModuleType
from typing import Dict, List, Sequence, Tuple

DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__divmod__",
    "__neg__", "__pow__", "__abs__", "__str__",
})

# Private functions that carry a layer's work and are worth their own span.
EXTRA = frozenset({"certificate._check_step", "numeric._residual"})


def _short(module: ModuleType) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self, modules: Sequence[ModuleType]):
        self.modules = list(modules)
        self.labels: List[str] = []
        self.parents = array("i")
        self.callees = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._off = [False]
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, fn, label: str):
        callee = len(self.labels)
        self.labels.append(label)
        stack, starts, ends, off = self._stack, self.starts, self.ends, self._off
        add_parent, add_callee = self.parents.append, self.callees.append
        add_start, add_end = starts.append, ends.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if off[0]:
                return fn(*args, **kwargs)
            idx = len(starts)
            add_parent(stack[-1])
            add_callee(callee)
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        wrapped: Dict[int, object] = {}
        for mod in self.modules:
            prefix = _short(mod)
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if not name.startswith("_") or f"{prefix}.{name}" in EXTRA:
                        wrapped[id(obj)] = self._wrap(obj, f"{prefix}.{name}")
                elif inspect.isclass(obj) and not issubclass(
                        obj, (BaseException, enum.Enum)):
                    self._wrap_class(obj, f"{prefix}.{name}")
        # Rebind every module-level reference, including names imported
        # into other modules with ``from .x import f``.
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(mod, name, wrapped[id(obj)])

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if isinstance(value, (staticmethod, classmethod)):
                inner = self._wrap(value.__func__, f"{prefix}.{attr}")
                self._patch(cls, attr, type(value)(inner))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(value, f"{prefix}.{attr}"))

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        self._off[0] = True
        try:
            yield
        finally:
            self._off[0] = False

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results ------------------------------------------------------------------

    def summary(self) -> "TraceSummary":
        return TraceSummary(self.labels, self.parents, self.callees,
                            self.starts, self.ends)

    def write(self, stem: Path) -> None:
        """Spans as four little arrays in ``stem.spans`` (parent index, callee
        index, start, end; parent -1 for a root) and their layout in
        ``stem.json``."""
        with open(stem.with_suffix(".spans"), "wb") as handle:
            for column in (self.parents, self.callees, self.starts, self.ends):
                column.tofile(handle)
        meta = {"spans": len(self.starts), "callees": self.labels,
                "columns": [["parent", self.parents.typecode],
                            ["callee", self.callees.typecode],
                            ["start_s", self.starts.typecode],
                            ["end_s", self.ends.typecode]]}
        stem.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n",
                                             encoding="utf-8")


class TraceSummary:
    def __init__(self, labels, parents, callees, starts, ends):
        n = len(starts)
        self.labels = labels
        self.parents = parents
        self.callees = callees
        duration = [ends[i] - starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += duration[i]
        self.calls: Dict[str, int] = {}
        self.self_time: Dict[str, float] = {}
        self.root_time = 0.0
        for i in range(n):
            label = labels[callees[i]]
            self.calls[label] = self.calls.get(label, 0) + 1
            self.self_time[label] = (self.self_time.get(label, 0.0)
                                     + duration[i] - child[i])
            if parents[i] < 0:
                self.root_time += duration[i]
        self.duration = duration
        self.spans = n

    def _has_ancestor(self, i: int, callee: int) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.callees[p] == callee:
                return True
            p = self.parents[p]
        return False

    def module_self(self, module: str) -> float:
        prefix = module + "."
        return sum(t for label, t in self.self_time.items()
                   if label.startswith(prefix))

    def count(self, *labels: str) -> int:
        return sum(self.calls.get(label, 0) for label in labels)

    def _spans_of(self, label: str) -> List[int]:
        if label not in self.labels:
            return []
        want = self.labels.index(label)
        return [i for i in range(self.spans) if self.callees[i] == want]

    def inclusive(self, label: str) -> float:
        """Time inside ``label``, counting only its outermost spans."""
        spans = self._spans_of(label)
        want = self.labels.index(label) if spans else -1
        return sum(self.duration[i] for i in spans
                   if not self._has_ancestor(i, want))

    def count_under(self, label: str, ancestor: str) -> int:
        """Spans of ``label`` with an ``ancestor`` span somewhere above them."""
        if ancestor not in self.labels:
            return 0
        above = self.labels.index(ancestor)
        return sum(1 for i in self._spans_of(label)
                   if self._has_ancestor(i, above))
