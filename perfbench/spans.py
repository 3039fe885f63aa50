"""Span tracing from outside the program, for the per-layer breakdown.

:class:`Tracer` wraps the public entry point of each layer of
``src/repro`` and records one span per call: its name, start, end,
parent span and operation id.  Nothing under ``src/`` changes; the
wrappers are installed on the names the callers actually resolve and
removed again by :meth:`Tracer.uninstall`.

Spans live in per-thread columnar arrays (a few dozen bytes each), so
a traced run can hold hundreds of thousands of them in memory; they are
written out once, at the end (:meth:`Tracer.write`).

A span is recorded only inside an operation the benchmark opened with
:meth:`Tracer.operation`, and a call into a layer function from inside
a span of the same name (recursion) is not a new span.  The self time
of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module

#: Span name of the optimizer's SingleLevelExecutor.execute before it is
#: classified: an execute whose relation is next passed to
#: ``register_temp`` is a temp build, every other one the final query.
EXECUTE = "optimizer.execute"
TEMP_BUILD = "optimizer.temp_build"
FINAL = "optimizer.final"

perf = time.perf_counter


class _ThreadSpans:
    """One thread's spans, stored column-wise."""

    def __init__(self, thread_no: int) -> None:
        self.thread_no = thread_no
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        #: id(heap) of each execute result in the current operation.
        self.executed: dict[int, int] = {}
        self.temp_slots: set[int] = set()
        #: slot -> count attached to a span (temps per nest_g, vectors
        #: per executemany, rows per temp build).
        self.counts: dict[int, int] = {}


class Tracer:
    """Installs layer wrappers and collects their spans."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._threads_lock = threading.Lock()
        self._op_ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        with self._threads_lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self._names)
                self._names.append(name)
            return self._name_ids[name]

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            with self._threads_lock:
                spans = _ThreadSpans(len(self._threads))
                self._threads.append(spans)
            self._local.spans = spans
        return spans

    def _open(self, t: _ThreadSpans, name_id: int) -> int | None:
        stack = t.stack
        if not stack or t.name[stack[-1]] == name_id:
            return None
        slot = len(t.name)
        t.name.append(name_id)
        t.start.append(perf())
        t.end.append(0.0)
        t.parent.append(stack[-1])
        t.op.append(t.op_id)
        stack.append(slot)
        return slot

    @staticmethod
    def _close(t: _ThreadSpans, slot: int) -> None:
        t.end[slot] = perf()
        t.stack.pop()

    @contextmanager
    def operation(self, kind: str):
        """Open the root span of one benchmark operation."""
        t = self._spans()
        t.op_id = next(self._op_ids)
        slot = len(t.name)
        t.name.append(self._id("op." + kind))
        t.start.append(perf())
        t.end.append(0.0)
        t.parent.append(-1)
        t.op.append(t.op_id)
        t.stack.append(slot)
        try:
            yield
        finally:
            t.end[slot] = perf()
            t.stack.pop()
            t.executed.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer = self
        name_id = self._id(name)

        def traced(*args, **kwargs):
            t = tracer._spans()
            slot = tracer._open(t, name_id)
            if slot is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(t, slot, args, result)
                return result
            finally:
                tracer._close(t, slot)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _wrap_lock(self, name: str, fn):
        """Wrap ``Catalog.read_lock``/``write_lock``: the span is the wait."""
        tracer = self
        name_id = self._id(name)

        class _TimedAcquire:
            __slots__ = ("inner",)

            def __init__(self, inner) -> None:
                self.inner = inner

            def __enter__(self):
                t = tracer._spans()
                slot = tracer._open(t, name_id)
                try:
                    return self.inner.__enter__()
                finally:
                    if slot is not None:
                        tracer._close(t, slot)

            def __exit__(self, *exc_info):
                return self.inner.__exit__(*exc_info)

        def traced(catalog):
            return _TimedAcquire(fn(catalog))

        traced.__wrapped__ = fn
        return traced

    def _patch_function(self, module, attr: str, wrapper) -> None:
        """Replace ``module.attr`` everywhere a repro module binds it."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics need."""
        # import_module, not "import a.b as b": a package may re-export
        # a function under its submodule's name (repro.core.nest_g).
        lint = import_module("repro.analysis.lint")
        verifier = import_module("repro.analysis.verifier")
        nest_g = import_module("repro.core.nest_g")
        pipeline = import_module("repro.core.pipeline")
        normalize = import_module("repro.serve.normalize")
        plan = import_module("repro.serve.plan")
        prepared = import_module("repro.serve.prepared")
        parser = import_module("repro.sql.parser")
        printer = import_module("repro.sql.printer")
        from repro.catalog.catalog import Catalog
        from repro.engine.nested_iteration import NestedIterationExecutor
        from repro.optimizer.executor import SingleLevelExecutor
        from repro.storage.buffer import BufferPool
        from repro.storage.heap import HeapFile
        from repro.txn.txn import Transaction

        def count_temps(t, slot, args, result):
            t.counts[slot] = len(result.setup)

        def note_execute(t, slot, args, result):
            t.executed[id(result.heap)] = slot

        def count_vectors(t, slot, args, result):
            t.counts[slot] = len(args[1])

        functions = [
            (parser, "parse", "sql.parse", None),
            (printer, "to_sql", "sql.to_sql", None),
            (pipeline, "prepare_query", "core.prepare_query", None),
            (nest_g, "nest_g", "core.nest_g", count_temps),
            (verifier, "verify_nested", "analysis.verify", None),
            (verifier, "verify_transform", "analysis.verify", None),
            (lint, "lint_transform", "analysis.verify", None),
            (
                verifier,
                "verify_single_level",
                "analysis.verify_single_level",
                None,
            ),
            (normalize, "parameterize", "serve.normalize", None),
            (normalize, "fingerprint", "serve.normalize", None),
            (plan, "build_plan", "serve.build_plan", None),
        ]
        for module, attr, name, after in functions:
            wrapper = self._wrap(name, getattr(module, attr), after)
            self._patch_function(module, attr, wrapper)

        methods = [
            (SingleLevelExecutor, "execute", EXECUTE, note_execute),
            (
                NestedIterationExecutor,
                "execute",
                "engine.nested_iteration",
                None,
            ),
            (BufferPool, "get_page", "storage.get_page", None),
            (HeapFile, "append_rows", "storage.append_rows", None),
            (plan.CachedPlan, "replay", "serve.replay", None),
            (
                prepared.PreparedStatement,
                "executemany",
                "serve.executemany",
                count_vectors,
            ),
            (Transaction, "commit", "txn.commit", None),
        ]
        for cls, attr, name, after in methods:
            self._patch_method(
                cls, attr, self._wrap(name, cls.__dict__[attr], after)
            )
        for attr in ("read_lock", "write_lock"):
            self._patch_method(
                Catalog,
                attr,
                self._wrap_lock("catalog." + attr, Catalog.__dict__[attr]),
            )

        original_register = Catalog.__dict__["register_temp"]
        tracer = self

        def register_temp(catalog, name, heap, column_names):
            t = tracer._spans()
            slot = t.executed.pop(id(heap), None)
            if slot is not None:
                t.temp_slots.add(slot)
                t.counts[slot] = heap.num_rows
            return original_register(catalog, name, heap, column_names)

        register_temp.__wrapped__ = original_register
        self._patch_method(Catalog, "register_temp", register_temp)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def summarize(self) -> "SpanSummary":
        """Per-name call counts and self times over every recorded span."""
        temp_build = self._id(TEMP_BUILD)
        final = self._id(FINAL)
        execute = self._id(EXECUTE)
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        ops: set[tuple[int, int]] = set()
        root_s = 0.0
        root_self_s = 0.0
        for t in self._threads:
            n = len(t.name)
            child = [0.0] * n
            for slot in range(n):
                parent = t.parent[slot]
                if parent >= 0:
                    child[parent] += t.end[slot] - t.start[slot]
            for slot in range(n):
                duration = t.end[slot] - t.start[slot]
                own = duration - child[slot]
                name_id = t.name[slot]
                if name_id == execute:
                    name_id = temp_build if slot in t.temp_slots else final
                name = self._names[name_id]
                calls[name] += 1
                self_s[name] += own
                counts[name] += t.counts.get(slot, 0)
                if t.parent[slot] < 0:
                    ops.add((t.thread_no, t.op[slot]))
                    root_s += duration
                    root_self_s += own
        return SpanSummary(
            calls=dict(calls),
            self_s=dict(self_s),
            counts=dict(counts),
            operations=len(ops),
            root_s=root_s,
            root_self_s=root_self_s,
        )

    def span_count(self) -> int:
        return sum(len(t.name) for t in self._threads)

    def write(self, path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        names = self._names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("thread\tspan\tname\tstart\tend\tparent\top\n")
            for t in self._threads:
                for slot in range(len(t.name)):
                    out.write(
                        f"{t.thread_no}\t{slot}\t{names[t.name[slot]]}\t"
                        f"{t.start[slot]:.7f}\t{t.end[slot]:.7f}\t"
                        f"{t.parent[slot]}\t{t.op[slot]}\n"
                    )


@dataclass
class SpanSummary:
    """Aggregated spans: calls, self seconds and attached counts by name."""

    calls: dict[str, int]
    self_s: dict[str, float]
    counts: dict[str, int]
    operations: int
    #: Total and self seconds of the operations' root spans.
    root_s: float
    root_self_s: float

    @property
    def coverage(self) -> float:
        """Share of operation wall time covered by layer self times."""
        if self.root_s <= 0:
            return 0.0
        return 1.0 - self.root_self_s / self.root_s

    def self_ms(self, name: str) -> float:
        return 1000.0 * self.self_s.get(name, 0.0)
