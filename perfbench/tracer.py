"""Span tracing from outside the program, for the per-layer split.

`Tracer.install` wraps every public function of the traced ordcore modules
and rebinds the wrapper at every module attribute that holds the original,
so calls reached by name (`cores.decide_retraction`), through a module
global (`retraction.encode`, `twosat.solve`) or through the kernel
dispatcher (`_kernels.find_hom`) are all seen.  Spans are kept in memory
and written out at the end; spans are recorded only inside an instance
span opened by the benchmark, so its own checks never count.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Any, Callable, Iterator

from ordcore.retraction import EarlyUnsat

TRACED_MODULES = (
    "cli", "formats", "graphs", "twosat", "retraction", "cores",
    "matchings", "hypergraphs", "gadgets", "_kernels",
)


def layer_name(module: str) -> str:
    short = module.removeprefix("ordcore.")
    return "kernels" if short == "_kernels" else short


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span: [name id, parent span index, start ns, end ns, instance id]
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.instance = -1
        self._undo: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            idx = len(spans)
            span = [nid, parent, clock(), 0, self.instance]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counts, args, result, self.names[spans[parent][0]])
            return result

        return wrapper

    def install(self) -> None:
        wrappers: dict[Callable, Callable] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module("ordcore." + short)
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer_name(mod.__name__)}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "ordcore" and not modname.startswith("ordcore."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    @contextlib.contextmanager
    def instance_span(self, label: str, instance: int) -> Iterator[None]:
        """The root span of one timed instance; spans are recorded only inside one."""
        self.instance = instance
        span = [self._name_id(label), -1, time.perf_counter_ns(), 0, instance]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter_ns()
            self.stack.pop()

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns and self ns, summed over all spans."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child[span[1]] += span[3] - span[2]
        table: dict[str, dict[str, float]] = {}
        for span, kids in zip(self.spans, child):
            row = table.setdefault(self.names[span[0]], {"calls": 0, "incl_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["incl_ns"] += span[3] - span[2]
            row["self_ns"] += span[3] - span[2] - kids
        return table

    def dump(self) -> dict[str, Any]:
        """Spans as rows, times in ns from the first span's start."""
        t0 = self.spans[0][2] if self.spans else 0
        return {
            "names": self.names,
            "columns": ["name", "parent", "start_ns", "end_ns", "instance"],
            "spans": [[n, p, start - t0, end - t0, i] for n, p, start, end, i in self.spans],
        }


# Counters taken at the layer boundaries: (counts, args, result, parent span name).

def _parse_graph(c, args, res, parent):
    c["formats.parse_graph.bytes"] += len(args[0])


def _encode(c, args, res, parent):
    if isinstance(res, EarlyUnsat):
        c["retraction.early_unsat"] += 1
    else:
        c["retraction.clauses_emitted"] += len(res.instance.clauses)


def _solve(c, args, res, parent):
    c["twosat.sat"] += res is not None
    c["twosat.vars"] += args[0].var_count
    c["twosat.clauses"] += len(args[0].clauses)


def _decide_retraction(c, args, res, parent):
    if parent.startswith("cores."):
        c["cores.retraction_tests"] += 1
        c["cores.hits"] += res is not None


def _found(c, args, res, parent):
    c["kernels.found"] += res is not None


OBSERVERS: dict[str, Callable] = {
    "formats.parse_graph": _parse_graph,
    "retraction.encode": _encode,
    "twosat.solve": _solve,
    "retraction.decide_retraction": _decide_retraction,
    "kernels.find_hom": _found,
    "kernels.find_hyperhom": _found,
}
