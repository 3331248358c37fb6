"""Spans and counts around zenokit's public functions, recorded from outside.

Each wrapped function is replaced at every module attribute that holds
it, including names other modules imported directly (cli's and
analysis's `family_eta`, evolution's `realize`), so calls between modules
are seen too. A span is (name, start, end, parent); spans live in flat
arrays in memory until the benchmark writes them out.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Recorder:
    """Collects spans and counts for one pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def open(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name, the summed duration minus the time of child spans."""
        start, end = np.frombuffer(self.start), np.frombuffer(self.end)
        parent, name = np.frombuffer(self.parent, np.int32), np.frombuffer(self.name, np.int32)
        duration = end - start
        own = duration.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], duration[child])
        totals = np.bincount(name, weights=own, minlength=len(self.names))
        return dict(zip(self.names, totals.tolist()))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (nid, s, e, p) in enumerate(zip(self.name, self.start, self.end, self.parent)):
                fh.write(f"{i}\t{self.names[nid]}\t{s!r}\t{e!r}\t{p}\n")


def _layers():
    """(module, attribute, span namer, counter or None) for every traced function."""
    from zenokit import analysis, evolution, schedules

    crossover = analysis.CLOSED_FORM_CROSSOVER

    def fixed(name):
        return lambda args, kwargs: name

    def zeno_path(args, kwargs):
        eta = _arg(args, kwargs, 0, "eta")
        return "zeno_sum.direct" if 1.0 - eta < crossover else "zeno_sum.closed"

    def count_steps(c, args, kwargs):
        c["propagate_projected.calls"] += 1
        c["propagate_projected.steps"] += _arg(args, kwargs, 2, "n")

    def count_words(c, args, kwargs):
        c["enumerate_branches.words"] += 2 ** _arg(args, kwargs, 2, "n")

    def count_zeno(c, args, kwargs):
        path = zeno_path(args, kwargs)
        c[path + ".calls"] += 1
        if path == "zeno_sum.direct":
            c["zeno_sum.direct.terms"] += _arg(args, kwargs, 1, "n") - 1

    def count_partial(c, args, kwargs):
        c["second_order_partial.calls"] += 1

    return [
        (schedules, "realize", fixed("realize"), None),
        (schedules, "family_eta", fixed("family_eta"), None),
        (evolution, "propagate_projected", fixed("propagate_projected"), count_steps),
        (evolution, "enumerate_branches", fixed("enumerate_branches"), count_words),
        (analysis, "zeno_sum", zeno_path, count_zeno),
        (analysis, "criterion_value", fixed("criterion_value"), None),
        (analysis, "second_order_partial", fixed("second_order_partial"), count_partial),
        (analysis, "numeric_limit_probe", fixed("numeric_limit_probe"), None),
    ]


def _wrap(fn, tracer, namer, counter):
    def wrapper(*args, **kwargs):
        rec = tracer.recorder
        if counter:
            counter(rec.counts, args, kwargs)
        idx = rec.open(namer(args, kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    wrapper.__wrapped__ = fn
    return wrapper


class Tracer:
    """Wraps the traced functions; `installed` routes their spans to a recorder."""

    def __init__(self):
        import zenokit
        import zenokit.cli

        self.recorder: Recorder | None = None
        wrappers = {}
        for module, attr, namer, counter in _layers():
            fn = getattr(module, attr)
            wrappers[fn] = _wrap(fn, self, namer, counter)
        modules = (zenokit, zenokit.cli, zenokit.analysis, zenokit.evolution,
                   zenokit.schedules)
        self._patches = [
            (module, attr, value, wrappers[value])
            for module in modules
            for attr, value in vars(module).items()
            if callable(value) and value in wrappers
        ]

    @contextmanager
    def installed(self, recorder: Recorder):
        self.recorder = recorder
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
