"""Spans around the program's layers, installed from outside.

A hook names a layer (``dbm.intersect``) and the places where the
search looks the function up at call time (``zonereach.dbm:Dbm.intersect``,
``zonereach.cli:explore``, ...).  Installing replaces each of those
attributes with a wrapper that records a span; removing puts the
originals back.  Hooks are resolved by name, so a function that the
program renames or deletes turns into a missing metric, not a crash.

Every span records its layer, its parent span, and its start and end
on ``time.perf_counter``.  Spans stay in flat arrays in memory while the
workload runs and are summarised (and optionally written out) only
when it ends.  A span's self time is its duration minus the durations
of its direct children, so self times over all spans add up to the
durations of the root spans, with nothing counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

# (layer, call sites); a call site is "module:attribute" or
# "module:Class.attribute".  ``bounds`` is deliberately absent: ``dbm``
# inlines its arithmetic, so wrapping ``bounds.add`` would only slow
# ``formula``.  ``simulate`` is the reference, not a timed layer.
HOOKS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("cli.main", ("zonereach.cli:main",)),
    ("parser.parse_spec", ("zonereach.parser:parse_spec", "zonereach.cli:parse_spec")),
    ("parser.parse_query", ("zonereach.parser:parse_query", "zonereach.cli:parse_query")),
    ("model.max_constants", ("zonereach.explorer:max_constants",)),
    ("explorer.explore", ("zonereach.explorer:explore", "zonereach.cli:explore")),
    ("explorer.successors", ("zonereach.explorer:successors",)),
    ("explorer.is_goal", ("zonereach.explorer:is_goal",)),
    ("dbm.from_constraint", ("zonereach.dbm:Dbm.from_constraint",)),
    ("dbm.intersect", ("zonereach.dbm:Dbm.intersect",)),
    ("dbm.reset", ("zonereach.dbm:Dbm.reset",)),
    ("dbm.elapse", ("zonereach.dbm:Dbm.elapse",)),
    ("dbm.extrapolate", ("zonereach.dbm:Dbm.extrapolate",)),
    ("dbm.includes", ("zonereach.dbm:Dbm.includes",)),
    ("dbm.close", ("zonereach.dbm:_close",)),
    ("formula.from_constraint", ("zonereach.formula:Formula.from_constraint",)),
    ("formula.fm_intersect", ("zonereach.formula:fm_intersect",)),
    ("formula.fm_reset", ("zonereach.formula:fm_reset",)),
    ("formula.fm_elapse", ("zonereach.formula:fm_elapse",)),
    ("formula.fm_is_empty", ("zonereach.formula:fm_is_empty",)),
    ("formula.fm_extrapolate", ("zonereach.formula:fm_extrapolate",)),
    ("formula.closed_cells", ("zonereach.formula:_closed_cells",)),
)


def _result_counters(tracer: "Tracer") -> dict[str, Callable]:
    """Per-layer inspections of return values, for the useful-work ratios."""
    count = tracer.counts

    def explored(result):
        count["explorer.explore.stored"] += result.stats.stored

    def intersected(zone):
        if zone.cells is None:
            count["dbm.intersect.empty"] += 1

    def included(hit):
        if hit:
            count["dbm.includes.hits"] += 1

    return {"explorer.explore": explored, "dbm.intersect": intersected, "dbm.includes": included}


class Tracer:
    """Collects spans from installed hooks; see the module docstring."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.layer: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def layer_id(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def open(self, layer: int) -> int:
        sid = len(self.start)
        self.layer.append(layer)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, self.layer_id(name))

    # -- hooks -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable]) -> Callable:
        layer = self.layer_id(name)
        open_, close = self.open, self.close
        if inspect.isgeneratorfunction(fn):
            count = self.counts

            def generator(*args, **kwargs):
                # One span per resume, so the consumer's work between
                # items stays with the consumer.
                count[name + ".calls"] += 1
                items = fn(*args, **kwargs)
                while True:
                    sid = open_(layer)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        close(sid)
                    count[name + ".yielded"] += 1
                    yield item

            return generator

        def wrapper(*args, **kwargs):
            sid = open_(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self, hooks=HOOKS) -> None:
        """Wrap every call site that resolves; record the rest as missing."""
        inspectors = _result_counters(self)
        for name, sites in hooks:
            found = False
            for site in sites:
                module_name, _, attr_path = site.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    *outer, attr = attr_path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = inspect.getattr_static(owner, attr)
                except (ImportError, AttributeError):
                    continue
                found = True
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(name, original.__func__, inspectors.get(name)))
                else:
                    wrapped = self.wrap(name, original, inspectors.get(name))
                setattr(owner, attr, wrapped)
                self.installed.append((owner, attr, original))
            if found:
                self.layer_id(name)
            else:
                self.missing.append(name)

    def remove(self) -> None:
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: spans, total seconds and self seconds."""
        n = len(self.start)
        if self.stack != [-1]:
            raise RuntimeError("summary taken while spans are still open")
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        table = {name: {"spans": 0, "s": 0.0, "self_s": 0.0} for name in self.layers}
        for i in range(n):
            row = table[self.layers[self.layer[i]]]
            d = end[i] - start[i]
            row["spans"] += 1
            row["s"] += d
            row["self_s"] += d - child[i]
        return table

    def root_seconds(self) -> float:
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0
        )

    def write(self, path: Path) -> None:
        """Spans as ``<path>.json`` (layer names, count) plus
        ``<path>.bin``: the layer, parent, start and end arrays in that
        order, native byte order, ``count`` items each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {"layers": self.layers, "count": len(self.start),
                "arrays": ["layer:i", "parent:i", "start:d", "end:d"]}
        path.with_suffix(".json").write_text(json.dumps(meta) + "\n")
        with open(path.with_suffix(".bin"), "wb") as out:
            for arr in (self.layer, self.parent, self.start, self.end):
                arr.tofile(out)


class _Span:
    def __init__(self, tracer: Tracer, layer: int):
        self.tracer, self.layer = tracer, layer

    def __enter__(self):
        self.sid = self.tracer.open(self.layer)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False
