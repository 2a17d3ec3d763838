"""In-memory spans around calls into partlab's public functions.

Spans are recorded by the benchmark, not by partlab: `install` replaces a
function by a wrapper in the namespace of each module that calls it, so
nothing under src/ changes.  A span is (id, parent id, name, start, end,
busy seconds).  For a generator, busy counts only the time spent inside
the generator, not the consumer's work between items.  All spans of one
run share the run id and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import time
from collections import defaultdict

LAYERS = ("partitions", "prefixes", "counting", "witness", "tree", "e1", "reports", "cli")

# Predicates called once per (s, t) pair, millions of times per campaign.  A
# wrapper would multiply their cost; their time counts as their caller's self
# time, and the rgs_leq probe of the traced run measures them alone.
HOT = {"rgs_leq", "rgs_is_valid", "relabel_canonical", "rgs_meet", "is_coarsening"}

# Public functions called from inside their own module, wrapped there as well.
INTERNAL = {"witness": ("witness_is_valid", "find_witness"), "tree": ("find_section_witness",)}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[str] = []
        # ids stay unique when spans of several processes are merged
        self._ids = (f"{os.getpid()}.{n}" for n in itertools.count(1))

    def _parent(self):
        return self._stack[-1] if self._stack else None

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = next(self._ids), self._parent()
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, end - start))

        return traced

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = next(self._ids), self._parent()
            start = time.perf_counter()
            busy = 0.0
            inner = fn(*args, **kwargs)
            try:
                while True:
                    self._stack.append(sid)
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += time.perf_counter() - t0
                        self._stack.pop()
                    yield item
            finally:
                self.spans.append((sid, parent, name, start, time.perf_counter(), busy))

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn under a span of the given name and return its result."""
        return self.wrap(name, fn)(*args, **kwargs)


def install(tracer: Tracer) -> None:
    """Wrap every public partlab function where another module calls it."""
    modules = {name: importlib.import_module(f"partlab.{name}") for name in LAYERS}
    for name, module in modules.items():
        for attr, obj in list(vars(module).items()):
            owner = getattr(obj, "__module__", "") or ""
            if (
                attr.startswith("_")
                or attr in HOT
                or isinstance(obj, type)
                or not callable(obj)
                or not owner.startswith("partlab.")
                or owner == module.__name__
            ):
                continue
            setattr(module, attr, tracer.wrap(f"{owner.split('.')[-1]}.{attr}", obj))
        for attr in INTERNAL.get(name, ()):
            setattr(module, attr, tracer.wrap(f"{name}.{attr}", getattr(module, attr)))
    report_cls = modules["reports"].WitnessReport
    report_cls.to_json_dict = tracer.wrap("reports.to_json_dict", report_cls.to_json_dict)
    modules["cli"].main = tracer.wrap("cli.main", modules["cli"].main)


def self_times(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds, and self seconds (busy minus child spans)."""
    child_busy: dict = defaultdict(float)
    for _, parent, _, _, _, busy in spans:
        if parent is not None:
            child_busy[parent] += busy
    out: dict[str, dict[str, float]] = {}
    for sid, _, name, _, _, busy in spans:
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += busy
        row["self_s"] += busy - child_busy[sid]
    return out
