"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces every public function of the bivarseq layer
modules with a timing wrapper, in every ``bivarseq.*`` namespace that binds
it.  Calls between layers go through module globals, so they are wrapped
too.  Each wrapper records one span (name, start, end, parent, units) in
flat in-memory arrays; self time is a span's duration minus the durations of
its direct children.  Nothing under ``src/`` is modified on disk.

Generators are timed while they are consumed: every ``next`` is its own
span, charged to the generator and not to the caller that pulls from it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("special_functions", "params", "design", "exact_engine",
          "asymptotic_engine", "simulator", "inference", "cli_monitor")


def _bvn_points(args, kwargs, result):
    import numpy as np
    h = kwargs.get("h", args[0] if args else 0.0)
    k = kwargs.get("k", args[1] if len(args) > 1 else 0.0)
    return int(np.broadcast(np.asarray(h), np.asarray(k)).size)


# Work units per call, for the layers whose cost is quoted per unit.
_UNITS = {
    "special_functions.bvn_cdf": _bvn_points,
    "simulator.run_test": lambda args, kwargs, result: result.m_star,
    "simulator.monte_carlo": lambda args, kwargs, result: result.reps,
    "cli_monitor.monitor_step": lambda args, kwargs, result: 1,
}


class Tracer:
    """Span recorder for one process; single-threaded callers only."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.units = array("q")
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.units.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, units: int) -> None:
        self.end[idx] = time.perf_counter()
        self.units[idx] = units
        self._stack.pop()

    def _name(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
            self.calls[label] = 0
        return self._ids[label]

    def _wrap(self, label: str, fn):
        name_id = self._name(label)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[label] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name_id)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._close(idx, 0)
                        return
                    except BaseException:
                        tracer._close(idx, 0)
                        raise
                    tracer._close(idx, 1)
                    yield item
            return gen_wrapper

        units_of = _UNITS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[label] += 1
            idx = tracer._open(name_id)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(idx, units_of(args, kwargs, result)
                              if units_of is not None and result is not None else 0)
        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module, in every
        loaded ``bivarseq`` namespace that binds them."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"bivarseq.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bivarseq"
                                   or mod_name.startswith("bivarseq.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per function: calls, spans, total and self seconds, work units."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {label: {"calls": self.calls[label], "spans": 0, "total_s": 0.0,
                       "self_s": 0.0, "units": 0} for label in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            row["spans"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
            row["units"] += self.units[i]
        return out

    def to_doc(self) -> dict:
        return {"names": self.names, "name_id": list(self.name_id),
                "start": list(self.start), "end": list(self.end),
                "parent": list(self.parent), "units": list(self.units),
                "calls": self.calls}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_doc(), fh)

    def merge(self, doc: dict) -> None:
        """Append spans recorded by another process (parents re-based)."""
        base = len(self.start)
        ids = [self._name(label) for label in doc["names"]]
        for nid, s, e, p, u in zip(doc["name_id"], doc["start"], doc["end"],
                                   doc["parent"], doc["units"]):
            self.name_id.append(ids[nid])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(p + base if p >= 0 else -1)
            self.units.append(u)
        for label, count in doc["calls"].items():
            self.calls[label] += count
