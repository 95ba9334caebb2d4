"""In-memory span tracer that wraps hsw's layer functions from outside.

Every wrapped call records one span (layer-qualified name, start, end, parent
span) in flat arrays; a generator function records one span per resumption,
so the work a driver does while the CLI iterates it lands in the driver's
layer.  Wrapping replaces the function object under every name that refers
to it in every loaded ``hsw`` module (``from .halg import harmonic`` copies
the reference, so patching only the defining module would miss callers).

Self time is a span's duration minus the time its direct children cover.
Spans are opened and closed on one stack, so they nest and the self times of
all spans add up to the total duration of the root spans by construction.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np


class Tracer:
    """Spans and counters for one process; read them with :meth:`summary`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.counters: dict[str, float] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def maximum(self, counter: str, value: float) -> None:
        if value > self.counters.get(counter, 0.0):
            self.counters[counter] = value

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped so every call (or resumption) is a span named ``name``.

        ``after(args, result)`` runs inside the span after each plain call; it
        lets a counter look at the arguments and the result.
        """
        nid = self._intern(name)
        calls = self.calls
        if inspect.isgeneratorfunction(fn):

            def resumed(gen):
                while True:
                    i = self._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    yield item

            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                return resumed(fn(*args, **kwargs))

            return gen_wrapper

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                self._close(i)

        return wrapper

    def counting(self, counter: str, fn):
        """``fn`` wrapped to bump ``counter`` per call, with no span (for hot paths)."""
        counters = self.counters
        counters.setdefault(counter, 0)

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _arrays(self) -> dict:
        n = len(self.start)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32, count=n),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n),
            "start": np.frombuffer(self.start, dtype=np.float64, count=n),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n),
        }

    def summary(self) -> dict:
        """Per-name call counts and self times, root-span total and root names."""
        a = self._arrays()
        parent, name_id = a["parent"], a["name_id"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parent[nested], dur[nested])
        per_name = np.bincount(name_id, weights=dur - covered, minlength=len(self.names))
        return {
            "spans": len(dur),
            "root_s": float(dur[~nested].sum()),
            "roots": sorted({self.names[i] for i in np.unique(name_id[~nested])}),
            "self_s": {name: float(per_name[i]) for i, name in enumerate(self.names)},
            "calls": dict(zip(self.names, self.calls)),
            "counters": dict(self.counters),
        }

    def save(self, path) -> None:
        """Write every span, the name table, call counts and counters to ``path`` (``.npz``)."""
        np.savez(
            path,
            names=np.array(self.names),
            calls=np.array(self.calls, dtype=np.int64),
            counter_names=np.array(list(self.counters)),
            counter_values=np.array(list(self.counters.values()), dtype=np.float64),
            **self._arrays(),
        )


def replace_everywhere(old, new, package: str = "hsw") -> int:
    """Point every module-level name bound to ``old`` in ``package`` at ``new``."""
    count = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                count += 1
    return count
