"""Spans, self times and percentiles.

A span is one call the benchmark makes into a public ualg function, or
one whole op.  Spans are kept in memory as columns, so a traced run of a
few hundred thousand calls stays small, and are summarised when the run
ends.
"""

from __future__ import annotations

import math
from array import array
from time import perf_counter

RAISED, RECURSION, FAILS = 1, 2, 4  # span flags


def percentile(latencies, q: float) -> float:
    """Nearest-rank percentile; a failed op is recorded as +inf, so it
    counts as missing any latency limit."""
    xs = sorted(latencies)
    if not xs:
        return math.inf
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    ``spans`` is a sequence of (start, end, parent) with parent an index
    into ``spans`` or -1; overlapping children are merged, and children
    are clipped to their parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def note(self, fn) -> None:
        pass

    def begin_op(self) -> None:
        pass

    def end_op(self, flags: int = 0) -> None:
        pass


class Tracer(NullTracer):
    """Records a span per call with its name, start, end, parent op span,
    a work count ``n`` and flags."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.n = array("q")
        self.flags = array("B")
        self.phase = array("B")
        self.phases: list[str] = []
        self._op = -1
        self._index: dict[tuple[str, str], list[int]] = {}
        self._indexed = -1

    def set_phase(self, phase: str) -> None:
        self.phases.append(phase)

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(self._op)
        self.n.append(1)
        self.flags.append(0)
        self.phase.append(len(self.phases) - 1)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return len(self.start) - 1

    def call(self, name, fn, *args):
        i = self._open(name)
        try:
            return fn(*args)
        except RecursionError:
            self.flags[i] |= RAISED | RECURSION
            raise
        except BaseException:
            self.flags[i] |= RAISED
            raise
        finally:
            self.end[i] = perf_counter()

    def note(self, fn) -> None:
        """Set the work count and flags of the last span from ``fn()``,
        which returns (n, flags)."""
        n, flags = fn()
        self.n[-1] = n
        self.flags[-1] |= flags

    def begin_op(self) -> None:
        """Open the span of one op; calls until ``end_op`` are its children."""
        self._op = -1
        self._op = self._open("op")

    def end_op(self, flags: int = 0) -> None:
        self.end[self._op] = perf_counter()
        self.flags[self._op] |= flags
        self._op = -1

    def select(self, name: str, phase: str) -> list[int]:
        """Indices of the spans with this name recorded in this phase."""
        if self._indexed != len(self.name):
            self._index = {}
            for i, (nid, ph) in enumerate(zip(self.name, self.phase)):
                self._index.setdefault((self.names[nid], self.phases[ph]), []).append(i)
            self._indexed = len(self.name)
        return self._index.get((name, phase), [])

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total and self time in ms."""
        selfs = self_times(list(zip(self.start, self.end, self.parent)))
        out: dict[str, dict] = {}
        for i, nid in enumerate(self.name):
            row = out.setdefault(self.names[nid], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (self.end[i] - self.start[i]) * 1e3
            row["self_ms"] += selfs[i] * 1e3
        return {k: {"count": v["count"], "total_ms": round(v["total_ms"], 3), "self_ms": round(v["self_ms"], 3)}
                for k, v in sorted(out.items())}
