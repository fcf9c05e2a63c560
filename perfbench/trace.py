"""Run-time tracing of the layers' public callables, from outside ``src/``.

The traced run replaces class and module attributes by timing wrappers
and restores them afterwards.  Two kinds of wrapper:

* **span** — records ``[name, start, end, parent]`` in memory, with a
  stack for parentage.  For calls made up to a few thousand times.
* **hot** — for calls made once per SGD step or per request.  Nothing is
  recorded per call; count and *self* time are summed per name on the
  innermost open span, and normalised with that span's own factor.

A layer's self time is its span minus the part its child spans and the
hot calls directly under it cover, so the rows partition the phase.
Spans inside the program (``repro.obs`` dual-clock tracing) are a later
ROADMAP item, to be checked against these numbers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from perfbench.normalise import SpeedSeries

# Span record layout (a list, for speed): name, start_ns, end_ns, parent
# index (-1 root, DETACHED under a hot call), raw ns of the hot calls
# directly under it, {hot name: [calls, self_ns]}.
NAME, START, END, PARENT, HOT_NS, HOT = range(6)
DETACHED = -2

CountFn = Callable[[tuple, object], Dict[str, float]]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._now = clock
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._hot_stack: List[List[int]] = []
        self.counters: Dict[str, float] = {}

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if self._hot_stack:
            # Opened from inside a hot call, whose own time already covers
            # it towards the enclosing span.  The marker frame collects
            # what runs below, so nothing is charged to the hot call twice.
            parent = DETACHED
            self._hot_stack.append([0])
        index = len(self.spans)
        self.spans.append([name, self._now(), 0, parent, 0, {}])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = self._now()
        self._stack.pop()
        if span[PARENT] == DETACHED:
            span[HOT_NS] += self._hot_stack.pop()[0]
            self._hot_stack[-1][0] += span[END] - span[START]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the harness itself (phases, request chunks)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap_span(
        self, name: str, fn: Callable, count: Optional[CountFn] = None
    ) -> Callable:
        """Span around every call of ``fn``.

        ``count(args, result)`` may return ``{counter: increment}`` read
        off the call's arguments or result, so that counts are taken at
        the boundary where the work happens.
        """
        open_, close, counters = self._open, self._close, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if count is not None:
                for counter, increment in count(args, result).items():
                    counters[counter] = counters.get(counter, 0) + increment
            return result

        return traced

    def wrap_hot(self, name: str, fn: Callable) -> Callable:
        now, hot_stack, stack, spans = self._now, self._hot_stack, self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]  # ns spent in hot calls and spans below this one
            hot_stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                hot_stack.pop()
                span = spans[stack[-1]]
                if hot_stack:
                    hot_stack[-1][0] += elapsed
                else:
                    span[HOT_NS] += elapsed
                totals = span[HOT].get(name)
                if totals is None:
                    span[HOT][name] = [1, elapsed - frame[0]]
                else:
                    totals[0] += 1
                    totals[1] += elapsed - frame[0]

        return traced

    # -- analysis -------------------------------------------------------
    def layer_table(
        self, series: SpeedSeries, within: Optional[str] = None
    ) -> Dict[str, Dict[str, float]]:
        """Per name: ``calls``, normalised ``self_ns`` and ``total_ns``.

        ``within`` keeps only what ran during the root spans of that name
        (a phase; set-up has two), those spans included.  ``total_ns`` of a
        hot name is its self time (nesting among hot calls is not kept).
        """
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_ns": 0.0, "total_ns": 0.0}
        )
        if not self.spans:
            return {}
        windows = [(float("-inf"), float("inf"))]
        if within is not None:
            windows = [
                (s[START], s[END]) for s in self.spans if s[NAME] == within and s[PARENT] == -1
            ]
        starts = np.array([s[START] for s in self.spans], dtype=np.float64)
        ends = np.array([s[END] for s in self.spans], dtype=np.float64)
        norm = series.normalised_ns(starts, ends)
        raw = ends - starts
        ratio = np.divide(norm, raw, out=np.ones_like(norm), where=raw > 0)
        child = np.zeros_like(norm)
        for index, span in enumerate(self.spans):
            if span[PARENT] >= 0:
                child[span[PARENT]] += norm[index]
        for index, span in enumerate(self.spans):
            if not any(lo <= span[START] < hi for lo, hi in windows):
                continue
            row = table[span[NAME]]
            row["calls"] += 1
            row["total_ns"] += norm[index]
            row["self_ns"] += norm[index] - child[index] - span[HOT_NS] * ratio[index]
            for name, (calls, self_ns) in span[HOT].items():
                hot_row = table[name]
                hot_row["calls"] += calls
                hot_row["self_ns"] += self_ns * ratio[index]
                hot_row["total_ns"] += self_ns * ratio[index]
        return dict(table)

    def dump(self) -> List[dict]:
        """The raw spans, for writing out when the benchmark ends."""
        return [
            {
                "name": s[NAME],
                "start_ns": s[START],
                "end_ns": s[END],
                "parent": s[PARENT],
                "hot": {name: list(totals) for name, totals in s[HOT].items()},
            }
            for s in self.spans
        ]


class Patcher:
    """Replaces attributes by wrappers and puts the originals back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Wrap ``cls.attr`` as defined on ``cls`` itself (not inherited)."""
        raw = vars(cls)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        _refuse_generator(fn)
        self._set(cls, attr, kind(wrap(fn)) if kind else wrap(fn))

    def function(self, fn: Callable, wrap: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function in every ``repro`` module naming it.

        ``from x import f`` copies the reference, so the defining module
        alone is not enough.
        """
        _refuse_generator(fn)
        wrapped = wrap(fn)
        found = False
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)
                    found = True
        if not found:
            raise LookupError(f"{fn.__qualname__} is not bound in any repro module")

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


def _refuse_generator(fn: Callable) -> None:
    # Calling a generator function returns before the work is done, so a
    # wrapper around it would time nothing.
    if inspect.isgeneratorfunction(fn):
        raise TypeError(f"{fn.__qualname__} is a generator function; trace its consumer")
