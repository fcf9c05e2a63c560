"""Span-based tracing against the simulated clock.

Real distributed tracers timestamp spans with the host clock, which makes
traces flaky by construction.  Sigmund's pipelines already measure every
duration against :class:`~repro.cluster.clock.SimClock` — so the tracer
does too, and a trace becomes a *deterministic artifact*: the same fleet,
seeds, and day produce the identical span tree, byte for byte
(``tests/test_obs_tracing.py`` asserts exactly that across fresh reruns).

Two ways to emit spans:

* :meth:`Tracer.span` — a context manager for coordinator-side phases;
  start/end are read from the simulated clock, nesting gives parentage.
* :meth:`Tracer.record_span` — explicit start/end for work whose timing
  was *simulated elsewhere* (a MapReduce map task's scheduling attempts,
  a job's reduce phase, a day block's lane times); the caller supplies
  the times.

:data:`NULL_TRACER` is the disabled mode, mirroring the null metrics
registry: entering a span costs one constant context-manager round trip.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.clock import SimClock


class Span:
    """One open span; closes via the tracer's context manager."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = start
        self.attrs: Dict[str, object] = {}

    def set(self, key: str, value: object) -> None:
        """Attach an attribute to the span (e.g. counts discovered inside)."""
        self.attrs[key] = value

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"[{self.start:.3f}, {self.end:.3f}])"
        )


class _SpanContext:
    """Context manager binding one span to the tracer's stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._finish(self.span)


class Tracer:
    """Collects spans timestamped by a simulated clock.

    Span ids are sequential in open order, parentage comes from the open
    stack — both functions of the program's control flow alone, so a
    trace is replayable: no wall clock, no thread ids, no randomness.
    """

    enabled = True

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock or SimClock()
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # Emitting spans
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> _SpanContext:
        """Open a child span of the innermost open span at ``clock.now``."""
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(self._next_id, parent, name, self.clock.now)
        self._next_id += 1
        record.attrs.update(attrs)
        self._stack.append(record)
        return _SpanContext(self, record)

    def _finish(self, span: Span) -> None:
        self._stack.pop()
        span.end = self.clock.now
        self.spans.append(span)

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        **attrs: object,
    ) -> Span:
        """Record a completed span with explicit simulated times.

        For work simulated off the coordinator timeline (MapReduce task
        attempts live on a job-relative clock); parented under the
        innermost open span so the tree still reads top-down.
        """
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(self._next_id, parent, name, float(start))
        self._next_id += 1
        record.end = float(end)
        record.attrs.update(attrs)
        self.spans.append(record)
        return record

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def find(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def children_of(self, span_id: Optional[int]) -> List[Span]:
        return [span for span in self.spans if span.parent_id == span_id]

    def span_tree(self) -> List[Tuple[int, Span]]:
        """Depth-first (depth, span) pairs from the roots, by span id."""
        by_parent: Dict[Optional[int], List[Span]] = {}
        for span in sorted(self.spans, key=lambda s: s.span_id):
            by_parent.setdefault(span.parent_id, []).append(span)
        tree: List[Tuple[int, Span]] = []

        def walk(parent: Optional[int], depth: int) -> None:
            for span in by_parent.get(parent, []):
                tree.append((depth, span))
                walk(span.span_id, depth + 1)

        walk(None, 0)
        return tree

    def to_dict(self) -> List[Dict[str, object]]:
        """The full trace as plain data, ordered by span id."""
        return [
            span.to_dict()
            for span in sorted(self.spans, key=lambda s: s.span_id)
        ]


class _NullSpanContext:
    """Reusable no-op context manager; yields a shared inert span handle."""

    __slots__ = ("_span",)

    def __init__(self, span: "_NullSpan") -> None:
        self._span = span

    def __enter__(self) -> "_NullSpan":
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class _NullSpan:
    __slots__ = ()

    def set(self, key: str, value: object) -> None:
        pass


class NullTracer:
    """The disabled tracer: one shared context manager, nothing recorded."""

    enabled = False
    clock = None

    def __init__(self) -> None:
        self._context = _NullSpanContext(_NullSpan())
        self.spans: List[Span] = []

    def span(self, name: str, **attrs: object) -> _NullSpanContext:
        return self._context

    def record_span(
        self, name: str, start: float, end: float, **attrs: object
    ) -> None:
        return None


#: Shared disabled tracer — the default of every ``tracer`` parameter.
NULL_TRACER = NullTracer()
