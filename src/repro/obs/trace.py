"""Deterministic trace contexts: nested spans with attributes.

A :class:`Tracer` maintains a stack of live :class:`Span` objects; each
``with tracer.span(...)`` call opens a child of the current span (or a new
root, which starts a new trace).  Everything is deterministic by
construction — span and trace ids come from per-tracer counters, and
timestamps come from an injected ``clock`` callable that defaults to a
monotonic *step counter*, never the wall clock — so two runs of the same
seeded scenario export byte-identical traces.  The fleet scheduler binds
the clock to its virtual event-loop time (:meth:`Tracer.bind_clock`), which
keeps fleet traces deterministic too.

The no-op path is :data:`NULL_TRACER`: a shared singleton whose ``span``
call returns one reusable null span and allocates nothing, so
instrumentation left at its default costs a single attribute lookup and a
no-op context manager per call site.
"""

from __future__ import annotations

from typing import Callable, Iterator

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One timed operation in a trace tree.

    Spans are context managers handed out by :meth:`Tracer.span`; entering
    is done by the tracer, exiting closes the span and pops it off the
    tracer's stack.  An exception escaping the body marks the span's
    ``status`` as ``"error"`` and records the exception type, then
    propagates — tracing never swallows failures.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_time",
                 "end_time", "status", "attributes", "children", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 span_id: int, parent_id: int | None,
                 start_time: float, attributes: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_time = start_time
        self.end_time: float | None = None
        self.status = "ok"
        self.attributes = attributes
        self.children: list[Span] = []

    # ------------------------------------------------------------- recording
    def set_attribute(self, key: str, value) -> None:
        """Attach one attribute (overwrites an existing key)."""
        self.attributes[key] = value

    # ------------------------------------------------------ context protocol
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error.type", exc_type.__name__)
        self._tracer._end(self)
        return False  # never suppress

    # --------------------------------------------------------------- queries
    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, in document order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (including self) with the given name."""
        return [span for span in self.walk() if span.name == name]

    def to_dict(self) -> dict:
        """JSON-ready nested form with deterministically ordered keys."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "status": self.status,
            "attributes": {k: self.attributes[k]
                           for k in sorted(self.attributes)},
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"trace={self.trace_id!r})")


class Tracer:
    """Builds deterministic trace trees out of nested ``span()`` calls.

    ``clock`` is any zero-argument callable returning a number.  When left
    ``None`` the tracer uses an internal step counter (0, 1, 2, ...), which
    makes unit traces deterministic without any notion of time; the fleet
    scheduler rebinds it to its virtual clock via :meth:`bind_clock`.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock
        self._steps = 0
        self._next_span_id = 1
        self._next_trace = 1
        self._stack: list[Span] = []
        #: Finished-or-live root spans, in start order.
        self.spans: list[Span] = []

    # ----------------------------------------------------------------- clock
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Adopt an external clock (e.g. the fleet's virtual event time)."""
        self._clock = clock

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        tick = self._steps
        self._steps += 1
        return tick

    # ----------------------------------------------------------------- spans
    def span(self, name: str, **attributes) -> Span:
        """Open a span as a child of the current one (or a new root)."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            trace_id = f"t{self._next_trace:04d}"
            self._next_trace += 1
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(self, name, trace_id, self._next_span_id, parent_id,
                    self._now(), attributes)
        self._next_span_id += 1
        if parent is None:
            self.spans.append(span)
        else:
            parent.children.append(span)
        self._stack.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.end_time = self._now()
        # Exceptions can unwind several spans at once; pop through to the
        # one actually exiting so the stack never leaks.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            if top.end_time is None:
                top.end_time = span.end_time
                top.status = "error"

    @property
    def current_trace_id(self) -> str | None:
        """Trace id of the innermost open span, or None outside any trace."""
        return self._stack[-1].trace_id if self._stack else None

    def find(self, name: str) -> list[Span]:
        """All spans with the given name across every recorded trace."""
        return [span for root in self.spans for span in root.walk()
                if span.name == name]


class _NullSpan:
    """Reusable do-nothing span for the disabled path."""

    __slots__ = ()

    name = ""
    trace_id = None
    span_id = 0
    parent_id = None
    status = "ok"

    def set_attribute(self, key: str, value) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Shared no-op tracer: every operation is constant-time and
    allocation-free, so default-off instrumentation stays off the profile."""

    enabled = False
    spans: tuple = ()
    current_trace_id = None

    def bind_clock(self, clock: Callable[[], float]) -> None:
        return None

    def span(self, name: str, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def find(self, name: str) -> list:
        return []


#: The process-wide no-op tracer used wherever instrumentation is not
#: injected.  Stateless, so sharing one instance everywhere is safe.
NULL_TRACER = NullTracer()
