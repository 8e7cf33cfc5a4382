"""The :class:`Observer` facade every instrumented layer talks to.

One object bundles the three observability primitives:

* a :class:`~repro.obs.metrics.MetricsRegistry` for counters, gauges
  and histograms;
* a :class:`~repro.obs.trace.TraceSink` receiving typed
  :class:`~repro.obs.trace.TraceEvent` records;
* wall-clock :meth:`Observer.timer` profiling hooks that feed the same
  registry.

Instrumented code holds an ``Observer`` (never ``None`` -- use
:func:`ensure_observer`) and guards every non-trivial emission with
``if observer.enabled:`` so the disabled path costs a single attribute
check.  :data:`NULL_OBSERVER` is the shared disabled instance; all
constructors default to it, which keeps every existing run and test
byte-identical when observability is off.

The time source is injectable: production traces use
``time.perf_counter``, while deterministic tests (and the seeded lossy
transport determinism guarantee) pass a manual clock or a constant so
that the same seed yields the same byte-identical trace.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_SCOPE, Span, SpanContext, SpanTracer
from repro.obs.trace import NULL_SINK, RingBufferSink, TraceEvent, TraceSink

__all__ = ["NULL_OBSERVER", "Observer", "ensure_observer"]


class _TimerContext:
    """Context manager timing a block into a histogram."""

    __slots__ = ("_observer", "_name", "_start", "elapsed")

    def __init__(self, observer: "Observer", name: str) -> None:
        self._observer = observer
        self._name = name
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self._start
        self._observer.observe(self._name, self.elapsed)


class _NullTimerContext:
    """Shared no-op timer; reentrant, allocation free on use."""

    __slots__ = ()
    elapsed = 0.0

    def __enter__(self) -> "_NullTimerContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_TIMER = _NullTimerContext()


class Observer:
    """Live observer: registry + trace sink + profiling timers.

    Parameters
    ----------
    registry:
        Metrics registry; a fresh enabled one by default.
    sink:
        Trace sink; an in-memory :class:`RingBufferSink` by default so
        a bare ``Observer()`` is immediately useful in tests.
    time_source:
        Zero-argument callable stamping trace events.  Defaults to
        ``time.perf_counter``; pass a manual clock's ``lambda:
        clock.now`` (or a constant) for deterministic traces.
    span_origin:
        Id-space prefix for span ids (see
        :class:`~repro.obs.spans.SpanTracer`).  Give each process of a
        multi-process run a distinct origin so span ids never collide
        inside one trace; in-process runs can leave the default.
    """

    enabled: bool = True

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        sink: TraceSink | None = None,
        time_source: Callable[[], float] | None = None,
        span_origin: int = 0,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sink = sink if sink is not None else RingBufferSink()
        self._time = time_source if time_source is not None else time.perf_counter
        self._seq = 0
        self.tracer = SpanTracer(
            emit=self._emit_span, time_source=self._time, origin=span_origin
        )

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def event(self, type_: str, **fields: object) -> None:
        """Emit one typed trace event to the sink."""
        self._seq += 1
        self.sink.write(
            TraceEvent(seq=self._seq, time=self._time(), type=type_, fields=fields)
        )

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: object):
        """Open one causal span: ``with observer.span("site.chunk_test"): ...``.

        The span joins the active stack (nested spans become children,
        :meth:`span_context` returns its context for propagation) and is
        emitted as a single ``span`` trace event when the block exits.
        """
        return self.tracer.scope(name, attributes)

    def span_context(self) -> SpanContext | None:
        """Context of the innermost active span -- what crosses the wire."""
        return self.tracer.current_context()

    def span_event(self, name: str, **attributes: object) -> None:
        """Attach a point event to the innermost active span (if any)."""
        self.tracer.add_event(name, attributes)

    def start_span(
        self,
        name: str,
        parent: SpanContext | None = None,
        **attributes: object,
    ) -> Span | None:
        """Start a detached span that outlives the current call frame.

        Finish it explicitly with :meth:`finish_span`; used by the ARQ
        sender to track a payload's delivery lifetime across
        retransmissions.
        """
        return self.tracer.start_detached(name, parent, attributes)

    def finish_span(self, span: Span | None, status: str = "ok") -> None:
        """Finish (and emit) a span from :meth:`start_span`."""
        if span is not None:
            self.tracer.finish(span, status)

    def span_event_on(self, span: Span | None, name: str, **attributes: object) -> None:
        """Attach a point event to a specific detached span."""
        if span is not None:
            self.tracer.event_on(span, name, attributes)

    def remote_parent(self, context: SpanContext | None):
        """Adopt a remote span context as the parent of nested spans.

        ``with observer.remote_parent(ctx): ...`` makes every span
        opened inside a child of ``ctx`` -- the receive half of
        cross-process context propagation.  ``None`` is a no-op scope.
        """
        return self.tracer.remote_scope(context)

    def _emit_span(self, span: Span) -> None:
        self.event("span", **span.to_fields())

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Bump a counter."""
        self.registry.counter(name, **labels).inc(amount)

    def gauge_set(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge."""
        self.registry.gauge(name, **labels).set(value)

    def gauge_max(self, name: str, value: float, **labels: object) -> None:
        """Raise a high-water-mark gauge."""
        self.registry.gauge(name, **labels).max(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one histogram observation."""
        self.registry.histogram(name, **labels).observe(value)

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def timer(self, name: str) -> _TimerContext:
        """Wall-clock timer: ``with observer.timer("profile.em_fit"): ...``.

        The elapsed seconds land in the histogram ``name``; the context
        object exposes ``elapsed`` afterwards.
        """
        return _TimerContext(self, name)

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()


class NullObserver(Observer):
    """The disabled observer: every method is a no-op.

    ``enabled`` is ``False`` so instrumentation guarded by
    ``if observer.enabled:`` skips event construction entirely, and
    every mutator is overridden, so an unguarded counter bump returns
    before it reaches :attr:`registry`, which stays empty.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(sink=NULL_SINK, time_source=lambda: 0.0)

    def event(self, type_: str, **fields: object) -> None:  # noqa: ARG002
        pass

    def span(self, name: str, **attributes: object):  # noqa: ARG002
        return NULL_SCOPE

    def span_context(self) -> SpanContext | None:
        return None

    def span_event(self, name: str, **attributes: object) -> None:  # noqa: ARG002
        pass

    def start_span(
        self,
        name: str,
        parent: SpanContext | None = None,  # noqa: ARG002
        **attributes: object,  # noqa: ARG002
    ) -> Span | None:
        return None

    def finish_span(self, span: Span | None, status: str = "ok") -> None:  # noqa: ARG002
        pass

    def span_event_on(self, span: Span | None, name: str, **attributes: object) -> None:  # noqa: ARG002
        pass

    def remote_parent(self, context: SpanContext | None):  # noqa: ARG002
        return NULL_SCOPE

    def inc(self, name: str, amount: float = 1.0, **labels: object) -> None:  # noqa: ARG002
        pass

    def gauge_set(self, name: str, value: float, **labels: object) -> None:  # noqa: ARG002
        pass

    def gauge_max(self, name: str, value: float, **labels: object) -> None:  # noqa: ARG002
        pass

    def observe(self, name: str, value: float, **labels: object) -> None:  # noqa: ARG002
        pass

    def timer(self, name: str) -> _NullTimerContext:  # noqa: ARG002
        return _NULL_TIMER

    def close(self) -> None:
        pass


#: Shared disabled observer; the default of every instrumented layer.
NULL_OBSERVER = NullObserver()


def ensure_observer(observer: Observer | None) -> Observer:
    """Coerce an optional observer to a real one (``None`` -> disabled)."""
    return observer if observer is not None else NULL_OBSERVER
