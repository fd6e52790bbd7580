"""Tracing spans with a contextvar span stack and a no-op fast path.

A span is one timed region of work -- name, attributes, start time,
duration, and a parent pointer -- and the current-span stack lives in a
``contextvars.ContextVar``, so nesting composes across threads and (with
explicit adoption, below) across processes.

Tracing is **off by default**.  :func:`trace_span` then returns a shared
no-op context manager whose cost is one global read plus one function call;
the overhead benchmark (``benchmarks/bench_perf_obs_overhead.py``) pins it
below 2% on the 176-point Figure-4 lattice.  Enable tracing with the
``REPRO_TRACE`` environment variable (``1`` buffers in memory, any other
value is a JSONL sink path) or programmatically::

    prev = repro.configure(trace="out.jsonl")
    ...traced work...
    repro.configure(**prev)

Cross-process merging: a pool worker cannot share the parent's contextvar,
so the sweep runner passes ``tracer.context()`` -- ``{"trace_id",
"parent_id"}`` -- inside the job payload, the worker runs under a local
buffering :class:`Tracer` adopted from that context, returns
``tracer.drain()`` with its result, and the parent calls
:meth:`Tracer.ingest` to write the worker's spans into its own sink with
parentage intact.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
import uuid
from contextvars import ContextVar
from typing import Callable, Iterable, Mapping

from .sink import EventSink

__all__ = [
    "Span",
    "Tracer",
    "configure",
    "enabled",
    "get_tracer",
    "trace_span",
    "traced",
]

#: monotonically increasing span-id suffix (unique within one process)
_ids = itertools.count(1)


def _new_span_id() -> str:
    """Process-unique span id: pid prefix + counter, both hex."""
    return f"{os.getpid():x}-{next(_ids):x}"


class Span:
    """One timed region.  Mutable while open; serialized on close."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "t_start",
        "duration_s",
        "attrs",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None,
        attrs: dict[str, object],
    ):
        self.name = name
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.t_start = time.perf_counter()
        self.duration_s = 0.0
        self.attrs = attrs

    def set(self, **attrs: object) -> None:
        """Attach attributes to an open span."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t_start": self.t_start,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
            "pid": os.getpid(),
        }


class _NoopSpan:
    """Stand-in returned by :func:`trace_span` when tracing is off."""

    __slots__ = ()
    span_id = None
    parent_id = None

    def set(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


#: the one no-op instance every disabled trace_span call returns
NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager pushing/popping one span on the tracer's stack."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._token = self._tracer._stack.set(
            self._tracer._stack.get() + (self._span,)
        )
        return self._span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        span = self._span
        span.duration_s = time.perf_counter() - span.t_start
        if exc_type is not None:
            span.attrs.setdefault("error", getattr(exc_type, "__name__", str(exc_type)))
        self._tracer._stack.reset(self._token)
        self._tracer._emit(span)
        return False


class Tracer:
    """Produces nested spans and routes finished ones to a sink or buffer."""

    def __init__(
        self,
        sink: EventSink | None = None,
        trace_id: str | None = None,
    ):
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.sink = sink
        #: finished spans held in memory when there is no sink (worker mode,
        #: tests, ``REPRO_TRACE=1``)
        self.buffer: list[dict[str, object]] = []
        self._stack: ContextVar[tuple[Span, ...]] = ContextVar(
            f"repro_obs_spans_{self.trace_id}", default=()
        )
        #: adopted parent for spans opened with an empty local stack
        self._root_parent: str | None = None

    # ----------------------------------------------------------------- spans
    def span(self, name: str, **attrs: object) -> _SpanContext:
        """Open a nested span: ``with tracer.span("stage", k=v) as sp:``."""
        stack = self._stack.get()
        parent = stack[-1].span_id if stack else self._root_parent
        return _SpanContext(self, Span(name, self.trace_id, parent, attrs))

    def current(self) -> Span | None:
        """The innermost open span in this context, if any."""
        stack = self._stack.get()
        return stack[-1] if stack else None

    def _emit(self, span: Span) -> None:
        if self.sink is not None:
            self.sink.write(span.to_dict())
        else:
            self.buffer.append(span.to_dict())

    # --------------------------------------------------- cross-process merge
    def context(self) -> dict[str, object]:
        """Payload-embeddable link for a worker: trace id + current span id."""
        cur = self.current()
        return {
            "trace_id": self.trace_id,
            "parent_id": cur.span_id if cur is not None else self._root_parent,
        }

    @classmethod
    def adopt(cls, ctx: Mapping[str, object]) -> "Tracer":
        """A buffering tracer whose spans parent into *ctx*'s trace."""
        tracer = cls(trace_id=str(ctx["trace_id"]))
        parent = ctx.get("parent_id")
        tracer._root_parent = str(parent) if parent is not None else None
        return tracer

    def drain(self) -> list[dict[str, object]]:
        """Take the buffered span dicts (worker -> payload direction)."""
        spans, self.buffer = self.buffer, []
        return spans

    def ingest(self, spans: Iterable[Mapping[str, object]]) -> None:
        """Write spans produced elsewhere (a worker) into this trace."""
        for span in spans:
            event = dict(span)
            event["trace_id"] = self.trace_id
            if self.sink is not None:
                self.sink.write(event)
            else:
                self.buffer.append(event)

    # ------------------------------------------------------------- lifecycle
    def write_event(self, event: dict[str, object]) -> None:
        """Emit a non-span record (e.g. a metrics snapshot) to the sink."""
        if self.sink is not None:
            self.sink.write({"trace_id": self.trace_id, **event})
        else:
            self.buffer.append({"trace_id": self.trace_id, **event})

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()


# ---------------------------------------------------------------- module API
#: the active tracer; ``None`` is the no-op fast path
_tracer: Tracer | None = None


def _tracer_from_env() -> Tracer | None:
    value = os.environ.get("REPRO_TRACE", "").strip()
    if not value or value.lower() in ("0", "false", "off"):
        return None
    if value.lower() in ("1", "true", "on"):
        return Tracer()
    return Tracer(sink=EventSink(value, meta=_meta()))


def _meta() -> dict[str, object]:
    try:  # lazy: obs must stay importable before the rest of the package
        from ..runner.spec import SOLVER_VERSION
    except ImportError:  # pragma: no cover - import-order edge
        SOLVER_VERSION = "unknown"
    return {"schema": "repro-trace/1", "solver_version": SOLVER_VERSION}


def configure(
    trace: bool | str | os.PathLike | None = None,
    tracer: Tracer | None = None,
) -> dict[str, object]:
    """Install (or remove) the process-global tracer; returns the previous
    setting for restore-style use.

    ``trace`` may be a path (JSONL sink), ``True`` (in-memory buffer),
    ``False``/``None`` (disable).  ``tracer`` installs a prebuilt
    :class:`Tracer` directly (worker adoption, tests).
    """
    global _tracer
    previous: dict[str, object] = {"tracer": _tracer}
    if tracer is not None:
        _tracer = tracer
    elif trace is None or trace is False:
        _tracer = None
    elif trace is True:
        _tracer = Tracer()
    else:
        _tracer = Tracer(sink=EventSink(trace, meta=_meta()))
    return previous


def enabled() -> bool:
    """Whether spans are being recorded."""
    return _tracer is not None


def get_tracer() -> Tracer | None:
    """The active tracer (``None`` when tracing is off)."""
    return _tracer


def trace_span(name: str, **attrs: object):
    """``with trace_span("sweep.solve", points=n) as sp:`` -- a nested span,
    or the shared no-op when tracing is disabled."""
    if _tracer is None:
        return NOOP_SPAN
    return _tracer.span(name, **attrs)


def traced(name: str | None = None) -> Callable:
    """Decorator form: trace every call of the function as one span."""

    def deco(fn: Callable) -> Callable:
        span_name = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args: object, **kwargs: object):
            if _tracer is None:
                return fn(*args, **kwargs)
            with _tracer.span(span_name):
                return fn(*args, **kwargs)

        return wrapper

    return deco


# honour REPRO_TRACE at import so `repro-mms` and workers pick it up
_tracer = _tracer_from_env()
