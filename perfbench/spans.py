"""In-memory spans around calls into the program's layers.

The traced run wraps public functions of each layer (``params``,
``runner.spec``, ``core.model``, the kernels, ``runner.store``,
``runner.executor``, ``fabric``) from outside; the program itself is not
changed and its own tracing (``repro.obs``) is not used, so a change to
``repro.obs`` cannot move this yardstick.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Collection


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root
    thread: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; :meth:`wrap` installs a timing wrapper on a layer
    function and :meth:`restore` removes every wrapper again."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.enabled = False
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _reserve(self) -> int:
        with self._lock:
            index = next(self._ids)
            self.spans.append(None)
        return index

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        attrs: Callable[[Any], dict] | None = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        index = self._reserve()
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        returned, result = False, None
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = Span(
                name,
                start,
                end,
                parent,
                threading.get_ident(),
                attrs(result) if attrs is not None and returned else {},
            )

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        attrs: Callable[[Any], dict] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span.

        Plain functions, methods, classmethods and staticmethods are all
        handled; the original is put back by :meth:`restore`.
        """
        raw = inspect.getattr_static(owner, attr)
        tracer = self
        if isinstance(raw, (classmethod, staticmethod)):
            inner = raw.__func__

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return tracer.call(name, inner, args, kwargs, attrs)

            replacement: object = type(raw)(wrapper)
        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return tracer.call(name, raw, args, kwargs, attrs)

            replacement = wrapper
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON line (index, parent and timings)."""
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                if span is not None:
                    out.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def self_times(spans: list[Span | None]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    *spans* is indexed as :class:`Tracer` stores them (a child's
    ``parent`` is its parent's index); ``None`` entries are skipped.
    """
    own = [s.duration if s is not None else 0.0 for s in spans]
    for span in spans:
        if span is not None and span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def tiling_gap(spans: list[Span | None], uncovered: Collection[str]) -> float:
    """Share of the operations' wall time the layers' self times leave
    uncovered.

    Root spans mark operations and are the benchmark's own code; spans
    named in *uncovered* are catch-alls (an entry point that only passes
    the work on).  The self time of either is time spent in code no
    wrapped layer accounts for, such as a function of the program that
    nobody wraps.
    """
    own = self_times(spans)
    wall = gap = 0.0
    for span, t in zip(spans, own):
        if span is None:
            continue
        if span.parent < 0:
            wall += span.duration
        if span.parent < 0 or span.name in uncovered:
            gap += t
    return gap / wall if wall else 0.0
