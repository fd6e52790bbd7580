import sys
import time

import pytest

from layers import UNCOVERED
from run import MAX_TILING_GAP
from spans import Span, Tracer, self_times, tiling_gap


def span(name, start, end, parent):
    return Span(name, start, end, parent, thread=1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("op", 0.0, 10.0, -1),
        span("api", 1.0, 9.0, 0),
        span("kernel", 2.0, 6.0, 1),
        span("store", 6.5, 8.0, 1),
        span("kernel.inner", 3.0, 4.0, 2),
        None,  # a span still open when the run ended
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.5, 3.0, 1.5, 1.0, 0.0])
    # the layers cover everything but the root's own 2 of 10 ...
    assert tiling_gap(spans, ()) == pytest.approx(0.2)
    # ... and the catch-all's own 2.5
    assert tiling_gap(spans, ("api",)) == pytest.approx(0.45)


def test_tiling_gap_of_fully_covered_operations_is_zero():
    spans = [span("op", 0.0, 1.0, -1), span("kernel", 0.0, 1.0, 0)]
    assert tiling_gap(spans, ("api",)) == 0.0
    assert tiling_gap([], ("api",)) == 0.0


def slow_inner():
    time.sleep(0.02)


def covered_inner():
    time.sleep(0.001)


def entry(inner):
    inner()
    covered_inner()


def test_an_unwrapped_function_opens_a_gap_in_the_tiling():
    """Work in a function no layer wraps lands in the entry point's self
    time, which the check counts as uncovered."""
    module = sys.modules[__name__]
    gaps = {}
    for wrapped in (False, True):
        tracer = Tracer()
        tracer.wrap(module, "entry", "api")
        tracer.wrap(module, "covered_inner", "kernel")
        if wrapped:
            tracer.wrap(module, "slow_inner", "kernel")
        tracer.enabled = True
        try:
            tracer.call("op", lambda: module.entry(module.slow_inner), (), {})
        finally:
            tracer.restore()
        gaps[wrapped] = tiling_gap(tracer.spans, UNCOVERED)
    assert gaps[False] > MAX_TILING_GAP
    assert gaps[True] < MAX_TILING_GAP


class Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return cls, x

    @staticmethod
    def twice(x):
        return 2 * x


def test_wrap_records_nested_spans_and_restore_undoes_it():
    tracer = Tracer()
    originals = dict(vars(Target))
    tracer.wrap(Target, "method", "m", attrs=lambda r: {"result": r})
    tracer.wrap(Target, "build", "b")
    tracer.wrap(Target, "twice", "t")
    tracer.enabled = True
    assert tracer.call("op", lambda: Target().method(Target.twice(1)), (), {}) == 3
    assert Target.build(5) == (Target, 5)
    names = [(s.name, s.parent, s.attrs) for s in tracer.spans]
    assert names == [("op", -1, {}), ("t", 0, {}), ("m", 0, {"result": 3}), ("b", -1, {})]
    tracer.restore()
    assert dict(vars(Target)) == originals


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    tracer.wrap(Target, "method", "m")
    try:
        assert Target().method(1) == 2
        assert tracer.spans == []
    finally:
        tracer.restore()
