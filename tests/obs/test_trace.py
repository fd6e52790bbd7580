"""Tracer: nesting, the no-op fast path, and cross-process adoption."""

import os

import pytest

import repro
from repro import obs
from repro.obs import NOOP_SPAN, Tracer, trace_span
from repro.obs.trace import _tracer_from_env


@pytest.fixture
def tracer():
    """A buffering tracer installed as the global one, restored after."""
    t = Tracer()
    prev = repro.configure(tracer=t)
    yield t
    repro.configure(**prev)


class TestNoopFastPath:
    def test_disabled_returns_shared_noop(self):
        prev = repro.configure(trace=False)
        try:
            assert not obs.enabled()
            sp = trace_span("anything", k=1)
            assert sp is NOOP_SPAN
            with sp as inner:
                inner.set(ignored=True)  # must be harmless
        finally:
            repro.configure(**prev)

    def test_traced_decorator_passthrough_when_disabled(self):
        prev = repro.configure(trace=False)
        try:

            @obs.traced("t.fn")
            def fn(x):
                return x + 1

            assert fn(1) == 2
        finally:
            repro.configure(**prev)


class TestNesting:
    def test_child_parents_to_enclosing_span(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        spans = {s["name"]: s for s in tracer.buffer}
        assert spans["inner"]["parent_id"] == outer.span_id
        assert spans["outer"]["parent_id"] is None
        # children close (and emit) before their parents
        assert tracer.buffer[0]["name"] == "inner"

    def test_module_trace_span_uses_global_tracer(self, tracer):
        with trace_span("via.module", points=3) as sp:
            assert tracer.current() is sp
        assert tracer.buffer[0]["attrs"] == {"points": 3}

    def test_exception_sets_error_attr_and_propagates(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert tracer.buffer[0]["attrs"]["error"] == "RuntimeError"

    def test_durations_nonnegative_and_ids_unique(self, tracer):
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [s["span_id"] for s in tracer.buffer]
        assert len(set(ids)) == 5
        assert all(s["duration_s"] >= 0 for s in tracer.buffer)
        assert all(s["pid"] == os.getpid() for s in tracer.buffer)


class TestAdoption:
    def test_adopted_spans_parent_into_context(self, tracer):
        with tracer.span("parent") as parent:
            ctx = tracer.context()
        assert ctx == {"trace_id": tracer.trace_id, "parent_id": parent.span_id}

        worker = Tracer.adopt(ctx)
        with worker.span("worker.root"):
            with worker.span("worker.child"):
                pass
        shipped = worker.drain()
        assert worker.buffer == []
        by_name = {s["name"]: s for s in shipped}
        assert by_name["worker.root"]["parent_id"] == parent.span_id
        assert by_name["worker.child"]["parent_id"] == by_name["worker.root"]["span_id"]

        tracer.ingest(shipped)
        names = [s["name"] for s in tracer.buffer]
        assert "worker.root" in names and "worker.child" in names
        assert all(s["trace_id"] == tracer.trace_id for s in tracer.buffer)

    def test_traced_decorator_records_span(self, tracer):
        @obs.traced("t.decorated")
        def fn():
            return 7

        assert fn() == 7
        assert tracer.buffer[0]["name"] == "t.decorated"


class TestEnvConfiguration:
    def test_off_values(self, monkeypatch):
        for value in ("", "0", "false", "OFF"):
            monkeypatch.setenv("REPRO_TRACE", value)
            assert _tracer_from_env() is None

    def test_buffering_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        t = _tracer_from_env()
        assert t is not None and t.sink is None

    def test_path_value_opens_sink(self, monkeypatch, tmp_path):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        t = _tracer_from_env()
        assert t is not None and t.sink is not None
        # lazy sink: importing/configuring must not clobber an existing file
        assert not path.exists()
        t.close()
