"""Which functions of each layer the traced run wraps, and how their span
self times become the per-layer metrics.

Every timing metric is a self time: a span's duration minus its child
spans, so a layer is charged only for its own work.  Unless named
otherwise a metric is per *operation* (one solve, one sweep cycle, one
HTTP request or one fabric sweep -- the root spans of a run).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from spans import Span, Tracer, self_times

#: wrapped entry points that only hand the work on to the layers: their
#: self time is work no layer accounts for, and counts against the tiling
UNCOVERED = ("api",)


def _batch_attrs(solutions: list) -> dict[str, Any]:
    if not solutions:
        return {"batch": 0, "iterations": 0, "point_iters": 0}
    batch = solutions[0].telemetry.batch if solutions[0].telemetry else None
    trajectory = batch.active_trajectory if batch is not None else ()
    return {
        "batch": len(solutions),
        "iterations": max(s.iterations for s in solutions),
        "point_iters": sum(trajectory) or sum(s.iterations for s in solutions),
    }


def _amva_attrs(solution: Any) -> dict[str, Any]:
    return {"iterations": int(solution.iterations)}


def _fabric_attrs(report: Any) -> dict[str, Any]:
    stats = report.manifest.fabric
    return {
        "leases": int(stats["leases_granted"]),
        "redispatched": int(stats["redispatched_trials"]),
    }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer (imports the program)."""
    import importlib

    import repro
    import repro.core.model as model
    import repro.queueing as queueing
    import repro.queueing.mva_approx as mva_approx
    import repro.queueing.mva_batch as mva_batch
    from repro.fabric import FabricScheduler
    from repro.runner import SweepRunner
    from repro.runner.spec import JobSpec
    from repro.runner.store import ResultStore

    # ``repro.scenarios`` is also a facade function, which shadows the
    # subpackage for ``import repro.scenarios.hier as ...``
    hier = importlib.import_module("repro.scenarios.hier")
    tracer.wrap(repro, "solve", "api")
    tracer.wrap(repro, "sweep", "api")
    for cls in (repro.MMSParams, hier.HierParams):
        tracer.wrap(cls, "with_", "params")
        tracer.wrap(cls, "from_dict", "params")
    tracer.wrap(JobSpec, "key", "spec.key")
    tracer.wrap(JobSpec, "payload", "spec.payload")
    tracer.wrap(model, "visit_ratios_for", "model.visits")
    tracer.wrap(model.MMSModel, "station_arrays", "model.build")
    tracer.wrap(model.MMSModel, "build_network", "model.build")
    tracer.wrap(hier, "build_network", "model.build")
    # each kernel entry point is bound under several module names; wrap
    # every binding a caller may look up
    for owner in (mva_batch, model, queueing):
        tracer.wrap(owner, "solve_symmetric_batch", "kernel.symmetric", _batch_attrs)
        tracer.wrap(owner, "solve_batch", "kernel.multiclass", _batch_attrs)
    # the torus model calls the scalar AMVA through its own module global,
    # the hier scenario through the queueing package: the binding tells
    # the two callers apart
    tracer.wrap(mva_approx, "bard_schweitzer", "kernel.amva", _amva_attrs)
    tracer.wrap(model, "bard_schweitzer", "kernel.amva", _amva_attrs)
    tracer.wrap(queueing, "bard_schweitzer", "kernel.hier", _amva_attrs)
    tracer.wrap(ResultStore, "__init__", "store.open")
    tracer.wrap(ResultStore, "get", "store.get", lambda rec: {"hit": rec is not None})
    for attr in ("put", "flush", "close"):
        tracer.wrap(ResultStore, attr, "store.put")
    tracer.wrap(SweepRunner, "run", "executor.run")
    tracer.wrap(FabricScheduler, "__init__", "fabric.schedule")
    tracer.wrap(FabricScheduler, "submit", "fabric.schedule")
    tracer.wrap(FabricScheduler, "spawn_worker", "fabric.spawn")
    tracer.wrap(FabricScheduler, "wait", "fabric.dispatch")
    tracer.wrap(FabricScheduler, "finalize", "fabric.finalize")
    tracer.wrap(FabricScheduler, "close", "fabric.finalize")
    tracer.wrap(FabricScheduler, "run", "fabric.run", _fabric_attrs)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span | None]) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans (every metric of
    :data:`metrics.PER_LAYER` except the trace.* ones)."""
    own = self_times(spans)
    ops = sum(1 for s in spans if s is not None and s.parent < 0)
    self_by: dict[str, float] = defaultdict(float)
    count_by: dict[str, int] = defaultdict(int)
    for span, t in zip(spans, own):
        if span is not None:
            self_by[span.name] += t
            count_by[span.name] += 1

    b1_t = b1_n = b1_iters = 0.0
    batch_t = batch_iters = batch_slots = 0.0
    hier_t = hier_n = amva_t = amva_n = 0.0
    hits = misses = leases = redispatched = 0
    for span, t in zip(spans, own):
        if span is None:
            continue
        a = span.attrs
        if span.name in ("kernel.symmetric", "kernel.multiclass") and a:
            if a["batch"] == 1:
                b1_t, b1_n, b1_iters = b1_t + t, b1_n + 1, b1_iters + a["iterations"]
            else:
                batch_t += t
                batch_iters += a["point_iters"]
                batch_slots += a["batch"] * a["iterations"]
        elif span.name == "kernel.hier":
            hier_t, hier_n = hier_t + t, hier_n + 1
        elif span.name == "kernel.amva":
            amva_t, amva_n = amva_t + t, amva_n + 1
        elif span.name == "store.get" and a:
            hits += a["hit"]
            misses += not a["hit"]
        elif span.name == "fabric.run" and a:
            leases += a["leases"]
            redispatched += a["redispatched"]

    return {
        "api.self_us": _div(self_by["api"], ops) * 1e6,
        "params.build_us": _div(self_by["params"], ops) * 1e6,
        "spec.key_us": _div(self_by["spec.key"] + self_by["spec.payload"], ops) * 1e6,
        "spec.keys": _div(count_by["spec.key"], ops),
        "model.visits_us": _div(self_by["model.visits"], ops) * 1e6,
        "model.build_us": _div(self_by["model.build"], ops) * 1e6,
        "kernel.b1_us": _div(b1_t, b1_n) * 1e6,
        "kernel.iterations": _div(b1_iters, b1_n),
        "kernel.us_per_iter": _div(b1_t, b1_iters) * 1e6,
        "kernel.hier_us": _div(hier_t, hier_n) * 1e6,
        "kernel.amva_us": _div(amva_t, amva_n) * 1e6,
        "kernel.batch_ms": _div(batch_t, ops) * 1e3,
        "kernel.batch_point_iters": _div(batch_iters, ops),
        "kernel.batch_useful_frac": _div(batch_iters, batch_slots),
        "store.get_us": _div(self_by["store.get"] + self_by["store.open"], ops) * 1e6,
        "store.put_us": _div(self_by["store.put"], ops) * 1e6,
        "store.hits": _div(hits, ops),
        "store.misses": _div(misses, ops),
        "executor.overhead_ms": _div(self_by["executor.run"], ops) * 1e3,
        "fabric.schedule_s": _div(self_by["fabric.schedule"], ops),
        "fabric.spawn_s": _div(self_by["fabric.spawn"], ops),
        "fabric.dispatch_s": _div(self_by["fabric.dispatch"], ops),
        "fabric.finalize_s": _div(
            self_by["fabric.finalize"] + self_by["fabric.run"], ops
        ),
        "fabric.leases": _div(leases, ops),
        "fabric.redispatched": _div(redispatched, ops),
    }
