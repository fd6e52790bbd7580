"""Run manifests: per-sweep observability emitted as JSON.

Every :meth:`~repro.runner.executor.SweepRunner.run` produces one
:class:`RunManifest` summarizing what happened -- wall clock, execution mode,
cache hit rate, per-point solve-latency distribution, failure/timeout/retry
counts.  Records (the data) stay deterministic; the manifest (the telemetry)
is where all the run-to-run variation lives.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

__all__ = ["RunManifest", "latency_stats"]


def latency_stats(latencies: Sequence[float], amortized: int = 0) -> dict[str, float]:
    """Summary statistics of per-point solve times (seconds).

    ``amortized`` counts entries that are even shares of a batched solve's
    wall clock rather than individual measurements; time-attribution must
    not sum those on top of the batch wall time already reported in
    ``solver_batches`` (each batch's true span is recorded exactly once).
    """
    if not latencies:
        return {
            "count": 0,
            "total": 0.0,
            "mean": 0.0,
            "min": 0.0,
            "max": 0.0,
            "amortized": 0,
        }
    total = float(sum(latencies))
    return {
        "count": len(latencies),
        "total": total,
        "mean": total / len(latencies),
        "min": float(min(latencies)),
        "max": float(max(latencies)),
        "amortized": int(amortized),
    }


@dataclass
class RunManifest:
    """What one managed sweep did, in numbers."""

    solver_version: str
    #: requested worker count (1 = serial)
    jobs: int
    #: how the run actually executed: ``serial`` | ``batch`` | ``parallel``
    #: | ``serial-fallback`` (workers died, remaining points ran in-process)
    mode: str
    #: points requested, including duplicates within the request
    total_points: int
    #: distinct content-addressed keys among them
    unique_points: int
    #: unique points served from the persistent store
    cache_hits: int
    #: unique points solved this run
    solved: int
    #: unique points that exhausted retries or timed out
    failures: int
    timeouts: int
    #: extra attempts consumed by retries across all points
    retries: int
    #: times the process pool broke and the run fell back to serial
    worker_crashes: int
    wall_clock_s: float
    #: cache_hits / unique_points (0.0 for an empty sweep)
    cache_hit_rate: float
    #: distribution of solver wall-clock over points *solved this run*
    point_latency: dict[str, float] = field(default_factory=dict)
    #: lifetime stats of the backing store, if any
    store: dict[str, object] | None = None
    #: requested execution backend (``auto``/``batch``/``process``/``serial``)
    backend: str = "auto"
    #: solver kernel the run used (provenance, not a cache key; ``numpy``
    #: is the only kernel)
    kernel: str = "numpy"
    #: per-batch solver telemetry (method, batch size, iterations, max
    #: residual, active-set trajectory, wall time) for every batched fixed
    #: point this run executed
    solver_batches: list = field(default_factory=list)
    #: wall-clock seconds per execution stage (``spec_hash`` /
    #: ``cache_lookup`` / ``solve`` / ``store_write`` / ``assemble``);
    #: consecutive segments of the run, so they sum to ``wall_clock_s``
    stages: dict = field(default_factory=dict)
    #: run-scoped :mod:`repro.obs` metrics delta (what this run's solves,
    #: store lookups and simulator calls moved in the process registry)
    metrics: dict | None = None
    #: unique points replayed from a sweep journal on ``--resume``
    journal_hits: int = 0
    #: True when this run resumed a prior journal
    resumed: bool = False
    #: journal file backing this run, if journaling was enabled
    journal_path: str | None = None
    #: structured backend fallbacks (see
    #: :class:`repro.resilience.degrade.DegradationPolicy`); empty when the
    #: run stayed on its requested backend
    degradations: list = field(default_factory=list)
    #: distributed-dispatch accounting when the sweep ran on the fabric
    #: (``mode == "fabric"``): trial status histogram, leases
    #: granted/expired/active, dispatch attempts, re-dispatched trials,
    #: per-worker contribution (see ``docs/DISTRIBUTED.md``); None for
    #: single-host runs
    fabric: dict | None = None
    #: wall-clock epoch seconds when the run started (lets the dashboard
    #: place the run on an absolute timeline); 0.0 in legacy manifests
    created_at: float = 0.0
    #: windowed digest of the process-global
    #: :class:`~repro.obs.timeseries.MetricsRecorder` (rates, gauges,
    #: histogram percentiles) when one was running during the sweep;
    #: None otherwise
    series: dict | None = None

    def to_dict(self) -> dict[str, object]:
        return asdict(self)

    def to_json(self, path: str | os.PathLike | None = None, indent: int = 2) -> str:
        """JSON form; also written to *path* when given."""
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    def summary(self) -> str:
        """One human line for CLI/log output."""
        return (
            f"{self.total_points} points ({self.unique_points} unique): "
            f"{self.cache_hits} cached ({self.cache_hit_rate:.0%}), "
            f"{self.solved} solved, {self.failures} failed "
            f"[{self.mode}, jobs={self.jobs}] in {self.wall_clock_s:.2f}s"
        )
