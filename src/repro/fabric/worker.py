"""The fabric worker: claim a lease, solve it, report, repeat.

One worker process (``repro-mms worker --fabric DIR``) drives the whole
existing solve stack per lease: the payloads it claims become
:class:`~repro.runner.spec.JobSpec`\\ s executed by an in-process
:class:`~repro.runner.SweepRunner` -- batched AMVA kernel, degradation
policy, retry budget and fault-injection sites all intact -- and the
results land in the fabric's **shared** content-addressed
:class:`~repro.runner.store.ResultStore` (opened ``shared=True``:
append-only single-write puts, no index).

Liveness protocol: a daemon heartbeat thread (its own DB connection)
extends the active lease every ``lease_ttl / 3`` seconds.  A worker that
is SIGKILLed simply stops heartbeating; its lease expires and the
scheduler -- or any surviving worker's next claim -- returns the leased
trials to ``pending``.  Store writes happen *before* the trial is marked
``done``, so a kill between the two re-dispatches an already-persisted
point: the second solve's put is deduplicated by the exclusive reopen at
finalize (first write wins), never served twice and never lost.

Exit condition: no trial is ``pending`` or ``leased`` (the sweep is
drained), or the experiment has been marked terminal by the scheduler.
"""

from __future__ import annotations

import os
import threading
import time

from ..obs import registry as obs_registry
from ..obs import trace_span
from ..obs.trace import configure as obs_configure
from ..obs.trace import get_tracer
from ..runner.executor import SweepRunner, validate_backend
from ..runner.spec import JobSpec
from ..runner.store import ResultStore
from .db import ExperimentDB, FabricError, worker_identity
from .rollup import append_worker_snapshot

__all__ = ["FabricWorker", "WorkerStats"]


class _Heartbeat:
    """Daemon thread extending the worker's active lease.

    The sqlite connection must be **created on the heartbeat thread**
    itself (``sqlite3`` binds a connection to its creating thread, and a
    cross-thread call raises ``ProgrammingError``), so ``_run`` opens its
    own :class:`ExperimentDB` and the main thread never touches it.  The
    lock-protected "current lease" slot is ``None`` while the worker is
    between leases, in which case only the worker-liveness stamp is
    refreshed; :meth:`set_lease` kicks an event so a fresh lease is
    stamped immediately instead of waiting out a full interval.

    **Partition guard**: ``max_failures`` *consecutive* heartbeat
    failures set the :attr:`broken` event (a success resets the count).
    A worker whose heartbeats cannot reach the DB has effectively lost
    its leases already -- any reaper will re-dispatch them -- so the main
    loop checks :attr:`broken` and exits cleanly instead of
    double-solving for the rest of its lifetime.
    """

    def __init__(
        self, fabric_dir, worker_id: str, ttl_s: float, max_failures: int = 3
    ):
        self._fabric_dir = fabric_dir
        self._worker_id = worker_id
        self._ttl_s = ttl_s
        self._max_failures = max(1, int(max_failures))
        self._consecutive_failures = 0
        #: set once the DB has been unreachable max_failures beats in a row
        self.broken = threading.Event()
        self._lease_id: int | None = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._kick = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def set_lease(self, lease_id: int | None) -> None:
        with self._lock:
            self._lease_id = lease_id
        if lease_id is not None:
            # wake the thread so a slow first solve can't outrun the ttl
            self._kick.set()

    def _run(self) -> None:
        interval = max(0.05, self._ttl_s / 3.0)
        try:
            db = ExperimentDB(self._fabric_dir)  # this thread's connection
        except Exception:  # noqa: BLE001 - liveness must never kill a solve
            obs_registry().counter("fabric.heartbeat_errors").inc()
            # no connection at all: the guard trips immediately, the
            # worker must not run lease-less forever
            self.broken.set()
            return
        try:
            while not self._stop.is_set():
                self._kick.wait(interval)
                self._kick.clear()
                if self._stop.is_set():
                    break
                with self._lock:
                    lease_id = self._lease_id
                try:
                    if lease_id is not None:
                        db.heartbeat(lease_id, self._worker_id, self._ttl_s)
                        obs_registry().counter("fabric.heartbeats").inc()
                    else:
                        db.touch_worker(self._worker_id)
                    self._consecutive_failures = 0
                except Exception:  # noqa: BLE001 - see above
                    obs_registry().counter("fabric.heartbeat_errors").inc()
                    self._consecutive_failures += 1
                    if self._consecutive_failures >= self._max_failures:
                        self.broken.set()
                        return
        finally:
            db.close()

    def close(self) -> None:
        self._stop.set()
        self._kick.set()  # wake the wait so shutdown is prompt
        self._thread.join(timeout=5.0)


class WorkerStats:
    """What one worker did, for its exit line and tests."""

    def __init__(self) -> None:
        self.leases = 0
        self.points = 0
        self.solved = 0
        self.failed = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "leases": self.leases,
            "points": self.points,
            "solved": self.solved,
            "failed": self.failed,
        }


class FabricWorker:
    """Pull-based solve loop against one fabric directory.

    Parameters
    ----------
    fabric_dir:
        The shared fabric directory (``fabric.db`` + ``store/``).
    experiment_id:
        Experiment to serve; default waits up to ``wait_s`` for the most
        recently created running experiment.
    worker_id:
        Fleet-unique identity; default ``host-pid``.
    lease_points:
        Trials claimed per lease -- the batching grain (a whole lease goes
        through one ``SweepRunner.run``, so same-shape points batch).
    lease_ttl:
        Seconds a lease survives without a heartbeat before any reaper
        returns its trials to ``pending``.
    poll_s:
        Idle sleep between empty claims.
    backend / retries / timeout:
        Passed to the inner :class:`SweepRunner` (per-lease execution).
    max_leases:
        Stop after this many leases (test seam / bounded shifts).
    wait_s:
        How long to wait for a running experiment to appear.
    heartbeat_max_failures:
        Consecutive heartbeat failures after which the worker stops
        claiming and exits (the partition guard; see :class:`_Heartbeat`).
    trace:
        Path for this worker's own trace file (spans written locally,
        merged fleet-wide by :func:`repro.fabric.rollup.merge_traces`);
        ``None`` leaves tracing on the process default (``REPRO_TRACE``).
    """

    def __init__(
        self,
        fabric_dir,
        experiment_id: str | None = None,
        worker_id: str | None = None,
        lease_points: int = 32,
        lease_ttl: float = 15.0,
        poll_s: float = 0.2,
        backend: str = "auto",
        retries: int = 1,
        timeout: float | None = None,
        max_leases: int | None = None,
        wait_s: float = 30.0,
        trace: str | None = None,
        heartbeat_max_failures: int = 3,
    ):
        if lease_points < 1:
            raise FabricError(f"lease_points must be >= 1, got {lease_points}")
        if lease_ttl <= 0:
            raise FabricError(f"lease_ttl must be > 0, got {lease_ttl}")
        validate_backend(backend)
        self.fabric_dir = fabric_dir
        self.experiment_id = experiment_id
        self.worker_id = worker_id or worker_identity()
        self.lease_points = lease_points
        self.lease_ttl = lease_ttl
        self.poll_s = poll_s
        self.backend = backend
        self.retries = retries
        self.timeout = timeout
        self.max_leases = max_leases
        self.wait_s = wait_s
        self.trace = trace
        self.heartbeat_max_failures = heartbeat_max_failures

    def _resolve_experiment(self, db: ExperimentDB) -> str:
        if self.experiment_id is not None:
            db.experiment(self.experiment_id)  # raises if unknown
            return self.experiment_id
        deadline = time.monotonic() + self.wait_s
        while True:
            experiment_id = db.latest_running()
            if experiment_id is not None:
                return experiment_id
            if time.monotonic() >= deadline:
                raise FabricError(
                    f"no running experiment appeared in {self.fabric_dir} "
                    f"within {self.wait_s:.0f}s"
                )
            time.sleep(min(self.poll_s, 0.5))

    def run(self, progress=None) -> WorkerStats:
        """Serve leases until the experiment drains; returns the tally.

        ``progress`` (optional) is called ``(stats,)`` after every lease.
        """
        stats = WorkerStats()
        db = ExperimentDB(self.fabric_dir)
        heart: _Heartbeat | None = None
        store: ResultStore | None = None
        prev_trace = obs_configure(trace=self.trace) if self.trace else None
        registered = False
        try:
            experiment_id = self._resolve_experiment(db)
            db.register_worker(experiment_id, self.worker_id)
            registered = True
            heart = _Heartbeat(
                self.fabric_dir,
                self.worker_id,
                self.lease_ttl,
                max_failures=self.heartbeat_max_failures,
            )
            store = ResultStore(os.path.join(self.fabric_dir, "store"), shared=True)
            runner = SweepRunner(
                jobs=1,
                store=store,
                backend=self.backend,
                retries=self.retries,
                timeout=self.timeout,
            )
            with trace_span(
                "fabric.worker", worker=self.worker_id, experiment=experiment_id
            ):
                while True:
                    if heart.broken.is_set():
                        # partition guard: our leases are (or will be)
                        # reaped and re-dispatched; claiming more would
                        # double-solve for the rest of this lifetime
                        obs_registry().counter(
                            "fabric.worker.partitioned_exits"
                        ).inc()
                        break
                    lease_id, payloads = db.claim(
                        experiment_id,
                        self.worker_id,
                        self.lease_points,
                        self.lease_ttl,
                    )
                    if lease_id is None:
                        counts = db.counts(experiment_id)
                        if counts["pending"] == 0 and counts["leased"] == 0:
                            break
                        if db.experiment(experiment_id)["status"] != "running":
                            break
                        time.sleep(self.poll_s)
                        continue
                    heart.set_lease(lease_id)
                    try:
                        self._serve_lease(
                            db, store, runner, experiment_id, lease_id, payloads, stats
                        )
                    finally:
                        heart.set_lease(None)
                    stats.leases += 1
                    # ship a metrics snapshot per lease: the scheduler's
                    # fleet rollup reads these without touching the worker
                    append_worker_snapshot(
                        self.fabric_dir, self.worker_id, stats.as_dict()
                    )
                    if progress is not None:
                        progress(stats)
                    if self.max_leases is not None and stats.leases >= self.max_leases:
                        break
        finally:
            # the store must close on every exit path: its fd (and shared
            # store lock) otherwise outlives the worker, and a held shared
            # lock would block the scheduler's exclusive finalize reopen
            if store is not None:
                store.close()
            if heart is not None:
                heart.close()
            if registered:
                append_worker_snapshot(
                    self.fabric_dir, self.worker_id, stats.as_dict()
                )
            if self.trace:
                tracer = get_tracer()
                if tracer is not None:
                    tracer.close()
                obs_configure(**prev_trace)
            try:
                db.worker_exit(self.worker_id)
            finally:
                db.close()
        return stats

    def _serve_lease(
        self,
        db: ExperimentDB,
        store: ResultStore,
        runner: SweepRunner,
        experiment_id: str,
        lease_id: int,
        payloads: list[dict[str, object]],
        stats: WorkerStats,
    ) -> None:
        """Solve one lease through the runner and report every trial.

        The runner's own ``store_write`` stage persists successes into the
        shared store *before* the loop below marks trials ``done`` -- the
        ordering that makes a mid-lease SIGKILL safe (re-dispatch re-solves
        an already-stored point at worst; it never loses one).
        """
        with trace_span(
            "fabric.lease", lease=lease_id, points=len(payloads)
        ) as span:
            specs = [JobSpec.from_payload(p) for p in payloads]
            report = runner.run(specs)
            solved = failed = 0
            for payload, result in zip(payloads, report.results):
                key = str(payload["key"])
                if result.ok:
                    db.complete_trial(
                        experiment_id,
                        key,
                        self.worker_id,
                        result.elapsed,
                        from_cache=result.from_cache,
                    )
                    solved += 1
                else:
                    db.fail_trial(
                        experiment_id, key, self.worker_id, result.error or "unknown"
                    )
                    failed += 1
            db.release_lease(lease_id)
            span.set(solved=solved, failed=failed, mode=report.manifest.mode)
        stats.points += len(payloads)
        stats.solved += solved
        stats.failed += failed
        obs_registry().counter("fabric.worker.points").inc(len(payloads))
