"""The fabric scheduler: shard a sweep into leases, supervise, finalize.

:class:`FabricScheduler` is the single control process of one fabric
directory.  :meth:`~FabricScheduler.run` is the managed entry point::

    schedule   register the experiment (dedup + content signature), probe
               the shared store so already-solved points never dispatch
    dispatch   spawn N local workers (``repro-mms worker`` subprocesses),
               reap expired leases, respawn dead local workers while work
               remains -- external workers on other hosts may join at any
               time by pointing at the same directory
    finalize   mark the experiment terminal, reopen the store exclusively
               (dedup + index rebuild over every worker's appends), and
               assemble the familiar :class:`~repro.runner.RunReport`

The three stages land in ``manifest.stages`` and as ``fabric.*`` trace
spans; dispatch accounting (leases granted/expired, re-dispatched trials,
attempts) lands in ``manifest.fabric`` and the ``fabric.*`` counters.

Restartability: the experiment id derives from the sweep's content
signature, so a SIGKILLed scheduler re-run with the same JobSpecs attaches
to the same experiment, re-dispatches only non-terminal trials, and the
final records are bitwise-identical to an uninterrupted single-host run
(see ``docs/DISTRIBUTED.md`` for the failure-semantics table).

Exactly one scheduler per fabric directory at a time.  The exclusive
store phases (probe, finalize) compact ``results.jsonl`` to a new inode,
which would orphan the append fds of any still-running worker -- so the
"no concurrent appender" assumption is *enforced*, not assumed: shared
store handles hold a ``flock`` the compaction must win.  The probe is a
cache fast-path and is skipped when live workers hold the store (their
re-solves dedup at finalize); finalize itself raises
:class:`~repro.fabric.db.FabricError` rather than proceed under live
appenders.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

from ..obs import diff_snapshots, trace_span
from ..obs import registry as obs_registry
from ..resilience.journal import sweep_signature
from ..runner.executor import RunReport, validate_backend
from ..scenarios import payload_scenario
from ..runner.manifest import RunManifest, latency_stats
from ..runner.spec import SOLVER_VERSION, JobSpec, RunResult
from ..runner.store import ResultStore, StoreLockError
from .db import DEFAULT_MAX_ATTEMPTS, ExperimentDB, FabricError
from .rollup import fleet_rollup, worker_trace_path

__all__ = ["FabricScheduler"]

#: callback invoked while dispatching: ``(done, total, counts_dict)``
DispatchProgress = Callable[[int, int, dict], None]


class FabricScheduler:
    """Orchestrate one sweep across fabric workers.

    Parameters
    ----------
    fabric_dir:
        Shared coordination directory; created if missing.  Holds
        ``fabric.db`` and the shared result store under ``store/``.
    lease_ttl:
        Seconds a worker lease survives without a heartbeat.
    lease_points:
        Trials per lease (the worker-side batching grain).
    poll_s:
        Dispatch-loop cadence (reaping, respawn checks).
    backend / retries / timeout:
        Execution knobs forwarded to every spawned worker's inner runner.
    lock_timeout_s:
        How long the exclusive store phases (probe, finalize) wait for
        live workers to release the shared store lock before giving up.
    trace_workers:
        When True, every spawned local worker traces into its own
        ``obs/trace-w<i>.jsonl`` under the fabric directory (merged with
        :func:`repro.fabric.rollup.merge_traces`); enabled by
        ``repro-mms sweep --fabric DIR --trace ...``.
    max_attempts:
        Per-trial dispatch budget registered with the experiment: a trial
        failing past it goes terminal (``quarantined`` when >= 2 distinct
        workers tried it, else ``failed``) instead of burning the fleet's
        time forever.  See the quarantine notes in
        :mod:`repro.fabric.db`.
    """

    def __init__(
        self,
        fabric_dir,
        lease_ttl: float = 15.0,
        lease_points: int = 32,
        poll_s: float = 0.1,
        backend: str = "auto",
        retries: int = 1,
        timeout: float | None = None,
        lock_timeout_s: float = 10.0,
        trace_workers: bool = False,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ):
        validate_backend(backend)
        if lease_points < 1:
            raise FabricError(f"lease_points must be >= 1, got {lease_points}")
        if max_attempts < 1:
            raise FabricError(f"max_attempts must be >= 1, got {max_attempts}")
        self.fabric_dir = Path(fabric_dir)
        self.store_dir = self.fabric_dir / "store"
        self.lease_ttl = lease_ttl
        self.lease_points = lease_points
        self.poll_s = poll_s
        self.backend = backend
        self.retries = retries
        self.timeout = timeout
        self.lock_timeout_s = lock_timeout_s
        self.trace_workers = trace_workers
        self.max_attempts = max_attempts
        self.db = ExperimentDB(self.fabric_dir)
        #: local worker subprocesses this scheduler spawned (index -> Popen)
        self._procs: dict[int, subprocess.Popen] = {}
        self._next_worker = 0
        self._store: ResultStore | None = None

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        if self._store is not None:
            self._store.close()
            self._store = None
        self.db.close()

    def __enter__(self) -> "FabricScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ----------------------------------------------------------------- steps
    def submit(
        self, specs: Sequence[JobSpec], meta: dict | None = None
    ) -> tuple[str, dict[str, dict[str, object]]]:
        """Register the sweep; returns ``(experiment_id, unique payloads)``.

        Payloads are deduplicated by content-addressed key in first-seen
        order (duplicate request entries share one trial, exactly as
        :class:`~repro.runner.SweepRunner` dedups).  Before any worker
        starts, the shared store is probed **exclusively** and every
        already-persisted point is marked ``done`` with ``from_cache`` --
        cache hits never cross the fabric.

        The probe is a fast-path only: if live workers still hold the
        shared store lock (external workers may join at any time), probing
        would mean compacting under their append fds, so it is skipped
        instead -- unmarked points get re-solved and the duplicate appends
        collapse at finalize's first-write-wins reopen.
        """
        payloads = [spec.payload() for spec in specs]
        unique: dict[str, dict[str, object]] = {}
        for payload in payloads:
            unique.setdefault(str(payload["key"]), payload)
        signature = sweep_signature(unique, SOLVER_VERSION)
        experiment_id, created = self.db.create_or_resume(
            signature,
            SOLVER_VERSION,
            list(unique.values()),
            meta={"backend": self.backend, **(meta or {})},
            max_attempts=self.max_attempts,
        )
        # store probe: done/failed trials stay as they are, but anything
        # else -- including quarantined, which a prior run's store record
        # can rescue -- is worth a cache lookup
        open_trials = [
            t
            for t in self.db.trials(experiment_id)
            if t["status"] not in ("done", "failed")
        ]
        if open_trials and (self.store_dir / "results.jsonl").exists():
            store = None
            try:
                store = ResultStore(
                    self.store_dir, lock_timeout_s=self.lock_timeout_s
                )
                for trial in open_trials:
                    rec = store.get(str(trial["key"]))
                    if rec is not None:
                        self.db.complete_trial(
                            experiment_id,
                            str(trial["key"]),
                            None,
                            float(rec.get("elapsed", 0.0)),
                            from_cache=True,
                        )
            except StoreLockError:
                # live workers hold the store; re-solving is safe, eating
                # their appends via compaction is not -- skip the fast-path
                obs_registry().counter("fabric.store_probe_skipped").inc()
            finally:
                if store is not None:
                    store.close()
        return experiment_id, unique

    def spawn_worker(self, experiment_id: str) -> subprocess.Popen:
        """Start one local ``repro-mms worker`` subprocess on this fabric."""
        args = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--fabric",
            str(self.fabric_dir),
            "--experiment",
            experiment_id,
            "--lease-points",
            str(self.lease_points),
            "--lease-ttl",
            str(self.lease_ttl),
            "--backend",
            self.backend,
            "--retries",
            str(self.retries),
        ]
        if self.timeout is not None:
            args += ["--timeout", str(self.timeout)]
        if self.trace_workers:
            trace = worker_trace_path(self.fabric_dir, self._next_worker)
            trace.parent.mkdir(parents=True, exist_ok=True)
            args += ["--trace", str(trace)]
        proc = subprocess.Popen(args, stdout=subprocess.DEVNULL)
        self._procs[self._next_worker] = proc
        self._next_worker += 1
        obs_registry().counter("fabric.workers.spawned").inc()
        return proc

    def worker_pids(self) -> list[int]:
        """PIDs of the live local workers (test/chaos seam)."""
        return [p.pid for p in self._procs.values() if p.poll() is None]

    def wait(
        self,
        experiment_id: str,
        progress: DispatchProgress | None = None,
        timeout: float | None = None,
        respawn: bool = True,
    ) -> dict[str, int]:
        """Dispatch loop: reap, supervise, block until every trial is terminal.

        ``respawn=True`` keeps the local worker fleet at its spawned size
        while undone work remains -- a SIGKILLed worker is both reaped (its
        lease expires) and replaced.  External workers are invisible here;
        they coordinate purely through the database.  Raises
        :class:`FabricError` if *timeout* elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        total = int(self.db.experiment(experiment_id)["total_trials"])
        last_done = -1
        while True:
            self.db.reap_expired(experiment_id)
            counts = self.db.counts(experiment_id)
            done = counts["done"] + counts["failed"] + counts["quarantined"]
            if progress is not None and done != last_done:
                progress(done, total, counts)
                last_done = done
            if counts["pending"] == 0 and counts["leased"] == 0:
                return counts
            if respawn and self._procs:
                for index, proc in list(self._procs.items()):
                    if proc.poll() is not None:
                        del self._procs[index]
                        self.spawn_worker(experiment_id)
                        obs_registry().counter("fabric.workers.respawned").inc()
            if deadline is not None and time.monotonic() > deadline:
                raise FabricError(
                    f"experiment {experiment_id} still has "
                    f"{counts['pending']} pending / {counts['leased']} leased "
                    f"trials after {timeout:.0f}s"
                )
            time.sleep(self.poll_s)

    def finalize(
        self,
        experiment_id: str,
        specs: Sequence[JobSpec],
        progress=None,
    ) -> RunReport:
        """Exclusive store reopen + report assembly for a drained experiment.

        The reopen runs the store's recovery scan over every worker's
        appends: duplicate keys from at-least-once re-dispatch collapse
        (first write wins), the index is rebuilt, and the surviving records
        are exactly what an uninterrupted single-host run would have
        persisted.  Compaction under a live appender would eat its writes,
        so the reopen waits for every shared store lock to release and
        raises :class:`FabricError` if workers still hold the store after
        ``lock_timeout_s``.  Results come back in request order;
        ``progress`` (the runner's ``(done, total, result)`` shape) fires
        once per unique point, after the sweep has fully drained --
        duplicates never fire (see :meth:`run`).
        """
        for proc in self._procs.values():
            if proc.poll() is None:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    # a hung worker can't hold a lease past its ttl; don't
                    # let it hold up finalize either (killing it drops its
                    # shared store lock along with the process)
                    proc.kill()
                    proc.wait()
        counts = self.db.counts(experiment_id)
        if counts["pending"] or counts["leased"]:
            raise FabricError(
                f"cannot finalize {experiment_id}: "
                f"{counts['pending']} pending / {counts['leased']} leased"
            )
        try:
            store = ResultStore(self.store_dir, lock_timeout_s=self.lock_timeout_s)
        except StoreLockError as exc:
            raise FabricError(
                f"cannot finalize {experiment_id}: workers still hold the "
                f"shared store ({exc}); wait for them to exit or stop them"
            ) from exc
        self.db.finish(
            experiment_id,
            "done"
            if counts["failed"] == 0 and counts["quarantined"] == 0
            else "failed",
        )
        trials = {str(t["key"]): t for t in self.db.trials(experiment_id)}
        resolved: dict[str, RunResult] = {}
        results: list[RunResult] = []
        done = 0
        for spec in specs:
            payload = spec.payload()
            key = str(payload["key"])
            base = resolved.get(key)
            if base is not None:
                results.append(base.as_duplicate())
                continue
            trial = trials.get(key)
            rec = store.get(key) if trial is not None else None
            if trial is None or (trial["status"] == "done" and rec is None):
                # a done trial must have a store record; its absence means
                # the store was tampered with between runs -- surface it
                result = self._failure(payload, "no store record for done trial")
            elif rec is not None and trial["status"] == "done":
                scenario = payload_scenario(payload)
                result = RunResult(
                    key=key,
                    params=scenario.params_from_dict(payload["params"]),
                    method=str(payload["method"]),
                    perf=scenario.perf_from_dict(rec["perf"]),
                    elapsed=float(rec.get("elapsed", 0.0)),
                    attempts=int(trial["attempts"]) or 1,
                    from_cache=bool(trial["from_cache"]),
                    amortized=bool(rec.get("amortized", False)),
                )
            else:
                error = str(trial["error"] or "trial failed")
                if trial["status"] == "quarantined":
                    error = (
                        f"quarantined after {trial['attempts']} attempts: "
                        f"{error}"
                    )
                result = self._failure(payload, error)
            resolved[key] = result
            results.append(result)
            done += 1
            if progress is not None:
                progress(done, len(trials), result)
        self._store = store  # kept open for stats; closed by close()/caller
        return RunReport(results=results, manifest=None)  # manifest set by run()

    @staticmethod
    def _failure(payload: dict[str, object], error: str) -> RunResult:
        return RunResult(
            key=str(payload["key"]),
            params=payload_scenario(payload).params_from_dict(payload["params"]),
            method=str(payload["method"]),
            perf=None,
            error=error,
        )

    # ------------------------------------------------------------ public API
    def run(
        self,
        specs: Sequence[JobSpec],
        workers: int = 2,
        progress=None,
        timeout: float | None = None,
        meta: dict | None = None,
    ) -> RunReport:
        """Managed fabric sweep: submit, dispatch across *workers*, finalize.

        ``workers=0`` spawns nothing and relies on external workers already
        pointed at the fabric directory.  Returns the same
        :class:`RunReport` a :class:`~repro.runner.SweepRunner` produces,
        with ``manifest.mode == "fabric"`` and dispatch accounting under
        ``manifest.fabric``.

        ``progress`` diverges from the single-host runner's: solves happen
        in worker processes, so the callback fires during **finalize** --
        a burst after the sweep has drained, not live -- once per *unique*
        point with ``total`` the unique count (duplicate request entries
        never fire).  For live dispatch-loop counts, poll the experiment
        DB (``repro-mms exp show``) or use :meth:`wait`'s progress hook.
        """
        t_start = time.perf_counter()
        created_at = time.time()
        metrics_before = obs_registry().snapshot()
        stages: dict[str, float] = {}
        with trace_span(
            "fabric.run", total_points=len(specs), workers=workers
        ) as root:
            t0 = time.perf_counter()
            with trace_span("fabric.schedule", points=len(specs)) as span:
                experiment_id, unique = self.submit(specs, meta=meta)
                counts = self.db.counts(experiment_id)
                # anything terminal before dispatch -- store probe hits and
                # prior runs' completions -- is a cache hit of this run
                pre_done = counts["done"]
                span.set(experiment=experiment_id, cached=pre_done)
            stages["schedule"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            with trace_span("fabric.dispatch", workers=workers) as span:
                if counts["pending"] or counts["leased"]:
                    for _ in range(workers):
                        self.spawn_worker(experiment_id)
                    counts = self.wait(experiment_id, timeout=timeout)
                span.set(
                    **{k: counts[k] for k in ("done", "failed", "quarantined")}
                )
            stages["dispatch"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            with trace_span("fabric.finalize"):
                report = self.finalize(experiment_id, specs, progress=progress)
            stages["finalize"] = time.perf_counter() - t0
            root.set(experiment=experiment_id)

        store = self._store
        by_key: dict[str, RunResult] = {}
        for r in report.results:  # keep the first (solved) result per key;
            by_key.setdefault(r.key, r)  # duplicates are as_duplicate() copies
        uniques = list(by_key.values())
        latencies = [r.elapsed for r in uniques if r.ok and not r.from_cache]
        amortized = sum(
            1 for r in uniques if r.ok and not r.from_cache and r.amortized
        )
        fabric_stats = self.db.stats(experiment_id)
        final = fabric_stats["trials"]
        cache_hits = pre_done
        solved = final["done"] - pre_done
        failures = final["failed"] + final["quarantined"]
        fabric_stats["fabric_dir"] = str(self.fabric_dir)
        fabric_stats["local_workers"] = workers
        # fleet view: per-worker throughput, lease latency, heartbeat gaps,
        # and whatever telemetry the workers shipped into obs/
        fabric_stats["fleet"] = fleet_rollup(
            self.db, experiment_id, fabric_dir=self.fabric_dir
        )
        manifest = RunManifest(
            solver_version=SOLVER_VERSION,
            jobs=workers if workers else 1,
            mode="fabric",
            backend=self.backend,
            total_points=len(specs),
            unique_points=len(unique),
            cache_hits=cache_hits,
            solved=solved,
            failures=failures,
            # worker-side timeouts are failed trials tagged by the
            # executor's stable error prefix; the DB classifies them
            timeouts=int(fabric_stats["timeouts"]),
            retries=max(0, int(fabric_stats["dispatch_attempts"]) - len(unique)),
            worker_crashes=int(fabric_stats["leases_expired"]),
            wall_clock_s=time.perf_counter() - t_start,
            cache_hit_rate=(cache_hits / len(unique)) if unique else 0.0,
            point_latency=latency_stats(latencies, amortized=amortized),
            store=store.stats(),
            stages=stages,
            metrics=diff_snapshots(metrics_before, obs_registry().snapshot()),
            fabric=fabric_stats,
            created_at=created_at,
        )
        store.close()
        self._store = None
        report.manifest = manifest
        return report
