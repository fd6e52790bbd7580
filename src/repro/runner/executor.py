"""The sweep runner: managed, parallel, cached execution of model points.

Execution pipeline for one :meth:`SweepRunner.run`:

1. **Deduplicate** the requested specs by content-addressed key -- within a
   single run an identical point is never solved twice.
2. **Probe the store**: keys with a persisted result become cache hits.
3. **Solve the misses** on one of three backends:

   * ``batch`` -- stack same-shape points into one batched AMVA fixed point
     (:func:`repro.core.model.solve_points`); the in-process default for
     figure-sized lattices, typically an order of magnitude faster than the
     per-point loop.  Symmetric points come back bitwise-identical to a
     scalar solve, so swapping backends never disturbs cached records.
   * ``process`` -- a ``ProcessPoolExecutor`` with per-point timeout.
     Worker exceptions are retried (bounded); a broken pool (worker died)
     degrades gracefully to serial execution of whatever is left.
   * ``serial`` -- the per-point in-process loop (tiny sweeps, where any
     batching or pool overhead would dominate; also the fallback when a
     batch group fails).

4. **Persist** fresh results and emit a :class:`~repro.runner.manifest.RunManifest`.

Fresh solves are round-tripped through the same JSON form a cache hit is
read from, so a warm run is bitwise-indistinguishable from a cold one.

Resilience (see ``docs/RESILIENCE.md``): every backend fallback is an
explicit :class:`~repro.resilience.degrade.DegradationPolicy` step recorded
in ``manifest.degradations``; with ``journal=`` each completed point is
durably appended to a :class:`~repro.resilience.journal.SweepJournal` so a
killed sweep resumes (``resume=True``) bitwise-identically; non-finite
solver output is caught before it can poison the store; and the
``worker.crash`` / ``worker.hang`` / ``solve.delay`` fault sites let the
chaos suite drive every one of those paths deterministically.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.metrics import MMSPerformance
from ..core.model import MMSModel
from ..obs import Tracer, diff_snapshots, get_tracer
from ..obs import registry as obs_registry
from ..obs import trace_span
from ..obs.timeseries import get_recorder
from ..obs.trace import configure
from ..params import MMSParams
from ..queueing.kernels.shm import SharedArrays, attach_arrays, write_arrays
from ..queueing.mva_symmetric import SymmetricSolution
from ..resilience.degrade import DegradationPolicy
from ..resilience.faults import fault_point
from ..resilience.integrity import finite_measures
from ..resilience.journal import SweepJournal, sweep_signature
from ..scenarios import payload_scenario
from .manifest import RunManifest, latency_stats
from .spec import SOLVER_VERSION, TIMEOUT_ERROR_PREFIX, JobSpec, RunResult
from .store import ResultStore

__all__ = [
    "SweepRunner",
    "RunReport",
    "solve_job",
    "solve_group_shm",
    "BACKENDS",
]

#: a worker callable: JSON payload in, ``{"perf": dict, "elapsed": s}`` out
Worker = Callable[[Mapping[str, object]], Mapping[str, object]]
#: progress callback: ``(done, total_unique, result)``
Progress = Callable[[int, int, RunResult], None]

#: recognised execution backends
BACKENDS = ("auto", "batch", "process", "serial")
#: poll interval while a pooled point waits for a worker slot
_POLL_S = 0.05


def solve_job(payload: Mapping[str, object]) -> dict[str, object]:
    """Default worker: solve one canonicalized point.

    Module-level so it pickles for process-pool dispatch; takes and returns
    pure-JSON structures so the same function serves the serial path.

    When the payload carries a ``"trace"`` context (pool dispatch under an
    active tracer), the solve runs under a local buffering tracer adopted
    from it and the finished spans ride back with the result as
    ``"spans"`` -- the parent ingests them into its own sink, so workers
    never touch the trace file.
    """
    if payload.get("pooled"):
        # chaos sites for pool workers only: the executor marks dispatched
        # payloads, so the parent's serial fallback can never kill itself
        if fault_point("worker.crash") is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        spec = fault_point("worker.hang")
        if spec is not None:
            time.sleep(float(spec.args.get("sleep_s", 30.0)))
    spec = fault_point("solve.delay")
    if spec is not None:
        time.sleep(float(spec.args.get("sleep_s", 0.05)))
    scenario = payload_scenario(payload)
    params = scenario.params_from_dict(payload["params"])
    ctx = payload.get("trace")
    if ctx is not None:
        tracer = Tracer.adopt(ctx)
        prev = configure(tracer=tracer)
        try:
            t0 = time.perf_counter()
            with tracer.span(
                "sweep.point", key=str(payload["key"])[:12], method=payload["method"]
            ):
                perf = scenario.solve(params, method=payload["method"])
            elapsed = time.perf_counter() - t0
        finally:
            configure(**prev)
        return {"perf": perf.to_dict(), "elapsed": elapsed, "spans": tracer.drain()}
    t0 = time.perf_counter()
    with trace_span(
        "sweep.point", key=str(payload["key"])[:12], method=payload["method"]
    ):
        perf = scenario.solve(params, method=payload["method"])
    return {"perf": perf.to_dict(), "elapsed": time.perf_counter() - t0}


def solve_group_shm(payload: Mapping[str, object]) -> dict[str, object]:
    """Pool worker for one shared-memory batched group.

    The packed station arrays arrive as a :class:`SharedArrays` descriptor
    (``payload["shm"]``) instead of pickled bytes; the solved arrays travel
    back through pre-created result segments (``payload["out"]``), so the
    only pickled traffic either direction is the small name/shape/dtype
    metadata -- a figure-scale group costs the pool two byte copies, not
    two serializations.  Runs the same ``solve_symmetric_batch`` every
    other backend uses, so results are bitwise-identical to an in-process
    batched solve.
    """
    if payload.get("pooled"):
        if fault_point("worker.crash") is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        spec = fault_point("worker.hang")
        if spec is not None:
            time.sleep(float(spec.args.get("sleep_s", 30.0)))
    from ..queueing.mva_batch import solve_symmetric_batch

    t0 = time.perf_counter()
    arrays = attach_arrays(payload["shm"])
    sols = solve_symmetric_batch(
        arrays["visits"],
        arrays["service"],
        arrays["station_type"],
        arrays["populations"],
        tol=float(payload.get("tol", 1e-12)),
        servers=arrays["servers"],
    )
    batch = sols[0].telemetry.batch if sols and sols[0].telemetry else None
    write_arrays(
        payload["out"],
        {
            "throughput": np.array([s.throughput for s in sols]),
            "waiting": np.stack([s.waiting for s in sols]),
            "queue": np.stack([s.queue_length for s in sols]),
            "total_queue": np.stack([s.total_queue for s in sols]),
            "iterations": np.array([s.iterations for s in sols], dtype=np.int64),
            "converged": np.array([s.converged for s in sols], dtype=bool),
            "residual": np.array([s.residual for s in sols]),
        },
    )
    return {
        "batch": None if batch is None else batch.to_dict(),
        "elapsed": time.perf_counter() - t0,
    }


class _PoolWatch:
    """Execution-deadline bookkeeping for one pool collection loop.

    See :meth:`SweepRunner._pooled_result` for the semantics; one instance
    is shared by every pooled wait of a run so deadlines arm as points
    start, not as collection happens to reach them.
    """

    def __init__(self) -> None:
        #: per-future execution deadline, armed at first observed running
        self.deadlines: dict = {}
        #: index into the futures list; everything before it is armed
        self._armed_prefix = 0
        #: last instant the pool showed life (a point started running)
        self.progress_t = time.monotonic()

    def arm(self, futures: list, timeout: float) -> None:
        """Arm deadlines for futures that have started since the last scan.

        The pool dispatches work items in submission order, so the scan
        walks the armed prefix forward and stops at the first future that
        is neither running nor done -- nothing later can have started yet.
        Amortized O(1) per call over a run.
        """
        now = time.monotonic()
        i = self._armed_prefix
        while i < len(futures):
            f = futures[i][1]
            if f not in self.deadlines:
                if not (f.running() or f.done()):
                    break
                self.deadlines[f] = now + timeout
                self.progress_t = now
            i += 1
        self._armed_prefix = i


@dataclass
class RunReport:
    """Everything one managed sweep produced."""

    #: one result per requested spec, in request order
    results: list[RunResult]
    manifest: RunManifest

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def records(self) -> list[dict[str, object]]:
        """Deterministic data records (raises if any point failed)."""
        return [r.record() for r in self.results]


def _result_record(result: RunResult) -> dict[str, object]:
    """The persistable record of a successful result.

    One shape for the store, the journal, and journal replay -- the round
    trip through this JSON form is what makes warm, resumed and cold runs
    bitwise-indistinguishable.
    """
    rec: dict[str, object] = {
        "method": result.method,
        "params": result.params.to_dict(),
        "perf": result.perf.to_dict(),
        "elapsed": result.elapsed,
    }
    if result.amortized:
        rec["amortized"] = True
    return rec


class _RunStats:
    """Mutable counters threaded through one run."""

    def __init__(self) -> None:
        self.timeouts = 0
        self.retries = 0
        self.worker_crashes = 0
        self.latencies: list[float] = []
        #: how many of ``latencies`` are amortized batch shares
        self.amortized = 0


class SweepRunner:
    """Managed executor for batches of model points.

    Parameters
    ----------
    jobs:
        Worker processes; 1 (default) solves in-process.
    store / cache_dir:
        Persistent result store (or a directory to open one in).  ``None``
        disables caching.
    timeout:
        Per-point wall-clock budget in seconds.  Enforced only on the
        parallel path -- a serial in-process solve cannot be preempted.
    retries:
        Extra attempts for a point whose solve *raised* (timeouts are not
        retried: a point that exceeded its budget once will again).
    min_parallel_points:
        Smallest number of cache misses worth spinning up a pool for;
        below it the run stays serial regardless of ``jobs``.
    worker:
        Override the solve callable (test seam / custom backends).  Must be
        picklable for the parallel path.  A custom worker disables the
        batched backend -- batching is a property of the default solver.
    backend:
        ``"auto"`` (default) picks the process pool when ``jobs > 1`` and
        the sweep is big enough, then the batched kernel for groups of
        same-shape points, then per-point serial.  ``"batch"``,
        ``"process"`` and ``"serial"`` force a backend (each still falls
        back to serial where its preconditions fail -- e.g. one point,
        unbatchable method, or a dead pool).
    min_batch_points:
        Smallest group of same-shape cache misses worth stacking into one
        batched solve; below it points run per-point.
    min_shm_points:
        Smallest symmetric same-shape group the process backend ships to a
        pool worker as one shared-memory batched solve (zero-pickle array
        handoff, see :mod:`repro.queueing.kernels.shm`); smaller groups are
        dispatched per point.  Only applies when no per-point ``timeout``
        is set -- a batched group cannot be preempted point by point.
    journal:
        Path of a sweep progress journal.  When given, every completed
        point is durably appended (one flushed line each) so an
        interrupted sweep can be resumed.
    resume:
        Replay an existing journal at ``journal`` before solving: its
        verified records count as ``journal_hits`` and only the remainder
        is solved.  The journal must belong to this exact sweep (same
        points, same solver version) -- a mismatch raises
        :class:`~repro.resilience.journal.JournalError`.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: ResultStore | None = None,
        cache_dir: str | None = None,
        timeout: float | None = None,
        retries: int = 1,
        min_parallel_points: int = 8,
        worker: Worker | None = None,
        backend: str = "auto",
        min_batch_points: int = 2,
        journal: str | os.PathLike | None = None,
        resume: bool = False,
        min_shm_points: int = 1024,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; pick from {'/'.join(BACKENDS)}"
            )
        if min_batch_points < 2:
            raise ValueError(f"min_batch_points must be >= 2, got {min_batch_points}")
        if min_shm_points < 2:
            raise ValueError(f"min_shm_points must be >= 2, got {min_shm_points}")
        if store is None and cache_dir is not None:
            store = ResultStore(cache_dir)
        self.jobs = jobs
        self.store = store
        self.timeout = timeout
        self.retries = retries
        self.min_parallel_points = min_parallel_points
        self.worker: Worker = worker if worker is not None else solve_job
        self.backend = backend
        self.min_batch_points = min_batch_points
        self.journal = journal
        self.resume = resume
        self.min_shm_points = min_shm_points

    # ------------------------------------------------------------ public API
    def solve(self, params: MMSParams, method: str = "auto") -> MMSPerformance:
        """Single-point convenience: solve through the cache, raise on failure."""
        report = self.run([JobSpec(params=params, method=method)])
        result = report.results[0]
        if not result.ok:
            raise RuntimeError(f"solve failed: {result.error}")
        return result.perf

    def run(
        self, specs: Sequence[JobSpec], progress: Progress | None = None
    ) -> RunReport:
        t_start = time.perf_counter()
        created_at = time.time()
        # a process-global MetricsRecorder (if the embedder started one)
        # gets its windowed digest embedded under manifest.series
        recorder = get_recorder()
        stats = _RunStats()
        policy = DegradationPolicy()
        metrics_before = obs_registry().snapshot()
        #: consecutive wall-clock segments; they tile the run, so their sum
        #: tracks ``wall_clock_s`` (CI asserts within 5%)
        stages: dict[str, float] = {}

        with trace_span(
            "sweep.run", total_points=len(specs), backend=self.backend, jobs=self.jobs
        ) as root:
            t0 = time.perf_counter()
            with trace_span("sweep.spec_hash", points=len(specs)):
                payloads = [spec.payload() for spec in specs]
                # first-seen order of unique keys
                unique: dict[str, dict[str, object]] = {}
                for payload in payloads:
                    unique.setdefault(payload["key"], payload)
            stages["spec_hash"] = time.perf_counter() - t0

            # open (or resume) the durable progress journal; the "journal"
            # stage exists only when journaling is on, so unjournaled runs
            # keep their exact historical stage set
            journal: SweepJournal | None = None
            replay: dict[str, dict[str, object]] = {}
            journal_hits = 0
            if self.journal is not None:
                t0 = time.perf_counter()
                sig = sweep_signature(unique, SOLVER_VERSION)
                with trace_span("sweep.journal", resume=self.resume) as sp:
                    if self.resume:
                        journal, replay = SweepJournal.resume(
                            self.journal, sig, len(unique)
                        )
                    else:
                        journal = SweepJournal.create(self.journal, sig, len(unique))
                    sp.set(replayed=len(replay), dropped=journal.dropped)
                stages["journal"] = time.perf_counter() - t0

            report_progress = progress
            if journal is not None:
                # every successful point is durably journaled the moment it
                # completes -- the solve paths all funnel through progress
                def report_progress(
                    done: int,
                    total: int,
                    result: RunResult,
                    _journal: SweepJournal = journal,
                    _inner: Progress | None = progress,
                ) -> None:
                    if result.ok:
                        _journal.append(result.key, _result_record(result))
                    if _inner is not None:
                        _inner(done, total, result)

            t0 = time.perf_counter()
            resolved: dict[str, RunResult] = {}
            cache_hits = 0
            done = 0
            with trace_span("sweep.cache_lookup", unique_points=len(unique)) as sp:
                for key, payload in unique.items():
                    rec = replay.get(key)
                    if rec is not None:
                        result = self._from_record(payload, rec, from_cache=True)
                        resolved[key] = result
                        journal_hits += 1
                        done += 1
                        if report_progress is not None:
                            report_progress(done, len(unique), result)
                        continue
                    rec = self.store.get(key) if self.store is not None else None
                    if rec is not None:
                        result = self._from_record(payload, rec, from_cache=True)
                        resolved[key] = result
                        cache_hits += 1
                        done += 1
                        if report_progress is not None:
                            report_progress(done, len(unique), result)
                sp.set(hits=cache_hits, journal_hits=journal_hits)
            stages["cache_lookup"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            pending = [p for k, p in unique.items() if k not in resolved]
            mode = "serial"
            solver_batches: list[dict[str, object]] = []
            with trace_span("sweep.solve", pending=len(pending)) as sp:
                if pending:
                    use_pool = (
                        self.backend in ("auto", "process")
                        and self.jobs > 1
                        and len(pending) >= self.min_parallel_points
                    )
                    if use_pool:
                        mode = self._run_parallel(
                            pending,
                            resolved,
                            stats,
                            report_progress,
                            done,
                            policy,
                            solver_batches,
                        )
                    elif self.backend in ("auto", "batch") and self.worker is solve_job:
                        mode = self._run_batch(
                            pending,
                            resolved,
                            stats,
                            report_progress,
                            done,
                            solver_batches,
                            policy,
                        )
                    else:
                        self._run_serial(
                            pending, resolved, stats, report_progress, done
                        )
                sp.set(mode=mode)
            stages["solve"] = time.perf_counter() - t0

            # persist fresh successes (journal-replayed points too: the
            # interrupted run died before its store_write, and put() is
            # idempotent for anything already on disk)
            t0 = time.perf_counter()
            with trace_span("sweep.store_write"):
                if self.store is not None:
                    for key, result in resolved.items():
                        if result.ok and (not result.from_cache or key in replay):
                            self.store.put(key, _result_record(result))
                    self.store.flush()
            if journal is not None:
                journal.close()
            stages["store_write"] = time.perf_counter() - t0

            # assemble per-request results (duplicates share the first solve)
            t0 = time.perf_counter()
            with trace_span("sweep.assemble"):
                results: list[RunResult] = []
                seen: set[str] = set()
                for payload in payloads:
                    key = payload["key"]
                    base = resolved[key]
                    results.append(base if key not in seen else base.as_duplicate())
                    seen.add(key)
                failures = sum(1 for r in resolved.values() if not r.ok)
            stages["assemble"] = time.perf_counter() - t0

            solved = len(resolved) - cache_hits - journal_hits - failures
            root.set(mode=mode, solved=solved)

        manifest = RunManifest(
            solver_version=SOLVER_VERSION,
            jobs=self.jobs,
            mode=mode,
            backend=self.backend,
            solver_batches=solver_batches,
            total_points=len(specs),
            unique_points=len(unique),
            cache_hits=cache_hits,
            solved=solved,
            failures=failures,
            timeouts=stats.timeouts,
            retries=stats.retries,
            worker_crashes=stats.worker_crashes,
            wall_clock_s=time.perf_counter() - t_start,
            cache_hit_rate=(cache_hits / len(unique)) if unique else 0.0,
            point_latency=latency_stats(stats.latencies, amortized=stats.amortized),
            store=self.store.stats() if self.store is not None else None,
            stages=stages,
            metrics=diff_snapshots(metrics_before, obs_registry().snapshot()),
            journal_hits=journal_hits,
            resumed=bool(self.resume and self.journal is not None),
            journal_path=str(self.journal) if self.journal is not None else None,
            degradations=policy.to_list(),
            created_at=created_at,
            series=recorder.summary() if recorder is not None else None,
        )
        return RunReport(results=results, manifest=manifest)

    # -------------------------------------------------------------- internals
    def _from_record(
        self,
        payload: Mapping[str, object],
        rec: Mapping[str, object],
        from_cache: bool,
    ) -> RunResult:
        scenario = payload_scenario(payload)
        return RunResult(
            key=payload["key"],
            params=scenario.params_from_dict(payload["params"]),
            method=payload["method"],
            perf=scenario.perf_from_dict(rec["perf"]),
            elapsed=float(rec.get("elapsed", 0.0)),
            attempts=0 if from_cache else 1,
            from_cache=from_cache,
            amortized=bool(rec.get("amortized", False)),
        )

    def _failure(
        self, payload: Mapping[str, object], error: str, attempts: int
    ) -> RunResult:
        return RunResult(
            key=payload["key"],
            params=payload_scenario(payload).params_from_dict(payload["params"]),
            method=payload["method"],
            perf=None,
            attempts=attempts,
            error=error,
        )

    def _solve_with_retry(
        self,
        payload: Mapping[str, object],
        stats: _RunStats,
        prior_attempts: int = 0,
        prior_error: str | None = None,
    ) -> RunResult:
        """In-process solve with bounded retry on exceptions.

        ``prior_attempts``/``prior_error`` carry failed pool attempts into
        the budget, so a point gets ``retries + 1`` attempts total no matter
        where they ran.
        """
        attempts = prior_attempts
        last_error = prior_error
        while attempts <= self.retries:
            attempts += 1
            if attempts > 1:
                stats.retries += 1
            try:
                out = self.worker(payload)
            except Exception as exc:  # noqa: BLE001 - solver faults become results
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if not finite_measures(out.get("perf")):
                # NaN/Inf must never reach the store (its canonical
                # encoding rejects them); burn an attempt instead
                last_error = "non-finite measures in solve result"
                continue
            result = self._from_record(payload, out, from_cache=False)
            result.attempts = attempts
            stats.latencies.append(result.elapsed)
            return result
        return self._failure(payload, last_error or "unknown error", attempts)

    def _run_serial(
        self,
        pending: list[Mapping[str, object]],
        resolved: dict[str, RunResult],
        stats: _RunStats,
        progress: Progress | None,
        done: int,
    ) -> None:
        self._run_serial_counted(
            pending, resolved, stats, progress, done, done + len(pending)
        )

    def _run_serial_counted(
        self,
        pending: list[Mapping[str, object]],
        resolved: dict[str, RunResult],
        stats: _RunStats,
        progress: Progress | None,
        done: int,
        total: int,
    ) -> None:
        for payload in pending:
            result = self._solve_with_retry(payload, stats)
            resolved[payload["key"]] = result
            done += 1
            if progress is not None:
                progress(done, total, result)

    def _run_batch(
        self,
        pending: list[Mapping[str, object]],
        resolved: dict[str, RunResult],
        stats: _RunStats,
        progress: Progress | None,
        done: int,
        solver_batches: list[dict[str, object]],
        policy: DegradationPolicy,
    ) -> str:
        """Batched in-process execution; returns the mode the run ended in.

        Pending points are grouped by ``(scenario, method, group key)`` --
        the homogeneity the scenario's batched solve requires (for the
        torus: one machine size, per :func:`~repro.core.model.solve_points`)
        -- and each group large enough is solved as one stacked fixed
        point.  Leftovers (small groups, unbatchable methods, scenarios
        without a batch path) run per-point; a group whose batch solve
        raised or produced non-finite measures is a recorded batch->serial
        degradation and also runs per-point.  The mode is ``"batch"`` only
        if at least one group actually batched.
        """
        total = done + len(pending)
        groups: dict[tuple, list[Mapping[str, object]]] = {}
        for payload in pending:
            scenario = payload_scenario(payload)
            params = scenario.params_from_dict(payload["params"])
            groups.setdefault(
                (scenario.name, payload["method"], scenario.group_key(params)), []
            ).append(payload)

        batched_any = False
        serial_left: list[Mapping[str, object]] = []
        for (scenario_name, method, group_key), group in groups.items():
            scenario = payload_scenario(group[0])
            if (
                group_key is None
                or method not in scenario.batchable_methods
                or len(group) < self.min_batch_points
            ):
                serial_left.extend(group)
                continue
            t0 = time.perf_counter()
            try:
                perfs, telemetry = scenario.solve_points(
                    [scenario.params_from_dict(p["params"]) for p in group],
                    method=method,
                )
            except Exception as exc:  # noqa: BLE001 - degrade to the per-point loop
                policy.degrade(
                    "batch", "serial", f"{type(exc).__name__}: {exc}", len(group)
                )
                serial_left.extend(group)
                continue
            if not all(finite_measures(perf.to_dict()) for perf in perfs):
                policy.degrade(
                    "batch",
                    "serial",
                    "non-finite measures in batched solve",
                    len(group),
                )
                serial_left.extend(group)
                continue
            batched_any = True
            # The true batch span is recorded once: `solve_points` emits the
            # solver.batch trace span and the telemetry below carries the
            # batch wall time.  Each point still gets an even `share` so the
            # manifest's point-latency distribution counts every point, but
            # the results are flagged amortized so time-attribution (the
            # `report` command) never re-sums shares on top of the batch.
            share = (time.perf_counter() - t0) / len(group)
            for payload, perf in zip(group, perfs):
                result = self._from_record(
                    payload,
                    {"perf": perf.to_dict(), "elapsed": share, "amortized": True},
                    from_cache=False,
                )
                stats.latencies.append(result.elapsed)
                stats.amortized += 1
                resolved[payload["key"]] = result
                done += 1
                if progress is not None:
                    progress(done, total, result)
            if telemetry is not None:
                solver_batches.append({"method": method, **telemetry.to_dict()})

        if serial_left:
            self._run_serial_counted(serial_left, resolved, stats, progress, done, total)
        return "batch" if batched_any else "serial"

    def _pooled_result(
        self,
        future,
        futures: list[tuple[Mapping[str, object], object]],
        watch: "_PoolWatch",
    ) -> Mapping[str, object]:
        """One pooled result under the per-point *execution* budget.

        ``self.timeout`` is charged against solve time, not queue wait:
        *watch* arms a deadline for every future the moment it is first
        observed running, so a point queued behind a busy pool keeps its
        full budget no matter how late collection reaches it.  (The pool
        marks a work item running when it enters its dispatch queue, so
        the budget can include at most one predecessor's remaining solve
        time.)

        While the point waits for a worker slot, the watch's progress
        clock backstops the pathological case where every worker is
        wedged: collection runs in submission order, so an undispatched
        point here means each worker is either about to pick it up or
        stuck on an already-abandoned (timed-out) point -- if a full
        budget passes without any point starting, waiting cannot help, and
        the wait is abandoned as a timeout (:class:`FutureTimeout`) rather
        than blocking forever.
        """
        while True:
            watch.arm(futures, self.timeout)
            deadline = watch.deadlines.get(future)
            try:
                if deadline is not None:
                    return future.result(
                        timeout=max(0.0, deadline - time.monotonic())
                    )
                return future.result(timeout=_POLL_S)
            except FutureTimeout:
                if deadline is not None:
                    raise
                if time.monotonic() - watch.progress_t >= self.timeout:
                    raise

    def _shm_partition(
        self, pending: list[Mapping[str, object]]
    ) -> tuple[list[list[tuple[Mapping[str, object], MMSModel]]], list[Mapping[str, object]]]:
        """Split *pending* into shm-batchable symmetric groups and the rest.

        A group qualifies for the shared-memory batched handoff when the
        default worker is in play (batching is a property of the default
        solver), no per-point timeout is set (a stacked solve cannot be
        preempted point by point), every point resolves to the symmetric
        method on one machine size, and the group reaches
        ``min_shm_points``.
        """
        if self.worker is not solve_job or self.timeout is not None:
            return [], list(pending)
        groups: dict[int, list[tuple[Mapping[str, object], MMSModel]]] = {}
        rest: list[Mapping[str, object]] = []
        for payload in pending:
            if payload.get("scenario") is not None:
                # the shm pack is torus-specific; non-default scenarios
                # take the per-point (or in-process batch) path
                rest.append(payload)
                continue
            if payload["method"] not in ("auto", "symmetric"):
                rest.append(payload)
                continue
            model = MMSModel(MMSParams.from_dict(payload["params"]))
            if not model.is_symmetric:
                rest.append(payload)
                continue
            groups.setdefault(model.params.arch.num_processors, []).append(
                (payload, model)
            )
        eligible = []
        for _size, group in groups.items():
            if len(group) >= self.min_shm_points:
                eligible.append(group)
            else:
                rest.extend(p for p, _m in group)
        return eligible, rest

    def _submit_shm_group(self, pool: ProcessPoolExecutor, group) -> tuple:
        """Pack one symmetric group into shared memory and submit it.

        Both the packed station arrays and the (pre-created) result
        segments are owned by this process; the worker only ever attaches.
        On any failure the segments are unlinked before re-raising, so a
        broken submission never leaks shared memory.
        """
        arrays = [m.station_arrays() for _, m in group]
        visits = np.stack([a[0] for a in arrays])
        b, m = visits.shape
        inputs = SharedArrays(
            {
                "visits": visits,
                "service": np.stack([a[1] for a in arrays]),
                "servers": np.stack([a[3] for a in arrays]),
                "populations": np.array(
                    [mod.params.workload.num_threads for _, mod in group]
                ),
                "station_type": arrays[0][2],
            }
        )
        try:
            outs = SharedArrays(
                {
                    "throughput": np.zeros(b),
                    "waiting": np.zeros((b, m)),
                    "queue": np.zeros((b, m)),
                    "total_queue": np.zeros((b, m)),
                    "iterations": np.zeros(b, dtype=np.int64),
                    "converged": np.zeros(b, dtype=bool),
                    "residual": np.zeros(b),
                }
            )
        except Exception:
            inputs.unlink()
            raise
        try:
            future = pool.submit(
                solve_group_shm,
                {
                    "shm": inputs.meta,
                    "out": outs.meta,
                    "tol": 1e-12,
                    "pooled": True,
                },
            )
        except Exception:
            inputs.unlink()
            outs.unlink()
            raise
        return group, arrays, inputs, outs, future

    def _collect_shm_group(
        self,
        group,
        arrays,
        outs: SharedArrays,
        future,
        resolved: dict[str, RunResult],
        stats: _RunStats,
        progress: Progress | None,
        done: int,
        total: int,
        solver_batches: list[dict[str, object]],
    ) -> int:
        """Turn one finished shm group into per-point results; returns the
        updated done count.  Raises (for the caller to degrade the whole
        group) if the worker failed or produced non-finite measures."""
        out = future.result()
        res = attach_arrays(outs.meta)
        share = float(out["elapsed"]) / len(group)
        results = []
        for i, ((payload, model), arr) in enumerate(zip(group, arrays)):
            sol = SymmetricSolution(
                throughput=float(res["throughput"][i]),
                waiting=res["waiting"][i],
                queue_length=res["queue"][i],
                total_queue=res["total_queue"][i],
                iterations=int(res["iterations"][i]),
                converged=bool(res["converged"][i]),
                residual=float(res["residual"][i]),
            )
            perf = model._measures(arr[0], sol, "symmetric")
            rec = {"perf": perf.to_dict(), "elapsed": share, "amortized": True}
            if not finite_measures(rec["perf"]):
                raise RuntimeError("non-finite measures in shared-memory batch")
            results.append((payload, rec))
        batch = out.get("batch")
        if batch is not None:
            solver_batches.append({"method": "symmetric", "handoff": "shm", **batch})
            self._record_shm_batch_obs(batch)
        for payload, rec in results:
            result = self._from_record(payload, rec, from_cache=False)
            stats.latencies.append(result.elapsed)
            stats.amortized += 1
            resolved[payload["key"]] = result
            done += 1
            if progress is not None:
                progress(done, total, result)
        return done

    @staticmethod
    def _record_shm_batch_obs(batch: Mapping[str, object]) -> None:
        """Fold a worker-side batched solve into this process's telemetry.

        The worker solved in its own process, so the usual ``solver.batch``
        span and ``solver.batch.*`` counters landed in a registry that died
        with it; re-emit them here from the returned batch telemetry so
        shm-handoff runs mean the same thing in traces and metrics as
        in-process batched ones.
        """
        from ..core.model import _record_batch_obs
        from ..queueing.solution import BatchTelemetry

        telemetry = BatchTelemetry(
            batch_size=int(batch["batch_size"]),
            iterations=int(batch["iterations"]),
            converged=int(batch["converged"]),
            max_residual=float(batch["max_residual"]),
            active_trajectory=tuple(batch["active_trajectory"]),
            wall_time_s=float(batch["wall_time_s"]),
        )
        with trace_span("solver.batch", points=telemetry.batch_size) as sp:
            _record_batch_obs(sp, "symmetric", telemetry)

    @staticmethod
    def _degrade_shm_group(
        policy: DegradationPolicy,
        group,
        reason: str,
        shm_failed: list[Mapping[str, object]],
    ) -> None:
        """Record one shm group's shm->batch degradation."""
        policy.degrade("shm", "batch", reason, len(group))
        shm_failed.extend(p for p, _m in group)

    def _run_parallel(
        self,
        pending: list[Mapping[str, object]],
        resolved: dict[str, RunResult],
        stats: _RunStats,
        progress: Progress | None,
        done: int,
        policy: DegradationPolicy,
        solver_batches: list[dict[str, object]],
    ) -> str:
        """Pool execution; returns the mode the run ended in.

        Figure-scale symmetric groups (``min_shm_points`` or more points of
        one machine size) are shipped to a pool worker as a single batched
        solve over shared memory -- zero pickled arrays either direction --
        and unpacked into the same per-point results the batch backend
        produces.  A group whose worker failed degrades (recorded) to the
        in-process batch path, not to per-point serial.  Everything else is
        dispatched per point exactly as before.

        The per-point timeout budgets *execution*, not queue wait: each
        future's clock arms when it is first observed running, so a long
        sweep whose total wall clock exceeds the timeout never spuriously
        fails points that merely queued behind a busy pool, and a future
        that finished within budget is always collected even if collection
        gets to it late.  A pool that stops making progress entirely (every
        worker wedged on a hung point) fails its never-started points as
        timeouts instead of waiting forever -- see :meth:`_pooled_result`.
        """
        total = done + len(pending)
        mode = "parallel"
        # Under an active tracer, submitted payload copies carry the trace
        # context; each worker's buffered spans come back in the result and
        # are ingested here (retries/fallback run in-process and trace
        # through the global tracer directly).  The "pooled" mark scopes the
        # worker.* fault sites to pool processes.
        tracer = get_tracer()
        ctx = tracer.context() if tracer is not None else None
        shm_groups, perpoint = self._shm_partition(pending)
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        pool_error: str | None = None
        hung = False
        #: arms execution deadlines as points start; shared stall guard
        watch = _PoolWatch()
        shm_jobs: list[tuple] = []
        shm_failed: list[Mapping[str, object]] = []
        try:
            for group in shm_groups:
                try:
                    shm_jobs.append(self._submit_shm_group(pool, group))
                except BrokenProcessPool as exc:
                    pool_error = f"{type(exc).__name__}: {exc}"
                    self._degrade_shm_group(policy, group, pool_error, shm_failed)
                except Exception as exc:  # noqa: BLE001 - degrade, don't die
                    self._degrade_shm_group(
                        policy, group, f"{type(exc).__name__}: {exc}", shm_failed
                    )
            try:
                futures = []
                for p in perpoint:
                    job = {**p, "pooled": True}
                    if ctx is not None:
                        job["trace"] = ctx
                    futures.append((p, pool.submit(self.worker, job)))
            except BrokenProcessPool as exc:
                pool_error = f"{type(exc).__name__}: {exc}"
                futures = []
            for group, arrays, inputs, outs, future in shm_jobs:
                try:
                    done = self._collect_shm_group(
                        group,
                        arrays,
                        outs,
                        future,
                        resolved,
                        stats,
                        progress,
                        done,
                        total,
                        solver_batches,
                    )
                except BrokenProcessPool as exc:
                    pool_error = f"{type(exc).__name__}: {exc}"
                    self._degrade_shm_group(policy, group, pool_error, shm_failed)
                except Exception as exc:  # noqa: BLE001 - degrade, don't die
                    self._degrade_shm_group(
                        policy, group, f"{type(exc).__name__}: {exc}", shm_failed
                    )
                finally:
                    inputs.unlink()
                    outs.unlink()
            for payload, future in futures:
                key = payload["key"]
                try:
                    if self.timeout is None:
                        out = future.result()
                    else:
                        out = self._pooled_result(future, futures, watch)
                    if tracer is not None and out.get("spans"):
                        tracer.ingest(out["spans"])
                    if not finite_measures(out.get("perf")):
                        result = self._solve_with_retry(
                            payload,
                            stats,
                            prior_attempts=1,
                            prior_error="non-finite measures in solve result",
                        )
                    else:
                        result = self._from_record(payload, out, from_cache=False)
                        stats.latencies.append(result.elapsed)
                except FutureTimeout:
                    future.cancel()
                    stats.timeouts += 1
                    hung = True
                    result = self._failure(
                        payload, f"{TIMEOUT_ERROR_PREFIX}{self.timeout}s", attempts=1
                    )
                except BrokenProcessPool as exc:
                    pool_error = f"{type(exc).__name__}: {exc}"
                    break  # pool is dead; fall through to serial below
                except Exception as exc:  # worker raised: bounded serial retry
                    result = self._solve_with_retry(
                        payload,
                        stats,
                        prior_attempts=1,
                        prior_error=f"{type(exc).__name__}: {exc}",
                    )
                resolved[key] = result
                done += 1
                if progress is not None:
                    progress(done, total, result)
        finally:
            # don't block on a hung-but-running worker; cancel what we can,
            # and kill workers still running a timed-out point outright so
            # interpreter exit never joins a sleeping process
            handles = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            if hung:
                for proc in handles:
                    if proc.is_alive():
                        proc.terminate()

        if shm_failed:
            # a failed shared-memory group still gets its stacked solve --
            # in-process, through the batch backend (degradation recorded
            # above); only a second failure there drops it to per-point
            unresolved = sum(1 for p in pending if p["key"] not in resolved)
            self._run_batch(
                shm_failed,
                resolved,
                stats,
                progress,
                total - unresolved,
                solver_batches,
                policy,
            )

        remaining = [p for p in pending if p["key"] not in resolved]
        if remaining:
            stats.worker_crashes += 1
            mode = "serial-fallback"
            policy.degrade(
                "process",
                "serial",
                pool_error or "broken process pool",
                len(remaining),
            )
            self._run_serial(remaining, resolved, stats, progress, total - len(remaining))
        return mode

    def close(self) -> None:
        if self.store is not None:
            self.store.flush()
