"""The sweep runner: managed, parallel, cached execution of model points.

Execution pipeline for one :meth:`SweepRunner.run`:

1. **Deduplicate** the requested specs by content-addressed key -- within a
   single run an identical point is never solved twice.
2. **Probe the store**: keys with a persisted result become cache hits.
3. **Solve the misses**, batch first (see :meth:`SweepRunner._solve`):

   * ``batch`` -- every group of same-shape points (one scenario, method
     and group key, e.g. one torus machine size) is stacked into one
     batched AMVA fixed point in-process
     (:func:`repro.core.model.solve_points`), whatever ``jobs`` is;
     typically an order of magnitude faster than the per-point loop.
     Symmetric points come back bitwise-identical to a scalar solve, so
     swapping backends never disturbs cached records.
   * ``process`` -- only what cannot batch (unbatchable methods, scenarios
     without a batch path, a custom worker, the points of a failed batch
     group) goes to a ``ProcessPoolExecutor`` when ``jobs > 1``, with a
     per-point timeout.  Worker exceptions are retried (bounded); a
     broken pool (worker died) degrades gracefully to serial execution
     of whatever is left.
   * ``serial`` -- the per-point in-process loop for the rest (tiny
     sweeps, where any batching or pool overhead would dominate).

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

from ..core.metrics import MMSPerformance
from ..obs import Tracer, diff_snapshots, get_tracer
from ..obs import registry as obs_registry
from ..obs import trace_span
from ..obs.timeseries import get_recorder
from ..obs.trace import configure
from ..params import MMSParams
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
    "validate_backend",
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


def validate_backend(name: object) -> str:
    """Check a sweep backend name; returns it.

    The one check behind :class:`SweepRunner`, :func:`repro.configure`,
    :func:`repro.sweep`, the fabric, and ``repro-mms sweep``/``worker``:
    a name outside :data:`BACKENDS` raises ``ValueError`` naming the
    choices.
    """
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; pick from {'/'.join(BACKENDS)}")
    return name


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
        Worker processes for the points that cannot batch; 1 (default)
        solves everything in-process.
    store / cache_dir:
        Persistent result store (or a directory to open one in).  ``None``
        disables caching.
    timeout:
        Per-point wall-clock budget in seconds.  Enforced only on the
        process pool -- an in-process solve cannot be preempted -- so under
        ``backend="auto"`` with ``jobs > 1`` a timeout sends every point to
        the pool.
    retries:
        Extra attempts for a point whose solve *raised* (timeouts are not
        retried: a point that exceeded its budget once will again).
    min_parallel_points:
        Smallest number of pooled points worth spinning up a pool for;
        below it they run serially regardless of ``jobs``.
    worker:
        Override the solve callable (test seam / custom backends).  Must be
        picklable for the parallel path.  A custom worker disables the
        batched backend -- batching is a property of the default solver.
    backend:
        ``"auto"`` (default) batches every group of same-shape points
        in-process and sends only the leftovers to the process pool when
        ``jobs > 1`` (every point, if a ``timeout`` is set); see
        :meth:`_solve`.  ``"batch"`` batches and runs the leftovers
        serially, ``"process"`` pools every point, ``"serial"`` solves
        point by point in-process.  Each falls back to serial where its
        preconditions fail (one point, unbatchable method, a dead pool).
    min_batch_points:
        Smallest group of same-shape cache misses worth stacking into one
        batched solve; below it points run per-point.
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
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        validate_backend(backend)
        if min_batch_points < 2:
            raise ValueError(f"min_batch_points must be >= 2, got {min_batch_points}")
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
                    mode = self._solve(
                        pending,
                        resolved,
                        stats,
                        report_progress,
                        len(unique),
                        policy,
                        solver_batches,
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

    def _solve(
        self,
        pending: list[Mapping[str, object]],
        resolved: dict[str, RunResult],
        stats: _RunStats,
        progress: Progress | None,
        total: int,
        policy: DegradationPolicy,
        solver_batches: list[dict[str, object]],
    ) -> str:
        """Route the cache misses by what they are; returns the run's mode.

        Batch first: under ``auto`` and ``batch`` every batchable group of
        at least ``min_batch_points`` points is solved in-process as one
        stacked fixed point, whatever ``jobs`` is.  Only the leftovers --
        unbatchable methods, scenarios without a batch path, a custom
        worker, the points of a failed batch group -- go to the process
        pool, under ``auto`` with ``jobs > 1`` and at least
        ``min_parallel_points`` of them; otherwise they run serially.  Two
        routes pool every point: ``backend="process"``, and ``auto`` with
        a per-point ``timeout`` and ``jobs > 1``, because a stacked solve
        cannot be preempted point by point.

        A failed batch group is a recorded ``batch -> process`` degradation
        when its points are pooled, ``batch -> serial`` otherwise.  The
        mode is ``"parallel"`` if the pool ran (``"serial-fallback"`` if it
        broke), else ``"batch"`` if any group batched, else ``"serial"``.
        """
        may_pool = self.backend in ("auto", "process") and self.jobs > 1
        pool_all = (
            may_pool
            and (self.backend == "process" or self.timeout is not None)
            and len(pending) >= self.min_parallel_points
        )
        leftovers: list[Mapping[str, object]] = pending
        failed: list[tuple[str, int]] = []
        if (
            not pool_all
            and self.backend in ("auto", "batch")
            and self.worker is solve_job
        ):
            leftovers, failed = self._run_batch(
                pending, resolved, stats, progress, total, solver_batches
            )
        pooled = may_pool and len(leftovers) >= self.min_parallel_points
        for reason, points in failed:
            policy.degrade("batch", "process" if pooled else "serial", reason, points)
        if pooled:
            return self._run_parallel(
                leftovers, resolved, stats, progress, total, policy
            )
        self._run_serial(leftovers, resolved, stats, progress, total)
        return "batch" if len(leftovers) < len(pending) else "serial"

    def _run_serial(
        self,
        pending: list[Mapping[str, object]],
        resolved: dict[str, RunResult],
        stats: _RunStats,
        progress: Progress | None,
        total: int,
    ) -> None:
        for payload in pending:
            result = self._solve_with_retry(payload, stats)
            resolved[payload["key"]] = result
            if progress is not None:
                progress(len(resolved), total, result)

    def _run_batch(
        self,
        pending: list[Mapping[str, object]],
        resolved: dict[str, RunResult],
        stats: _RunStats,
        progress: Progress | None,
        total: int,
        solver_batches: list[dict[str, object]],
    ) -> tuple[list[Mapping[str, object]], list[tuple[str, int]]]:
        """Solve every batchable group in-process; returns what is left.

        Pending points are grouped by ``(scenario, method, group key)`` --
        the homogeneity the scenario's batched solve requires (for the
        torus: one machine size, per :func:`~repro.core.model.solve_points`)
        -- and each group large enough is solved as one stacked fixed
        point.  Returns the leftovers (small groups, unbatchable methods,
        scenarios without a batch path, and groups whose batch solve
        raised or produced non-finite measures) and one ``(reason,
        points)`` per failed group, which the caller records as a
        degradation once it knows where the leftovers run.
        """
        groups: dict[tuple, list[Mapping[str, object]]] = {}
        for payload in pending:
            scenario = payload_scenario(payload)
            params = scenario.params_from_dict(payload["params"])
            groups.setdefault(
                (scenario.name, payload["method"], scenario.group_key(params)), []
            ).append(payload)

        leftovers: list[Mapping[str, object]] = []
        failed: list[tuple[str, int]] = []
        for (scenario_name, method, group_key), group in groups.items():
            scenario = payload_scenario(group[0])
            if (
                group_key is None
                or method not in scenario.batchable_methods
                or len(group) < self.min_batch_points
            ):
                leftovers.extend(group)
                continue
            t0 = time.perf_counter()
            try:
                perfs, telemetry = scenario.solve_points(
                    [scenario.params_from_dict(p["params"]) for p in group],
                    method=method,
                )
            except Exception as exc:  # noqa: BLE001 - degrade to the per-point path
                failed.append((f"{type(exc).__name__}: {exc}", len(group)))
                leftovers.extend(group)
                continue
            if not all(finite_measures(perf.to_dict()) for perf in perfs):
                failed.append(("non-finite measures in batched solve", len(group)))
                leftovers.extend(group)
                continue
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
                if progress is not None:
                    progress(len(resolved), total, result)
            if telemetry is not None:
                solver_batches.append({"method": method, **telemetry.to_dict()})
        return leftovers, failed

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

    def _run_parallel(
        self,
        pending: list[Mapping[str, object]],
        resolved: dict[str, RunResult],
        stats: _RunStats,
        progress: Progress | None,
        total: int,
        policy: DegradationPolicy,
    ) -> str:
        """Per-point pool execution; returns the mode the run ended in.

        The per-point timeout budgets *execution*, not queue wait: each
        future's clock arms when it is first observed running, so a long
        sweep whose total wall clock exceeds the timeout never spuriously
        fails points that merely queued behind a busy pool, and a future
        that finished within budget is always collected even if collection
        gets to it late.  A pool that stops making progress entirely (every
        worker wedged on a hung point) fails its never-started points as
        timeouts instead of waiting forever -- see :meth:`_pooled_result`.
        """
        mode = "parallel"
        # Under an active tracer, submitted payload copies carry the trace
        # context; each worker's buffered spans come back in the result and
        # are ingested here (retries/fallback run in-process and trace
        # through the global tracer directly).  The "pooled" mark scopes the
        # worker.* fault sites to pool processes.
        tracer = get_tracer()
        ctx = tracer.context() if tracer is not None else None
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        pool_error: str | None = None
        hung = False
        #: arms execution deadlines as points start; shared stall guard
        watch = _PoolWatch()
        try:
            try:
                futures = []
                for p in pending:
                    job = {**p, "pooled": True}
                    if ctx is not None:
                        job["trace"] = ctx
                    futures.append((p, pool.submit(self.worker, job)))
            except BrokenProcessPool as exc:
                pool_error = f"{type(exc).__name__}: {exc}"
                futures = []
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
                if progress is not None:
                    progress(len(resolved), total, result)
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
            self._run_serial(remaining, resolved, stats, progress, total)
        return mode

    def close(self) -> None:
        if self.store is not None:
            self.store.flush()
