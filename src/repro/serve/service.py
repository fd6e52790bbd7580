"""The in-process solve service: concurrent requests, coalesced solves.

:class:`SolveService` is the serving-side counterpart of the sweep runner.
Where the runner executes one *known* lattice of points, the service accepts
**independent, concurrent** solve requests -- from threads, an asyncio
application, or the HTTP front end (:mod:`repro.serve.http`) -- and turns
them into the batched fixed points the solver layer is fast at:

1. **Admission** (:meth:`SolveService.submit`): the request is keyed with
   the same content-addressed :class:`~repro.runner.spec.JobSpec` key the
   sweep cache uses.  A key already answered is served from the in-memory
   LRU (tier 1) or the persistent :class:`~repro.runner.store.ResultStore`
   (tier 2); a key currently *in flight* joins the existing computation
   (single-flight dedup) instead of queueing a duplicate solve.  A full
   queue is an explicit :class:`QueueFullError` -- never an unbounded queue,
   never a hang.
2. **Coalescing** (the micro-batcher thread): admitted requests accumulate
   in per-shape buckets -- symmetric-method points of the same machine size
   can stack into one batched AMVA fixed point.  A bucket flushes when it
   reaches ``max_batch`` or when its oldest request has lingered
   ``linger`` seconds, whichever comes first; the linger *adapts* to the
   observed arrival rate (see :class:`ServiceConfig.adaptive`), so a burst
   coalesces wide while a trickle is answered immediately.
3. **Execution**: symmetric buckets of two or more points go through
   :func:`repro.core.model.solve_points`, whose per-point results are
   **bitwise identical** to a scalar :meth:`~repro.core.model.MMSModel.solve`
   (the PR-2 contract); everything else -- single points, asymmetric
   workloads, exotic methods, or a batch whose kernel raised -- degrades to
   the scalar solver, so a response never depends on what it shared a batch
   with.

Every stage is observable through :mod:`repro.obs`: ``serve.*`` counters,
queue-depth gauges, batch-width / linger / request-latency histograms, and
a ``serve.batch`` span per flush.  See ``docs/SERVING.md``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.model import solve_points
from ..obs import registry as obs_registry
from ..obs import trace_span
from ..obs.timeseries import MetricsRecorder
from ..params import MMSParams, ParamError
from ..resilience.admission import AdmissionController, AdmissionDecision
from ..resilience.breaker import CircuitBreaker
from ..runner.spec import JobSpec
from ..runner.store import ResultStore
from ..scenarios import DEFAULT_SCENARIO, get_scenario

__all__ = [
    "DeadlineExceededError",
    "OverloadError",
    "QueueFullError",
    "RateLimitedError",
    "ServeError",
    "ServeResult",
    "ServiceClosedError",
    "ServiceConfig",
    "ShedError",
    "SolveService",
]


class ServeError(Exception):
    """Base class for structured service rejections."""


class OverloadError(ServeError):
    """Admission refused under load; carries a ``retry_after_s`` hint.

    Every overload rejection (queue full, rate limited, shed) is one of
    these, so callers -- and the HTTP front end's ``Retry-After`` header --
    always know *when* to come back, not just that they were refused.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class QueueFullError(OverloadError):
    """Admission refused: the bounded request queue is at capacity.

    This is the service's explicit backpressure signal (HTTP 429 at the
    HTTP front end); the caller should retry later or shed load.
    """


class RateLimitedError(OverloadError):
    """Admission refused: the client exceeded its token-bucket rate."""


class ShedError(OverloadError):
    """Admission refused: the request was load-shed at the door.

    Its deadline could not survive the current queue estimate (or the
    service is in the CoDel drop state), so queueing it would only let it
    expire after wasting a slot.  HTTP 503 at the front end.
    """


class DeadlineExceededError(ServeError):
    """The request's deadline passed while it waited to be solved."""


class ServiceClosedError(ServeError):
    """The service is shut (or shutting) down and takes no new requests."""


#: batch-width histogram buckets (requests per flushed solve)
_WIDTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
#: request-latency histogram buckets (seconds)
_LATENCY_BUCKETS = (1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0)
#: observed linger histogram buckets (seconds a flushed bucket waited)
_LINGER_BUCKETS = (1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`SolveService`.

    Parameters
    ----------
    max_batch:
        Most requests one flushed solve may coalesce; a bucket reaching
        this width flushes immediately.
    min_linger_s / max_linger_s:
        Bounds of the coalescing window.  A bucket flushes once its oldest
        request has waited the current linger, which adapts within these
        bounds (see ``adaptive``).
    adaptive:
        When True (default) the linger tracks the observed arrival rate:
        the service estimates the mean request inter-arrival gap (EWMA) and
        waits only as long as filling the batch is expected to take.
        Sparse traffic (expected gap beyond ``max_linger_s``) is answered
        immediately; bursts coalesce wide.  When False, every bucket
        lingers the full ``max_linger_s``.
    max_queue:
        Bound on requests admitted but not yet answered (queued or mid
        batch).  Admission beyond it raises :class:`QueueFullError`.
    memory_cache:
        Entries of the in-process LRU over solved records (tier 1);
        0 disables it.
    store_dir:
        Directory of a persistent :class:`~repro.runner.store.ResultStore`
        shared with the sweep runner (tier 2); ``None`` disables it.
    default_deadline_s:
        Deadline applied to requests that do not carry their own; ``None``
        means no deadline.
    kernel:
        Solver kernel, checked at construction and otherwise ignored:
        ``"auto"``/``"numpy"`` name the one kernel, ``"numba"`` raises
        :class:`~repro.queueing.kernels.KernelUnavailableError`; ``None``
        checks ``REPRO_SOLVE_KERNEL``.
    series_interval_s:
        Sampling cadence of the service's
        :class:`~repro.obs.timeseries.MetricsRecorder` (the ``/seriesz``
        window); ``0`` disables time-series recording entirely.
    series_capacity:
        Ring-buffer size of that recorder, in samples (default keeps a
        ten-minute window at the default cadence).
    rate_limit / rate_burst:
        Per-client token-bucket admission: at most ``rate_limit``
        requests/second with ``rate_burst`` of headroom per client id
        (see :class:`~repro.resilience.admission.TokenBucket`).  ``0``
        (default) disables rate limiting; ``rate_burst`` of ``0`` with a
        positive ``rate_limit`` defaults the burst to the rate.
    target_wait_s:
        Queue-wait target for deadline-aware load shedding: an arrival
        whose deadline cannot survive the current queue estimate -- or
        any arrival while the estimate has been above this target for a
        sustained interval (CoDel) -- is refused with a ``Retry-After``
        hint instead of queued to die.  ``0`` (default) disables
        shedding, and ``/healthz`` then always reports ``ok``.
    breaker_threshold / breaker_cooldown_s:
        The batched-kernel circuit breaker: ``breaker_threshold``
        consecutive batch failures open it (flushes route straight to
        the scalar path without re-paying the failure) and after
        ``breaker_cooldown_s`` a half-open probe batch tries to close it
        again.  Threshold ``0`` disables the breaker (every flush
        retries the batch, the pre-breaker behaviour).
    scenario:
        Default scenario applied to requests that do not name one
        (the HTTP front end's ``"scenario"`` body key wins over this);
        ``None`` means the torus default.  See ``docs/SCENARIOS.md``.
    """

    max_batch: int = 64
    min_linger_s: float = 0.0002
    max_linger_s: float = 0.005
    adaptive: bool = True
    max_queue: int = 1024
    memory_cache: int = 4096
    store_dir: str | None = None
    default_deadline_s: float | None = None
    kernel: str | None = None
    series_interval_s: float = 1.0
    series_capacity: int = 600
    rate_limit: float = 0.0
    rate_burst: float = 0.0
    target_wait_s: float = 0.0
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 2.0
    scenario: str | None = None

    def __post_init__(self) -> None:
        from ..queueing.kernels import resolve_kernel

        resolve_kernel(self.kernel)
        if self.scenario is not None:
            from ..scenarios import validate_scenario_name

            validate_scenario_name(self.scenario)
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.min_linger_s < 0:
            raise ValueError(f"min_linger_s must be >= 0, got {self.min_linger_s}")
        if self.max_linger_s < self.min_linger_s:
            raise ValueError(
                f"max_linger_s ({self.max_linger_s}) must be >= "
                f"min_linger_s ({self.min_linger_s})"
            )
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.memory_cache < 0:
            raise ValueError(f"memory_cache must be >= 0, got {self.memory_cache}")
        if self.series_interval_s < 0:
            raise ValueError(
                f"series_interval_s must be >= 0, got {self.series_interval_s}"
            )
        if self.series_capacity < 2:
            raise ValueError(
                f"series_capacity must be >= 2, got {self.series_capacity}"
            )
        if self.rate_limit < 0 or self.rate_burst < 0:
            raise ValueError(
                f"rate_limit/rate_burst must be >= 0, got "
                f"{self.rate_limit}/{self.rate_burst}"
            )
        if self.target_wait_s < 0:
            raise ValueError(
                f"target_wait_s must be >= 0, got {self.target_wait_s}"
            )
        if self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown_s <= 0:
            raise ValueError(
                f"breaker_cooldown_s must be > 0, got {self.breaker_cooldown_s}"
            )


@dataclass(frozen=True)
class ServeResult:
    """One answered request: the solved measures plus serving provenance."""

    #: content-addressed request key (shared with the sweep cache)
    key: str
    #: solved measures: :class:`~repro.core.metrics.MMSPerformance` for the
    #: torus scenario, a :class:`~repro.scenarios.ScenarioPerformance` else
    perf: object
    #: how the answer was produced: ``batched`` | ``scalar`` | ``memory`` |
    #: ``store`` | ``coalesced`` (joined another request's in-flight solve)
    source: str
    #: requests the answering solve coalesced (1 for scalar/cache answers)
    batch_width: int
    #: submit-to-resolve wall clock, seconds
    latency_s: float


class _Request:
    """One admitted unique key and every future waiting on it."""

    __slots__ = (
        "key",
        "params",
        "method",
        "scenario",
        "futures",
        "deadline",
        "t_submit",
    )

    def __init__(
        self,
        key: str,
        params: object,
        method: str,
        scenario: str,
        future: Future,
        deadline: float | None,
    ):
        self.key = key
        self.params = params
        #: canonical solver method (never ``"auto"``)
        self.method = method
        #: registered scenario name the params belong to
        self.scenario = scenario
        self.futures: list[Future] = [future]
        #: absolute monotonic deadline, or None
        self.deadline = deadline
        self.t_submit = time.monotonic()


class _Bucket:
    """Requests of one compatible shape, accumulating toward a flush."""

    __slots__ = ("requests", "t_open")

    def __init__(self) -> None:
        self.requests: list[_Request] = []
        self.t_open = time.monotonic()


@dataclass
class _ServiceStats:
    """Service-lifetime counters (the registry keeps process totals)."""

    requests: int = 0
    responses: int = 0
    memory_hits: int = 0
    store_hits: int = 0
    singleflight_hits: int = 0
    rejected: int = 0
    rate_limited: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    errors: int = 0
    batches: int = 0
    batched_points: int = 0
    scalar_points: int = 0
    degraded_batches: int = 0
    max_batch_width: int = 0
    width_sum: int = 0
    #: recent request latencies (seconds) for percentile estimates
    latencies: deque = field(default_factory=lambda: deque(maxlen=4096))


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return float(sorted_values[rank])


class SolveService:
    """Long-lived solve service: concurrent requests in, coalesced solves out.

    >>> from repro.params import paper_defaults
    >>> with SolveService() as svc:
    ...     perf = svc.solve(paper_defaults()).perf
    >>> 0.0 < perf.processor_utilization <= 1.0
    True

    Thread-safe: :meth:`submit` / :meth:`solve` may be called from any
    number of threads; :meth:`asolve` awaits the same futures from asyncio.
    Use as a context manager (or call :meth:`close`) so the batcher thread
    drains and exits cleanly.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self._cond = threading.Condition()
        #: unique in-flight keys -> request (queued or mid-batch)
        self._inflight: dict[str, _Request] = {}
        #: admitted requests the batcher has not yet picked up
        self._arrivals: deque[_Request] = deque()
        #: tier-1 LRU: key -> persisted-record dict (same shape as the store)
        self._memcache: OrderedDict[str, dict] = OrderedDict()
        self._store: ResultStore | None = (
            ResultStore(self.config.store_dir) if self.config.store_dir else None
        )
        #: EWMA of the request inter-arrival gap, seconds (None: no signal yet)
        self._ewma_gap_s: float | None = None
        self._last_arrival: float | None = None
        self._closed = False
        self._drain_on_close = True
        self.stats_ = _ServiceStats()
        self._t_started = time.monotonic()
        #: overload policy: per-client token buckets + deadline shedding
        self.admission = AdmissionController(
            rate_limit=self.config.rate_limit,
            rate_burst=self.config.rate_burst,
            target_wait_s=self.config.target_wait_s,
        )
        #: batched-kernel circuit breaker; None when disabled by config
        self.breaker: CircuitBreaker | None = (
            CircuitBreaker(
                "serve.batch",
                failure_threshold=self.config.breaker_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
            )
            if self.config.breaker_threshold > 0
            else None
        )
        #: ring-buffer sampler behind GET /seriesz; None when disabled
        self.recorder: MetricsRecorder | None = (
            MetricsRecorder(
                interval_s=self.config.series_interval_s,
                capacity=self.config.series_capacity,
            ).start()
            if self.config.series_interval_s > 0
            else None
        )
        self._batcher = threading.Thread(
            target=self._batch_loop, name="repro-serve-batcher", daemon=True
        )
        self._batcher.start()

    # ------------------------------------------------------------- admission
    def submit(
        self,
        params: MMSParams,
        method: str = "auto",
        deadline_s: float | None = None,
        client_id: str = "",
        scenario: str | None = None,
    ) -> "Future[ServeResult]":
        """Admit one solve request; returns a future of :class:`ServeResult`.

        Raises :class:`QueueFullError` (backpressure),
        :class:`RateLimitedError` / :class:`ShedError` (admission control;
        see :class:`ServiceConfig.rate_limit` / ``target_wait_s``) or
        :class:`ServiceClosedError` synchronously; solver errors and
        :class:`DeadlineExceededError` surface through the future.
        ``client_id`` selects the caller's token bucket (the HTTP front
        end passes the ``X-Client-Id`` header, falling back to the remote
        address).  ``scenario`` names the workload family the params
        belong to; ``None`` infers it from the params type.
        """
        spec = JobSpec(params=params, method=method, scenario=scenario)
        if type(params) is not get_scenario(spec.scenario).params_type:
            raise ParamError(
                f"params of type {type(params).__name__} do not belong to "
                f"scenario {spec.scenario!r}"
            )
        canonical = spec.canonical_method()
        key = spec.key()
        future: Future = Future()
        reg = obs_registry()
        t0 = time.monotonic()
        with self._cond:
            if self._closed:
                raise ServiceClosedError("service is closed")
            self.stats_.requests += 1
            reg.counter("serve.requests").inc()
            self._observe_arrival(t0)

            rec = self._memcache_get(key)
            if rec is not None:
                self.stats_.memory_hits += 1
                reg.counter("serve.cache.memory_hits").inc()
                self._resolve_now(future, key, rec, "memory", t0, spec.scenario)
                return future

            inflight = self._inflight.get(key)
            if inflight is not None:
                self.stats_.singleflight_hits += 1
                reg.counter("serve.singleflight_hits").inc()
                inflight.futures.append(future)
                return future

            if self._store is not None:
                rec = self._store.get(key)
                if rec is not None:
                    self.stats_.store_hits += 1
                    reg.counter("serve.cache.store_hits").inc()
                    self._memcache_put(key, rec)
                    self._resolve_now(
                        future, key, rec, "store", t0, spec.scenario
                    )
                    return future

            deadline_s = (
                deadline_s if deadline_s is not None else self.config.default_deadline_s
            )
            depth = len(self._inflight)
            decision = self.admission.check(
                client_id=client_id, deadline_s=deadline_s, queue_depth=depth
            )
            if not decision.admitted:
                if decision.reason == AdmissionDecision.RATE_LIMITED:
                    self.stats_.rate_limited += 1
                    reg.counter("serve.rate_limited").inc()
                    raise RateLimitedError(
                        f"client {client_id or '<anonymous>'} is over its "
                        f"{self.config.rate_limit:g}/s rate limit",
                        retry_after_s=decision.retry_after_s,
                    )
                self.stats_.shed += 1
                reg.counter("serve.shed").inc()
                raise ShedError(
                    f"load shed: estimated queue wait "
                    f"{decision.estimated_wait_s:.3f}s cannot meet the "
                    f"request deadline",
                    retry_after_s=decision.retry_after_s,
                )

            if depth >= self.config.max_queue:
                self.stats_.rejected += 1
                reg.counter("serve.rejected").inc()
                raise QueueFullError(
                    f"solve queue is full ({self.config.max_queue} in flight); "
                    "retry later",
                    retry_after_s=max(0.1, decision.estimated_wait_s / 2.0),
                )
            request = _Request(
                key,
                params,
                canonical,
                spec.scenario,
                future,
                t0 + deadline_s if deadline_s is not None else None,
            )
            self._inflight[key] = request
            self._arrivals.append(request)
            reg.gauge("serve.queue_depth").set(len(self._inflight))
            self._cond.notify()
        return future

    def solve(
        self,
        params: MMSParams,
        method: str = "auto",
        deadline_s: float | None = None,
        timeout: float | None = None,
        client_id: str = "",
        scenario: str | None = None,
    ) -> ServeResult:
        """Blocking convenience around :meth:`submit`."""
        return self.submit(
            params,
            method=method,
            deadline_s=deadline_s,
            client_id=client_id,
            scenario=scenario,
        ).result(timeout=timeout)

    async def asolve(
        self,
        params: MMSParams,
        method: str = "auto",
        deadline_s: float | None = None,
        client_id: str = "",
        scenario: str | None = None,
    ) -> ServeResult:
        """Asyncio front end: await one solve without blocking the loop.

        Admission errors (:class:`QueueFullError`, :class:`RateLimitedError`,
        :class:`ShedError`, :class:`ServiceClosedError`) raise synchronously
        at call time, like :meth:`submit`.
        """
        future = self.submit(
            params,
            method=method,
            deadline_s=deadline_s,
            client_id=client_id,
            scenario=scenario,
        )
        return await asyncio.wrap_future(future)

    # ------------------------------------------------------------- lifecycle
    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service.

        ``drain=True`` (default) answers everything already admitted before
        the batcher exits; ``drain=False`` fails pending requests with
        :class:`ServiceClosedError`.  New submissions are refused either way.
        """
        with self._cond:
            if self._closed and not self._batcher.is_alive():
                return
            self._closed = True
            self._drain_on_close = drain
            self._cond.notify_all()
        self._batcher.join(timeout=timeout)
        if self.recorder is not None:
            self.recorder.stop()
        if self._store is not None:
            self._store.flush()

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close(drain=True)

    # ------------------------------------------------------------------ view
    def stats(self) -> dict[str, object]:
        """JSON-safe service-lifetime summary (the ``/metricsz`` body)."""
        with self._cond:
            s = self.stats_
            lat = sorted(s.latencies)
            answered = s.responses
            widths = s.width_sum
            flushes = s.batches
            return {
                "uptime_s": time.monotonic() - self._t_started,
                "requests": s.requests,
                "responses": answered,
                "in_flight": len(self._inflight),
                "queue_depth": len(self._arrivals),
                "max_queue": self.config.max_queue,
                "memory_hits": s.memory_hits,
                "store_hits": s.store_hits,
                "singleflight_hits": s.singleflight_hits,
                "rejected": s.rejected,
                "rate_limited": s.rate_limited,
                "shed": s.shed,
                "deadline_exceeded": s.deadline_exceeded,
                "errors": s.errors,
                "batches": flushes,
                "batched_points": s.batched_points,
                "scalar_points": s.scalar_points,
                "degraded_batches": s.degraded_batches,
                "batch_width": {
                    "max": s.max_batch_width,
                    "mean": (widths / flushes) if flushes else 0.0,
                },
                "latency_s": {
                    "count": len(lat),
                    "p50": _percentile(lat, 0.50),
                    "p95": _percentile(lat, 0.95),
                    "p99": _percentile(lat, 0.99),
                    "max": lat[-1] if lat else 0.0,
                },
                "ewma_arrival_gap_s": self._ewma_gap_s,
                "memory_cache_entries": len(self._memcache),
                "store_dir": self.config.store_dir,
                "closed": self._closed,
                "admission": self.admission.snapshot(),
                "breaker": (
                    self.breaker.snapshot() if self.breaker is not None else None
                ),
            }

    def health(self) -> dict[str, object]:
        """Structured overload state for ``/healthz`` (load-balancer view).

        ``status`` is one of :data:`~repro.resilience.admission.HEALTH_STATES`:
        ``ok`` (take traffic), ``degraded`` (queue wait above target, the
        breaker is routed around the batch kernel, or the queue is near
        capacity -- still answering), ``overloaded`` (actively shedding;
        load balancers should drain).  ``ok`` is False only when
        overloaded or closed, so a plain boolean check matches.
        """
        with self._cond:
            depth = len(self._inflight)
            closed = self._closed
        status = self.admission.health(queue_depth=depth)
        breaker_state = self.breaker.state if self.breaker is not None else "closed"
        if status == "ok" and (
            breaker_state != "closed" or depth >= 0.8 * self.config.max_queue
        ):
            status = "degraded"
        return {
            "ok": not closed and status != "overloaded",
            "status": "closed" if closed else status,
            "queue_depth": depth,
            "max_queue": self.config.max_queue,
            "breaker": breaker_state,
            "estimated_wait_s": self.admission.estimated_wait_s(depth),
        }

    # ------------------------------------------------------- admission internals
    def _observe_arrival(self, now: float) -> None:
        """Fold one arrival into the inter-arrival EWMA (lock held)."""
        if self._last_arrival is not None:
            gap = now - self._last_arrival
            if self._ewma_gap_s is None:
                self._ewma_gap_s = gap
            else:
                self._ewma_gap_s = 0.2 * gap + 0.8 * self._ewma_gap_s
        self._last_arrival = now

    def _memcache_get(self, key: str) -> dict | None:
        rec = self._memcache.get(key)
        if rec is not None:
            self._memcache.move_to_end(key)
        return rec

    def _memcache_put(self, key: str, rec: dict) -> None:
        if self.config.memory_cache <= 0:
            return
        self._memcache[key] = rec
        self._memcache.move_to_end(key)
        while len(self._memcache) > self.config.memory_cache:
            self._memcache.popitem(last=False)

    def _resolve_now(
        self,
        future: Future,
        key: str,
        rec: dict,
        source: str,
        t0: float,
        scenario: str,
    ) -> None:
        """Answer a cache hit synchronously (lock held)."""
        latency = time.monotonic() - t0
        self.stats_.responses += 1
        self.stats_.latencies.append(latency)
        reg = obs_registry()
        reg.counter("serve.responses").inc()
        reg.histogram("serve.request_latency_s", _LATENCY_BUCKETS).observe(latency)
        future.set_result(
            ServeResult(
                key=key,
                perf=get_scenario(scenario).perf_from_dict(rec["perf"]),
                source=source,
                batch_width=1,
                latency_s=latency,
            )
        )

    # --------------------------------------------------------- batcher thread
    def _linger_for(self, width: int) -> float:
        """Seconds a bucket of *width* requests should keep waiting.

        Adaptive policy: the expected time to fill the batch is
        ``(max_batch - width)`` further arrivals at the EWMA gap.  Waiting
        longer than that buys nothing, and traffic too sparse to ever fill
        a batch (gap beyond ``max_linger_s``) should not wait at all.
        """
        cfg = self.config
        if not cfg.adaptive:
            return cfg.max_linger_s
        gap = self._ewma_gap_s
        if gap is None or gap > cfg.max_linger_s:
            return 0.0
        expected_fill = (cfg.max_batch - width) * gap
        return min(cfg.max_linger_s, max(cfg.min_linger_s, expected_fill))

    def _batch_loop(self) -> None:
        """The micro-batcher: accumulate, flush on width or linger, solve."""
        buckets: dict[tuple[str, int], _Bucket] = {}
        while True:
            with self._cond:
                wait = self._next_wait(buckets)
                if (
                    wait != 0.0
                    and not self._arrivals
                    and not self._closed
                ):
                    self._cond.wait(timeout=wait)
                while self._arrivals:
                    request = self._arrivals.popleft()
                    bkey = self._bucket_key(request)
                    bucket = buckets.get(bkey)
                    if bucket is None:
                        bucket = buckets[bkey] = _Bucket()
                    bucket.requests.append(request)
                obs_registry().gauge("serve.queue_depth").set(len(self._inflight))
                closed = self._closed
                drain = self._drain_on_close

            now = time.monotonic()
            for bkey, bucket in list(buckets.items()):
                if closed or self._should_flush(bucket, now):
                    del buckets[bkey]
                    if closed and not drain:
                        self._abandon(bucket.requests)
                    else:
                        self._flush(bkey, bucket)

            if closed:
                with self._cond:
                    leftovers = list(self._arrivals)
                    self._arrivals.clear()
                    empty = not leftovers and not buckets
                if leftovers:
                    if drain:
                        for request in leftovers:
                            self._flush(
                                self._bucket_key(request), _bucket_of(request)
                            )
                    else:
                        self._abandon(leftovers)
                if empty:
                    return

    @staticmethod
    def _bucket_key(request: _Request) -> tuple[str, int]:
        """Coalescing compatibility class of one request.

        Only torus ``symmetric``-method points may stack (the batched
        symmetric kernel is bitwise-equal to the scalar solver); they group
        by machine size so the stacked arrays share a shape.  Everything
        else -- asymmetric torus points, exotic methods, and every
        non-torus scenario -- is its own singleton class and will be
        answered by the scalar solver.
        """
        if request.scenario == DEFAULT_SCENARIO and request.method == "symmetric":
            return ("symmetric", request.params.arch.num_processors)
        return ("scalar", -1)

    def _should_flush(self, bucket: _Bucket, now: float) -> bool:
        requests = bucket.requests
        if not requests:
            return True
        if self._bucket_key(requests[0])[0] != "symmetric":
            return True  # scalar classes never linger
        if len(requests) >= self.config.max_batch:
            return True
        with self._cond:
            linger = self._linger_for(len(requests))
        deadline = min(
            (r.deadline for r in requests if r.deadline is not None),
            default=None,
        )
        if deadline is not None and now >= deadline:
            return True
        return now - bucket.t_open >= linger

    def _next_wait(self, buckets: dict) -> float | None:
        """Seconds until the earliest bucket must flush (lock held).

        ``None`` means nothing is pending (sleep until notified); ``0.0``
        means a bucket is already due.
        """
        if not buckets:
            return None
        now = time.monotonic()
        earliest: float | None = None
        for bucket in buckets.values():
            if not bucket.requests:
                continue
            if self._bucket_key(bucket.requests[0])[0] != "symmetric":
                return 0.0
            if len(bucket.requests) >= self.config.max_batch:
                return 0.0
            due = bucket.t_open + self._linger_for(len(bucket.requests))
            deadline = min(
                (r.deadline for r in bucket.requests if r.deadline is not None),
                default=None,
            )
            if deadline is not None:
                due = min(due, deadline)
            earliest = due if earliest is None else min(earliest, due)
        if earliest is None:
            return None
        return max(0.0, earliest - now)

    # ------------------------------------------------------------- execution
    def _abandon(self, requests: Iterable[_Request]) -> None:
        exc = ServiceClosedError("service closed before the request was solved")
        for request in requests:
            self._finish_error(request, exc)

    def _expire(self, requests: list[_Request], now: float) -> list[_Request]:
        """Split off requests whose deadline has passed and fail them."""
        live: list[_Request] = []
        reg = obs_registry()
        for request in requests:
            if request.deadline is not None and now >= request.deadline:
                self.stats_.deadline_exceeded += 1
                reg.counter("serve.deadline_exceeded").inc()
                self._finish_error(
                    request,
                    DeadlineExceededError(
                        f"deadline exceeded after "
                        f"{now - request.t_submit:.4f}s in queue"
                    ),
                )
            else:
                live.append(request)
        return live

    def _flush(self, bkey: tuple[str, int], bucket: _Bucket) -> None:
        """Solve one bucket and answer every request it carries."""
        now = time.monotonic()
        with self._cond:
            requests = self._expire(bucket.requests, now)
        if not requests:
            return
        reg = obs_registry()
        width = len(requests)
        lingered = now - bucket.t_open
        t_solve = time.monotonic()
        with trace_span(
            "serve.batch", width=width, shape=str(bkey), linger_s=lingered
        ) as sp:
            batchable = bkey[0] == "symmetric" and width >= 2
            if batchable and self.breaker is not None and not self.breaker.allow():
                # open breaker: route straight to scalar without re-paying
                # the batch failure (the breaker counts the rejection)
                sp.set(breaker="open")
                batchable = False
            elif batchable:
                try:
                    perfs, _ = solve_points(
                        [r.params for r in requests],
                        method="symmetric",
                    )
                    source = "batched"
                    if self.breaker is not None:
                        self.breaker.record_success()
                except Exception as exc:  # noqa: BLE001 - degrade to scalar
                    self.stats_.degraded_batches += 1
                    reg.counter("serve.degraded_batches").inc()
                    sp.set(degraded=f"{type(exc).__name__}: {exc}")
                    if self.breaker is not None:
                        self.breaker.record_failure()
                    batchable = False
            if not batchable:
                source = "scalar"
                perfs = []
                for request in requests:
                    try:
                        perfs.append(
                            get_scenario(request.scenario).solve(
                                request.params, method=request.method
                            )
                        )
                    except Exception as exc:  # noqa: BLE001 - per-request failure
                        perfs.append(exc)
        # two admission signals: per-point service time (the model) and
        # each request's full queue sojourn (the CoDel drop-latch input)
        t_done = time.monotonic()
        self.admission.observe_service_time((t_done - t_solve) / max(1, width))
        for request in requests:
            self.admission.observe_sojourn(t_done - request.t_submit)

        self.stats_.batches += 1
        self.stats_.width_sum += width
        self.stats_.max_batch_width = max(self.stats_.max_batch_width, width)
        if source == "batched":
            self.stats_.batched_points += width
            reg.counter("serve.batched_points").inc(width)
        else:
            self.stats_.scalar_points += width
            reg.counter("serve.scalar_points").inc(width)
        reg.counter("serve.batches").inc()
        reg.histogram("serve.batch_width", _WIDTH_BUCKETS).observe(width)
        reg.histogram("serve.linger_s", _LINGER_BUCKETS).observe(lingered)

        for request, outcome in zip(requests, perfs):
            if isinstance(outcome, Exception):
                self.stats_.errors += 1
                reg.counter("serve.errors").inc()
                self._finish_error(request, outcome)
            else:
                self._finish_ok(request, outcome, source, width)

    def _finish_ok(
        self, request: _Request, perf: object, source: str, width: int
    ) -> None:
        rec = {
            "method": request.method,
            "params": request.params.to_dict(),
            "perf": perf.to_dict(),
            "elapsed": 0.0,
        }
        if request.scenario != DEFAULT_SCENARIO:
            rec["scenario"] = request.scenario
        if width > 1:
            rec["amortized"] = True
        latency = time.monotonic() - request.t_submit
        reg = obs_registry()
        with self._cond:
            self._memcache_put(request.key, rec)
            if self._store is not None:
                try:
                    self._store.put(request.key, rec)
                    self._store.flush()
                except Exception:  # noqa: BLE001 - the answer beats the cache
                    reg.counter("serve.store_errors").inc()
            self._inflight.pop(request.key, None)
            waiters = list(request.futures)
            self.stats_.responses += len(waiters)
            for _ in waiters:
                self.stats_.latencies.append(latency)
        reg.counter("serve.responses").inc(len(waiters))
        reg.histogram("serve.request_latency_s", _LATENCY_BUCKETS).observe(latency)
        for i, future in enumerate(waiters):
            future.set_result(
                ServeResult(
                    key=request.key,
                    perf=perf,
                    source=source if i == 0 else "coalesced",
                    batch_width=width,
                    latency_s=latency,
                )
            )

    def _finish_error(self, request: _Request, exc: Exception) -> None:
        with self._cond:
            self._inflight.pop(request.key, None)
            waiters = list(request.futures)
        for future in waiters:
            future.set_exception(exc)


def _bucket_of(request: _Request) -> _Bucket:
    bucket = _Bucket()
    bucket.requests.append(request)
    return bucket
