"""The blessed public surface of ``repro`` -- one stable front door.

Four PRs grew solver entry points, three ``configure()`` surfaces, and
``REPRO_*`` environment reads across four modules.  This module is the
consolidation: every supported way in, with consistent keywords, lazy
imports of the heavy layers, and one :func:`configure` that composes the
runner, observability, and resilience knobs.  ``import repro`` re-exports
everything here; stability tiers and the full env-var table live in
``docs/API.md``.

Quick start::

    import repro

    perf = repro.solve(num_threads=8, p_remote=0.2)
    tol = repro.tolerance_index(num_threads=8, p_remote=0.2)

    prev = repro.configure(cache_dir="~/.cache/mms", jobs=4)
    records = repro.sweep({"num_threads": [1, 2, 4, 8, 16]})
    repro.configure(**prev)

    with repro.SolveService() as svc:
        result = svc.solve(repro.paper_defaults(p_remote=0.1))

Precedence everywhere: environment variable < :func:`configure` <
explicit argument at the call site.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .core.metrics import MMSPerformance
from .core.tolerance import ToleranceResult
from .params import MMSParams, paper_defaults
from .queueing.kernels import resolve_kernel
from .serve import ServiceConfig, SolveService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulation.engine import SimResult

__all__ = [
    "configure",
    "scenarios",
    "simulate",
    "solve",
    "solve_points",
    "sweep",
    "tolerance_index",
    "ServiceConfig",
    "SolveService",
]


def _resolve_scenario(scenario: str | None, params: object):
    """One scenario convention for the whole facade.

    Precedence: an explicit ``scenario=`` name wins; otherwise prebuilt
    ``params`` identify their family by type (so old torus call sites are
    immune to any configured or ``REPRO_SCENARIO`` default); otherwise
    the configured default, then the environment, then ``"torus"``.
    """
    from .scenarios import resolve_scenario, scenario_for_params

    if scenario is not None:
        return resolve_scenario(scenario)
    if params is not None:
        return scenario_for_params(params)
    return resolve_scenario(None)


def _resolve_params(
    params: MMSParams | None, overrides: Mapping[str, object], scen=None
) -> MMSParams:
    """One params convention for the whole facade.

    ``params`` (a prebuilt params object) and field ``**overrides``
    (applied over the scenario's defaults -- :func:`paper_defaults` for
    the torus) are the two supported spellings; mixing them is ambiguous
    and refused.
    """
    if params is not None:
        if overrides:
            raise TypeError(
                "pass either params= or field overrides "
                f"({sorted(map(str, overrides))}), not both"
            )
        return params
    if scen is None:
        return paper_defaults(**overrides)
    return scen.with_overrides(scen.default_params(), **overrides)


def scenarios() -> tuple[str, ...]:
    """Names of every registered workload/topology scenario.

    >>> import repro
    >>> "torus" in repro.scenarios()
    True
    """
    from .scenarios import scenario_names

    return scenario_names()


def solve(
    params: MMSParams | None = None,
    *,
    method: str = "auto",
    scenario: str | None = None,
    **overrides: object,
) -> MMSPerformance:
    """Solve one parameter point; returns its performance.

    Parameters
    ----------
    params:
        A prebuilt params object (:class:`MMSParams` for the torus).
        Omit it to solve the scenario's default machine with
        ``**overrides`` applied.
    method:
        Solver selection.  For the torus: ``"auto"`` (default; picks the
        symmetric MVA when the workload allows, AMVA otherwise),
        ``"symmetric"``, ``"amva"``, ``"linearizer"``, or ``"exact"``.
        Other scenarios document their methods in ``docs/SCENARIOS.md``.
    scenario:
        Workload/topology family (see :func:`scenarios`); default infers
        it from ``params``'s type, else honours :func:`configure` and
        ``REPRO_SCENARIO``, else ``"torus"``.
    **overrides:
        Scenario parameter overrides (``num_threads=8``,
        ``p_remote=0.2``, ...); only valid when ``params`` is omitted.

    >>> import repro
    >>> perf = repro.solve(num_threads=8, p_remote=0.2)
    >>> 0.0 < perf.processor_utilization <= 1.0
    True
    """
    scen = _resolve_scenario(scenario, params)
    return scen.solve(_resolve_params(params, overrides, scen), method=method)


def solve_points(
    points: Sequence[MMSParams],
    *,
    method: str = "auto",
    tol: float = 1e-12,
    kernel: str | None = None,
    scenario: str | None = None,
) -> list[MMSPerformance]:
    """Solve a homogeneous lattice of points with one batched fixed point.

    Parameters
    ----------
    points:
        The :class:`MMSParams` to solve.  All must resolve to the same
        solver method and machine size (that is what lets them stack into
        one batched AMVA); results are bitwise-identical to per-point
        :func:`solve`.
    method:
        Solver selection, as in :func:`solve`; must be homogeneous across
        the batch.
    tol:
        Fixed-point convergence tolerance.
    kernel:
        Solver kernel, checked and otherwise ignored: ``"auto"`` and
        ``"numpy"`` name the one kernel, ``"numba"`` raises
        :class:`~repro.queueing.kernels.KernelUnavailableError`; default
        checks ``REPRO_SOLVE_KERNEL``.
    scenario:
        Workload/topology family (see :func:`scenarios`); default infers
        it from the first point's type, else honours :func:`configure`
        and ``REPRO_SCENARIO``, else ``"torus"``.

    Returns the performances in ``points`` order.  (The batched solver's
    internal telemetry is available through :mod:`repro.core.model` for
    callers who need it.)
    """
    resolve_kernel(kernel)
    scen = _resolve_scenario(scenario, points[0] if points else None)
    perfs, _telemetry = scen.solve_points(points, method=method, tol=tol)
    return perfs


def sweep(
    axes: Mapping[str, Sequence[object]],
    *,
    base: MMSParams | None = None,
    method: str = "auto",
    measure: Callable | str | None = None,
    backend: str | None = None,
    kernel: str | None = None,
    runner: object | None = None,
    progress: Callable | None = None,
    fabric: str | None = None,
    workers: int = 2,
    scenario: str | None = None,
) -> list[dict[str, object]]:
    """Cartesian-product sweep; returns one record dict per point.

    Parameters
    ----------
    axes:
        Ordered mapping of parameter name to the values it sweeps, e.g.
        ``{"num_threads": [1, 2, 4], "p_remote": [0.1, 0.2]}``.  Names
        must be fields of the active scenario's parameter schema.
    base:
        The point the axes vary around; defaults to the scenario's
        default params (:func:`paper_defaults` for the torus).
    method:
        Solver selection, as in :func:`solve`.
    measure:
        Optional reduction per point -- a summary key or performance
        attribute (``"U_p"``, ``"lambda_net"``, ``"throughput"``, ...) or a
        callable ``(params, perf) -> value``; without it each record
        carries the solved performance object under ``"perf"``.
    backend:
        Execution backend override: ``"auto"``, ``"batch"``, ``"process"``,
        or ``"serial"``; default honours :func:`configure` and
        ``REPRO_SWEEP_BACKEND``.
    kernel:
        Solver kernel, checked and otherwise ignored, as in
        :func:`solve_points`.
    runner:
        A prebuilt :class:`repro.runner.SweepRunner` for full control of
        jobs/caching/journaling; default builds one from the global
        configuration.
    progress:
        Optional callback ``(done, total, result)`` invoked per completed
        point.  With ``fabric`` the semantics diverge: solves happen in
        worker processes, so the callback fires during finalize (after
        the sweep has drained, not live), once per *unique* point with
        ``total`` the unique count -- duplicate points never fire.  For
        live counts poll the experiment DB (``repro-mms exp show``).
    fabric:
        Optional shared coordination directory: the sweep is distributed
        across fabric worker processes (an experiment database plus a
        shared result store live under it), is restartable, and may span
        hosts sharing the directory.  Mutually exclusive with ``runner``.
        See ``docs/DISTRIBUTED.md``.
    workers:
        Local fabric worker processes to spawn when ``fabric`` is given
        (default 2; 0 relies on externally started workers).
    scenario:
        Workload/topology family (see :func:`scenarios`); default infers
        it from ``base``'s type, else honours :func:`configure` and
        ``REPRO_SCENARIO``, else ``"torus"``.
    """
    from .analysis.sweep import sweep as _sweep

    resolve_kernel(kernel)
    return _sweep(
        base,
        axes,
        method,
        measure=measure,
        progress=progress,
        runner=runner,
        backend=backend,
        fabric=fabric,
        workers=workers,
        scenario=scenario,
    )


def simulate(
    params: MMSParams | None = None,
    *,
    duration: float = 100_000.0,
    seed: int = 0,
    warmup: float | None = None,
    scenario: str | None = None,
    **overrides: object,
) -> "SimResult":
    """Discrete-event simulation of one point (the validation substrate).

    Parameters
    ----------
    params:
        A prebuilt params object (:class:`MMSParams` for the torus); omit
        it to simulate the scenario's default machine with ``**overrides``
        applied.
    duration:
        Simulated time units to run.
    seed:
        RNG seed; the same seed reproduces the run event for event.
    warmup:
        Simulated time discarded before statistics start; default lets the
        simulator choose.
    scenario:
        Workload/topology family (see :func:`scenarios`); default infers
        it from ``params``'s type, else honours :func:`configure` and
        ``REPRO_SCENARIO``, else ``"torus"``.  Scenarios without a
        simulator raise
        :class:`~repro.scenarios.ScenarioCapabilityError`.
    **overrides:
        Scenario parameter overrides, as in :func:`solve`.  For the torus,
        simulator-specific keywords (``memory_dist=``, ``switch_dist=``,
        ``runlength_dist=``, ``local_priority=``, ``switch_capacity=``,
        ``switch_pipeline_depth=``, ``max_outstanding_remote=``) pass
        through to :class:`repro.simulation.MMSSimulation` unchanged.
    """
    scen = _resolve_scenario(scenario, params)
    sim_kwargs = {}
    if scen.name == "torus":
        sim_kwargs = {
            k: overrides.pop(k)
            for k in (
                "memory_dist",
                "switch_dist",
                "runlength_dist",
                "local_priority",
                "switch_capacity",
                "switch_pipeline_depth",
                "max_outstanding_remote",
            )
            if k in overrides
        }
    return scen.simulate(
        _resolve_params(params, overrides, scen),
        duration=duration,
        seed=seed,
        warmup=warmup,
        **sim_kwargs,
    )


def tolerance_index(
    params: MMSParams | None = None,
    *,
    subsystem: str | None = None,
    ideal: str | None = None,
    method: str = "auto",
    scenario: str | None = None,
    **overrides: object,
) -> ToleranceResult:
    """The paper's latency-tolerance metric for one subsystem.

    Parameters
    ----------
    params:
        A prebuilt params object (:class:`MMSParams` for the torus); omit
        it to use the scenario's default machine with ``**overrides``
        applied.
    subsystem:
        Which latency source the index measures tolerance of.  Torus:
        ``"network"`` (default) or ``"memory"``; work stealing:
        ``"steal"``; mesh-of-clusters: ``"network"`` (default),
        ``"interlink"``, or ``"memory"`` (see ``docs/SCENARIOS.md``).
        ``None`` picks the scenario's first subsystem.
    ideal:
        Ideal-system construction for the torus network index:
        ``"zero_delay"`` (the paper's definition, the default) or
        ``"local_only"``; ignored elsewhere.
    method:
        Solver selection, as in :func:`solve`.
    scenario:
        Workload/topology family (see :func:`scenarios`); default infers
        it from ``params``'s type, else honours :func:`configure` and
        ``REPRO_SCENARIO``, else ``"torus"``.
    **overrides:
        Scenario parameter overrides, as in :func:`solve`.

    Returns a :class:`ToleranceResult`; ``float()`` of it is the index.
    """
    scen = _resolve_scenario(scenario, params)
    resolved = _resolve_params(params, overrides, scen)
    return scen.tolerance(resolved, subsystem=subsystem, ideal=ideal, method=method)


#: distinguishes "not passed" from "explicitly set to None/False"
_UNSET = object()


def configure(
    *,
    jobs: object = _UNSET,
    cache_dir: object = _UNSET,
    timeout: object = _UNSET,
    retries: object = _UNSET,
    backend: object = _UNSET,
    kernel: object = _UNSET,
    scenario: object = _UNSET,
    trace: object = _UNSET,
    tracer: object = _UNSET,
    fault_plan: object = _UNSET,
) -> dict[str, object]:
    """One config front door: runner, observability, and resilience knobs.

    Composes the runner, tracing, and fault-injection configuration.  Only
    the keywords actually passed change; everything else is untouched.
    Precedence per setting: environment variable < ``configure`` <
    explicit argument at a call site.

    Parameters
    ----------
    jobs:
        Default sweep worker count (env: ``REPRO_SWEEP_JOBS``).
    cache_dir:
        Default persistent result-store directory; ``None`` disables
        caching (env: ``REPRO_CACHE_DIR``).
    timeout:
        Default per-point solve timeout in seconds; ``None`` disables.
    retries:
        Default per-point retry budget.
    backend:
        Default sweep execution backend -- ``"auto"``, ``"batch"``,
        ``"process"``, or ``"serial"`` (env: ``REPRO_SWEEP_BACKEND``).
    kernel:
        Solver kernel, checked and not stored: ``"auto"``, ``"numpy"`` and
        ``None`` are accepted, ``"numba"`` raises
        :class:`~repro.queueing.kernels.KernelUnavailableError`.  There is
        one kernel, so the previous value returned is always ``None``.
    scenario:
        Default workload/topology scenario -- any name in
        :func:`scenarios` (``"torus"``, ``"worksteal"``, ``"hier"``);
        ``None`` clears the default (env: ``REPRO_SCENARIO``).  Prebuilt
        params always identify their own family regardless.
    trace:
        Tracing destination: a JSONL path, ``True`` (in-memory), or
        ``False``/``None`` to disable (env: ``REPRO_TRACE``).
    tracer:
        A prebuilt :class:`repro.obs.Tracer` to install directly
        (overrides ``trace``).
    fault_plan:
        Fault-injection plan -- a dict, inline JSON, a JSON file path, or
        ``None`` to disable (env: ``REPRO_FAULT_PLAN``).  A plan that
        cannot be read or parsed raises ``ValueError("fault_plan: ...")``.

    Every keyword is checked before any setting changes, so a rejected
    call (a bad ``backend``, ``jobs=0``, an unknown ``scenario``, a
    malformed ``fault_plan``) leaves the configuration as it was.

    Returns the previous values of every setting passed, so
    ``repro.configure(**prev)`` restores them:

    >>> import repro
    >>> prev = repro.configure(jobs=4)
    >>> _ = repro.configure(**prev)
    """
    from .obs import trace as _obs_trace
    from .resilience import faults as _faults
    from .runner.config import _check as _runner_check
    from .runner.config import _configure as _runner_configure
    from .scenarios import set_default_scenario, validate_scenario_name

    runner_settings = {
        name: value
        for name, value in (
            ("jobs", jobs),
            ("cache_dir", cache_dir),
            ("timeout", timeout),
            ("retries", retries),
            ("backend", backend),
        )
        if value is not _UNSET
    }
    # check everything before anything changes
    if kernel is not _UNSET and kernel is not None:
        resolve_kernel(kernel)
    _runner_check(runner_settings)
    if scenario is not _UNSET and scenario is not None:
        validate_scenario_name(scenario)
    if fault_plan is not _UNSET:
        try:
            fault_plan = _faults._coerce_plan(fault_plan)
        except (OSError, TypeError, ValueError) as exc:
            raise ValueError(f"fault_plan: {exc}") from None

    previous: dict[str, object] = {}
    if trace is not _UNSET or tracer is not _UNSET:
        # first: opening a trace file is the one step that can still fail
        prev = _obs_trace.configure(
            trace=None if trace is _UNSET else trace,
            tracer=None if tracer is _UNSET else tracer,
        )
        previous["tracer"] = prev["tracer"]
    if runner_settings:
        previous.update(_runner_configure(**runner_settings))
    if kernel is not _UNSET:
        previous["kernel"] = None
    if scenario is not _UNSET:
        previous["scenario"] = set_default_scenario(scenario)
    if fault_plan is not _UNSET:
        previous.update(_faults.configure(fault_plan=fault_plan))
    return previous
