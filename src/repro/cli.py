"""Command-line interface: ``repro-mms`` (or ``python -m repro``).

Subcommands
-----------
``solve``       solve one parameter point and print the measures
``tolerance``   tolerance indices and zones for one point
``bottleneck``  the closed-form saturation laws (Eqs. 4/5)
``experiment``  regenerate a paper table/figure by name
``validate``    model-vs-simulation comparison (Figure 11)
``sweep``       managed parameter sweep (parallel workers + result cache);
                ``--fabric DIR`` distributes it across worker processes
``worker``      serve leases from a sweep fabric (``docs/DISTRIBUTED.md``)
``exp``         query a fabric's experiment database
                (list/show/trials/quarantine)
``serve``       long-lived coalescing solve service over HTTP
``report``      time-attribution report from a manifest or trace
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from . import analysis
from .core import MMSModel, analyze, tolerance_report
from .fabric.db import FabricError
from .params import ParamError, paper_defaults
from .resilience.journal import JournalError
from .scenarios import ScenarioUnavailableError

__all__ = ["main", "build_parser"]

EXPERIMENTS: dict[str, Callable[[], "analysis.ExperimentResult"]] = {
    "fig4": lambda: analysis.fig4_5_workload_surfaces(10.0),
    "fig5": lambda: analysis.fig4_5_workload_surfaces(20.0),
    "fig6": analysis.fig6_tolerance_surface,
    "fig7": analysis.fig7_iso_work_lines,
    "fig8": analysis.fig8_memory_surface,
    "fig9": analysis.fig9_scaling_tolerance,
    "fig10": analysis.fig10_throughput_scaling,
    "table2": analysis.table2_network_tolerance,
    "table3": analysis.table3_partitioning_network,
    "table4": analysis.table4_partitioning_memory,
    "claims": analysis.headline_claims,
    "ext-ports": analysis.ext_memory_ports,
    "ext-priority": analysis.ext_local_priority,
    "ext-buffers": analysis.ext_finite_buffers,
    "ext-pipeline": analysis.ext_pipelined_switches,
    "ext-hotspot": analysis.ext_hotspot,
    "ext-context": analysis.ext_context_switch,
}


def _add_point_args(
    p: argparse.ArgumentParser,
    method_choices: tuple[str, ...] = ("symmetric", "amva", "linearizer", "exact"),
    method_default: str = "symmetric",
) -> None:
    p.add_argument("--k", type=int, default=4, help="PEs per torus dimension")
    p.add_argument("--nt", type=int, default=8, help="threads per processor")
    p.add_argument("--runlength", "-R", type=float, default=10.0)
    p.add_argument("--p-remote", type=float, default=0.2)
    p.add_argument(
        "--pattern",
        choices=("geometric", "uniform", "hotspot"),
        default="geometric",
    )
    p.add_argument("--p-sw", type=float, default=0.5)
    p.add_argument("--hot-node", type=int, default=0)
    p.add_argument("--hot-fraction", type=float, default=0.5)
    p.add_argument("--memory-ports", type=int, default=1)
    p.add_argument("--memory-latency", "-L", type=float, default=10.0)
    p.add_argument("--switch-delay", "-S", type=float, default=10.0)
    p.add_argument("--context-switch", "-C", type=float, default=0.0)
    p.add_argument("--method", choices=method_choices, default=method_default)


def _params_from(args: argparse.Namespace):
    return paper_defaults(
        k=args.k,
        num_threads=args.nt,
        runlength=args.runlength,
        p_remote=args.p_remote,
        pattern=args.pattern,
        p_sw=args.p_sw,
        hot_node=args.hot_node,
        hot_fraction=args.hot_fraction,
        memory_latency=args.memory_latency,
        switch_delay=args.switch_delay,
        context_switch=args.context_switch,
        memory_ports=args.memory_ports,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mms",
        description="Latency tolerance analysis of multithreaded architectures "
        "(Nemawarkar & Gao, IPPS 1997 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one parameter point")
    _add_point_args(p_solve)

    p_tol = sub.add_parser("tolerance", help="tolerance indices for one point")
    _add_point_args(p_tol)

    p_bn = sub.add_parser("bottleneck", help="closed-form saturation laws")
    _add_point_args(p_bn)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS), help="experiment id")
    p_exp.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="additionally dump the experiment's raw data as JSON",
    )

    p_val = sub.add_parser("validate", help="model vs simulation (Figure 11)")
    p_val.add_argument("--duration", type=float, default=30_000.0)
    p_val.add_argument("--seed", type=int, default=0)

    p_sens = sub.add_parser(
        "sensitivity", help="parameter elasticities at one point"
    )
    _add_point_args(p_sens)
    p_sens.add_argument("--measure", default="U_p")

    p_zone = sub.add_parser(
        "zones", help="find the tolerated-zone boundary along an axis"
    )
    _add_point_args(p_zone)
    p_zone.add_argument("--axis", default="p_remote")
    p_zone.add_argument("--subsystem", choices=("network", "memory"),
                        default="network")
    p_zone.add_argument("--threshold", type=float, default=0.8)
    p_zone.add_argument("--lo", type=float, default=0.0)
    p_zone.add_argument("--hi", type=float, default=1.0)

    p_rep = sub.add_parser(
        "replicate", help="simulate with independent replications"
    )
    _add_point_args(p_rep)
    p_rep.add_argument("--replications", type=int, default=5)
    p_rep.add_argument("--duration", type=float, default=20_000.0)

    p_sweep = sub.add_parser(
        "sweep",
        help="managed parameter sweep (parallel workers + result cache)",
        description="Cartesian-product sweep over any model parameters, "
        "executed by the runner subsystem: points are deduplicated by "
        "content-addressed key, served from a persistent cache when one is "
        "configured, and solved batch first: same-shape points as one "
        "batched fixed point, only what cannot batch on a process pool "
        "with --jobs > 1.",
    )
    _add_point_args(
        p_sweep,
        method_choices=("auto", "symmetric", "amva", "linearizer", "exact", "bound"),
        method_default="auto",
    )
    p_sweep.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="workload/topology family to sweep (torus, worksteal, hier; "
        "see docs/SCENARIOS.md).  Default honours repro.configure/"
        "REPRO_SCENARIO, else torus.  The point flags above apply to the "
        "torus only; other scenarios start from their registered defaults "
        "and --axis names must be fields of the active scenario",
    )
    p_sweep.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="NAME=V1,V2,... | NAME=LO:HI:STEPS",
        help="sweep axis (repeatable); values are a comma list or a "
        "LO:HI:STEPS linspace, e.g. --axis num_threads=1,2,4,8 "
        "--axis p_remote=0.1:0.8:8",
    )
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for points that cannot batch (1 = in-process)",
    )
    p_sweep.add_argument(
        "--backend",
        default="auto",
        metavar="{auto,batch,process,serial}",
        help="execution backend: 'batch' stacks same-shape points into one "
        "batched AMVA fixed point, 'process' sends every point to a worker "
        "pool, 'serial' solves point by point; 'auto' (default) batches "
        "first and pools only what cannot batch (every point with --timeout "
        "and --jobs > 1)",
    )
    p_sweep.add_argument(
        "--kernel",
        default=None,
        metavar="{auto,numpy}",
        help="solver kernel: 'auto' and 'numpy' both name the one numpy "
        "kernel, 'numba' is an error; default checks REPRO_SOLVE_KERNEL",
    )
    p_sweep.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result cache directory "
        "(default: $REPRO_CACHE_DIR, else no cache)",
    )
    p_sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache even if configured",
    )
    p_sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point solve budget in seconds (parallel runs only)",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=1, help="extra attempts for failed points"
    )
    p_sweep.add_argument(
        "--measure",
        default=None,
        help="print only this measure (a summary key such as U_p, or an "
        "MMSPerformance attribute); default: all summary measures",
    )
    p_sweep.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write deterministic per-point records as JSON lines",
    )
    p_sweep.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="write the run manifest (timings, cache hit rate) as JSON",
    )
    p_sweep.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a repro-trace/1 JSONL trace of the run (spans for "
        "every stage, solve and simulator call, plus a final metrics "
        "snapshot); render it with `repro-mms report PATH`",
    )
    p_sweep.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="durably journal every completed point to PATH so an interrupted "
        "sweep can be resumed (default with --resume: MANIFEST.journal)",
    )
    p_sweep.add_argument(
        "--resume",
        metavar="MANIFEST",
        default=None,
        help="resume the sweep that wrote MANIFEST: completed points are "
        "replayed from its journal (and the cache), only the remainder is "
        "solved, and the manifest is rewritten; the sweep definition must "
        "be identical",
    )
    p_sweep.add_argument(
        "--fabric",
        metavar="DIR",
        default=None,
        help="distribute the sweep across worker processes coordinating "
        "through DIR (experiment database + shared result store); the "
        "sweep is restartable -- rerunning the same command resumes it. "
        "See docs/DISTRIBUTED.md",
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=2,
        help="local fabric worker processes to spawn (with --fabric; "
        "0 = rely on externally started workers)",
    )
    p_sweep.add_argument(
        "--lease-points",
        type=int,
        default=32,
        help="trials per fabric lease (the dispatch batching grain)",
    )
    p_sweep.add_argument(
        "--lease-ttl",
        type=float,
        default=15.0,
        help="seconds a fabric lease survives without a worker heartbeat",
    )
    p_sweep.add_argument(
        "--max-attempts",
        type=int,
        default=5,
        help="per-trial dispatch budget (with --fabric): a trial failing "
        "this many times goes terminal -- quarantined when >= 2 distinct "
        "workers tried it, else failed",
    )

    p_worker = sub.add_parser(
        "worker",
        help="serve leases from a sweep fabric",
        description="Pull-based fabric worker: claims leases of pending "
        "trials from the experiment database in --fabric, solves them "
        "through the ordinary backend stack, and appends results to the "
        "fabric's shared store.  Run any number of these -- on this host "
        "or any host sharing the directory.  See docs/DISTRIBUTED.md.",
    )
    p_worker.add_argument(
        "--fabric", metavar="DIR", required=True, help="fabric directory"
    )
    p_worker.add_argument(
        "--experiment",
        default=None,
        help="experiment id to serve (default: newest running experiment, "
        "waiting up to --wait seconds for one to appear)",
    )
    p_worker.add_argument(
        "--worker-id", default=None, help="fleet-unique id (default host-pid)"
    )
    p_worker.add_argument("--lease-points", type=int, default=32)
    p_worker.add_argument("--lease-ttl", type=float, default=15.0)
    p_worker.add_argument(
        "--poll", type=float, default=0.2, help="idle seconds between claims"
    )
    p_worker.add_argument(
        "--backend", default="auto", metavar="{auto,batch,process,serial}"
    )
    p_worker.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="default scenario for this worker process (leased payloads "
        "carrying their own scenario always win); unknown names are "
        "rejected up front",
    )
    p_worker.add_argument(
        "--kernel",
        default=None,
        metavar="{auto,numpy}",
        help="solver kernel, as for sweep",
    )
    p_worker.add_argument("--retries", type=int, default=1)
    p_worker.add_argument("--timeout", type=float, default=None)
    p_worker.add_argument(
        "--max-leases",
        type=int,
        default=None,
        help="exit after this many leases (bounded shift)",
    )
    p_worker.add_argument(
        "--wait",
        type=float,
        default=30.0,
        help="seconds to wait for a running experiment to appear",
    )
    p_worker.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write this worker's span trace to FILE (JSONL); the "
        "scheduler passes FABRIC/obs/trace-wN.jsonl when the sweep "
        "itself runs with --trace",
    )

    p_exp = sub.add_parser(
        "exp",
        help="query a fabric's experiment database",
        description="Inspect experiments, dispatch accounting, and "
        "per-trial status in a fabric directory's experiment database.",
    )
    esub = p_exp.add_subparsers(dest="exp_command", required=True)
    e_list = esub.add_parser("list", help="all experiments, newest first")
    e_list.add_argument("--fabric", metavar="DIR", required=True)
    e_show = esub.add_parser(
        "show", help="one experiment: status, dispatch stats, workers"
    )
    e_show.add_argument("--fabric", metavar="DIR", required=True)
    e_show.add_argument(
        "experiment_id",
        nargs="?",
        default=None,
        help="default: the newest experiment",
    )
    e_trials = esub.add_parser("trials", help="per-trial status lines")
    e_trials.add_argument("--fabric", metavar="DIR", required=True)
    e_trials.add_argument("experiment_id", nargs="?", default=None)
    e_trials.add_argument(
        "--status",
        choices=("pending", "leased", "done", "failed", "quarantined"),
        default=None,
        help="only trials in this state",
    )
    e_quar = esub.add_parser(
        "quarantine",
        help="inspect or retry quarantined (poison) trials",
        description="Trials that exhausted their dispatch budget across "
        ">= 2 distinct workers are quarantined with their last error; the "
        "rest of the experiment drains without them.  'list' shows them, "
        "'retry' resets them to pending with a fresh attempt budget.",
    )
    qsub = e_quar.add_subparsers(dest="quarantine_command", required=True)
    q_list = qsub.add_parser("list", help="quarantined trials + last errors")
    q_list.add_argument("--fabric", metavar="DIR", required=True)
    q_list.add_argument("experiment_id", nargs="?", default=None)
    q_retry = qsub.add_parser(
        "retry", help="return quarantined trials to pending"
    )
    q_retry.add_argument("--fabric", metavar="DIR", required=True)
    q_retry.add_argument("experiment_id", nargs="?", default=None)
    q_retry.add_argument(
        "--key",
        action="append",
        default=None,
        metavar="KEY",
        help="retry only this trial key (repeatable; default: all)",
    )

    p_report = sub.add_parser(
        "report",
        help="time-attribution report from a run manifest or trace",
        description="Render per-stage (and, for simulator traces, "
        "per-station) time-attribution tables from either a sweep manifest "
        "JSON (--manifest) or a JSONL trace (--trace).",
    )
    p_report.add_argument("path", help="manifest .json or trace .jsonl file")

    p_dash = sub.add_parser(
        "dashboard",
        help="render a static HTML dashboard from a run artifact",
        description="Self-contained HTML (inline SVG, no dependencies) "
        "from a fabric directory (per-worker sweep timeline, fleet "
        "tables), a sweep manifest JSON, a JSONL span trace, or a "
        "/seriesz time-series dump.  Open the output in any browser.",
    )
    p_dash.add_argument(
        "path", help="fabric dir, manifest .json, trace .jsonl, or series dump"
    )
    p_dash.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="output HTML path (default: dashboard.html beside the input)",
    )
    p_dash.add_argument(
        "--experiment",
        default=None,
        help="experiment id for fabric-dir inputs (default: newest)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the coalescing solve service over HTTP",
        description="Long-lived JSON solve service (POST /solve, GET "
        "/healthz, GET /metricsz) with adaptive micro-batching, two-tier "
        "caching, and explicit backpressure.  See docs/SERVING.md.",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8787, help="bind port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=64, help="widest coalesced solve"
    )
    p_serve.add_argument(
        "--linger-us",
        type=float,
        default=5000.0,
        help="max microseconds a request may wait for batch-mates",
    )
    p_serve.add_argument(
        "--min-linger-us",
        type=float,
        default=200.0,
        help="floor of the adaptive linger window, microseconds",
    )
    p_serve.add_argument(
        "--no-adaptive",
        action="store_true",
        help="always linger the full window instead of adapting to traffic",
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        help="in-flight request bound before 429 backpressure",
    )
    p_serve.add_argument(
        "--memory-cache",
        type=int,
        default=4096,
        help="in-memory LRU entries (0 disables)",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result store shared with sweeps "
        "(default: REPRO_CACHE_DIR if set)",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="default per-request deadline, seconds",
    )
    p_serve.add_argument(
        "--kernel",
        default=None,
        metavar="{auto,numpy}",
        help="solver kernel, as for sweep",
    )
    p_serve.add_argument(
        "--series-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="metrics time-series sampling interval for GET /seriesz "
        "(0 disables the recorder)",
    )
    p_serve.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        metavar="RPS",
        help="per-client admission rate, requests/second "
        "(0 disables rate limiting)",
    )
    p_serve.add_argument(
        "--rate-burst",
        type=float,
        default=0.0,
        metavar="N",
        help="per-client token-bucket burst (default: max(1, --rate-limit))",
    )
    p_serve.add_argument(
        "--target-wait",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="CoDel shedding target: estimated queue waits above this shed "
        "requests that cannot make their deadline (0 disables shedding)",
    )
    p_serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive batched-solve failures before the circuit "
        "breaker opens and flushes degrade to per-point solves "
        "(0 disables the breaker)",
    )
    p_serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds an open breaker waits before half-open probes",
    )
    p_serve.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="default scenario applied to /solve bodies that do not name "
        "one (a body's \"scenario\" key always wins); default torus",
    )

    p_all = sub.add_parser(
        "reproduce-all",
        help="run every registered experiment and archive the outputs",
    )
    p_all.add_argument(
        "--out", default="reproduction", help="output directory (created)"
    )
    p_all.add_argument(
        "--skip-slow",
        action="store_true",
        help="skip the simulation-backed experiments",
    )
    return parser


def _coerce_token(token: str) -> object:
    """Axis value: int, float, bool, or bare string -- whichever parses."""
    low = token.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    return token


def _parse_axes(specs: list[str]) -> dict[str, list[object]]:
    """``NAME=V1,V2,...`` or ``NAME=LO:HI:STEPS`` -> ordered axes mapping."""
    import numpy as np

    axes: dict[str, list[object]] = {}
    for spec in specs:
        name, eq, body = spec.partition("=")
        name, body = name.strip(), body.strip()
        if not eq or not name or not body:
            raise SystemExit(
                f"bad --axis {spec!r}: expected NAME=V1,V2,... or NAME=LO:HI:STEPS"
            )
        if ":" in body:
            parts = body.split(":")
            if len(parts) != 3:
                raise SystemExit(f"bad --axis range {spec!r}: expected LO:HI:STEPS")
            lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
            values: list[object] = [float(v) for v in np.linspace(lo, hi, steps)]
        else:
            values = [_coerce_token(t.strip()) for t in body.split(",") if t.strip()]
        if not values:
            raise SystemExit(f"bad --axis {spec!r}: no values")
        axes[name] = values
    return axes


def _check_execution(args: argparse.Namespace) -> None:
    """Reject a bad ``--backend`` or ``--kernel`` up front: one clean line
    that enumerates the valid choices (exit 2, the CLI error contract).
    ``--kernel`` is checked and otherwise ignored: one kernel runs."""
    from .queueing.kernels import resolve_kernel
    from .runner.executor import validate_backend

    try:
        validate_backend(args.backend)
        resolve_kernel(args.kernel)
    except ValueError as exc:
        raise ParamError(str(exc)) from None


def _run_sweep(args: argparse.Namespace) -> int:
    import os
    from itertools import product

    from .analysis.sweep import _apply_measure
    from .runner import JobSpec, SweepRunner, canonical_json
    from .scenarios import resolve_scenario

    # both the runner and the fabric paths take these knobs
    _check_execution(args)
    # unknown --scenario raises ScenarioUnavailableError (also exit 2)
    scen = resolve_scenario(args.scenario)

    axes = _parse_axes(args.axis)
    fields = scen.field_names()
    for name in axes:
        if name not in fields:
            raise ParamError(
                f"unknown sweep axis {name!r} for scenario {scen.name!r}; "
                f"fields: {'/'.join(fields)}"
            )
    # the point flags parameterize the torus; other scenarios sweep from
    # their registered defaults (their fields are not CLI flags)
    base = _params_from(args) if scen.name == "torus" else scen.default_params()
    try:
        scen.canonical_method(base, args.method)
    except ValueError as exc:
        # a method the active scenario does not solve is user error
        raise ParamError(str(exc)) from None
    cache_dir = (
        None
        if args.no_cache
        else (args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None)
    )
    manifest_path = args.manifest
    journal_path = args.journal
    resume = args.resume is not None
    if resume:
        manifest_path = manifest_path or args.resume
        journal_path = journal_path or f"{args.resume}.journal"
    runner = None
    if args.fabric is not None:
        # the fabric owns durability (experiment DB) and the store
        # (FABRIC/store), so the single-host knobs don't compose with it
        if journal_path or resume:
            raise ParamError(
                "--fabric sweeps journal into the experiment database; "
                "rerun the same command to resume instead of --journal/--resume"
            )
        if args.cache_dir:
            raise ParamError(
                "--fabric sweeps share the store under FABRIC/store; "
                "drop --cache-dir"
            )
        if args.workers < 0:
            raise ParamError(f"--workers must be >= 0, got {args.workers}")
        from .fabric import FabricScheduler

        scheduler = FabricScheduler(
            args.fabric,
            lease_ttl=args.lease_ttl,
            lease_points=args.lease_points,
            backend=args.backend,
            retries=args.retries,
            timeout=args.timeout,
            trace_workers=args.trace is not None,
            max_attempts=args.max_attempts,
        )

        def run_fn(specs):
            with scheduler:
                return scheduler.run(specs, workers=args.workers)

    else:
        try:
            runner = SweepRunner(
                jobs=args.jobs,
                cache_dir=cache_dir,
                timeout=args.timeout,
                retries=args.retries,
                backend=args.backend,
                journal=journal_path,
                resume=resume,
            )
        except ValueError as exc:
            # constructor validation of --jobs/--retries/--backend is user
            # error
            raise ParamError(str(exc)) from None
        run_fn = runner.run
    names = list(axes)
    combos = list(product(*(axes[n] for n in names)))
    specs = [
        JobSpec(
            params=scen.with_overrides(base, **dict(zip(names, combo))),
            method=args.method,
            scenario=scen.name,
        )
        for combo in combos
    ]

    if args.trace:
        from . import obs
        from .obs import trace as obs_trace

        prev = obs_trace.configure(trace=args.trace)
        try:
            report = run_fn(specs)
            tracer = obs.get_tracer()
            if report.manifest.metrics is not None:
                tracer.write_event(
                    {"kind": "metrics", "metrics": report.manifest.metrics}
                )
            tracer.close()
        finally:
            obs_trace.configure(**prev)
    else:
        report = run_fn(specs)

    out_fh = open(args.out, "w") if args.out else None
    try:
        for combo, result in zip(combos, report.results):
            point = " ".join(f"{n}={v}" for n, v in zip(names, combo))
            if not result.ok:
                print(f"{point}  FAILED: {result.error}")
                continue
            if args.measure:
                key, value = _apply_measure(args.measure, result.params, result.perf)
                print(f"{point}  {key}={value:.6g}")
            else:
                measures = " ".join(
                    f"{k}={v:.6g}" for k, v in result.perf.summary().items()
                )
                print(f"{point}  {measures}")
            if out_fh is not None:
                record = {"axes": dict(zip(names, combo)), **result.record()}
                out_fh.write(canonical_json(record) + "\n")
    finally:
        if out_fh is not None:
            out_fh.close()

    manifest = report.manifest
    print(f"[sweep] {manifest.summary()}")
    for batch in manifest.solver_batches:
        print(
            f"[batch] {batch['method']}: {batch['batch_size']} points in "
            f"{batch['iterations']} iterations "
            f"(max residual {batch['max_residual']:.2e}, "
            f"{batch['wall_time_s'] * 1e3:.1f} ms)"
        )
    if manifest.journal_path:
        print(
            f"[journal] path={manifest.journal_path} "
            f"replayed={manifest.journal_hits} resumed={manifest.resumed}"
        )
    for entry in manifest.degradations:
        print(
            f"[degrade] {entry['from_mode']} -> {entry['to_mode']}: "
            f"{entry['reason']} ({entry['points']} points)"
        )
    store_stats = manifest.store or {}
    if store_stats.get("quarantined") or store_stats.get("index_rebuilds"):
        print(
            f"[integrity] quarantined={store_stats.get('quarantined', 0)} "
            f"index_rebuilds={store_stats.get('index_rebuilds', 0)}"
        )
    if manifest.fabric:
        fb = manifest.fabric
        print(
            f"[fabric] experiment={fb['experiment_id']} "
            f"workers={fb['workers']} leases={fb['leases_granted']} "
            f"expired={fb['leases_expired']} "
            f"redispatched={fb['redispatched_trials']}"
        )
    if runner is not None and cache_dir:
        print(f"[cache] dir={cache_dir} entries={len(runner.store)}")
    if args.out:
        print(f"[records written to {args.out}]")
    if manifest_path:
        manifest.to_json(manifest_path)
        print(f"[manifest written to {manifest_path}]")
    if args.trace:
        print(f"[trace written to {args.trace}]")
    return 0 if report.ok else 1


def _run_worker(args: argparse.Namespace) -> int:
    from .fabric import FabricWorker
    from .scenarios import set_default_scenario

    _check_execution(args)
    if args.scenario is not None:
        # rejects unknown names up front (exit 2); leased payloads that
        # carry their own scenario are unaffected by this default
        set_default_scenario(args.scenario)
    worker = FabricWorker(
        args.fabric,
        experiment_id=args.experiment,
        worker_id=args.worker_id,
        lease_points=args.lease_points,
        lease_ttl=args.lease_ttl,
        poll_s=args.poll,
        backend=args.backend,
        retries=args.retries,
        timeout=args.timeout,
        max_leases=args.max_leases,
        wait_s=args.wait,
        trace=args.trace,
    )
    stats = worker.run()
    print(
        f"[worker] id={worker.worker_id} leases={stats.leases} "
        f"points={stats.points} solved={stats.solved} failed={stats.failed}",
        flush=True,
    )
    return 0


def _fmt_age(now: float, then: float | None) -> str:
    return "-" if then is None else f"{max(0.0, now - then):.0f}s ago"


def _run_exp(args: argparse.Namespace) -> int:
    import json
    import time as _time

    from .fabric import ExperimentDB

    with ExperimentDB(args.fabric) as db:
        if args.exp_command == "list":
            rows = db.experiments()
            if not rows:
                print("no experiments")
                return 0
            now = _time.time()
            for row in rows:
                counts = db.counts(row["experiment_id"])
                done = (
                    counts["done"] + counts["failed"] + counts["quarantined"]
                )
                print(
                    f"{row['experiment_id']}  {row['status']:8s} "
                    f"{done}/{row['total_trials']} trials  "
                    f"created {_fmt_age(now, row['created_s'])}"
                )
            return 0

        experiment_id = args.experiment_id
        if experiment_id is None:
            rows = db.experiments()
            if not rows:
                raise FabricError(f"no experiments in {args.fabric}")
            experiment_id = rows[0]["experiment_id"]

        if args.exp_command == "show":
            exp = db.experiment(experiment_id)
            stats = db.stats(experiment_id)
            now = _time.time()
            print(f"experiment      {experiment_id}")
            print(f"status          {exp['status']}")
            print(f"signature       {exp['signature']}")
            print(f"solver_version  {exp['solver_version']}")
            print(f"created         {_fmt_age(now, exp['created_s'])}")
            if exp["finished_s"] is not None:
                print(f"finished        {_fmt_age(now, exp['finished_s'])}")
            trials = stats["trials"]
            print(
                f"trials          {exp['total_trials']} total: "
                + " ".join(f"{k}={trials[k]}" for k in trials)
            )
            print(
                f"leases          granted={stats['leases_granted']} "
                f"expired={stats['leases_expired']} "
                f"active={stats['leases_active']}"
            )
            print(
                f"dispatch        attempts={stats['dispatch_attempts']} "
                f"max_attempts={stats['max_attempts']} "
                f"redispatched={stats['redispatched_trials']}"
            )
            workers = db.workers(experiment_id)
            print(f"workers         {len(workers)}")
            for w in workers:
                print(
                    f"  {w['worker_id']}  {w['status']:7s} "
                    f"heartbeat {_fmt_age(now, w['heartbeat_s'])}"
                )
            return 0

        if args.exp_command == "quarantine":
            if args.quarantine_command == "list":
                rows = db.quarantined(experiment_id)
                for t in rows:
                    workers = ", ".join(
                        json.loads(t["attempt_workers"] or "[]")
                    )
                    print(
                        f"{t['seq']:6d} {t['key'][:12]}  "
                        f"attempts={t['attempts']} workers=[{workers}]"
                    )
                    print(f"       last error: {t['error']}")
                print(f"[{len(rows)} quarantined trials]")
                return 0
            if args.quarantine_command == "retry":
                retried = db.retry_quarantined(experiment_id, keys=args.key)
                print(
                    f"[{retried} trials returned to pending; "
                    f"experiment {experiment_id} reopened]"
                    if retried
                    else "[no quarantined trials matched]"
                )
                return 0

        if args.exp_command == "trials":
            rows = db.trials(experiment_id, status=args.status)
            for t in rows:
                extra = ""
                if t["status"] == "done":
                    cached = " cached" if t["from_cache"] else ""
                    extra = f"  {float(t['elapsed_s'] or 0.0):.3f}s{cached}"
                elif t["status"] in ("failed", "quarantined"):
                    extra = f"  {t['error']}"
                worker = t["worker_id"] or "-"
                print(
                    f"{t['seq']:6d} {t['key'][:12]}  {t['status']:8s} "
                    f"attempts={t['attempts']} worker={worker}{extra}"
                )
            print(f"[{len(rows)} trials]")
            return 0
    raise AssertionError(
        f"unhandled exp command {args.exp_command!r}"
    )  # pragma: no cover


def _run_serve(args: argparse.Namespace) -> int:
    import os
    import signal

    from .serve import ServiceConfig, SolveService, build_server

    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None
    try:
        config = ServiceConfig(
            max_batch=args.max_batch,
            min_linger_s=args.min_linger_us / 1e6,
            max_linger_s=args.linger_us / 1e6,
            adaptive=not args.no_adaptive,
            max_queue=args.max_queue,
            memory_cache=args.memory_cache,
            store_dir=cache_dir,
            default_deadline_s=args.deadline,
            kernel=args.kernel,
            series_interval_s=args.series_interval,
            rate_limit=args.rate_limit,
            rate_burst=args.rate_burst,
            target_wait_s=args.target_wait,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown,
            scenario=args.scenario,
        )
    except ValueError as exc:
        raise ParamError(str(exc)) from None
    service = SolveService(config)
    server = build_server(args.host, args.port, service)
    host, port = server.server_address[:2]
    print(f"[serve] listening on http://{host}:{port}", flush=True)
    if cache_dir:
        print(f"[serve] store dir={cache_dir}", flush=True)
    if args.scenario:
        print(f"[serve] default scenario={args.scenario}", flush=True)

    # serve_forever() can only be stopped from *another* thread (calling
    # shutdown() from a handler on the serving thread deadlocks), so map
    # SIGTERM onto the same KeyboardInterrupt path Ctrl-C already takes.
    def _sigterm(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        service.close(drain=True)
        stats = service.stats()
        print(
            f"[serve] drained; answered {stats['responses']} of "
            f"{stats['requests']} requests "
            f"({stats['batches']} batches, max width "
            f"{stats['batch_width']['max']})",
            flush=True,
        )
    return 0


def _jsonable(obj: object) -> object:
    """Best-effort conversion of experiment data to JSON-serializable form."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    # rich objects (MMSPerformance, SimResult, ...): use their summary if any
    summary = getattr(obj, "summary", None)
    if callable(summary):
        return _jsonable(summary())
    return repr(obj)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ParamError, JournalError, FabricError, ScenarioUnavailableError) as exc:
        # bad parameters / a journal that doesn't match the sweep: one clean
        # line on stderr (exit 2, argparse's usage-error convention), never
        # a traceback.  Only these user-error types are dressed up -- an
        # unexpected ValueError from deeper in the solver is a bug and
        # keeps its traceback.
        print(f"repro-mms: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "solve":
        perf = MMSModel(_params_from(args)).solve(method=args.method)
        for key, value in perf.summary().items():
            print(f"{key:12s} {value:.6g}")
        return 0

    if args.command == "tolerance":
        report = tolerance_report(_params_from(args), method=args.method)
        for name, res in report.items():
            print(
                f"tol_{name:8s} {res.index:8.4f}  ({res.zone.value}; "
                f"U_p={res.actual.processor_utilization:.4f}, "
                f"ideal={res.ideal.processor_utilization:.4f})"
            )
        return 0

    if args.command == "bottleneck":
        ba = analyze(_params_from(args))
        print(f"d_avg                     {ba.d_avg:.4f}")
        print(f"lambda_net saturation     {ba.lambda_net_saturation:.4f}")
        print(f"critical p_remote         {ba.critical_p_remote:.4f}")
        print(f"IN-saturating p_remote    {ba.network_saturation_p_remote:.4f}")
        print(f"memory-bound p_remote     {ba.memory_saturation_p_remote:.4f}")
        print(f"saturation U_p ceiling    {ba.saturation_utilization:.4f}")
        print(f"unloaded round trip       {ba.unloaded_round_trip:.2f}")
        print(f"processor stays busy      {ba.processor_stays_busy}")
        return 0

    if args.command == "experiment":
        result = EXPERIMENTS[args.name]()
        print(result.render())
        if args.json:
            import json

            with open(args.json, "w") as fh:
                json.dump(_jsonable(result.data), fh, indent=2)
            print(f"[data written to {args.json}]")
        return 0

    if args.command == "validate":
        _, text = analysis.fig11_validation(duration=args.duration, seed=args.seed)
        print(text)
        return 0

    if args.command == "sensitivity":
        print(
            analysis.sensitivities(
                _params_from(args), measure=args.measure
            ).render()
        )
        return 0

    if args.command == "zones":
        from .core import zone_boundary

        b = zone_boundary(
            _params_from(args),
            axis=args.axis,
            subsystem=args.subsystem,
            threshold=args.threshold,
            lo=args.lo,
            hi=args.hi,
        )
        sat = " (saturated bracket)" if b.saturated else ""
        print(
            f"tol_{b.subsystem} crosses {b.threshold} at "
            f"{b.axis} = {b.value:.4f}{sat} (tol there: {b.tolerance:.4f})"
        )
        return 0

    if args.command == "replicate":
        print(
            analysis.replicate(
                _params_from(args),
                replications=args.replications,
                duration=args.duration,
            ).render()
        )
        return 0

    if args.command == "sweep":
        return _run_sweep(args)

    if args.command == "worker":
        return _run_worker(args)

    if args.command == "exp":
        return _run_exp(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "report":
        from .obs import TraceValidationError, render_report

        try:
            print(render_report(args.path))
        except (TraceValidationError, OSError, ValueError) as exc:
            print(f"report failed: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.command == "dashboard":
        from .obs.dashboard import write_dashboard

        try:
            out = write_dashboard(
                args.path, out=args.out, experiment=args.experiment
            )
        except (OSError, ValueError) as exc:
            print(f"dashboard failed: {exc}", file=sys.stderr)
            return 1
        print(f"[dashboard written to {out}]")
        return 0

    if args.command == "reproduce-all":
        import time
        from pathlib import Path

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        slow = {"ext-priority", "ext-buffers", "ext-pipeline"}
        summary = []
        for name in sorted(EXPERIMENTS):
            if args.skip_slow and name in slow:
                print(f"[skip] {name}")
                continue
            t0 = time.perf_counter()
            result = EXPERIMENTS[name]()
            elapsed = time.perf_counter() - t0
            text = result.render()
            (out_dir / f"{name}.txt").write_text(text + "\n")
            summary.append(f"{name:14s} {elapsed:7.2f}s  {result.title}")
            print(f"[done] {name} ({elapsed:.1f}s)")
        # Figure 11 needs the simulator and its own renderer
        if not args.skip_slow:
            t0 = time.perf_counter()
            _, text = analysis.fig11_validation()
            (out_dir / "fig11.txt").write_text(text + "\n")
            summary.append(
                f"{'fig11':14s} {time.perf_counter() - t0:7.2f}s  "
                "model vs simulation"
            )
            print("[done] fig11")
        (out_dir / "SUMMARY.txt").write_text("\n".join(summary) + "\n")
        print(f"\nall outputs in {out_dir}/")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
