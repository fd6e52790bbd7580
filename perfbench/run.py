"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload solve_point --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there, and everything a run writes goes under ``.perfbench/`` there.  The
output is one line per metric (name, value, unit, sample count) and, as
the last line, one JSON object::

    {"correct": true, "attempted": 1500, "failed": 0, "metrics": {...}}

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs each input twice, untraced then traced, and reports the per-layer
metrics from the traced runs (see ``layers.py``).  ``--out FILE`` appends
the full record of the run to FILE, the input of ``compare.py``.  The exit
code is 0 only when every answer was right and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import layers
from metrics import END_TO_END, FAILED_FRAC, PATH_METRICS, PER_LAYER, failed_frac
from spans import Tracer, tiling_gap
from workloads import (
    BARE_START_S,
    WORKLOADS,
    Context,
    Loop,
    Workload,
    setup_sample,
    stop_children,
)

ROOT = Path(__file__).resolve().parent.parent
#: fresh-process launches per run whose median is setup_s; they alternate
#: with stretches of the loop, so they sample the host over the whole run
#: rather than in one burst
SETUPS = 5
#: most of a traced run's wall time the layers may leave uncovered
MAX_TILING_GAP = 0.05


def environment() -> dict[str, object]:
    import numpy

    from repro.queueing.kernels import resolve_kernel

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "kernel": resolve_kernel(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(workload: Workload, seconds: float, trace: bool, tracer: Tracer) -> dict:
    """Set up, run and check one workload; returns the partial result."""
    result: dict = {"problems": []}
    if not trace:
        setup_sample(workload)  # unmeasured: the first start writes bytecode caches
        workload.prepare()
        out, setups = Loop(), []
        for _ in range(SETUPS):
            setups.append(setup_sample(workload))
            out.extend(workload.loop(seconds / SETUPS, tracer))
        workload.verify(out)
        launches, bares = zip(*setups)
        result["setup_s"] = BARE_START_S * statistics.median(
            launch / bare for launch, bare in setups
        )
        result["setup_raw"] = {
            "launch_s": statistics.median(launches),
            "bare_s": statistics.median(bares),
        }
        result["loop"] = out
        result["metrics"] = {
            "ops_per_s": (len(out.latencies) / out.busy, len(out.latencies), None),
            **workload.path_metrics(out),
        }
        return result

    workload.prepare()
    layers.install(tracer)
    try:
        plain, traced = workload.paired_loop(seconds, tracer)
    finally:
        tracer.restore()
    out = Loop()
    out.extend(plain)
    out.extend(traced)
    workload.verify(out)
    result["loop"] = out
    per_layer = {name: 0.0 for name in PER_LAYER}
    per_layer.update(layers.layer_metrics(tracer.spans))
    per_layer.update(workload.layer_extras())
    m = min(len(plain.latencies), len(traced.latencies))
    if m:  # else nothing ran untraced: the workload traces nothing here
        per_layer["trace.overhead_frac"] = (
            statistics.mean(traced.latencies[:m]) / statistics.mean(plain.latencies[:m])
            - 1.0
        )
    gap = tiling_gap(tracer.spans, layers.UNCOVERED)
    per_layer["trace.tiling_gap"] = gap
    if gap > MAX_TILING_GAP:
        result["problems"].append(
            f"layer self times leave {gap:.1%} of the traced operations uncovered"
        )
    result["metrics"] = {name: (value, len(traced.latencies), None) for name, value in per_layer.items()}
    tracer.dump(ROOT / ".perfbench" / f"spans-{workload.name}.jsonl")
    return result


def describe(name: str, workload: str) -> tuple[str, str, float | None]:
    tables = (END_TO_END, PATH_METRICS[workload], {FAILED_FRAC.name: FAILED_FRAC}, PER_LAYER)
    m = next(table[name] for table in tables if name in table)
    return m.unit, m.better, m.bound


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the run's full record here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":  # each workload in a fresh process
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--out", str(args.out)] if args.out else [])
        return max(
            subprocess.run([sys.executable, __file__, "--workload", w, *rest]).returncode
            for w in WORKLOADS
        )

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {src}; run from a checkout", file=sys.stderr)
        return 2
    # hermetic: no REPRO_* setting reaches this process or its children,
    # and the children import the program from this checkout
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    workload = WORKLOADS[args.workload](Context(tmp, dict(os.environ), args.seed))
    try:
        try:
            result = measure(workload, args.seconds, bool(args.trace), Tracer())
        finally:
            try:
                workload.close()
            finally:
                stop_children()
                shutil.rmtree(tmp, ignore_errors=True)
    except Exception:  # noqa: BLE001 - report and exit without a result
        traceback.print_exc()
        return 1

    out: Loop = result["loop"]
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = (result["setup_s"], SETUPS, 50.0)
        metrics["peak_rss_mb"] = (peak_rss_mb(), 1, None)
        metrics["failed_frac"] = (failed_frac(out.attempted, out.failed), out.attempted, None)
    correct = out.failed == 0 and not result["problems"]
    env = environment()

    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items())
    )
    record = {}
    for name, (value, n, pct) in metrics.items():
        unit, better, bound = describe(name, args.workload)
        record[name] = {"value": value, "unit": unit, "better": better,
                        "bound": bound, "n": n, "pct": pct}
        at = f" p{pct:g}" if pct is not None else ""
        print(f"{args.workload:14s} {name:26s} {value:14.6g} {unit:6s} n={n}{at}")
    setup_raw = result.get("setup_raw")
    if setup_raw is not None:  # what setup_s was calibrated from
        print("# setup: " + " ".join(f"{k}={v:.4f}" for k, v in setup_raw.items()))
    for message in out.errors + result["problems"]:
        print(f"! {message}")
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "env": env,
                "correct": correct, "attempted": out.attempted,
                "failed": out.failed, "metrics": record, "setup_raw": setup_raw,
            }) + "\n")

    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": record[name]["value"], "unit": record[name]["unit"]}
            for name in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
