"""Observability overhead on the paper's 176-point Figure-4 lattice.

The obs layer's contract is that *disabled* tracing is free: ``trace_span``
returns a shared no-op after one global read, and the always-on metrics
counters are a few dict operations per solve.  This bench pins that claim
on the real workload -- the 11 x 16 (threads x p_remote) lattice behind
Figures 4/5 -- two ways:

* **A/B wall clock**: the lattice solved with tracing disabled vs enabled
  (in-memory buffering tracer, the worst case that still records spans).
* **No-op microcost**: the per-call cost of a disabled ``trace_span``,
  multiplied by the number of span sites the lattice actually hits, as a
  fraction of the disabled lattice wall clock.  CI asserts this is < 2%.
* **Recorder sampling**: the lattice solved with a 10 Hz
  :class:`~repro.obs.timeseries.MetricsRecorder` running (wall-clock
  column, observational like the A/B), plus the asserted gate: the
  measured per-snapshot microcost times the 10 Hz cadence as a fraction
  of wall time.  The recorder is a pure registry reader on its own
  thread, so this pins the PR-8 claim that sampling adds < 1%.

Like the A/B column, the recorder wall clock is *reported*, not
asserted -- sub-second lattice solves jitter a few percent with OS
scheduling, which would drown a 1% bound.  The asserted fractions are
computed from microcosts, which are stable.
"""

import json
import time
import timeit

import pytest

from conftest import RESULTS_DIR, run_once
import repro
from repro import obs
from repro.core import MMSModel
from repro.obs.metrics import registry
from repro.obs.timeseries import MetricsRecorder
from repro.params import paper_defaults

THREADS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20)
P_REMOTES = tuple(round(0.05 * i, 2) for i in range(1, 17))
#: acceptance bound on the disabled-path overhead fraction
NOOP_OVERHEAD_BOUND = 0.02
#: acceptance bound on 10 Hz recorder sampling during the solve
RECORDER_OVERHEAD_BOUND = 0.01
#: recorder cadence under test (10 Hz)
RECORDER_INTERVAL_S = 0.1


def lattice_points():
    return [
        paper_defaults(num_threads=nt, p_remote=pr)
        for nt in THREADS
        for pr in P_REMOTES
    ]


def solve_lattice(points):
    for params in points:
        MMSModel(params).solve()


def measure():
    points = lattice_points()
    assert len(points) == 176

    solve_lattice(points)  # warm-up: numpy/solver caches, allocator

    # A/B with interleaved repeats so clock drift hits both arms equally;
    # the enabled arm uses the in-memory buffering tracer (worst case that
    # still records every span)
    disabled_times: list[float] = []
    enabled_times: list[float] = []
    recorder_times: list[float] = []
    span_calls = 0
    recorder_samples = 0
    for _ in range(3):
        prev = repro.configure(trace=False)
        try:
            t0 = time.perf_counter()
            solve_lattice(points)
            disabled_times.append(time.perf_counter() - t0)
        finally:
            repro.configure(**prev)
        prev = repro.configure(trace=True)
        try:
            t0 = time.perf_counter()
            solve_lattice(points)
            enabled_times.append(time.perf_counter() - t0)
            span_calls = len(obs.get_tracer().buffer)
        finally:
            repro.configure(**prev)
        # tracing off again, but a 10 Hz recorder sampling the registry
        prev = repro.configure(trace=False)
        try:
            with MetricsRecorder(interval_s=RECORDER_INTERVAL_S) as rec:
                t0 = time.perf_counter()
                solve_lattice(points)
                recorder_times.append(time.perf_counter() - t0)
            recorder_samples = max(recorder_samples, rec.samples_taken)
        finally:
            repro.configure(**prev)
    wall_enabled = min(enabled_times)
    wall_disabled = min(disabled_times)
    wall_recorder = min(recorder_times)

    prev = repro.configure(trace=False)
    try:
        # microcost of one disabled trace_span entry/exit
        n = 100_000
        noop_s = min(
            timeit.repeat(
                "ts('bench.noop')",
                globals={"ts": obs.trace_span},
                number=n,
                repeat=5,
            )
        ) / n
    finally:
        repro.configure(**prev)

    # microcost of one registry snapshot (the only per-tick recorder work);
    # at a 1/interval cadence the steady-state overhead fraction of *any*
    # wall clock is snapshot_s / interval_s
    n = 1_000
    snapshot_s = min(
        timeit.repeat(
            "snap()",
            globals={"snap": registry().snapshot},
            number=n,
            repeat=5,
        )
    ) / n

    return {
        "lattice_points": len(points),
        "span_calls": span_calls,
        "wall_disabled_s": wall_disabled,
        "wall_enabled_s": wall_enabled,
        "enabled_overhead_frac": wall_enabled / wall_disabled - 1.0,
        "noop_ns_per_call": noop_s * 1e9,
        "noop_overhead_frac": noop_s * span_calls / wall_disabled,
        "bound": NOOP_OVERHEAD_BOUND,
        "wall_recorder_s": wall_recorder,
        "recorder_interval_s": RECORDER_INTERVAL_S,
        "recorder_samples": recorder_samples,
        "recorder_wall_frac": wall_recorder / wall_disabled - 1.0,
        "recorder_snapshot_ns": snapshot_s * 1e9,
        "recorder_overhead_frac": snapshot_s / RECORDER_INTERVAL_S,
        "recorder_bound": RECORDER_OVERHEAD_BOUND,
    }


def test_obs_overhead(benchmark, archive):
    stats = run_once(benchmark, measure)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "perf_obs_overhead.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n"
    )
    archive(
        "perf_obs_overhead",
        "Observability overhead, 176-point Figure-4 lattice\n"
        f"spans per lattice        {stats['span_calls']}\n"
        f"disabled wall clock      {stats['wall_disabled_s'] * 1e3:.1f} ms\n"
        f"enabled wall clock       {stats['wall_enabled_s'] * 1e3:.1f} ms "
        "(in-memory tracer)\n"
        f"no-op span call          {stats['noop_ns_per_call']:.0f} ns\n"
        f"no-op overhead fraction  {stats['noop_overhead_frac']:.5f} "
        f"(bound {NOOP_OVERHEAD_BOUND})\n"
        f"recorder wall clock      {stats['wall_recorder_s'] * 1e3:.1f} ms "
        f"(10 Hz, {stats['recorder_samples']} samples)\n"
        f"recorder snapshot        {stats['recorder_snapshot_ns']:.0f} ns\n"
        f"recorder overhead frac   {stats['recorder_overhead_frac']:.6f} "
        f"(bound {RECORDER_OVERHEAD_BOUND})",
    )

    assert stats["span_calls"] >= len(THREADS) * len(P_REMOTES)
    # the headline contract: tracing off costs < 2% of the lattice solve
    assert stats["noop_overhead_frac"] < NOOP_OVERHEAD_BOUND
    # PR-8 contract: 10 Hz registry sampling adds < 1% to the same solve
    assert stats["recorder_overhead_frac"] < RECORDER_OVERHEAD_BOUND
