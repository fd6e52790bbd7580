"""Batched AMVA kernel vs the serial per-point loop on the Figure-4 lattice.

The acceptance bar for the batched backend: on the paper's 176-point
Figure-4 lattice (11 thread counts x 16 remote fractions, 4x4 machine) the
stacked fixed point must reproduce the scalar results bitwise (symmetric
path) and beat the per-point loop by at least 5x.  The measured timings
and telemetry are archived as JSON under ``benchmarks/results/`` so the
numbers cited in docs come from a real run.
"""

import json
import time

import numpy as np
import pytest

from repro.core.model import MMSModel, solve_points
from repro.params import paper_defaults
from repro.queueing import solve_symmetric, solve_symmetric_batch

from conftest import RESULTS_DIR, run_once

THREADS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20)
P_REMOTES = tuple(round(0.05 * i, 2) for i in range(1, 17))


def _lattice():
    return [
        paper_defaults(num_threads=n, p_remote=p)
        for n in THREADS
        for p in P_REMOTES
    ]


@pytest.fixture(scope="module")
def lattice_arrays():
    points = _lattice()
    arrays = [MMSModel(p).station_arrays() for p in points]
    return points, arrays


def test_perf_batch_kernel_vs_serial_loop(benchmark, lattice_arrays):
    """One measured round of each path, plus the 5x/bitwise assertions."""
    points, arrays = lattice_arrays
    pops = np.array([p.workload.num_threads for p in points])
    visits = np.stack([a[0] for a in arrays])
    service = np.stack([a[1] for a in arrays])
    servers = np.stack([a[3] for a in arrays])
    types = arrays[0][2]

    t0 = time.perf_counter()
    scalar = [
        solve_symmetric(a[0], a[1], a[2], int(n), servers=a[3])
        for a, n in zip(arrays, pops)
    ]
    serial_s = time.perf_counter() - t0

    def batched():
        return solve_symmetric_batch(visits, service, types, pops, servers=servers)

    batch = run_once(benchmark, batched)
    batch_s = batch[0].telemetry.batch.wall_time_s
    speedup = serial_s / batch_s

    mismatches = sum(
        1
        for ref, got in zip(scalar, batch)
        if not (
            ref.throughput == got.throughput
            and np.array_equal(ref.queue_length, got.queue_length)
        )
    )
    assert mismatches == 0, f"{mismatches} bitwise mismatches on the lattice"
    assert speedup >= 5.0, (
        f"batched kernel only {speedup:.1f}x faster than the serial loop"
    )

    telemetry = batch[0].telemetry.batch
    manifest = {
        "lattice": {
            "points": len(points),
            "threads": list(THREADS),
            "p_remotes": list(P_REMOTES),
        },
        "serial_loop_s": serial_s,
        "batch_s": batch_s,
        "speedup": speedup,
        "bitwise_mismatches": mismatches,
        "batch_telemetry": telemetry.to_dict(),
        "masked_iterations_saved": telemetry.masked_iterations_saved,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "perf_batch_kernel.json"
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(
        f"\nFigure-4 lattice ({len(points)} points): serial {serial_s * 1e3:.1f} ms, "
        f"batched {batch_s * 1e3:.1f} ms ({speedup:.1f}x), "
        f"{telemetry.iterations} iterations, "
        f"{telemetry.masked_iterations_saved} point-iterations masked"
        f"\n[saved to benchmarks/results/perf_batch_kernel.json]"
    )


def test_perf_solve_points_end_to_end(benchmark):
    """Model-level batched solve (stacking + kernel + measure derivation)."""
    points = _lattice()
    perfs, telemetry = run_once(benchmark, lambda: solve_points(points))
    assert len(perfs) == len(points)
    assert telemetry is not None and telemetry.converged == len(points)
