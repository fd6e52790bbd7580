"""Metric definitions, the percentile rule, and the regression verdict.

Two kinds of end-to-end metric exist here:

* ``END_TO_END`` -- the metrics every workload reports in its result line,
  each with the bound ``BENCHMARK.json`` fixes.  They are generic so that
  every workload can report every one of them: an *operation* is one
  ``repro.solve`` call (solve_point), one cold-then-warm lattice cycle
  (sweep_lattice), one HTTP ``/solve`` request (serve_http) or one fabric
  sweep (fabric_sweep).  Medians are left out of this set: on a shared
  host whose cores flip between a fast and a slow state, the median of a
  run jumps between the two states, while the operation rate (a mean)
  moves smoothly.
* ``PATH_METRICS`` -- the path-specific metrics each workload prints by
  name (``solve_p99_ms``, ``sweep_warm_s``, ``http_rps``, ...), which the
  compare mode judges with the bounds below.

Both feed :func:`verdict`, the better / worse / unchanged / unresolved rule.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float | None = None  # share of the parent median; None: no bound


def _table(*metrics: Metric) -> dict[str, Metric]:
    return {m.name: m for m in metrics}


END_TO_END = _table(
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("ops_per_s", "1/s", "higher", 0.25),
)

#: path-specific end-to-end metrics, printed per workload and compared by
#: ``compare.py``; every workload also prints END_TO_END and failed_frac
PATH_METRICS = {
    "solve_point": _table(
        Metric("solve_p50_ms", "ms", "lower", 0.25),
        Metric("solve_p99_ms", "ms", "lower", 0.25),
        Metric("solves_per_s", "1/s", "higher", 0.25),
    ),
    "sweep_lattice": _table(
        Metric("sweep_cold_s", "s", "lower", 0.25),
        Metric("sweep_warm_s", "s", "lower", 0.25),
    ),
    "serve_http": _table(
        Metric("http_rps", "1/s", "higher", 0.25),
        Metric("http_p50_ms", "ms", "lower", 0.25),
        Metric("http_p99_ms", "ms", "lower", 0.25),
    ),
    "fabric_sweep": _table(
        Metric("fabric_sweep_s", "s", "lower", 0.25),
    ),
}

FAILED_FRAC = Metric("failed_frac", "ratio", "lower", None)

#: per-layer metrics of the traced run: no bound, reported for every
#: workload (0 where the layer does no work)
PER_LAYER = _table(
    Metric("api.self_us", "us", "lower"),
    Metric("params.build_us", "us", "lower"),
    Metric("spec.key_us", "us", "lower"),
    Metric("spec.keys", "count", "lower"),
    Metric("model.visits_us", "us", "lower"),
    Metric("model.build_us", "us", "lower"),
    Metric("kernel.b1_us", "us", "lower"),
    Metric("kernel.iterations", "count", "lower"),
    Metric("kernel.us_per_iter", "us", "lower"),
    Metric("kernel.hier_us", "us", "lower"),
    Metric("kernel.amva_us", "us", "lower"),
    Metric("kernel.batch_ms", "ms", "lower"),
    Metric("kernel.batch_point_iters", "count", "lower"),
    Metric("kernel.batch_useful_frac", "ratio", "higher"),
    Metric("store.get_us", "us", "lower"),
    Metric("store.put_us", "us", "lower"),
    Metric("store.hits", "count", "higher"),
    Metric("store.misses", "count", "lower"),
    Metric("store.bytes_written", "bytes", "lower"),
    Metric("executor.overhead_ms", "ms", "lower"),
    Metric("serve.in_service_ms", "ms", "lower"),
    Metric("serve.batch_width_mean", "count", "higher"),
    Metric("serve.memcache_hit_frac", "ratio", "higher"),
    Metric("serve.coalesced_frac", "ratio", "higher"),
    Metric("http.overhead_ms", "ms", "lower"),
    Metric("fabric.schedule_s", "s", "lower"),
    Metric("fabric.spawn_s", "s", "lower"),
    Metric("fabric.dispatch_s", "s", "lower"),
    Metric("fabric.finalize_s", "s", "lower"),
    Metric("fabric.leases", "count", "lower"),
    Metric("fabric.redispatched", "count", "lower"),
    Metric("trace.overhead_frac", "ratio", "lower"),
    Metric("trace.tiling_gap", "ratio", "lower"),
)

#: percentiles tried from the top, in tenths of a percent (exact integers,
#: so "at least ten samples beyond" never hinges on float rounding)
_PERMILLE_LADDER = (999, 990, 950, 900, 750, 500)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of *samples* (numpy's default rule)."""
    if not samples:
        raise ValueError("percentile of no samples")
    xs = sorted(samples)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(samples: Sequence[float]) -> tuple[float | None, float | None, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(pct, value, n)``; ``pct`` and ``value`` are ``None`` when
    even the median has fewer than ten samples beyond it.
    """
    n = len(samples)
    for permille in _PERMILLE_LADDER:
        if n * (1000 - permille) >= 10_000:
            pct = permille / 10.0
            return pct, percentile(samples, pct), n
    return None, None, n


def failed_frac(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones (refusals and wrong answers
    are failures too)."""
    if attempted < 1:
        raise ValueError("no operation attempted")
    return failed / attempted


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them (a single value is its own quartiles)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _improves(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def win_share(parent: Sequence[float], change: Sequence[float], better: str) -> float:
    """Share of (parent, change) run pairs the change won; ties count for
    neither side."""
    pairs = list(zip(parent, change))
    if not pairs:
        raise ValueError("no run pairs")
    return sum(_improves(c, p, better) for p, c in pairs) / len(pairs)


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float | None,
) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved``.

    A gain needs the change to win at least nine tenths of the pairs and
    the medians to differ by more than the parent's own quartile spread.
    Otherwise the change is worse when its median is worse than the
    parent's by more than *bound*.  When the parent's spread exceeds the
    bound the metric cannot be judged, and is unresolved unless every run
    of the change beats every run of the parent.
    """
    q1, p_med, q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    if win_share(parent, change, better) >= 0.9 and abs(c_med - p_med) > q3 - q1:
        return "better" if _improves(c_med, p_med, better) else "worse"
    if bound is None:
        return "unchanged" if c_med == p_med else "unresolved"
    if p_med == 0:
        return "unchanged" if c_med == 0 else "unresolved"
    if (q3 - q1) / abs(p_med) > bound:
        if all(_improves(c, p, better) for c in change for p in parent):
            return "unchanged"
        return "unresolved"
    worse_by = (c_med - p_med) / abs(p_med)
    if better == "higher":
        worse_by = -worse_by
    return "worse" if worse_by > bound else "unchanged"


def failures_verdict(parent: Sequence[float], change: Sequence[float]) -> str:
    """The verdict on ``failed_frac``, which has no bound: any rise is
    ``worse`` -- a higher median, or failures in a change run where no
    parent run had any.  Otherwise the rule of :func:`verdict`."""
    newly_failing = max(parent) == 0 and max(change) > 0
    if newly_failing or quartiles(change)[1] > quartiles(parent)[1]:
        return "worse"
    return verdict(parent, change, FAILED_FRAC.better, FAILED_FRAC.bound)
