"""Solution containers and solver telemetry shared by all MVA solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import ClosedNetwork

__all__ = [
    "QNSolution",
    "SolverTelemetry",
    "BatchTelemetry",
    "ConvergenceWarning",
    "ConvergenceError",
]


class ConvergenceWarning(RuntimeWarning):
    """A fixed-point solver exhausted ``max_iter`` without meeting its
    tolerance; the returned solution is the last iterate."""


class ConvergenceError(RuntimeError):
    """Raised instead of :class:`ConvergenceWarning` under ``strict=True``."""


@dataclass(frozen=True)
class BatchTelemetry:
    """What one batched fixed-point solve did, across the whole stack.

    ``active_trajectory[i]`` is the number of points still iterating when
    sweep iteration ``i + 1`` started -- converged points leave the active
    set exactly like early-exited sequences leave a batched-inference step,
    so the trajectory is the direct record of how much work the masking
    saved versus running every point to the slowest point's iteration count.
    """

    #: points in the stacked fixed point
    batch_size: int
    #: iterations until the last active point converged (or hit the cap)
    iterations: int
    #: points that met the tolerance
    converged: int
    #: largest final residual across the batch
    max_residual: float
    #: active-set size at the start of each iteration
    active_trajectory: tuple[int, ...]
    #: wall-clock seconds for the whole batch
    wall_time_s: float
    #: solver kernel that ran (provenance; "numpy" is the only kernel)
    kernel: str = "numpy"

    @property
    def masked_iterations_saved(self) -> int:
        """Point-iterations skipped by masking vs. running the full batch to
        the final iteration count."""
        return self.batch_size * self.iterations - sum(self.active_trajectory)

    def to_dict(self) -> dict[str, object]:
        return {
            "batch_size": self.batch_size,
            "iterations": self.iterations,
            "converged": self.converged,
            "max_residual": float(self.max_residual),
            "active_trajectory": list(self.active_trajectory),
            "wall_time_s": float(self.wall_time_s),
            "masked_iterations_saved": self.masked_iterations_saved,
            "kernel": self.kernel,
        }


@dataclass(frozen=True)
class SolverTelemetry:
    """Per-point solver diagnostics (scalar or one slot of a batch)."""

    #: fixed-point iterations this point used
    iterations: int
    #: final max-abs queue-length change at this point
    residual: float
    converged: bool
    #: wall-clock seconds (the whole batch's for a batched solve)
    wall_time_s: float = 0.0
    #: batch-level view when this point was solved as part of a stack
    batch: BatchTelemetry | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "iterations": self.iterations,
            "residual": float(self.residual),
            "converged": self.converged,
            "wall_time_s": float(self.wall_time_s),
            "batch": None if self.batch is None else self.batch.to_dict(),
        }


@dataclass(frozen=True)
class QNSolution:
    """Steady-state performance of a :class:`ClosedNetwork`.

    Attributes
    ----------
    network:
        The solved specification.
    throughput:
        ``(C,)`` class throughputs ``X_c`` (cycles per time unit).
    waiting:
        ``(C, M)`` mean *per-visit* residence times ``W[c, m]`` (queueing +
        service; 0 where the class never visits or the station has no delay).
    queue_length:
        ``(C, M)`` mean number of class-``c`` customers at station ``m``.
    iterations:
        Fixed-point iterations used (0 for exact solvers).
    converged:
        Whether the solver met its tolerance (exact solvers: always True).
    residual:
        Final max-abs queue-length change (0.0 for exact solvers).
    telemetry:
        Optional :class:`SolverTelemetry` with wall time and, for batched
        solves, the batch-level active-set trajectory.
    """

    network: ClosedNetwork
    throughput: np.ndarray
    waiting: np.ndarray
    queue_length: np.ndarray
    iterations: int = 0
    converged: bool = True
    residual: float = 0.0
    telemetry: SolverTelemetry | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------ per station
    @property
    def utilization(self) -> np.ndarray:
        """``(C, M)`` utilization ``U[c, m] = X_c * v[c, m] * s[c, m]``."""
        return self.throughput[:, None] * self.network.demands

    @property
    def total_utilization(self) -> np.ndarray:
        """``(M,)`` total utilization per station (<= 1 at queueing stations)."""
        return self.utilization.sum(axis=0)

    @property
    def total_queue_length(self) -> np.ndarray:
        """``(M,)`` total mean customers per station."""
        return self.queue_length.sum(axis=0)

    # -------------------------------------------------------------- per class
    @property
    def cycle_time(self) -> np.ndarray:
        """``(C,)`` mean cycle time ``N_c / X_c`` (Little's law on the cycle)."""
        pops = self.network.populations.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.throughput > 0, pops / self.throughput, np.inf)

    def residence(self, cls: int) -> np.ndarray:
        """``(M,)`` total residence time of class ``cls`` per cycle,
        ``v[c, m] * W[c, m]``."""
        return self.network.visits[cls] * self.waiting[cls]

    # ------------------------------------------------------------ diagnostics
    def littles_law_residual(self) -> float:
        """Max absolute error of ``Q[c, m] == X_c * v[c, m] * W[c, m]``.

        Near zero for a converged solution; used by property tests.
        """
        predicted = (
            self.throughput[:, None] * self.network.visits * self.waiting
        )
        return float(np.max(np.abs(predicted - self.queue_length), initial=0.0))

    def population_residual(self) -> float:
        """Max absolute error of ``sum_m Q[c, m] == N_c``."""
        err = self.queue_length.sum(axis=1) - self.network.populations
        return float(np.max(np.abs(err), initial=0.0))
