"""Batched Bard-Schweitzer: a whole lattice of networks as one fixed point.

Every figure and table of the paper is a parameter sweep whose points share
one network *shape* -- the same ``(C, M)`` class/station layout with
different service times, visit ratios and populations.  Solving such a
lattice point-by-point re-enters Python once per point; here the whole
lattice is packed into structure-of-arrays state
(:mod:`repro.queueing.kernels.soa`) and iterated by the solver kernel
(:mod:`repro.queueing.kernels.reference`): each iteration only the
still-unconverged points are updated, and a point whose queue-length
change drops below ``tol`` leaves the active set -- exactly like
early-exit in batched inference.

The per-point iterate sequence is unchanged by compaction (points never
interact), so each point converges in the same number of iterations, to
the same values, as a scalar solve.

Numerical contract
------------------
Per-point arithmetic uses only elementwise operations and reductions along
the class/station axes, whose evaluation order does not depend on the batch
size.  Both entry points are therefore bitwise-identical across batch
compositions (``B = 1`` vs. ``B = 176`` give the same floats), which is
what lets the scalar solvers
:func:`~repro.queueing.mva_symmetric.solve_symmetric` and
:func:`~repro.queueing.mva_approx.bard_schweitzer` be ``B = 1`` calls
here and lets serial, batched and process-pool sweep backends emit
bitwise-identical records.  The conformance suite
(``tests/queueing/test_kernel_conformance.py``) pins every backend
against one reference column, and ``tests/queueing/test_kernel_bits.py``
pins the kernel's raw output bytes.
"""

from __future__ import annotations

import time
import warnings
from typing import Callable, Sequence

import numpy as np

from ..resilience.faults import InjectedFault, fault_point
from .kernels import FixedPointResult, MulticlassSoA, SymmetricSoA, reference
from .mva_symmetric import SymmetricSolution
from .network import ClosedNetwork
from .solution import (
    BatchTelemetry,
    ConvergenceError,
    ConvergenceWarning,
    QNSolution,
    SolverTelemetry,
)

__all__ = ["solve_batch", "solve_symmetric_batch"]


def _run_kernel(
    label: str,
    pack: Callable[[], MulticlassSoA | SymmetricSoA],
    fixed_point: Callable[..., FixedPointResult],
    tol: float,
    max_iter: int,
    strict: bool,
) -> tuple[MulticlassSoA | SymmetricSoA, FixedPointResult, BatchTelemetry] | None:
    """The shell both entry points share around one kernel call.

    Fires the ``solve.raise`` fault site, packs the inputs, runs the
    kernel's ``fixed_point`` loop, warns about (or, under
    ``strict``, raises on) points that exhausted ``max_iter``, fires the
    ``solve.nan`` site that poisons one point's measures (chaos testing),
    and records the batch telemetry.  ``None`` for an empty batch.
    """
    if fault_point("solve.raise") is not None:
        raise InjectedFault(f"injected failure at {label} entry")
    t0 = time.perf_counter()
    soa = pack()
    b_total = soa.batch
    if b_total == 0:
        return None
    res = fixed_point(soa, tol, max_iter)

    converged = int(res.converged.sum())
    if converged < b_total:
        msg = (
            f"{label}: {b_total - converged} point(s) did not converge "
            f"within {max_iter} iterations (worst residual "
            f"{float(res.residual[~res.converged].max()):.3e} > tol {tol:.1e})"
        )
        if strict:
            raise ConvergenceError(msg)
        warnings.warn(msg, ConvergenceWarning, stacklevel=3)

    spec = fault_point("solve.nan")
    if spec is not None:
        i = int(spec.args.get("index", 0)) % b_total
        res.x[i] = np.nan
        res.w[i] = np.nan
        res.q[i] = np.nan

    batch = BatchTelemetry(
        batch_size=b_total,
        iterations=int(res.iterations.max(initial=0)),
        converged=converged,
        max_residual=float(np.max(res.residual, initial=0.0)),
        active_trajectory=res.trajectory,
        wall_time_s=time.perf_counter() - t0,
    )
    return soa, res, batch


def _point_fields(
    res: FixedPointResult, i: int, batch: BatchTelemetry
) -> dict[str, object]:
    """Point ``i``'s convergence fields, as both solution types take them."""
    telemetry = SolverTelemetry(
        iterations=int(res.iterations[i]),
        residual=float(res.residual[i]),
        converged=bool(res.converged[i]),
        wall_time_s=batch.wall_time_s,
        batch=batch,
    )
    return {
        "iterations": telemetry.iterations,
        "converged": telemetry.converged,
        "residual": telemetry.residual,
        "telemetry": telemetry,
    }


def solve_batch(
    networks: Sequence[ClosedNetwork],
    tol: float = 1e-10,
    max_iter: int = 100_000,
    strict: bool = False,
) -> list[QNSolution]:
    """Solve a stack of same-shape closed networks with one batched AMVA.

    Parameters
    ----------
    networks:
        Network specifications; all must share the ``(C, M)`` shape (service
        times, visit ratios, populations and server counts may differ
        freely).  Zero-service (ideal-subsystem) stations are allowed.
    tol / max_iter:
        Per-point convergence threshold on the max absolute queue-length
        change (the paper's ``difference(n_im_new, n_im_old) > tolerance``
        test) and iteration cap.
    strict:
        Raise :class:`ConvergenceError` if any point exhausts ``max_iter``;
        the default emits a :class:`ConvergenceWarning` and returns the last
        iterates (flagged ``converged=False``).

    Returns
    -------
    One :class:`QNSolution` per input network, in order, each carrying
    per-point ``iterations``/``residual`` and a shared
    :class:`~repro.queueing.solution.BatchTelemetry`.
    """
    if not networks:
        return []
    _soa, res, batch = _run_kernel(
        "solve_batch",
        lambda: MulticlassSoA.from_networks(networks),
        reference.multiclass_fixed_point,
        tol, max_iter, strict,
    )
    return [
        QNSolution(
            network=net,
            throughput=res.x[i],
            waiting=res.w[i],
            queue_length=res.q[i],
            **_point_fields(res, i, batch),
        )
        for i, net in enumerate(networks)
    ]


def solve_symmetric_batch(
    visits: np.ndarray,
    service: np.ndarray,
    station_type: np.ndarray,
    populations: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 200_000,
    servers: np.ndarray | None = None,
    strict: bool = False,
) -> list[SymmetricSolution]:
    """Batched Bard-Schweitzer on the symmetric (SPMD) manifold.

    The batch axis stacks parameter points of one machine shape: ``visits``
    and ``service`` are ``(B, M)``, ``populations`` is ``(B,)`` integers and
    ``station_type`` is the shared ``(M,)`` labelling (identical for every
    point of one machine size).  ``servers`` is an optional ``(B, M)``
    Seidmann multi-server array.

    Per-point results are bitwise-identical to a single-point batch -- see
    the module docstring -- so the scalar
    :func:`~repro.queueing.mva_symmetric.solve_symmetric` is this kernel
    with ``B = 1``.
    """
    ran = _run_kernel(
        "solve_symmetric_batch",
        lambda: SymmetricSoA.pack(
            visits, service, station_type, populations, servers
        ),
        reference.symmetric_fixed_point,
        tol, max_iter, strict,
    )
    if ran is None:
        return []
    soa, res, batch = ran
    total_queue = soa.pooled_totals(res.q)
    return [
        SymmetricSolution(
            throughput=float(res.x[i]),
            waiting=res.w[i],
            queue_length=res.q[i],
            total_queue=total_queue[i],
            **_point_fields(res, i, batch),
        )
        for i in range(batch.batch_size)
    ]
