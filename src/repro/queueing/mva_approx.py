"""Approximate MVA: the Bard-Schweitzer fixed point (paper's Figure 3).

The paper's AMVA algorithm estimates the queue length a newly arriving
class-``i`` customer sees at population ``N`` by the proportional reduction

    Q_m(N - e_i)  ~=  (N_i - 1)/N_i * Q_{i,m}(N)  +  sum_{j != i} Q_{j,m}(N)

and iterates steps 2-5 of Figure 3 until the queue lengths are stable.
The iteration itself lives in the solver kernels
(:mod:`repro.queueing.kernels`); :func:`bard_schweitzer` is the ``B = 1``
call of :func:`repro.queueing.mva_batch.solve_batch`, so a network solved
alone and the same network solved inside a sweep-sized batch give
bitwise-identical results.  Zero-service (ideal) stations and delay
stations are supported.

An optional Linearizer-style refinement (:func:`linearizer`) is provided as a
higher-accuracy alternative (Chandy & Neuse's scheme, simplified to the
standard three-pass core); the paper's results use plain Bard-Schweitzer.
"""

from __future__ import annotations

import numpy as np

from . import mva_batch
from .network import ClosedNetwork
from .solution import QNSolution

__all__ = ["bard_schweitzer", "linearizer"]


def bard_schweitzer(
    network: ClosedNetwork,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    strict: bool = False,
) -> QNSolution:
    """Solve a closed multi-class network with the Bard-Schweitzer AMVA.

    ``tol`` is the convergence threshold on the max absolute queue-length
    change and ``max_iter`` the iteration cap; exhausting it emits a
    :class:`~repro.queueing.solution.ConvergenceWarning` (the last iterate
    is returned, flagged ``converged=False``), or raises
    :class:`~repro.queueing.solution.ConvergenceError` under ``strict``.
    This is a single-point :func:`~repro.queueing.mva_batch.solve_batch`.
    """
    return mva_batch.solve_batch(
        [network], tol=tol, max_iter=max_iter, strict=strict
    )[0]


def linearizer(
    network: ClosedNetwork,
    tol: float = 1e-8,
    max_outer: int = 50,
    inner_tol: float = 1e-10,
) -> QNSolution:
    """Linearizer-refined AMVA (Chandy-Neuse core scheme).

    Estimates the *fractional deviation* ``F[c, m] = Q[c, m]/N_c`` change
    between populations ``N`` and ``N - e_j`` by actually solving the reduced
    populations with Bard-Schweitzer-style cores, then correcting the arrival
    queue estimates.  Typically ~10x closer to exact MVA than plain
    Bard-Schweitzer at a few times the cost.
    """
    c, m = network.num_classes, network.num_stations
    v = network.visits
    s, extra = network.seidmann_split()
    pops = network.populations.astype(np.float64)
    queueing = network.queueing_mask()

    def core(pop_vec: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """BS core at population ``pop_vec`` with deviation corrections.

        ``delta[j, c, m]`` corrects class-``c``'s fraction at station ``m`` as
        seen when one class-``j`` customer is removed.  Returns (C, M) queues.
        """
        visited = v > 0
        n_vis = np.maximum(visited.sum(axis=1, keepdims=True), 1)
        q = np.where(visited, pop_vec[:, None] / n_vis, 0.0)
        for _ in range(100_000):
            with np.errstate(divide="ignore", invalid="ignore"):
                frac = np.where(pop_vec[:, None] > 0, q / pop_vec[:, None], 0.0)
            # population seen by an arriving class-j customer
            seen = np.empty((c, m))
            for j in range(c):
                reduced = pop_vec.copy()
                if reduced[j] > 0:
                    reduced[j] -= 1
                est = (frac + delta[j]) * reduced[:, None]
                seen[j] = est.sum(axis=0)
            w_ = np.where(queueing[None, :], s * (1.0 + seen) + extra, s + extra)
            denom = np.einsum("cm,cm->c", v, w_)
            with np.errstate(divide="ignore", invalid="ignore"):
                x_ = np.where(denom > 0, pop_vec / denom, 0.0)
            q_new = x_[:, None] * v * w_
            if float(np.max(np.abs(q_new - q), initial=0.0)) <= inner_tol:
                return q_new
            q = q_new
        return q

    delta = np.zeros((c, c, m))
    q_full = core(pops, delta)
    for _ in range(max_outer):
        # Solve each one-customer-removed population with current deltas.
        fracs_reduced = np.empty((c, c, m))
        for j in range(c):
            reduced = pops.copy()
            if reduced[j] > 0:
                reduced[j] -= 1
            q_red = core(reduced, delta)
            with np.errstate(divide="ignore", invalid="ignore"):
                fracs_reduced[j] = np.where(
                    reduced[:, None] > 0, q_red / reduced[:, None], 0.0
                )
        with np.errstate(divide="ignore", invalid="ignore"):
            frac_full = np.where(pops[:, None] > 0, q_full / pops[:, None], 0.0)
        delta_new = fracs_reduced - frac_full[None, :, :]
        q_new = core(pops, delta_new)
        moved = float(np.max(np.abs(q_new - q_full), initial=0.0))
        delta, q_full = delta_new, q_new
        if moved <= tol:
            break

    # Final consistent measures from the linearizer's own arrival estimate.
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(pops[:, None] > 0, q_full / pops[:, None], 0.0)
    seen = np.empty((c, m))
    for j in range(c):
        reduced = pops.copy()
        if reduced[j] > 0:
            reduced[j] -= 1
        seen[j] = ((frac + delta[j]) * reduced[:, None]).sum(axis=0)
    w = np.where(queueing[None, :], s * (1.0 + seen) + extra, s + extra)
    denom = np.einsum("cm,cm->c", v, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(denom > 0, pops / denom, 0.0)
    q_final = x[:, None] * v * w
    return QNSolution(
        network=network,
        throughput=x,
        waiting=w,
        queue_length=q_final,
        iterations=max_outer,
        converged=True,
    )
