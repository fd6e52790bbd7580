"""The solver kernel: compacted, vectorized Bard-Schweitzer fixed points.

These loops are the only implementation of the paper's Figure-3
iteration: the scalar entry points
(:func:`~repro.queueing.mva_approx.bard_schweitzer`,
:func:`~repro.queueing.mva_symmetric.solve_symmetric`) are ``B = 1``
calls of these loops.  Per-point arithmetic uses only elementwise
operations and reductions along the class/station axes, whose evaluation
order does not depend on the batch size, so per-point results are bitwise
independent of the batch composition.

Convergence is **compacted**: the loop keeps the still-unconverged points'
inputs and iterates as contiguous arrays, and a point whose queue-length
change drops below ``tol`` is scattered to the outputs and dropped from
them.  Inputs are gathered once up front and again only when some point
converges, so an iteration with no convergence pays no gather at all.
Points never interact, so compaction changes which rows are carried but
never any point's iterate sequence.
"""

from __future__ import annotations

import numpy as np

from .soa import FixedPointResult, MulticlassSoA, SymmetricSoA

__all__ = ["multiclass_fixed_point", "symmetric_fixed_point"]


def multiclass_fixed_point(
    soa: MulticlassSoA, tol: float, max_iter: int
) -> FixedPointResult:
    """Batched Bard-Schweitzer on a ``(B, C, M)`` multi-class stack."""
    b_total = soa.batch
    c, m = soa.shape
    q = soa.initial_queues()
    w = np.zeros((b_total, c, m))
    x = np.zeros((b_total, c))
    iterations = np.zeros(b_total, dtype=np.int64)
    residual = np.full(b_total, np.inf)
    converged = np.zeros(b_total, dtype=bool)
    trajectory: list[int] = []

    # the active points' inputs and loop invariants, compacted
    active = np.arange(b_total)
    v, s, extra = soa.visits, soa.service, soa.extra
    pops = soa.populations
    pops_col = pops[:, :, None]
    has_pop = pops_col > 0
    queueing = soa.queueing[:, None, :]
    fixed = s + extra  # residence at a non-queueing station
    # an all-true mask makes its ``where`` the identity, and compaction only
    # drops rows, so one check up front holds for the whole loop
    all_pop, all_queueing = bool(has_pop.all()), bool(queueing.all())
    q_a, w_a, x_a, delta = q, w, x, residual

    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            if active.size == 0:
                break
            trajectory.append(int(active.size))
            # step 2: arrival-theorem waiting times
            q_total = q_a.sum(axis=1, keepdims=True)  # (b, 1, M)
            own = q_a / pops_col if all_pop else np.where(has_pop, q_a / pops_col, 0.0)
            w_a = s * (1.0 + (q_total - own)) + extra
            if not all_queueing:
                w_a = np.where(queueing, w_a, fixed)
            # steps 3-4: throughputs and new queue lengths
            denom = (v * w_a).sum(axis=2)  # (b, C)
            x_a = np.where(denom > 0, pops / denom, 0.0)
            q_new = x_a[:, :, None] * v * w_a
            delta = np.abs(q_new - q_a).reshape(active.size, -1).max(axis=1)
            q_a = q_new
            # step 5: converged points are written out and leave the active set
            done = delta <= tol
            if done.any():
                out = active[done]
                q[out], w[out], x[out] = q_a[done], w_a[done], x_a[done]
                iterations[out] = it
                residual[out] = delta[done]
                converged[out] = True
                keep = ~done
                active = active[keep]
                q_a, w_a, x_a = q_a[keep], w_a[keep], x_a[keep]
                delta = delta[keep]
                v, s, extra, fixed = v[keep], s[keep], extra[keep], fixed[keep]
                pops, queueing, has_pop = pops[keep], queueing[keep], has_pop[keep]
                pops_col = pops[:, :, None]
    if active.size and trajectory:  # iteration cap: keep the last iterates
        q[active], w[active], x[active] = q_a, w_a, x_a
        iterations[active] = len(trajectory)
        residual[active] = delta

    return FixedPointResult(
        q=q,
        w=w,
        x=x,
        iterations=iterations,
        residual=residual,
        converged=converged,
        trajectory=tuple(trajectory),
    )


def symmetric_fixed_point(
    soa: SymmetricSoA, tol: float, max_iter: int
) -> FixedPointResult:
    """Batched Bard-Schweitzer on the ``(B, M)`` symmetric manifold."""
    b_total, m = soa.visits.shape
    q = soa.initial_queues()
    w = np.zeros((b_total, m))
    x = np.zeros(b_total)
    iterations = np.zeros(b_total, dtype=np.int64)
    residual = np.zeros(b_total)
    converged = soa.initial_converged()
    residual[~converged] = np.inf
    trajectory: list[int] = []

    # the active points' inputs, compacted
    active = np.flatnonzero(~converged)
    v, s, extra = soa.visits[active], soa.service[active], soa.extra[active]
    pop = soa.popf[active]
    pop_col = pop[:, None]
    q_a, w_a, x_a, delta = q[active], w[active], x[active], residual[active]

    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            if active.size == 0:
                break
            trajectory.append(int(active.size))
            seen = soa.pooled_totals(q_a) - q_a / pop_col  # arriving customer's view
            w_a = s * (1.0 + seen) + extra
            denom = (v * w_a).sum(axis=1)
            x_a = np.where(denom > 0, pop / denom, 0.0)
            q_new = x_a[:, None] * v * w_a
            delta = np.abs(q_new - q_a).max(axis=1)
            q_a = q_new
            done = delta <= tol
            if done.any():
                out = active[done]
                q[out], w[out], x[out] = q_a[done], w_a[done], x_a[done]
                iterations[out] = it
                residual[out] = delta[done]
                converged[out] = True
                keep = ~done
                active = active[keep]
                q_a, w_a, x_a, delta = q_a[keep], w_a[keep], x_a[keep], delta[keep]
                v, s, extra = v[keep], s[keep], extra[keep]
                pop = pop[keep]
                pop_col = pop[:, None]
    if active.size and trajectory:  # iteration cap: keep the last iterates
        q[active], w[active], x[active] = q_a, w_a, x_a
        iterations[active] = len(trajectory)
        residual[active] = delta

    return FixedPointResult(
        q=q,
        w=w,
        x=x,
        iterations=iterations,
        residual=residual,
        converged=converged,
        trajectory=tuple(trajectory),
    )
