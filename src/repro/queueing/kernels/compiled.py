"""The compiled kernel: per-point machine-code loops, bitwise-equal.

The numpy reference kernel pays ~20 small-array operations of interpreter
overhead per fixed-point iteration; at figure-lattice sizes that overhead
dominates the arithmetic.  This kernel runs the same iteration as plain
per-point loops compiled by numba's ``@njit`` -- no fastmath, so IEEE-754
semantics are untouched -- and is required to match the reference kernel
**bitwise**.  Two things make that possible:

* every elementwise expression keeps the reference's exact association
  (e.g. ``(x * v) * w``, ``s * (1 + seen) + extra``);
* every reduction replicates numpy's evaluation order --
  :func:`_pairwise_sum` is numpy's pairwise summation (sequential below 8
  terms, an 8-way unrolled block up to 128, then halved recursion with the
  split rounded down to a multiple of 8), and class-axis totals accumulate
  slice by slice exactly like a middle-axis ``ndarray.sum``.

Because points of a batched fixed point never interact, iterating each
point to its own convergence reproduces the compacted vectorized kernel's
per-point iterate sequence exactly; the active-set trajectory is
reconstructed from the per-point iteration counts
(:func:`~.soa.trajectory_from_iterations`).

When numba is not importable the ``@njit`` decorator degrades to the
identity, leaving the same functions as (slow) pure-Python loops: the
selection layer then refuses ``kernel="numba"`` and ``"auto"`` falls back
to the reference kernel, but the loops stay importable so the conformance
suite can prove the algorithm bitwise-equal even where numba is absent.
"""

from __future__ import annotations

import numpy as np

from .soa import (
    FixedPointResult,
    MulticlassSoA,
    SymmetricSoA,
    trajectory_from_iterations,
)

__all__ = [
    "HAVE_NUMBA",
    "compiled_available",
    "multiclass_fixed_point",
    "symmetric_fixed_point",
]

#: selection-registry name of this kernel
NAME = "numba"

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    HAVE_NUMBA = True
except Exception:  # ImportError, or a broken numba install
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # noqa: ANN002, ANN003 - decorator shim
        """Identity decorator: keeps the loop kernels importable/testable."""
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco


@njit(cache=True)
def _pairwise_sum(a: np.ndarray, lo: int, n: int) -> float:
    """numpy's pairwise summation over ``a[lo : lo + n]`` (contiguous f64)."""
    if n < 8:
        res = 0.0
        for i in range(n):
            res += a[lo + i]
        return res
    if n <= 128:
        r0 = a[lo]
        r1 = a[lo + 1]
        r2 = a[lo + 2]
        r3 = a[lo + 3]
        r4 = a[lo + 4]
        r5 = a[lo + 5]
        r6 = a[lo + 6]
        r7 = a[lo + 7]
        i = 8
        while i + 8 <= n:
            r0 += a[lo + i]
            r1 += a[lo + i + 1]
            r2 += a[lo + i + 2]
            r3 += a[lo + i + 3]
            r4 += a[lo + i + 4]
            r5 += a[lo + i + 5]
            r6 += a[lo + i + 6]
            r7 += a[lo + i + 7]
            i += 8
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        while i < n:
            res += a[lo + i]
            i += 1
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(a, lo, n2) + _pairwise_sum(a, lo + n2, n - n2)


@njit(cache=True)
def _symmetric_loop(
    v: np.ndarray,
    s: np.ndarray,
    extra: np.ndarray,
    popf: np.ndarray,
    type_masks: np.ndarray,
    q: np.ndarray,
    converged: np.ndarray,
    tol: float,
    max_iter: int,
):
    """Iterate every symmetric point to its own convergence (in place)."""
    b_total, m = v.shape
    n_types = type_masks.shape[0]
    w = np.zeros((b_total, m))
    x = np.zeros(b_total)
    iterations = np.zeros(b_total, np.int64)
    residual = np.zeros(b_total)
    tmp = np.empty(m)
    t_total = np.empty(m)
    w_b = np.empty(m)
    q_new = np.empty(m)
    for b in range(b_total):
        if converged[b]:
            continue
        residual[b] = np.inf
        pop = popf[b]
        x_b = 0.0
        for it in range(1, max_iter + 1):
            # type-pooled totals: mask-multiply, then numpy's row reduction
            for t in range(n_types):
                for j in range(m):
                    tmp[j] = q[b, j] * type_masks[t, j]
                tot = _pairwise_sum(tmp, 0, m)
                for j in range(m):
                    if type_masks[t, j] != 0.0:
                        t_total[j] = tot
            for j in range(m):
                seen = t_total[j] - q[b, j] / pop
                w_b[j] = s[b, j] * (1.0 + seen) + extra[b, j]
                tmp[j] = v[b, j] * w_b[j]
            denom = _pairwise_sum(tmp, 0, m)
            if denom > 0.0:
                x_b = pop / denom
            else:
                x_b = 0.0
            delta = 0.0
            for j in range(m):
                qn = (x_b * v[b, j]) * w_b[j]
                d = abs(qn - q[b, j])
                if d > delta:
                    delta = d
                q_new[j] = qn
            for j in range(m):
                q[b, j] = q_new[j]
                w[b, j] = w_b[j]
            x[b] = x_b
            iterations[b] = it
            residual[b] = delta
            if delta <= tol:
                converged[b] = True
                break
    return w, x, iterations, residual


@njit(cache=True)
def _multiclass_loop(
    v: np.ndarray,
    s: np.ndarray,
    extra: np.ndarray,
    pops: np.ndarray,
    queueing: np.ndarray,
    q: np.ndarray,
    tol: float,
    max_iter: int,
):
    """Iterate every multi-class point to its own convergence (in place)."""
    b_total, c_total, m = v.shape
    w = np.zeros((b_total, c_total, m))
    x = np.zeros((b_total, c_total))
    iterations = np.zeros(b_total, np.int64)
    residual = np.full(b_total, np.inf)
    converged = np.zeros(b_total, np.bool_)
    q_total = np.empty(m)
    tmp = np.empty(m)
    w_b = np.empty((c_total, m))
    x_b = np.empty(c_total)
    q_new = np.empty((c_total, m))
    for b in range(b_total):
        for it in range(1, max_iter + 1):
            # class-axis totals accumulate slice by slice (middle-axis sum)
            for j in range(m):
                acc = 0.0
                for c in range(c_total):
                    acc += q[b, c, j]
                q_total[j] = acc
            for c in range(c_total):
                pop = pops[b, c]
                for j in range(m):
                    if pop > 0.0:
                        own = q[b, c, j] / pop
                    else:
                        own = 0.0
                    seen = q_total[j] - own
                    if queueing[b, j]:
                        w_b[c, j] = s[b, c, j] * (1.0 + seen) + extra[b, c, j]
                    else:
                        w_b[c, j] = s[b, c, j] + extra[b, c, j]
                    tmp[j] = v[b, c, j] * w_b[c, j]
                denom = _pairwise_sum(tmp, 0, m)
                if denom > 0.0:
                    x_b[c] = pop / denom
                else:
                    x_b[c] = 0.0
            delta = 0.0
            for c in range(c_total):
                for j in range(m):
                    qn = (x_b[c] * v[b, c, j]) * w_b[c, j]
                    d = abs(qn - q[b, c, j])
                    if d > delta:
                        delta = d
                    q_new[c, j] = qn
            for c in range(c_total):
                for j in range(m):
                    q[b, c, j] = q_new[c, j]
                    w[b, c, j] = w_b[c, j]
                x[b, c] = x_b[c]
            iterations[b] = it
            residual[b] = delta
            if delta <= tol:
                converged[b] = True
                break
    return w, x, iterations, residual, converged


def symmetric_fixed_point(
    soa: SymmetricSoA, tol: float, max_iter: int
) -> FixedPointResult:
    """Batched Bard-Schweitzer on the symmetric manifold, compiled."""
    q = soa.initial_queues()
    converged = soa.initial_converged().copy()
    w, x, iterations, residual = _symmetric_loop(
        np.ascontiguousarray(soa.visits),
        np.ascontiguousarray(soa.service),
        np.ascontiguousarray(soa.extra),
        soa.popf,
        np.ascontiguousarray(soa.type_masks),
        q,
        converged,
        tol,
        max_iter,
    )
    return FixedPointResult(
        q=q,
        w=w,
        x=x,
        iterations=iterations,
        residual=residual,
        converged=converged,
        trajectory=trajectory_from_iterations(iterations),
    )


def multiclass_fixed_point(
    soa: MulticlassSoA, tol: float, max_iter: int
) -> FixedPointResult:
    """Batched Bard-Schweitzer on a multi-class stack, compiled."""
    q = soa.initial_queues()
    w, x, iterations, residual, converged = _multiclass_loop(
        np.ascontiguousarray(soa.visits),
        np.ascontiguousarray(soa.service),
        np.ascontiguousarray(soa.extra),
        np.ascontiguousarray(soa.populations),
        np.ascontiguousarray(soa.queueing),
        q,
        tol,
        max_iter,
    )
    return FixedPointResult(
        q=q,
        w=w,
        x=x,
        iterations=iterations,
        residual=residual,
        converged=converged,
        trajectory=trajectory_from_iterations(iterations),
    )


#: lazily-probed availability verdict (None = not probed yet)
_PROBE: bool | None = None


def compiled_available() -> bool:
    """Whether the numba kernel can actually run (import + tiny compile).

    The probe solves one miniature point per kernel so a numba that
    imports but cannot compile these loops (unsupported platform, broken
    cache dir) is discovered here, where ``auto`` can still fall back,
    rather than mid-sweep.  The verdict is cached for the process.
    """
    global _PROBE
    if _PROBE is None:
        _PROBE = HAVE_NUMBA and _probe()
    return _PROBE


def _probe() -> bool:  # pragma: no cover - requires numba
    try:
        sym = SymmetricSoA.pack(
            visits=np.ones((1, 9)),
            service=np.full((1, 9), 0.5),
            station_type=np.arange(9) % 3,
            populations=np.array([2]),
            servers=np.full((1, 9), 2),
        )
        symmetric_fixed_point(sym, 1e-6, 50)
        multi = MulticlassSoA(
            visits=np.ones((1, 2, 9)),
            service=np.full((1, 2, 9), 0.5),
            extra=np.zeros((1, 2, 9)),
            populations=np.full((1, 2), 2.0),
            queueing=np.ones((1, 9), dtype=bool),
        )
        multiclass_fixed_point(multi, 1e-6, 50)
        return True
    except Exception:
        return False
