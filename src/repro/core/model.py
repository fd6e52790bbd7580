"""The MMS analytical model: parameters -> closed queueing network -> measures.

This is the paper's Section 2 model.  Each PE contributes four stations:

====================  ==========================  =====================
station               service time                visited by class i
====================  ==========================  =====================
processor ``P_j``     ``R + C`` (exponential)     only ``j == i`` (ratio 1)
memory ``M_j``        ``L``                       ``em[i, j]``
inbound switch        ``S``                       ``ei[i, j]``
outbound switch       ``S``                       ``eo[i, j]``
====================  ==========================  =====================

Classes are the per-processor thread pools (``n_t`` customers each).  The
network has a product-form solution (paper, Section 2) and is solved with:

* ``"symmetric"`` (default) -- Bard-Schweitzer restricted to the SPMD
  symmetric manifold, O(stations) per iteration (exactly the full AMVA answer
  for symmetric inputs);
* ``"amva"`` -- full multi-class Bard-Schweitzer (the paper's Figure 3);
* ``"linearizer"`` -- higher-order AMVA refinement;
* ``"exact"`` -- exact multi-class MVA (tiny instances; used to bound AMVA
  error, cf. the paper's remark on state-space explosion).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..obs import registry as obs_registry
from ..obs import trace_span
from ..params import MMSParams
from ..queueing import (
    BatchTelemetry,
    ClosedNetwork,
    QNSolution,
    SymmetricSolution,
    bard_schweitzer,
    exact_mva,
    linearizer,
    solve_batch,
    solve_symmetric,
    solve_symmetric_batch,
)
from ..workload import VisitRatios, pattern_for, visit_ratios_for
from .metrics import MMSPerformance, SubsystemStats

__all__ = ["MMSModel", "solve", "solve_points", "STATION_TYPES"]

#: subsystem kind labels used for station grouping
STATION_TYPES = ("processor", "memory", "inbound", "outbound")


class MMSModel:
    """Analytical model of a multithreaded multiprocessor system.

    Parameters
    ----------
    params:
        The machine + workload point.
    pattern:
        Optional :class:`~repro.workload.AccessPattern` overriding the
        workload's named pattern -- e.g. an
        :class:`~repro.workload.EmpiricalPattern` derived from a data
        distribution (:mod:`repro.workload.data_layout`).

    >>> from repro.params import paper_defaults
    >>> perf = MMSModel(paper_defaults()).solve()
    >>> 0.0 < perf.processor_utilization <= 1.0
    True
    """

    def __init__(self, params: MMSParams, pattern=None):
        self.params = params
        self._pattern = pattern
        self._visits: VisitRatios | None = None

    # ------------------------------------------------------------ components
    @property
    def pattern(self):
        """The effective access pattern (override or resolved from params)."""
        if self._pattern is not None:
            return self._pattern
        return pattern_for(self.params.workload)

    @property
    def visit_ratios(self) -> VisitRatios:
        """Visit-ratio matrices (built lazily, cached)."""
        if self._visits is None:
            if self._pattern is None:
                self._visits = visit_ratios_for(self.params)
            else:
                from ..workload import build_visit_ratios

                self._visits = build_visit_ratios(
                    self.params.arch.torus,
                    self.params.workload.p_remote,
                    self._pattern,
                )
        return self._visits

    @property
    def d_avg(self) -> float:
        """Average remote distance of the configured access pattern."""
        torus = self.params.arch.torus
        if torus.num_nodes == 1:
            return 0.0
        return self.pattern.d_avg(torus)

    @property
    def is_symmetric(self) -> bool:
        """Whether the symmetric fast path applies: SPMD pattern on a
        vertex-transitive machine (torus).  Meshes are never symmetric."""
        if not self.params.arch.wraparound:
            return False
        if self._pattern is not None:
            return bool(self._pattern.is_symmetric)
        return self.params.workload.is_symmetric

    def station_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Class-0 ``(visits, service, station_type, servers)`` arrays
        (length ``4P``).

        Station order: processors ``0..P-1``, memories ``P..2P-1``, inbound
        switches ``2P..3P-1``, outbound switches ``3P..4P-1``.
        """
        arch, wl = self.params.arch, self.params.workload
        p = arch.num_processors
        vr = self.visit_ratios
        visits = np.concatenate(
            [
                np.eye(1, p, 0).ravel(),  # processor 0 once per cycle
                vr.memory[0],
                vr.inbound[0],
                vr.outbound[0],
            ]
        )
        service = np.concatenate(
            [
                np.full(p, wl.runlength + arch.context_switch),
                np.full(p, arch.memory_latency),
                np.full(p, arch.switch_delay),
                np.full(p, arch.switch_delay),
            ]
        )
        station_type = np.repeat(np.arange(4), p)
        servers = np.ones(4 * p, dtype=np.int64)
        servers[p : 2 * p] = arch.memory_ports
        return visits, service, station_type, servers

    def build_network(self) -> ClosedNetwork:
        """The full multi-class :class:`ClosedNetwork` (``P`` classes, ``4P``
        stations) -- what the non-symmetric solvers consume."""
        arch, wl = self.params.arch, self.params.workload
        p = arch.num_processors
        vr = self.visit_ratios
        visits = np.concatenate(
            [np.eye(p), vr.memory, vr.inbound, vr.outbound], axis=1
        )
        service = np.concatenate(
            [
                np.full(p, wl.runlength + arch.context_switch),
                np.full(p, arch.memory_latency),
                np.full(p, arch.switch_delay),
                np.full(p, arch.switch_delay),
            ]
        )
        names = tuple(
            f"{kind}{j}" for kind in ("proc", "mem", "in", "out") for j in range(p)
        )
        servers = np.ones(4 * p, dtype=np.int64)
        servers[p : 2 * p] = arch.memory_ports
        return ClosedNetwork(
            visits=visits,
            service=service,
            populations=np.full(p, wl.num_threads),
            names=names,
            servers=tuple(servers),
        )

    # ----------------------------------------------------------------- solve
    def solve(self, method: str = "auto", tol: float = 1e-12) -> MMSPerformance:
        """Solve the model and derive the paper's performance measures.

        ``method="auto"`` picks the symmetric fast path for SPMD workloads
        and the full multi-class AMVA for asymmetric ones (hotspot).

        Every solve is observable: a ``solver.solve`` span (when tracing is
        enabled) and ``solver.*`` metrics record the resolved method,
        iteration count, and final residual -- the per-point view that
        :class:`~repro.queueing.SolverTelemetry` used to carry ad hoc.
        """
        with trace_span("solver.solve") as sp:
            perf = self._solve_impl(method, tol)
            sp.set(
                method=perf.method,
                iterations=perf.iterations,
                residual=perf.residual,
                converged=perf.converged,
                processors=self.params.arch.num_processors,
            )
            _record_point_metrics(perf)
            return perf

    def _solve_impl(self, method: str, tol: float) -> MMSPerformance:
        if method == "auto":
            method = "symmetric" if self.is_symmetric else "amva"
        if method == "symmetric":
            if not self.is_symmetric:
                why = (
                    "a mesh machine is not vertex transitive"
                    if not self.params.arch.wraparound
                    else f"the {self.params.workload.pattern!r} pattern is asymmetric"
                )
                raise ValueError(
                    f"the symmetric solver requires SPMD symmetry; {why} "
                    "-- use method='amva' (or 'auto')"
                )
            visits, service, station_type, servers = self.station_arrays()
            sol = solve_symmetric(
                visits,
                service,
                station_type,
                self.params.workload.num_threads,
                tol=tol,
                servers=servers,
            )
            return self._measures(visits, sol, method)
        if method in ("amva", "linearizer", "exact"):
            solver = {
                "amva": bard_schweitzer,
                "linearizer": linearizer,
                "exact": exact_mva,
            }[method]
            network = self.build_network()
            return self._network_measures(network, solver(network), method)
        raise ValueError(
            f"unknown method {method!r}; pick from symmetric/amva/linearizer/exact"
        )

    def _network_measures(
        self, network: ClosedNetwork, qsol: QNSolution, method: str
    ) -> MMSPerformance:
        """Measures of a full multi-class solution: class 0's view on the
        symmetric manifold, rate-weighted aggregates otherwise."""
        if not self.is_symmetric:
            return self._measures_aggregate(network, qsol, method)
        class0 = SymmetricSolution(
            throughput=float(qsol.throughput[0]),
            waiting=qsol.waiting[0],
            queue_length=qsol.queue_length[0],
            total_queue=qsol.total_queue_length,
            iterations=qsol.iterations,
            converged=qsol.converged,
            residual=qsol.residual,
        )
        return self._measures(network.visits[0], class0, method)

    def _measures_aggregate(
        self, network: ClosedNetwork, qsol: QNSolution, method: str
    ) -> MMSPerformance:
        """Rate-weighted machine-wide measures for asymmetric workloads.

        Latencies are averaged over *accesses* (class throughputs weight
        each class's view); utilizations report the busiest station of each
        kind -- for a hotspot that is the hot memory module.
        """
        arch, wl = self.params.arch, self.params.workload
        p = arch.num_processors
        proc = slice(0, p)
        mem = slice(p, 2 * p)
        inb = slice(2 * p, 3 * p)
        outb = slice(3 * p, 4 * p)

        x = qsol.throughput  # (C,)
        x_sum = float(x.sum())
        x_avg = x_sum / p
        v = network.visits
        w = qsol.waiting

        per_class_u = x * wl.runlength
        u_p = float(per_class_u.mean())
        busy = x_avg * (wl.runlength + arch.context_switch)
        lam_net = x_avg * wl.p_remote

        # access-weighted memory latency (each class issues one access/cycle)
        v_mem, w_mem = v[:, mem], w[:, mem]
        rate_mem = x[:, None] * v_mem
        l_obs = float((rate_mem * w_mem).sum() / x_sum) if x_sum > 0 else 0.0
        local_rates = np.array([rate_mem[c, c] for c in range(p)])
        local_w = np.array([w_mem[c, c] for c in range(p)])
        l_local = (
            float(np.dot(local_rates, local_w) / local_rates.sum())
            if local_rates.sum() > 0
            else 0.0
        )
        remote_rate = rate_mem.copy()
        for c in range(p):
            remote_rate[c, c] = 0.0
        rem_total = float(remote_rate.sum())
        l_remote = (
            float((remote_rate * w_mem).sum() / rem_total) if rem_total > 0 else 0.0
        )

        net_residence = float(
            (x[:, None] * (v[:, inb] * w[:, inb])).sum()
            + (x[:, None] * (v[:, outb] * w[:, outb])).sum()
        )
        s_obs = (
            net_residence / (2.0 * wl.p_remote * x_sum)
            if wl.p_remote > 0 and x_sum > 0
            else 0.0
        )
        round_trip = 2.0 * s_obs + l_remote if wl.p_remote > 0 else 0.0

        total_util = qsol.utilization.sum(axis=0) / np.asarray(network.servers)
        total_queue = qsol.total_queue_length

        def stats(sl: slice) -> SubsystemStats:
            rates = x[:, None] * v[:, sl]
            total_rate = rates.sum()
            per_visit = (
                float((rates * w[:, sl]).sum() / total_rate)
                if total_rate > 0
                else 0.0
            )
            return SubsystemStats(
                utilization=float(total_util[sl].max(initial=0.0)),
                queue_length=float(total_queue[sl].max(initial=0.0)),
                residence_per_visit=per_visit,
            )

        return MMSPerformance(
            params=self.params,
            access_rate=x_avg,
            processor_utilization=u_p,
            processor_busy=busy,
            lambda_net=lam_net,
            s_obs=s_obs,
            l_obs=l_obs,
            l_obs_local=l_local,
            l_obs_remote=l_remote,
            remote_round_trip=round_trip,
            processor=stats(proc),
            memory=stats(mem),
            inbound=stats(inb),
            outbound=stats(outb),
            method=method,
            iterations=qsol.iterations,
            converged=qsol.converged,
            residual=qsol.residual,
            per_class_utilization=per_class_u,
        )

    # -------------------------------------------------------------- measures
    def _measures(
        self, visits: np.ndarray, sol: SymmetricSolution, method: str
    ) -> MMSPerformance:
        """The paper's measures from a symmetric (class-0) solution."""
        arch, wl = self.params.arch, self.params.workload
        p = arch.num_processors
        # one row per station kind (processor, memory, inbound, outbound);
        # each row's sum and dot product are those of its 1-D slice
        kind_v = visits.reshape(4, p)
        kind_w = sol.waiting.reshape(4, p)
        v_sum = kind_v.sum(axis=1).tolist()
        vw = [np.dot(v, w) for v, w in zip(kind_v, kind_w)]
        visited = (kind_v > 0).any(axis=1).tolist()
        q_first = sol.total_queue[::p].tolist()

        x = sol.throughput  # lambda_i: accesses issued per time unit per PE
        u_p = x * wl.runlength
        busy = x * (wl.runlength + arch.context_switch)
        # a single-node machine has no remote modules: all accesses are local
        p_rem_eff = wl.p_remote if p > 1 else 0.0
        lam_net = x * p_rem_eff

        v_mem, w_mem = kind_v[1], kind_w[1]
        mem_visits_total = v_sum[1]  # == 1 per cycle
        l_obs = float(vw[1] / mem_visits_total) if mem_visits_total > 0 else 0.0
        l_local = float(w_mem[0]) if v_mem[0] > 0 else 0.0
        v_remote = v_mem.copy()
        v_remote[0] = 0.0
        rem_total = float(v_remote.sum())
        l_remote = float(np.dot(v_remote, w_mem) / rem_total) if rem_total > 0 else 0.0

        # Eq. (1): total switch residence per cycle; divide by the two one-way
        # trips each of the p_remote remote accesses makes to get the mean
        # one-way observed network latency.
        net_residence = float(vw[2] + vw[3])
        s_obs = net_residence / (2.0 * wl.p_remote) if wl.p_remote > 0 else 0.0
        round_trip = 2.0 * s_obs + l_remote if wl.p_remote > 0 else 0.0

        def stats(kind: int, service_time: float, ports: int = 1) -> SubsystemStats:
            per_visit = float(vw[kind] / v_sum[kind]) if visited[kind] else 0.0
            # Utilization of a station of this kind: every station of a kind
            # carries the same total load by symmetry (P classes each
            # contributing x * v / P ... equivalently x * sum(v) per station),
            # spread over its `ports` servers.
            util = x * v_sum[kind] * service_time / ports
            return SubsystemStats(
                utilization=util,
                queue_length=q_first[kind],
                residence_per_visit=per_visit,
            )

        return MMSPerformance(
            params=self.params,
            access_rate=x,
            processor_utilization=u_p,
            processor_busy=busy,
            lambda_net=lam_net,
            s_obs=s_obs,
            l_obs=l_obs,
            l_obs_local=l_local,
            l_obs_remote=l_remote,
            remote_round_trip=round_trip,
            processor=stats(0, wl.runlength + arch.context_switch),
            memory=stats(1, arch.memory_latency, arch.memory_ports),
            inbound=stats(2, arch.switch_delay),
            outbound=stats(3, arch.switch_delay),
            method=method,
            iterations=sol.iterations,
            converged=sol.converged,
            residual=sol.residual,
        )


def solve(params: MMSParams, method: str = "auto") -> MMSPerformance:
    """One-shot convenience: ``solve(paper_defaults(p_remote=0.4))``."""
    return MMSModel(params).solve(method=method)


def _record_point_metrics(perf: MMSPerformance) -> None:
    """Fold one scalar solve into the ``solver.*`` metrics."""
    reg = obs_registry()
    reg.counter("solver.points").inc()
    reg.counter("solver.iterations").inc(perf.iterations)
    if not perf.converged:
        reg.counter("solver.nonconverged").inc()
    reg.histogram("solver.residual", _RESIDUAL_BUCKETS).observe(perf.residual)


def _record_batch_obs(sp, method: str, batch: "BatchTelemetry | None") -> None:
    """Fold one batched solve into the span and the ``solver.batch.*``
    metrics (iterations, residual, masked point-iterations)."""
    if batch is None:
        return
    sp.set(
        method=method,
        kernel=batch.kernel,
        batch_size=batch.batch_size,
        iterations=batch.iterations,
        converged=batch.converged,
        max_residual=batch.max_residual,
        masked_iterations_saved=batch.masked_iterations_saved,
    )
    reg = obs_registry()
    reg.counter("solver.batch.calls").inc()
    reg.counter("solver.batch.points").inc(batch.batch_size)
    reg.counter("solver.batch.iterations").inc(batch.iterations)
    reg.counter("solver.batch.point_iterations").inc(sum(batch.active_trajectory))
    reg.counter("solver.batch.masked_iterations_saved").inc(
        batch.masked_iterations_saved
    )
    reg.counter(f"solver.batch.kernel.{batch.kernel}").inc()
    if batch.converged < batch.batch_size:
        reg.counter("solver.nonconverged").inc(batch.batch_size - batch.converged)
    reg.histogram("solver.residual", _RESIDUAL_BUCKETS).observe(batch.max_residual)


#: residual histogram buckets (residuals live around the 1e-12 tolerance)
_RESIDUAL_BUCKETS = (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1.0)


def solve_points(
    points: "Sequence[MMSParams]",
    method: str = "auto",
    tol: float = 1e-12,
) -> tuple[list[MMSPerformance], "BatchTelemetry | None"]:
    """Solve a homogeneous lattice of parameter points with one batched AMVA.

    All points must resolve to the *same* solver method and share a network
    shape (same ``P``); service times, visit ratios and populations may vary
    freely -- exactly the structure of the paper's figure sweeps.  Symmetric
    points go through
    :func:`~repro.queueing.mva_batch.solve_symmetric_batch` and asymmetric
    (hotspot/mesh) or ``method="amva"`` points through the multi-class
    :func:`~repro.queueing.mva_batch.solve_batch`; the scalar
    :meth:`MMSModel.solve` runs the same kernels with one point, so
    per-point results are bitwise-identical to it and the sweep backends
    can be swapped without disturbing cached records.

    Returns the performances in input order plus the shared
    :class:`~repro.queueing.solution.BatchTelemetry` (``None`` for an empty
    input).

    Raises
    ------
    ValueError
        If the points mix solver methods or network shapes.
    """
    if not points:
        return [], None
    with trace_span("solver.batch", points=len(points)) as sp:
        perfs, batch = _solve_points_impl(points, method, tol)
        _record_batch_obs(sp, perfs[0].method if perfs else method, batch)
        return perfs, batch


def _solve_points_impl(
    points: "Sequence[MMSParams]", method: str, tol: float
) -> tuple[list[MMSPerformance], "BatchTelemetry | None"]:
    models = [MMSModel(p) for p in points]
    if method == "auto":
        resolved = {"symmetric" if m.is_symmetric else "amva" for m in models}
        if len(resolved) > 1:
            raise ValueError(
                "solve_points needs a homogeneous batch; got a mix of "
                f"symmetric and asymmetric points ({sorted(resolved)})"
            )
        method = resolved.pop()
    sizes = {m.params.arch.num_processors for m in models}
    if len(sizes) > 1:
        raise ValueError(
            f"solve_points needs one machine size per batch; got P in {sorted(sizes)}"
        )

    if method == "symmetric":
        arrays = [m.station_arrays() for m in models]
        sols = solve_symmetric_batch(
            np.stack([a[0] for a in arrays]),
            np.stack([a[1] for a in arrays]),
            arrays[0][2],
            np.array([m.params.workload.num_threads for m in models]),
            tol=tol,
            servers=np.stack([a[3] for a in arrays]),
        )
        perfs = [
            model._measures(arr[0], sol, method)
            for model, arr, sol in zip(models, arrays, sols)
        ]
        return perfs, sols[0].telemetry.batch

    if method == "amva":
        networks = [m.build_network() for m in models]
        qsols = solve_batch(networks)
        perfs = [
            model._network_measures(network, qsol, method)
            for model, network, qsol in zip(models, networks, qsols)
        ]
        return perfs, qsols[0].telemetry.batch

    raise ValueError(
        f"solve_points supports method 'auto', 'symmetric' or 'amva'; got {method!r}"
    )
