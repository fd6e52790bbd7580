"""Heterogeneous/hierarchical networks with mixed link speeds.

The third registered scenario family: a mesh-of-clusters machine in the
spirit of Kanrar & Siraj (arXiv:1110.3597) -- ``c`` clusters of ``g``
processors each, where intra-cluster links are fast (``intra_delay``)
and the inter-cluster gateway links are slow (``inter_delay``).  Each
processor runs ``num_threads`` threads with runlength ``R``; a memory
access is local with probability ``1 - p_remote``, and a remote access
stays inside the cluster with probability ``p_intra``.

The model follows the torus MMS recipe -- one customer class per
processor (``num_threads`` threads each) over the station layout

    [P processors][P memories][P intra links][c gateways],   P = c * g

-- but is solved with the full multi-class Bard-Schweitzer AMVA
(:func:`repro.queueing.solve_batch`): the ``c`` gateway stations are
shared by ``g`` classes each, so the symmetric fast path's per-label
queue pooling (which assumes one station per class per label) does not
apply.  Remote accesses traverse the source and destination
intra-cluster links (two crossings each for request + reply), and
inter-cluster accesses additionally cross both the source and
destination gateways.

Points of one machine shape (``clusters``, ``cluster_size``) pack into
one stacked fixed point, so a sweep batches like the torus does; a single
:meth:`HierScenario.solve` is the one-point batch, bitwise-equal to the
same point solved inside any sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Sequence

import numpy as np

from ..params import ParamError
from .base import Scenario, ScenarioPerformance

__all__ = ["HierParams", "HierScenario"]


@dataclass(frozen=True)
class HierParams:
    """Parameters of one mesh-of-clusters configuration."""

    clusters: int = 4
    cluster_size: int = 4
    num_threads: int = 8
    runlength: float = 10.0
    p_remote: float = 0.2
    p_intra: float = 0.8
    memory_latency: float = 10.0
    intra_delay: float = 2.0
    inter_delay: float = 20.0
    memory_ports: int = 1

    def __post_init__(self) -> None:
        for name in ("clusters", "cluster_size", "num_threads", "memory_ports"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ParamError(
                    f"{name}: must be a positive integer, got {value!r}"
                )
        if not self.runlength > 0:
            raise ParamError(f"runlength: must be > 0, got {self.runlength!r}")
        for name in ("p_remote", "p_intra"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParamError(f"{name}: must be in [0, 1], got {value!r}")
        for name in ("memory_latency", "intra_delay", "inter_delay"):
            value = getattr(self, name)
            if value < 0:
                raise ParamError(f"{name}: must be >= 0, got {value!r}")

    @property
    def num_processors(self) -> int:
        return self.clusters * self.cluster_size

    def with_(self, **changes: Any) -> "HierParams":
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "clusters": self.clusters,
            "cluster_size": self.cluster_size,
            "num_threads": self.num_threads,
            "runlength": float(self.runlength),
            "p_remote": float(self.p_remote),
            "p_intra": float(self.p_intra),
            "memory_latency": float(self.memory_latency),
            "intra_delay": float(self.intra_delay),
            "inter_delay": float(self.inter_delay),
            "memory_ports": self.memory_ports,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HierParams":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise TypeError(f"unknown hier parameter(s): {unknown}")
        coerced: dict[str, Any] = dict(data)
        for name in ("clusters", "cluster_size", "num_threads", "memory_ports"):
            if name in coerced:
                coerced[name] = int(coerced[name])
        for name in (
            "runlength",
            "p_remote",
            "p_intra",
            "memory_latency",
            "intra_delay",
            "inter_delay",
        ):
            if name in coerced:
                coerced[name] = float(coerced[name])
        return cls(**coerced)


def _routing(params: HierParams) -> tuple[float, float, float]:
    """Effective ``(p_remote, intra, inter)`` access probabilities.

    Degenerate shapes route gracefully: a 1-processor machine has no
    remote accesses; a 1-cluster machine has no inter-cluster traffic; a
    machine of 1-processor clusters has no intra-cluster remote targets.
    """
    c, g = params.clusters, params.cluster_size
    p_rem = params.p_remote if c * g > 1 else 0.0
    if g == 1:
        p_intra_eff = 0.0
    elif c == 1:
        p_intra_eff = 1.0
    else:
        p_intra_eff = params.p_intra
    return p_rem, p_rem * p_intra_eff, p_rem * (1.0 - p_intra_eff)


def build_network(params: HierParams) -> Any:
    """The mesh-of-clusters machine as a multi-class :class:`ClosedNetwork`.

    Class ``j`` is the ``num_threads`` threads of processor ``j``
    (cluster ``j // g``).  ``mem[i]``/``link[i]`` are co-located with
    processor ``i``; ``gate[k]`` is cluster ``k``'s gateway.
    """
    from ..queueing import ClosedNetwork

    c, g = params.clusters, params.cluster_size
    n_proc = c * g
    p_rem, intra, inter = _routing(params)

    n_stations = 3 * n_proc + c
    mem0, link0, gate0 = n_proc, 2 * n_proc, 3 * n_proc
    visits = np.zeros((n_proc, n_stations))
    for j in range(n_proc):
        cj = j // g
        # Processor: one runlength per think-access cycle.
        visits[j, j] = 1.0
        # Local access to the co-located memory.
        visits[j, mem0 + j] = 1.0 - p_rem
        # Every remote access crosses the source intra-cluster link twice
        # (request out + reply back).
        visits[j, link0 + j] = 2.0 * p_rem
        if intra > 0:
            share = intra / (g - 1)
            for i in range(cj * g, (cj + 1) * g):
                if i != j:
                    visits[j, mem0 + i] += share
                    visits[j, link0 + i] += 2.0 * share
        if inter > 0:
            share = inter / ((c - 1) * g)
            for i in range(n_proc):
                if i // g != cj:
                    visits[j, mem0 + i] += share
                    visits[j, link0 + i] += 2.0 * share
            # Inter-cluster accesses cross the source cluster's gateway
            # and the destination cluster's gateway, request + reply.
            visits[j, gate0 + cj] += 2.0 * inter
            gate_share = 2.0 * inter / (c - 1)
            for k in range(c):
                if k != cj:
                    visits[j, gate0 + k] += gate_share
    service = np.concatenate(
        [
            np.full(n_proc, params.runlength),
            np.full(n_proc, params.memory_latency),
            np.full(n_proc, params.intra_delay),
            np.full(c, params.inter_delay),
        ]
    )
    servers = [1] * n_proc + [params.memory_ports] * n_proc + [1] * (n_proc + c)
    return ClosedNetwork(
        visits=visits,
        service=service,
        populations=np.full(n_proc, params.num_threads, dtype=np.int64),
        servers=tuple(servers),
    )


class HierScenario(Scenario):
    name = "hier"
    title = "mesh-of-clusters with mixed intra/inter-cluster link speeds"
    params_type = HierParams
    batchable_methods = ("amva",)
    tolerance_subsystems = ("network", "interlink", "memory")

    def default_params(self) -> HierParams:
        return HierParams()

    def params_from_dict(self, data: Mapping[str, Any]) -> HierParams:
        return HierParams.from_dict(data)

    def canonical_method(self, params: HierParams, method: str = "auto") -> str:
        if method in ("auto", "amva"):
            return "amva"
        raise ParamError(
            f"unknown method {method!r} for scenario 'hier'; "
            "pick from auto/amva"
        )

    def solve(
        self,
        params: HierParams,
        method: str = "auto",
        tol: float = 1e-12,
    ) -> ScenarioPerformance:
        perfs, _batch = self.solve_points([params], method=method, tol=tol)
        return perfs[0]

    def solve_points(
        self,
        points: Sequence[HierParams],
        method: str = "auto",
        tol: float = 1e-12,
    ) -> tuple[list[ScenarioPerformance], Any]:
        from ..queueing import solve_batch

        if not points:
            return [], None
        canonical = self.canonical_method(points[0], method)
        networks = [build_network(p) for p in points]
        sols = solve_batch(networks, tol=tol)
        perfs = [
            self._performance(p, net, sol, canonical)
            for p, net, sol in zip(points, networks, sols)
        ]
        return perfs, sols[0].telemetry.batch

    def group_key(self, params: HierParams) -> Any:
        return (params.clusters, params.cluster_size)

    def _performance(
        self, params: HierParams, network: Any, sol: Any, method: str
    ) -> ScenarioPerformance:
        n_proc = params.num_processors
        x = float(sol.throughput[0])
        p_rem, _intra, _inter = _routing(params)
        visits = network.visits[0]
        residence = visits * sol.waiting[0]
        mem = slice(n_proc, 2 * n_proc)
        remote = np.ones(len(visits), dtype=bool)
        remote[0] = False  # own processor
        remote[n_proc] = False  # own memory
        s_obs = float(residence[remote].sum() / p_rem) if p_rem > 0 else 0.0
        mem_visits_total = float(visits[mem].sum())
        l_obs = (
            float(residence[mem].sum() / mem_visits_total)
            if mem_visits_total > 0
            else 0.0
        )
        return ScenarioPerformance(
            scenario=self.name,
            method=method,
            measures={
                "U_p": x * params.runlength,
                "throughput": x,
                "lambda_net": x * p_rem,
                "S_obs": s_obs,
                "L_obs": l_obs,
            },
            iterations=sol.iterations,
            converged=sol.converged,
            residual=float(sol.residual),
        )

    def perf_from_dict(self, data: Mapping[str, Any]) -> ScenarioPerformance:
        return ScenarioPerformance.from_dict(data)

    def tolerance(
        self,
        params: HierParams,
        subsystem: str | None = None,
        ideal: str | None = None,
        method: str = "auto",
    ) -> Any:
        from ..core.tolerance import ToleranceResult

        subsystem = subsystem or "network"
        if subsystem == "network":
            ideal_params = params.with_(intra_delay=0.0, inter_delay=0.0)
            ideal_method = "zero_delay"
        elif subsystem == "interlink":
            ideal_params = params.with_(inter_delay=params.intra_delay)
            ideal_method = "homogeneous_links"
        elif subsystem == "memory":
            ideal_params = params.with_(memory_latency=0.0)
            ideal_method = "zero_delay"
        else:
            raise ValueError(
                "subsystem: must be one of "
                f"{self.tolerance_subsystems}, got {subsystem!r}"
            )
        actual = self.solve(params, method=method)
        ideal_perf = self.solve(ideal_params, method=method)
        index = actual.U_p / ideal_perf.U_p if ideal_perf.U_p > 0 else 1.0
        return ToleranceResult(
            subsystem=subsystem,
            ideal_method=ideal or ideal_method,
            index=index,
            actual=actual,
            ideal=ideal_perf,
        )
