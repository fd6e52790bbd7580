"""The registered default scenario: the paper's 2-D torus MMS model.

This is a thin adapter over the pre-registry stack (:class:`MMSModel`,
:func:`repro.core.model.solve_points`, the discrete-event simulator, and
the network/memory tolerance indices).  Two invariants are pinned by
``tests/scenarios/test_torus_conformance.py``:

* ``solve``/``solve_points`` are bitwise-identical to calling the model
  directly, so every PR-2 golden (Tables 2--4, Figures 4--11) reproduces
  unchanged through the scenario seam;
* ``cache_payload`` omits the ``scenario`` field, so every historical
  content-addressed cache key, journal signature, and fabric experiment
  signature is preserved byte for byte.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Sequence

from ..params import Architecture, MMSParams, ParamError, Workload, paper_defaults
from .base import Scenario

__all__ = ["TorusScenario"]


class TorusScenario(Scenario):
    name = "torus"
    title = "2-D torus multithreaded multiprocessor (the paper's MMS)"
    params_type = MMSParams
    batchable_methods = ("symmetric", "amva")
    tolerance_subsystems = ("network", "memory")

    def default_params(self) -> MMSParams:
        return paper_defaults()

    def params_from_dict(self, data: Mapping[str, Any]) -> MMSParams:
        return MMSParams.from_dict(data)

    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(Architecture)) + tuple(
            f.name for f in dataclasses.fields(Workload)
        )

    def with_overrides(self, params: MMSParams, **changes: Any) -> MMSParams:
        try:
            return params.with_(**changes)
        except TypeError:
            unknown = sorted(set(changes) - set(self.field_names()))
            raise ParamError(
                f"unknown parameter(s) for scenario {self.name!r}: "
                f"{unknown}; fields: {'/'.join(self.field_names())}"
            ) from None

    def cache_payload(self, params: MMSParams, method: str) -> dict[str, Any]:
        # No "scenario" field: the default family keeps the pre-registry
        # key bytes, so existing ResultStore/journal/fabric state stays valid.
        return {"method": method, "params": params.to_dict()}

    def canonical_method(self, params: MMSParams, method: str = "auto") -> str:
        if method != "auto":
            return method
        from ..core.model import MMSModel

        return "symmetric" if MMSModel(params).is_symmetric else "amva"

    def solve(
        self, params: MMSParams, method: str = "auto", tol: float = 1e-12
    ) -> Any:
        from ..core.model import MMSModel

        return MMSModel(params).solve(method=method, tol=tol)

    def solve_points(
        self,
        points: Sequence[MMSParams],
        method: str = "auto",
        tol: float = 1e-12,
    ) -> tuple[list[Any], Any]:
        from ..core.model import solve_points as _solve_points

        return _solve_points(points, method=method, tol=tol)

    def group_key(self, params: MMSParams) -> Any:
        return params.arch.num_processors

    def perf_from_dict(self, data: Mapping[str, Any]) -> Any:
        from ..core.metrics import MMSPerformance

        return MMSPerformance.from_dict(data)

    def simulate(
        self,
        params: MMSParams,
        duration: float | None = None,
        seed: int = 0,
        warmup: float | None = None,
        **kwargs: Any,
    ) -> Any:
        from ..simulation.mms_sim import simulate as _simulate

        return _simulate(
            params,
            duration=100_000.0 if duration is None else duration,
            seed=seed,
            warmup=warmup,
            **kwargs,
        )

    def tolerance(
        self,
        params: MMSParams,
        subsystem: str | None = None,
        ideal: str | None = None,
        method: str = "auto",
    ) -> Any:
        from ..core.tolerance import memory_tolerance, network_tolerance

        subsystem = subsystem or "network"
        if subsystem == "network":
            return network_tolerance(
                params, ideal=ideal or "zero_delay", method=method
            )
        if subsystem == "memory":
            return memory_tolerance(params, method=method)
        raise ValueError(
            f"subsystem: must be 'network' or 'memory', got {subsystem!r}"
        )
