"""The ``Scenario`` protocol: one pluggable workload/topology family.

A scenario bundles everything the rest of the stack needs to treat a
workload/topology family as data rather than code:

* a parameter schema (a frozen dataclass with ``to_dict``/``from_dict``),
* validation and override routing (``with_overrides``),
* the analytical solve path (``solve``/``solve_points``),
* the content-addressed cache-key contribution (``cache_payload``) so
  ResultStore keys, journal signatures, and fabric experiment signatures
  stay correct and non-colliding across families,
* optional simulator wiring and tolerance-index definitions.

The registry in :mod:`repro.scenarios` maps names to instances; the
default ``"torus"`` scenario wraps the paper's MMS model and is pinned
bitwise-compatible with the pre-registry solver (its ``cache_payload``
omits the ``scenario`` field so every historical cache key is preserved).
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..params import ParamError

__all__ = [
    "Scenario",
    "ScenarioCapabilityError",
    "ScenarioPerformance",
]


class ScenarioCapabilityError(ValueError):
    """A scenario was asked for a capability it does not implement."""


def _plain(value: object) -> object:
    """Collapse numpy scalars so payloads stay canonical-JSON friendly."""
    item = getattr(value, "item", None)
    if callable(item) and not isinstance(value, (str, bytes)):
        try:
            return item()
        except (TypeError, ValueError):
            return value
    return value


@dataclass(frozen=True)
class ScenarioPerformance:
    """Generic solved-performance record for non-torus scenarios.

    ``measures`` maps measure names to floats; :meth:`summary` returns it
    verbatim, and unknown attribute lookups fall through to it so the
    sweep/measure machinery (``perf.some_measure``) works unchanged.
    ``to_dict``/``from_dict`` round-trip bit-for-bit (floats serialise via
    ``repr`` and parse back exactly).
    """

    scenario: str
    method: str
    measures: Mapping[str, float]
    iterations: int = 0
    converged: bool = True
    residual: float = 0.0

    def summary(self) -> dict[str, float]:
        return dict(self.measures)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "method": self.method,
            "measures": {k: _plain(v) for k, v in self.measures.items()},
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "residual": float(self.residual),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioPerformance":
        return cls(
            scenario=str(data["scenario"]),
            method=str(data["method"]),
            measures=dict(data["measures"]),
            iterations=int(data.get("iterations", 0)),
            converged=bool(data.get("converged", True)),
            residual=float(data.get("residual", 0.0)),
        )

    def __getattr__(self, name: str) -> float:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            measures = object.__getattribute__(self, "measures")
        except AttributeError:
            raise AttributeError(name) from None
        try:
            return measures[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__} has no measure {name!r}; "
                f"measures: {sorted(measures)}"
            ) from None


class Scenario(abc.ABC):
    """One registered workload/topology family.

    Subclasses set the class attributes and implement the abstract
    methods; everything else has sensible defaults (serial batch solve,
    no simulator, generic dataclass override routing).
    """

    #: Registry name (``repro-mms --scenario NAME``, ``REPRO_SCENARIO``).
    name: str = ""
    #: One-line human description for docs and listings.
    title: str = ""
    #: The frozen dataclass type carried by :class:`~repro.runner.spec.JobSpec`.
    params_type: type = object
    #: Methods the parallel runner may group into vectorised batches.
    batchable_methods: tuple[str, ...] = ()
    #: Subsystems accepted by :meth:`tolerance`.
    tolerance_subsystems: tuple[str, ...] = ()

    # -- parameter schema -------------------------------------------------

    @abc.abstractmethod
    def default_params(self) -> Any:
        """The family's default parameter point."""

    @abc.abstractmethod
    def params_from_dict(self, data: Mapping[str, Any]) -> Any:
        """Rebuild a params instance from its ``to_dict`` payload."""

    def field_names(self) -> tuple[str, ...]:
        """Override-able parameter names, for error messages and ``--axis``."""
        return tuple(f.name for f in dataclasses.fields(self.params_type))

    def with_overrides(self, params: Any, **changes: Any) -> Any:
        """Return a copy of ``params`` with ``changes`` applied.

        Unknown names raise :class:`~repro.params.ParamError` enumerating
        this scenario's parameter names (the ``--axis`` error contract).
        """
        if not changes:
            return params
        known = set(self.field_names())
        unknown = sorted(set(changes) - known)
        if unknown:
            raise ParamError(
                f"unknown parameter(s) for scenario {self.name!r}: "
                f"{unknown}; fields: {'/'.join(self.field_names())}"
            )
        return dataclasses.replace(params, **changes)

    # -- cache-key contribution -------------------------------------------

    def cache_payload(self, params: Any, method: str) -> dict[str, Any]:
        """The dict hashed into the content-addressed job key.

        Non-default scenarios include their name, guaranteeing keys are
        injective across (scenario, params).  The torus default overrides
        this to omit the field so pre-registry keys are preserved bitwise.
        """
        return {
            "method": method,
            "params": params.to_dict(),
            "scenario": self.name,
        }

    # -- solving -----------------------------------------------------------

    @abc.abstractmethod
    def canonical_method(self, params: Any, method: str = "auto") -> str:
        """Resolve ``"auto"`` to the concrete solve method for ``params``."""

    @abc.abstractmethod
    def solve(self, params: Any, method: str = "auto", tol: float = 1e-12) -> Any:
        """Solve one parameter point analytically."""

    def solve_points(
        self,
        points: Sequence[Any],
        method: str = "auto",
        tol: float = 1e-12,
    ) -> tuple[list[Any], Any]:
        """Solve many points; returns ``(perfs, batch_telemetry | None)``.

        The default is a serial loop; scenarios with a vectorised batch
        path (and ``batchable_methods``) override this.
        """
        return [self.solve(p, method=method, tol=tol) for p in points], None

    def group_key(self, params: Any) -> Any:
        """Batch-compatibility key; ``None`` means never batched."""
        del params
        return None

    @abc.abstractmethod
    def perf_from_dict(self, data: Mapping[str, Any]) -> Any:
        """Rebuild a performance object from a cached record."""

    # -- optional capabilities ---------------------------------------------

    def simulate(
        self,
        params: Any,
        duration: float | None = None,
        seed: int = 0,
        warmup: float = 0.0,
        **kwargs: Any,
    ) -> Any:
        """Discrete-event simulation of one point (optional capability)."""
        del params, duration, seed, warmup, kwargs
        raise ScenarioCapabilityError(
            f"scenario {self.name!r} has no simulator"
        )

    def tolerance(
        self,
        params: Any,
        subsystem: str | None = None,
        ideal: str | None = None,
        method: str = "auto",
    ) -> Any:
        """Latency-tolerance index for ``subsystem`` (optional capability)."""
        del params, subsystem, ideal, method
        raise ScenarioCapabilityError(
            f"scenario {self.name!r} defines no tolerance subsystems"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Scenario {self.name!r}: {self.title}>"
