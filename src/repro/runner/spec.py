"""Job specifications: one solvable point, content-addressed.

A :class:`JobSpec` pairs an :class:`~repro.params.MMSParams` point with a
solver method and derives a **stable content-addressed key** from the
canonical JSON serialization of both.  Two specs describing the same
computation -- however their parameter objects were constructed, and whether
the method was spelled ``"auto"`` or its resolved name -- hash to the same
key, which is what lets the result store guarantee that identical points are
never solved twice.

:class:`RunResult` is the runner's per-point outcome: the solved
:class:`~repro.core.MMSPerformance` (or an error), solve wall-clock, attempt
count, and cache provenance.  Its :meth:`RunResult.record` form is
deliberately free of timing/provenance so that serial, parallel, and cached
executions of the same grid emit bitwise-identical records; timing lives in
the run manifest instead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Mapping

from ..core.metrics import MMSPerformance
from ..params import MMSParams

__all__ = [
    "SOLVER_VERSION",
    "TIMEOUT_ERROR_PREFIX",
    "canonical_json",
    "JobSpec",
    "RunResult",
]

#: Version tag of the analytical-solver stack as seen by the result cache.
#: Bump whenever a solver change alters any cached measure: every store
#: created under a different version invalidates itself on open.
#: "2": batched AMVA kernels; symmetric-path pooling reductions reordered.
#: "3": per-point ``amva`` and ``hier`` solves run the batch kernel at B=1.
SOLVER_VERSION = "3"

#: Every timed-out point's :attr:`RunResult.error` starts with this prefix
#: (the executor writes ``"timeout after <budget>s"``).  The fabric's
#: experiment DB classifies failed trials by it so a distributed run's
#: manifest counts timeouts the same way a single-host run does.
TIMEOUT_ERROR_PREFIX = "timeout after "


def canonical_json(obj: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, NaN/Inf rejected.

    The byte-for-byte stability of this encoding is what makes cache keys
    content addresses rather than object identities.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass(frozen=True)
class JobSpec:
    """One point to solve: parameters plus solver method plus scenario.

    ``scenario=None`` infers the family from the params type (an
    :class:`~repro.params.MMSParams` is ``"torus"``), so every
    pre-registry construction site keeps working unchanged.  The default
    torus scenario contributes no ``scenario`` field to the key payload
    or wire form -- its keys and payload bytes are identical to the
    pre-registry format -- while every other scenario adds its name,
    making keys injective across (scenario, params).
    """

    params: MMSParams
    method: str = "auto"
    scenario: str | None = None

    def __post_init__(self) -> None:
        if self.scenario is None:
            from ..scenarios import scenario_for_params

            object.__setattr__(
                self, "scenario", scenario_for_params(self.params).name
            )
        else:
            from ..scenarios import validate_scenario_name

            validate_scenario_name(self.scenario)

    def _scenario_impl(self):
        from ..scenarios import get_scenario

        return get_scenario(self.scenario)

    def canonical_method(self) -> str:
        """The method that will actually run (``"auto"`` resolved).

        Keying on the resolved method makes ``method="auto"`` and its
        explicit spelling share cache entries.
        """
        if self.method != "auto":
            return self.method
        return self._scenario_impl().canonical_method(self.params, self.method)

    def key(self) -> str:
        """Content-addressed cache key (SHA-256 hex digest)."""
        payload = self._scenario_impl().cache_payload(
            self.params, self.canonical_method()
        )
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    def payload(self) -> dict[str, object]:
        """Pure-JSON worker dispatch form (what crosses the process boundary)."""
        data: dict[str, object] = {
            "key": self.key(),
            "method": self.canonical_method(),
            "params": self.params.to_dict(),
        }
        from ..scenarios import DEFAULT_SCENARIO

        if self.scenario != DEFAULT_SCENARIO:
            data["scenario"] = self.scenario
        return data

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "JobSpec":
        """Rebuild a spec from its :meth:`payload` form."""
        from ..scenarios import DEFAULT_SCENARIO, get_scenario

        name = str(payload.get("scenario", DEFAULT_SCENARIO))
        return cls(
            params=get_scenario(name).params_from_dict(payload["params"]),
            method=payload["method"],
            scenario=name,
        )


@dataclass
class RunResult:
    """Outcome of one managed point."""

    key: str
    params: MMSParams
    #: canonical solver method (never ``"auto"``)
    method: str
    perf: MMSPerformance | None
    #: solver wall-clock seconds (the *original* solve for cache hits)
    elapsed: float = 0.0
    #: solve attempts consumed this run (0 for a cache hit)
    attempts: int = 1
    from_cache: bool = False
    error: str | None = None
    #: True when ``elapsed`` is an even share of a batched solve's wall
    #: clock rather than a per-point measurement -- time-attribution must
    #: count the batch span once, not re-sum amortized shares
    amortized: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and self.perf is not None

    def record(self) -> dict[str, object]:
        """Deterministic data record for this point.

        Contains only the computation's content -- key, method, parameters,
        measures -- never timing or cache provenance, so records from serial,
        parallel and warm-cache runs of the same grid compare equal.
        """
        if not self.ok:
            raise ValueError(f"point {self.key[:12]} failed: {self.error}")
        return {
            "key": self.key,
            "method": self.method,
            "params": self.params.to_dict(),
            "measures": {k: float(v) for k, v in self.perf.summary().items()},
        }

    def as_duplicate(self) -> "RunResult":
        """A copy representing another request for the same key in one run
        (served from the first solve, so flagged as cached)."""
        return replace(self, from_cache=True, attempts=0)
