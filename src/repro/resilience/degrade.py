"""Explicit backend-degradation policy for the sweep runner.

The runner's fallback chain -- in-process batched kernel, process pool,
per-point serial -- used to be a set of ad-hoc flags
(``mode == "serial-fallback"``, a silently-swallowed batch exception).
:class:`DegradationPolicy` makes every step down the chain an explicit,
validated event: the executor calls :meth:`DegradationPolicy.degrade` with
where it came from, where it landed, why, and how many points were
affected, and the policy

* records a structured :class:`Degradation` entry (surfaced as
  ``degradations[]`` in the :class:`~repro.runner.manifest.RunManifest`),
* increments a ``degrade.<from>_to_<to>`` metrics counter, and
* emits a ``sweep.degrade`` trace span when tracing is enabled,

so a run that limped home serial is distinguishable -- in the manifest, the
metrics delta, and the trace -- from one that ran its requested backend.
Degradations only ever move *down* the chain (a run never silently
re-escalates), which :meth:`degrade` validates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["Degradation", "DegradationPolicy", "DEGRADATION_CHAIN"]

#: the only legal direction of travel: earlier entries degrade to later ones.
#: A failed batch group falls to the process pool when its points are
#: pooled (``batch -> process``), else to the per-point loop; a broken pool
#: falls to the per-point loop (``process -> serial``).
DEGRADATION_CHAIN = ("batch", "process", "serial")


@dataclass(frozen=True)
class Degradation:
    """One recorded step down the execution chain."""

    from_mode: str
    to_mode: str
    #: human-readable cause (exception text, "broken process pool", ...)
    reason: str
    #: points re-executed on the degraded path
    points: int

    def to_dict(self) -> dict[str, object]:
        return asdict(self)


class DegradationPolicy:
    """Collects one run's degradations and emits their telemetry."""

    chain = DEGRADATION_CHAIN

    def __init__(self) -> None:
        self.entries: list[Degradation] = []

    def degrade(
        self, from_mode: str, to_mode: str, reason: str, points: int
    ) -> Degradation:
        """Record one fallback step; raises on an illegal transition."""
        if from_mode not in self.chain or to_mode not in self.chain:
            raise ValueError(
                f"unknown degradation {from_mode!r} -> {to_mode!r}; "
                f"chain is {'/'.join(self.chain)}"
            )
        if self.chain.index(to_mode) <= self.chain.index(from_mode):
            raise ValueError(
                f"degradations only move down the chain "
                f"{' -> '.join(self.chain)}; got {from_mode!r} -> {to_mode!r}"
            )
        entry = Degradation(
            from_mode=from_mode,
            to_mode=to_mode,
            reason=str(reason),
            points=int(points),
        )
        self.entries.append(entry)
        # lazy obs imports: this module must stay importable from any layer
        from ..obs.metrics import registry
        from ..obs.trace import trace_span

        registry().counter(f"degrade.{from_mode}_to_{to_mode}").inc()
        with trace_span(
            "sweep.degrade",
            from_mode=from_mode,
            to_mode=to_mode,
            reason=entry.reason,
            points=entry.points,
        ):
            pass
        return entry

    def to_list(self) -> list[dict[str, object]]:
        """Manifest-ready ``degradations[]`` entries."""
        return [entry.to_dict() for entry in self.entries]

    def __len__(self) -> int:
        return len(self.entries)
