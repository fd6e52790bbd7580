"""Seeded, deterministic fault injection for the experiment runner.

Every recoverable degradation path in the stack -- worker death, hung
solves, solver exceptions, NaN escapes, cache corruption, trace-sink I/O
errors -- has a **named fault site** where the code asks
:func:`fault_point` whether to misbehave.  With no plan configured (the
default) that call is one global read returning ``None``; with a plan, each
site fires on a per-site probability or a fire-on-Nth-call schedule, both
driven by a seeded RNG so a chaos run is exactly reproducible.

Activate a plan with the ``REPRO_FAULT_PLAN`` environment variable (inline
JSON or a path to a JSON file -- the env route is how process-pool workers
pick the plan up) or programmatically::

    import repro

    prev = repro.configure(fault_plan={
        "seed": 7,
        "sites": {
            "worker.crash": {"on_nth": 2},
            "solve.raise": {"p": 0.25, "max_fires": 1},
            "worker.hang": {"on_nth": [1, 5], "sleep_s": 30},
        },
    })
    ...chaos run...
    repro.configure(**prev)

Call counters and RNG streams are per process: a forked pool worker
inherits the parent's injector state at fork time and counts its own calls
from there.  The ``worker.*`` sites additionally only fire inside pool
workers (the executor marks pooled payloads), so a serial fallback in the
parent never SIGKILLs the parent process.

This module is stdlib-only at import time (the metrics registry is imported
lazily on the first fire) so any layer can hook a fault site without
creating an import cycle.
"""

from __future__ import annotations

import json
import os
import random
import warnings
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "FAULT_SITES",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "fault_point",
    "configure",
    "get_injector",
    "garble",
]

#: every named fault site the stack exposes, and where it is hooked
FAULT_SITES = (
    "worker.crash",  # runner/executor.py: pool worker SIGKILLs itself
    "worker.hang",  # runner/executor.py: pool worker sleeps past the timeout
    "solve.delay",  # runner/executor.py: slow a solve down (chaos pacing)
    "solve.raise",  # queueing/mva_batch.py: batched kernel raises
    "solve.nan",  # queueing/mva_batch.py: poison one point with NaN
    "store.corrupt_record",  # runner/store.py: garble the appended record
    "store.truncate",  # runner/store.py: write half a record (crash mid-append)
    "journal.corrupt_record",  # resilience/journal.py: garble a journal line
    "sink.io_error",  # obs/sink.py: the trace sink's write raises OSError
)


class InjectedFault(RuntimeError):
    """Raised by the ``solve.raise`` fault site (and nothing else)."""


def garble(text: str) -> str:
    """Corrupt a record line in place: same length, broken content.

    Overwrites a run of bytes in the middle with ``#`` so the line still
    terminates where it did (later records keep their byte offsets) but no
    longer parses/verifies.
    """
    mid = len(text) // 2
    width = min(8, max(1, len(text) - mid))
    return text[:mid] + "#" * width + text[mid + width:]


@dataclass(frozen=True)
class FaultSpec:
    """How one site misbehaves: a probability or an Nth-call schedule."""

    site: str
    #: per-call fire probability (seeded; mutually exclusive with on_nth)
    p: float = 0.0
    #: fire on exactly these 1-based call numbers
    on_nth: tuple[int, ...] = ()
    #: stop firing after this many fires (None = unbounded)
    max_fires: int | None = None
    #: site-specific knobs (``sleep_s`` for hang/delay, ``index`` for nan)
    args: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: {FAULT_SITES}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"{self.site}: p must be in [0, 1], got {self.p}")
        if self.p and self.on_nth:
            raise ValueError(
                f"{self.site}: give a probability or an on_nth schedule, not both"
            )
        if not self.p and not self.on_nth:
            raise ValueError(
                f"{self.site}: a spec needs p > 0 or an on_nth schedule"
            )
        if any((not isinstance(n, int)) or n < 1 for n in self.on_nth):
            raise ValueError(
                f"{self.site}: on_nth entries must be call numbers >= 1, "
                f"got {self.on_nth}"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError(
                f"{self.site}: max_fires must be >= 1, got {self.max_fires}"
            )

    @classmethod
    def from_dict(cls, site: str, data: Mapping[str, object]) -> "FaultSpec":
        """Build from a plan-JSON site entry; unknown keys become args."""
        body = dict(data)
        p = float(body.pop("p", 0.0))
        on_nth = body.pop("on_nth", ())
        if isinstance(on_nth, int):
            on_nth = (on_nth,)
        max_fires = body.pop("max_fires", None)
        return cls(
            site=site,
            p=p,
            on_nth=tuple(on_nth),
            max_fires=max_fires,
            args=body,
        )

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = dict(self.args)
        if self.p:
            out["p"] = self.p
        if self.on_nth:
            out["on_nth"] = list(self.on_nth)
        if self.max_fires is not None:
            out["max_fires"] = self.max_fires
        return out


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus one :class:`FaultSpec` per targeted site."""

    seed: int = 0
    sites: Mapping[str, FaultSpec] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        sites = {
            site: FaultSpec.from_dict(site, spec)
            for site, spec in dict(data.get("sites", {})).items()
        }
        return cls(seed=int(data.get("seed", 0)), sites=sites)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Inline JSON, or a path to a JSON file (the env-var forms)."""
        text = text.strip()
        if not text.lstrip().startswith("{"):
            with open(text, encoding="utf-8") as fh:
                text = fh.read()
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "sites": {site: spec.to_dict() for site, spec in self.sites.items()},
        }


class FaultInjector:
    """Evaluates a plan: per-site call counters, fire counts, RNG streams."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.calls: dict[str, int] = {}
        self.fires: dict[str, int] = {}
        self._rngs = {
            site: random.Random(f"{plan.seed}:{site}") for site in plan.sites
        }

    def should_fire(self, site: str) -> FaultSpec | None:
        """The site's spec if this call fires, else ``None``.

        Only calls to *planned* sites advance that site's counter, so adding
        an unrelated site to a plan never shifts another site's schedule.
        """
        spec = self.plan.sites.get(site)
        if spec is None:
            return None
        n = self.calls.get(site, 0) + 1
        self.calls[site] = n
        if spec.max_fires is not None and self.fires.get(site, 0) >= spec.max_fires:
            return None
        if spec.on_nth:
            fire = n in spec.on_nth
        else:
            fire = self._rngs[site].random() < spec.p
        if not fire:
            return None
        self.fires[site] = self.fires.get(site, 0) + 1
        from ..obs.metrics import registry  # lazy: avoid import cycles

        registry().counter(f"fault.{site}.fired").inc()
        return spec


# ------------------------------------------------------------------ module API
#: the active injector; ``None`` is the no-op fast path
_injector: FaultInjector | None = None


def _coerce_plan(value: object) -> FaultPlan | None:
    if value is None or value is False:
        return None
    if isinstance(value, FaultPlan):
        return value
    if isinstance(value, FaultInjector):
        return value.plan
    if isinstance(value, Mapping):
        return FaultPlan.from_dict(value)
    if isinstance(value, (str, os.PathLike)):
        return FaultPlan.parse(str(value))
    raise TypeError(f"cannot build a FaultPlan from {type(value).__name__}")


def configure(fault_plan: object = None) -> dict[str, object]:
    """Install (or remove) the process-global fault plan; returns the
    previous setting for restore-style use.

    ``fault_plan`` may be a :class:`FaultPlan`, a plan dict, inline JSON, a
    JSON file path, or ``None``/``False`` to disable injection.
    """
    global _injector
    previous: dict[str, object] = {
        "fault_plan": _injector.plan if _injector is not None else None
    }
    plan = _coerce_plan(fault_plan)
    _injector = FaultInjector(plan) if plan is not None else None
    return previous


def get_injector() -> FaultInjector | None:
    """The active injector (``None`` when fault injection is off)."""
    return _injector


def fault_point(site: str) -> FaultSpec | None:
    """Ask whether the named site should misbehave on this call.

    The disabled fast path is one global read -- the same discipline as the
    tracing no-op, so hooks are free to live on per-point hot paths.
    """
    if _injector is None:
        return None
    return _injector.should_fire(site)


def _injector_from_env() -> FaultInjector | None:
    value = os.environ.get("REPRO_FAULT_PLAN", "").strip()
    if not value:
        return None
    try:
        return FaultInjector(FaultPlan.parse(value))
    except (OSError, ValueError, TypeError) as exc:
        warnings.warn(
            f"ignoring malformed REPRO_FAULT_PLAN ({exc}); "
            "fault injection disabled",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


# honour REPRO_FAULT_PLAN at import so `repro-mms` and pool workers pick it up
_injector = _injector_from_env()
