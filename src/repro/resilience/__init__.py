"""Resilience: deterministic fault injection and durable-sweep machinery.

Three pieces, all wired through the runner stack (see
``docs/RESILIENCE.md``):

* :mod:`~repro.resilience.faults` -- named fault sites with seeded
  per-site probability / fire-on-Nth-call schedules, activated via
  ``REPRO_FAULT_PLAN`` or :func:`repro.configure`, with a one-global-read no-op
  fast path when disabled;
* :mod:`~repro.resilience.journal` -- the append-only, checksummed sweep
  progress journal behind ``repro-mms sweep --resume``;
* :mod:`~repro.resilience.degrade` -- the explicit
  batch -> process -> serial degradation policy whose structured entries
  land in ``RunManifest.degradations``;

plus :mod:`~repro.resilience.integrity`, the shared canonical-JSON /
SHA-256 / finiteness primitives the result store and journal both verify
records with, and the overload-protection layer:

* :mod:`~repro.resilience.admission` -- token-bucket rate limiting and
  CoDel-style deadline shedding for the solve service;
* :mod:`~repro.resilience.breaker` -- the circuit breaker that lets
  callers route around a persistently failing backend instead of
  re-paying the failure on every attempt.

Quick start::

    import repro

    prev = repro.configure(
        fault_plan={"seed": 7, "sites": {"worker.crash": {"on_nth": 2}}}
    )
    ...run a sweep; it must still complete correctly...
    repro.configure(**prev)
"""

from .admission import (
    HEALTH_STATES,
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from .breaker import CircuitBreaker
from .degrade import DEGRADATION_CHAIN, Degradation, DegradationPolicy
from .faults import (
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    fault_point,
    get_injector,
)
from .integrity import canonical_json, finite_measures, record_digest
from .journal import JOURNAL_SCHEMA, JournalError, SweepJournal, sweep_signature

__all__ = [
    "FAULT_SITES",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "fault_point",
    "get_injector",
    "canonical_json",
    "record_digest",
    "finite_measures",
    "JOURNAL_SCHEMA",
    "JournalError",
    "SweepJournal",
    "sweep_signature",
    "DEGRADATION_CHAIN",
    "Degradation",
    "DegradationPolicy",
    "AdmissionController",
    "AdmissionDecision",
    "TokenBucket",
    "HEALTH_STATES",
    "CircuitBreaker",
]
