"""Process-global runner defaults (and their environment overrides).

:func:`repro.analysis.sweep.sweep` builds its runner from here when the
caller does not pass one, so a single :func:`repro.configure` call (or the
``REPRO_CACHE_DIR`` / ``REPRO_SWEEP_JOBS`` / ``REPRO_SWEEP_BACKEND``
environment variables) turns every sweep in the process cached, parallel
and/or batched -- this is how the
benchmark harness shares one persistent cache across all figure
regenerations without threading a runner through every call site.

Precedence per setting: explicit ``repro.configure()`` value > environment
variable > built-in default (serial, uncached).
"""

from __future__ import annotations

import os

from .executor import SweepRunner
from .store import ResultStore

__all__ = ["effective_config", "default_runner", "shared_store"]

_CONFIG: dict[str, object] = {
    "jobs": None,  # None -> $REPRO_SWEEP_JOBS -> 1
    "cache_dir": None,  # None -> $REPRO_CACHE_DIR -> no cache
    "timeout": None,
    "retries": 1,
    "backend": None,  # None -> $REPRO_SWEEP_BACKEND -> "auto"
}

#: one live store per cache dir, so hit/miss accounting and index flushes
#: stay coherent when many sweeps share a cache in one process
_STORES: dict[str, ResultStore] = {}


def _check(settings: dict[str, object]) -> None:
    """Raise for any setting a :class:`SweepRunner` would reject.

    The runner's own constructor does the checking, so
    :func:`repro.configure` and ``SweepRunner`` reject the same values with
    the same errors.  ``jobs=None`` and ``backend=None`` restore the
    environment default and are not checked.
    """
    unknown = set(settings) - set(_CONFIG)
    if unknown:
        raise TypeError(f"unknown runner setting(s): {sorted(map(str, unknown))}")
    SweepRunner(
        **{
            name: value
            for name, value in settings.items()
            if name == "retries" or (name in ("jobs", "backend") and value is not None)
        }
    )


def _configure(**settings: object) -> dict[str, object]:
    """Set process-global runner defaults; returns the previous values.

    The implementation behind :func:`repro.configure`'s runner keywords.
    """
    _check(settings)
    previous = {k: _CONFIG[k] for k in settings}
    _CONFIG.update(settings)
    return previous


def effective_config() -> dict[str, object]:
    """The defaults a runner built right now would use (env resolved)."""
    jobs = _CONFIG["jobs"]
    if jobs is None:
        jobs = int(os.environ.get("REPRO_SWEEP_JOBS", "0") or 0) or 1
    cache_dir = _CONFIG["cache_dir"]
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    backend = _CONFIG["backend"]
    if backend is None:
        backend = os.environ.get("REPRO_SWEEP_BACKEND") or "auto"
    return {
        "jobs": int(jobs),
        "cache_dir": cache_dir,
        "timeout": _CONFIG["timeout"],
        "retries": _CONFIG["retries"],
        "backend": str(backend),
    }


def shared_store(cache_dir: str) -> ResultStore:
    """The process-wide store for *cache_dir* (opened once, then reused)."""
    key = os.path.abspath(str(cache_dir))
    store = _STORES.get(key)
    if store is None:
        store = ResultStore(key)
        _STORES[key] = store
    return store


def default_runner() -> SweepRunner:
    """A runner reflecting the current global configuration."""
    cfg = effective_config()
    store = shared_store(cfg["cache_dir"]) if cfg["cache_dir"] else None
    return SweepRunner(
        jobs=cfg["jobs"],
        store=store,
        timeout=cfg["timeout"],
        retries=cfg["retries"],
        backend=cfg["backend"],
    )
