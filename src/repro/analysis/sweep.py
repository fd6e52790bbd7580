"""Generic parameter sweeps over the analytical model.

Experiments in the paper are 1-D curves or 2-D surfaces over workload /
architecture parameters.  :func:`sweep` produces flat records;
:func:`grid` evaluates a measure on a 2-D lattice and returns plottable
arrays.  Any keyword understood by :meth:`repro.params.MMSParams.with_` can be
an axis.

Sweeps execute through the :mod:`repro.runner` subsystem: points are
deduplicated by content-addressed key, optionally served from a persistent
result cache, and solved in parallel when a runner with ``jobs > 1`` is
passed (or configured globally via :func:`repro.configure` /
``REPRO_SWEEP_JOBS`` / ``REPRO_CACHE_DIR``).  The default remains serial,
in-process execution, which is the right call for the tiny sweeps unit
tests and interactive exploration produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..core import MMSPerformance
from ..params import MMSParams
from ..runner import JobSpec, SweepRunner, default_runner
from ..runner.executor import Progress, validate_backend

__all__ = ["sweep", "grid", "GridResult"]

Measure = Callable[[MMSParams, MMSPerformance], float]


def _apply_measure(
    measure: Measure | str, params: MMSParams, perf: MMSPerformance
) -> tuple[str, float]:
    """Evaluate a measure spec; returns the record key and scalar value.

    A string names either a :meth:`~repro.core.MMSPerformance.summary` key
    (``"U_p"``, ``"S_obs"``, ...) or an :class:`~repro.core.MMSPerformance`
    attribute/property; a callable receives ``(params, perf)`` and its value
    lands under ``"value"``.
    """
    if callable(measure):
        return "value", float(measure(params, perf))
    summary = perf.summary()
    if measure in summary:
        return measure, float(summary[measure])
    value = getattr(perf, measure, None)
    if value is None:
        raise KeyError(
            f"unknown measure {measure!r}; summary keys: {sorted(summary)}"
        )
    return measure, float(value)


def sweep(
    base: MMSParams | None,
    axes: Mapping[str, Sequence[object]],
    method: str = "auto",
    *,
    measure: Measure | str | None = None,
    progress: Progress | None = None,
    runner: SweepRunner | None = None,
    backend: str | None = None,
    fabric: str | None = None,
    workers: int = 2,
    scenario: str | None = None,
) -> list[dict[str, object]]:
    """Cartesian-product sweep; returns one record per point.

    Without ``measure``, each record holds the axis values plus the solved
    :class:`MMSPerformance` under the key ``"perf"``.  With ``measure`` (a
    summary key, attribute name, or ``(params, perf) -> float`` callable),
    records carry only the requested scalar -- no performance object is
    retained, which keeps big sweeps cheap when only one number per point
    matters.

    ``progress`` is invoked as ``(done, total_unique, run_result)`` while
    points resolve (cache hits included).  ``runner`` overrides the
    globally-configured :class:`~repro.runner.SweepRunner`; ``backend``
    overrides the runner's execution backend for this sweep
    (``"auto"``/``"batch"``/``"process"``/``"serial"``) -- same-shape
    lattices route through the batched AMVA kernel under ``"auto"`` and
    ``"batch"``.

    ``fabric`` (a shared coordination directory) distributes the sweep
    across ``workers`` local worker processes -- plus any externally
    started ones pointed at the same directory -- through the sweep
    fabric (see ``docs/DISTRIBUTED.md``); it composes with ``backend``
    and ``progress`` but not ``runner``.

    ``scenario`` names the workload/topology family (``"torus"``,
    ``"worksteal"``, ``"hier"``; see ``docs/SCENARIOS.md``).  ``None``
    infers it from ``base``'s type, else falls back to the configured /
    ``REPRO_SCENARIO`` / torus default.  Axis names must be fields of the
    active scenario's parameter schema.

    >>> recs = sweep(paper_defaults(), {"num_threads": [2, 4]})  # doctest: +SKIP
    """
    from ..scenarios import resolve_scenario, scenario_for_params

    if scenario is not None:
        scen = resolve_scenario(scenario)
    elif base is not None:
        scen = scenario_for_params(base)
    else:
        scen = resolve_scenario(None)
    if base is None:
        base = scen.default_params()
    elif type(base) is not scen.params_type:
        from ..params import ParamError

        raise ParamError(
            f"base params of type {type(base).__name__} do not belong to "
            f"scenario {scen.name!r} (expects {scen.params_type.__name__})"
        )
    names = list(axes)
    combos = list(product(*(axes[n] for n in names)))
    if not combos:
        return []
    points = [
        scen.with_overrides(base, **dict(zip(names, combo))) for combo in combos
    ]
    specs = [
        JobSpec(params=point, method=method, scenario=scen.name) for point in points
    ]
    if fabric is not None:
        if runner is not None:
            raise ValueError("pass either runner= or fabric=, not both")
        from ..fabric import FabricScheduler

        with FabricScheduler(fabric, backend=backend or "auto") as scheduler:
            report = scheduler.run(specs, workers=workers, progress=progress)
    else:
        if runner is None:
            runner = default_runner()
        if backend is not None:
            runner.backend = validate_backend(backend)
        report = runner.run(specs, progress=progress)
    records: list[dict[str, object]] = []
    for combo, point, result in zip(combos, points, report.results):
        if not result.ok:
            raise RuntimeError(
                f"sweep point {dict(zip(names, combo))} failed: {result.error}"
            )
        rec: dict[str, object] = dict(zip(names, combo))
        if measure is None:
            rec["perf"] = result.perf
        else:
            key, value = _apply_measure(measure, point, result.perf)
            rec[key] = value
        records.append(rec)
    return records


@dataclass(frozen=True)
class GridResult:
    """A measure evaluated on a 2-D parameter lattice."""

    x_name: str
    y_name: str
    x_values: np.ndarray
    y_values: np.ndarray
    #: ``values[i, j]`` at ``x_values[i]``, ``y_values[j]``
    values: np.ndarray

    def at(self, x: object, y: object) -> float:
        """Value at an exact lattice point."""
        xi = int(np.nonzero(self.x_values == x)[0][0])
        yi = int(np.nonzero(self.y_values == y)[0][0])
        return float(self.values[xi, yi])

    def argmax(self) -> tuple[object, object, float]:
        """Lattice point with the largest value, ``(x, y, value)``."""
        i, j = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return self.x_values[i], self.y_values[j], float(self.values[i, j])


def grid(
    base: MMSParams,
    x_axis: tuple[str, Iterable[object]],
    y_axis: tuple[str, Iterable[object]],
    measure: Measure,
    method: str = "auto",
    *,
    runner: SweepRunner | None = None,
    backend: str | None = None,
) -> GridResult:
    """Evaluate ``measure(params, perf)`` on the ``x × y`` lattice."""
    x_name, x_vals = x_axis[0], list(x_axis[1])
    y_name, y_vals = y_axis[0], list(y_axis[1])
    records = sweep(
        base,
        {x_name: x_vals, y_name: y_vals},
        method,
        measure=measure,
        runner=runner,
        backend=backend,
    )
    # sweep() iterates product(x, y): row-major over the lattice
    values = np.array([rec["value"] for rec in records]).reshape(
        len(x_vals), len(y_vals)
    )
    return GridResult(
        x_name=x_name,
        y_name=y_name,
        x_values=np.asarray(x_vals),
        y_values=np.asarray(y_vals),
        values=values,
    )
