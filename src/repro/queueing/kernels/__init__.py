"""The solver kernel: packed state (:mod:`.soa`) and its fixed points.

The batched Bard-Schweitzer iteration in :mod:`repro.queueing.mva_batch`
runs on one kernel, the compacted vectorized numpy loops of
:mod:`.reference`.  The stable surfaces that take a kernel name
(``repro.solve_points``/``repro.sweep``'s ``kernel=``,
``repro.configure(kernel=...)``, ``ServiceConfig.kernel``, ``--kernel``
on the CLI) check it once at entry with :func:`resolve_kernel` and pass
nothing down: ``"auto"`` and ``"numpy"`` both mean this kernel,
``"numba"`` is a :class:`KernelUnavailableError`.
"""

from __future__ import annotations

import os

from .soa import (  # noqa: F401 - re-exported
    FixedPointResult,
    MulticlassSoA,
    SymmetricSoA,
)

__all__ = [
    "KernelUnavailableError",
    "resolve_kernel",
    "FixedPointResult",
    "MulticlassSoA",
    "SymmetricSoA",
]

#: environment variable read when no kernel name is passed
_ENV_VAR = "REPRO_SOLVE_KERNEL"


class KernelUnavailableError(ValueError):
    """A kernel was requested that this build does not have (numba)."""


def resolve_kernel(kernel: str | None = None) -> str:
    """Check a kernel selection; returns ``"numpy"``, the only kernel.

    ``kernel=None`` reads ``REPRO_SOLVE_KERNEL`` (unset or empty means
    ``"auto"``).  ``"auto"`` and ``"numpy"`` resolve to ``"numpy"``;
    ``"numba"`` raises :class:`KernelUnavailableError` and any other name
    ``ValueError``.
    """
    name = kernel if kernel is not None else os.environ.get(_ENV_VAR) or "auto"
    if name in ("auto", "numpy"):
        return "numpy"
    if name == "numba":
        raise KernelUnavailableError(
            "kernel 'numba' is not available; the numpy kernel is the only "
            "one, use kernel='numpy' or 'auto'"
        )
    raise ValueError(f"unknown kernel {name!r}; pick from auto/numpy")
