"""Solver-kernel registry and selection: ``auto`` / ``numpy`` / ``numba``.

The batched fixed points in :mod:`repro.queueing.mva_batch` run on a
pluggable kernel.  ``"numpy"`` is the compacted vectorized reference
(:mod:`.reference`); ``"numba"`` is the compiled per-point loop
(:mod:`.compiled`), contractually **bitwise-equal** to the reference, so
swapping kernels never disturbs cached records, goldens, or the solver
version.  ``"auto"`` picks the compiled kernel when numba is importable
and working, the reference otherwise.

Selection precedence (lowest to highest): the ``REPRO_SOLVE_KERNEL``
environment variable, :func:`repro.configure(kernel=...) <repro.configure>`,
an explicit ``kernel=`` argument at the call site.
"""

from __future__ import annotations

import os

from .soa import (  # noqa: F401 - re-exported
    FixedPointResult,
    MulticlassSoA,
    SymmetricSoA,
    trajectory_from_iterations,
)

__all__ = [
    "KERNELS",
    "KernelUnavailableError",
    "available_kernels",
    "default_kernel",
    "kernel_impl",
    "resolve_kernel",
    "set_default_kernel",
    "validate_kernel_name",
    "FixedPointResult",
    "MulticlassSoA",
    "SymmetricSoA",
    "trajectory_from_iterations",
]

#: recognised kernel names (selection values; "auto" resolves to one of
#: the concrete two)
KERNELS = ("auto", "numpy", "numba")

#: environment override, lowest precedence
_ENV_VAR = "REPRO_SOLVE_KERNEL"

#: process-global default set by ``repro.configure(kernel=...)``;
#: ``None`` defers to the environment, then "auto"
_CONFIG: dict[str, object] = {"kernel": None}


class KernelUnavailableError(ValueError):
    """A concrete kernel was requested that cannot run here (no numba)."""


def validate_kernel_name(kernel: object) -> str:
    """Check a kernel name against the registry; returns it normalized."""
    name = str(kernel)
    if name not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; pick from {'/'.join(KERNELS)}"
        )
    return name


def set_default_kernel(kernel: object | None) -> object:
    """Set the process-global kernel default; returns the previous value.

    ``None`` clears the default (environment, then ``"auto"``, applies
    again).  Called by :func:`repro.configure`; not public API itself.
    """
    if kernel is not None:
        validate_kernel_name(kernel)
    previous = _CONFIG["kernel"]
    _CONFIG["kernel"] = None if kernel is None else str(kernel)
    return previous


def default_kernel() -> str:
    """The kernel name in effect with no explicit argument (may be "auto")."""
    name = _CONFIG["kernel"]
    if name is None:
        name = os.environ.get(_ENV_VAR) or "auto"
    return str(name)


def _compiled_ok() -> bool:
    from . import compiled

    return compiled.compiled_available()


def available_kernels() -> tuple[str, ...]:
    """The concrete kernels that can run in this process."""
    return ("numpy", "numba") if _compiled_ok() else ("numpy",)


def resolve_kernel(kernel: str | None = None) -> str:
    """Resolve a selection to a concrete kernel name (precedence applied).

    ``kernel=None`` falls back to :func:`repro.configure`'s default, then
    ``REPRO_SOLVE_KERNEL``, then ``"auto"``.  Raises ``ValueError`` for an
    unknown name and :class:`KernelUnavailableError` when ``"numba"`` is
    demanded but cannot run.
    """
    name = validate_kernel_name(kernel if kernel is not None else default_kernel())
    if name == "auto":
        return "numba" if _compiled_ok() else "numpy"
    if name == "numba" and not _compiled_ok():
        raise KernelUnavailableError(
            "kernel 'numba' requested but numba is not available here; "
            "install numba or use kernel='numpy' (or 'auto' to fall back)"
        )
    return name


def kernel_impl(name: str):
    """The kernel module for a concrete name ("numpy" or "numba")."""
    if name == "numpy":
        from . import reference

        return reference
    if name == "numba":
        from . import compiled

        return compiled
    raise ValueError(
        f"no kernel implementation named {name!r}; concrete kernels are "
        "numpy/numba"
    )
