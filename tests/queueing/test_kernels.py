"""Unit tests for the solver-kernel layer: trajectory and selection.

The trajectory tests pin what the kernel records per iteration (the
active-set size) against the per-point iteration counts it reports.  The
selection tests pin the one validator every stable surface calls:
``auto``/``numpy`` name the one kernel, ``numba`` is a typed error, and
``REPRO_SOLVE_KERNEL`` is read when no name is passed.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.model import MMSModel
from repro.params import paper_defaults
from repro.queueing.kernels import (
    KernelUnavailableError,
    SymmetricSoA,
    reference,
    resolve_kernel,
)
from repro.runner.config import effective_config

TOL = 1e-12
MAX_ITER = 100_000


def trajectory_from_iterations(iterations: np.ndarray) -> tuple[int, ...]:
    """The active-set trajectory implied by per-point iteration counts.

    A point that finished at iteration ``k`` was active for iterations
    ``1..k`` (a pre-converged point, ``k = 0``, never was), so the
    active-set size when iteration ``it`` started is the number of points
    with ``iterations >= it``.
    """
    if iterations.size == 0:
        return ()
    top = int(iterations.max())
    return tuple(int((iterations >= it).sum()) for it in range(1, top + 1))


def _lattice_soa() -> SymmetricSoA:
    """A realistic symmetric stack: nine paper points of one machine size."""
    models = [
        MMSModel(paper_defaults(num_threads=n, p_remote=p))
        for n in (1, 4, 16)
        for p in (0.05, 0.4, 0.8)
    ]
    arrays = [m.station_arrays() for m in models]
    return SymmetricSoA.pack(
        visits=np.stack([a[0] for a in arrays]),
        service=np.stack([a[1] for a in arrays]),
        station_type=arrays[0][2],
        populations=np.array([m.params.workload.num_threads for m in models]),
        servers=np.stack([a[3] for a in arrays]),
    )


def _small_soa(populations) -> SymmetricSoA:
    b = len(populations)
    return SymmetricSoA.pack(
        visits=np.ones((b, 4)),
        service=np.full((b, 4), 0.25),
        station_type=np.array([0, 1, 1, 2]),
        populations=np.array(populations),
    )


class TestTrajectory:
    def test_empty(self):
        res = reference.symmetric_fixed_point(_small_soa([]), TOL, MAX_ITER)
        assert res.trajectory == ()
        assert trajectory_from_iterations(res.iterations) == ()

    def test_all_preconverged(self):
        # zero-population points are solved before the first iteration
        res = reference.symmetric_fixed_point(_small_soa([0, 0, 0, 0]), TOL, MAX_ITER)
        assert res.trajectory == ()
        assert res.converged.all() and not res.iterations.any()

    def test_mixed_counts(self):
        # an empty point never enters the loop; the others leave it at
        # different iterations, and each iteration counts who was left
        res = reference.symmetric_fixed_point(_small_soa([0, 1, 3, 7]), TOL, MAX_ITER)
        assert int(res.iterations[0]) == 0
        assert res.trajectory[0] == 3
        assert list(res.trajectory) == sorted(res.trajectory, reverse=True)
        assert res.trajectory == trajectory_from_iterations(res.iterations)

    def test_matches_reference_in_loop_recording(self):
        soa = _lattice_soa()
        res = reference.symmetric_fixed_point(soa, TOL, MAX_ITER)
        assert res.trajectory == trajectory_from_iterations(res.iterations)


class TestSelection:
    def test_registry_names(self):
        # the accepted names, and the one kernel they all resolve to
        for name in ("auto", "numpy"):
            assert resolve_kernel(name) == "numpy"

    def test_validate_unknown_name(self):
        with pytest.raises(ValueError, match=r"unknown kernel 'fortran'"):
            resolve_kernel("fortran")
        with pytest.raises(ValueError, match=r"pick from auto/numpy$"):
            resolve_kernel("fortran")

    def test_auto_resolves_to_something_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVE_KERNEL", raising=False)
        assert resolve_kernel("auto") == "numpy"
        assert resolve_kernel(None) == "numpy"
        assert resolve_kernel() == "numpy"

    def test_explicit_numba_unavailable_raises(self):
        with pytest.raises(KernelUnavailableError, match="numpy") as info:
            resolve_kernel("numba")
        assert "auto" in str(info.value)
        # KernelUnavailableError is a ValueError: one except clause catches
        # both bad names and unavailable kernels at validation sites
        assert issubclass(KernelUnavailableError, ValueError)

    def test_env_var_is_read_without_a_name(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVE_KERNEL", "numpy")
        assert resolve_kernel() == "numpy"
        monkeypatch.setenv("REPRO_SOLVE_KERNEL", "")
        assert resolve_kernel() == "numpy"
        monkeypatch.setenv("REPRO_SOLVE_KERNEL", "numba")
        with pytest.raises(KernelUnavailableError):
            resolve_kernel()
        monkeypatch.setenv("REPRO_SOLVE_KERNEL", "bogus")
        with pytest.raises(ValueError, match="unknown kernel 'bogus'"):
            resolve_kernel()
        # an explicit name is checked on its own
        assert resolve_kernel("auto") == "numpy"

    def test_configure_facade_roundtrip(self):
        prev = repro.configure(kernel="numpy")
        assert prev == {"kernel": None}
        assert repro.configure(**prev) == {"kernel": None}
        with pytest.raises(KernelUnavailableError):
            repro.configure(kernel="numba")
        jobs = effective_config()["jobs"]
        with pytest.raises(ValueError, match="unknown kernel"):
            repro.configure(kernel="bogus", jobs=jobs + 1)
        assert effective_config()["jobs"] == jobs  # rejected before any change

    def test_stable_surfaces_check_the_name(self):
        points = [paper_defaults(num_threads=2)]
        for kernel in ("auto", "numpy"):
            assert repro.solve_points(points, kernel=kernel)
        with pytest.raises(KernelUnavailableError):
            repro.solve_points(points, kernel="numba")
        with pytest.raises(KernelUnavailableError):
            repro.sweep({"num_threads": [1, 2]}, kernel="numba")
        with pytest.raises(KernelUnavailableError):
            repro.ServiceConfig(kernel="numba")
        assert repro.ServiceConfig(kernel="auto").kernel == "auto"
