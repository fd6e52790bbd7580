"""Batched AMVA kernel: lattice equivalence, masking, and non-convergence."""

import warnings

import numpy as np
import pytest

from repro.core.model import MMSModel
from repro.params import paper_defaults
from repro.queueing import (
    ClosedNetwork,
    ConvergenceError,
    ConvergenceWarning,
    bard_schweitzer,
    solve_batch,
    solve_symmetric,
    solve_symmetric_batch,
)

THREADS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20)
P_REMOTES = tuple(round(0.05 * i, 2) for i in range(1, 17))


def _lattice_points():
    return [
        paper_defaults(num_threads=n, p_remote=p)
        for n in THREADS
        for p in P_REMOTES
    ]


def _symmetric_stacks(points):
    arrays = [MMSModel(p).station_arrays() for p in points]
    return (
        np.stack([a[0] for a in arrays]),
        np.stack([a[1] for a in arrays]),
        arrays[0][2],
        np.array([p.workload.num_threads for p in points]),
        np.stack([a[3] for a in arrays]),
        arrays,
    )


# -------------------------------------------------- Figure-4 lattice parity
class TestLatticeEquivalence:
    def test_symmetric_batch_bitwise_equals_scalar_on_figure4_lattice(self):
        """The full 176-point Figure-4 lattice: every point of the batched
        symmetric solve is bitwise-identical to its scalar solve (the
        property that lets sweep backends interchange freely)."""
        points = _lattice_points()
        visits, service, types, pops, servers, arrays = _symmetric_stacks(points)
        batch = solve_symmetric_batch(visits, service, types, pops, servers=servers)
        assert len(batch) == len(points)
        for (v, s, t, srv), n, got in zip(
            arrays, pops, batch
        ):
            ref = solve_symmetric(v, s, t, int(n), servers=srv)
            assert got.throughput == ref.throughput
            assert np.array_equal(got.waiting, ref.waiting)
            assert np.array_equal(got.queue_length, ref.queue_length)
            assert np.array_equal(got.total_queue, ref.total_queue)
            assert got.iterations == ref.iterations
            assert got.residual == ref.residual

    def test_multiclass_batch_matches_scalar_on_figure4_lattice(self):
        """solve_batch vs scalar bard_schweitzer on the same lattice's full
        multi-class networks: bitwise everywhere."""
        networks = [MMSModel(p).build_network() for p in _lattice_points()]
        batch = solve_batch(networks)
        for net, got in zip(networks, batch):
            ref = bard_schweitzer(net)
            assert np.array_equal(got.queue_length, ref.queue_length)
            assert np.array_equal(got.waiting, ref.waiting)
            assert np.array_equal(got.throughput, ref.throughput)
            assert got.iterations == ref.iterations
            assert got.residual == ref.residual

    def test_single_point_batch_is_scalar(self):
        net = MMSModel(paper_defaults(k=2)).build_network()
        (got,) = solve_batch([net])
        ref = bard_schweitzer(net)
        assert np.array_equal(got.queue_length, ref.queue_length)
        assert got.iterations == ref.iterations


# ---------------------------------------------------------- masking/telemetry
class TestMaskingTelemetry:
    def test_trajectory_monotone_and_savings(self):
        points = _lattice_points()
        visits, service, types, pops, servers, _ = _symmetric_stacks(points)
        batch = solve_symmetric_batch(visits, service, types, pops, servers=servers)
        bt = batch[0].telemetry.batch
        assert bt.batch_size == len(points)
        assert bt.converged == len(points)
        traj = bt.active_trajectory
        assert traj[0] == len(points)
        assert all(a >= b for a, b in zip(traj, traj[1:])), "active set grew"
        assert bt.masked_iterations_saved > 0
        assert bt.iterations == len(traj)
        assert bt.max_residual <= 1e-12

    def test_per_point_iterations_match_scalar(self):
        """Masking must not change *when* each point converges."""
        points = _lattice_points()[:20]
        visits, service, types, pops, servers, arrays = _symmetric_stacks(points)
        batch = solve_symmetric_batch(visits, service, types, pops, servers=servers)
        for (v, s, t, srv), n, got in zip(arrays, pops, batch):
            ref = solve_symmetric(v, s, t, int(n), servers=srv)
            assert got.iterations == ref.iterations

    def test_zero_population_point_converges_immediately(self):
        visits = np.array([[1.0, 0.5], [1.0, 0.5]])
        service = np.array([[2.0, 1.0], [2.0, 1.0]])
        types = np.array([0, 1])
        sols = solve_symmetric_batch(visits, service, types, np.array([0, 3]))
        assert sols[0].converged and sols[0].iterations == 0
        assert sols[0].throughput == 0.0
        assert np.all(sols[0].queue_length == 0.0)
        assert sols[1].converged and sols[1].iterations > 0


# ------------------------------------------------------------- input checking
class TestValidation:
    def test_empty_batch(self):
        assert solve_batch([]) == []
        assert (
            solve_symmetric_batch(
                np.empty((0, 2)), np.empty((0, 2)), np.array([0, 1]), np.empty(0)
            )
            == []
        )

    def test_mixed_shapes_rejected(self):
        small = MMSModel(paper_defaults(k=2)).build_network()
        big = MMSModel(paper_defaults(k=3)).build_network()
        with pytest.raises(ValueError, match="share one"):
            solve_batch([small, big])

    def test_symmetric_shape_mismatches_rejected(self):
        v = np.ones((2, 3))
        types = np.array([0, 1, 1])
        with pytest.raises(ValueError, match="share a"):
            solve_symmetric_batch(v, np.ones((2, 4)), types, np.array([1, 1]))
        with pytest.raises(ValueError, match="station_type"):
            solve_symmetric_batch(v, np.ones((2, 3)), np.array([0, 1]), np.array([1, 1]))
        with pytest.raises(ValueError, match="populations"):
            solve_symmetric_batch(v, np.ones((2, 3)), types, np.array([1]))
        with pytest.raises(ValueError, match=">= 0"):
            solve_symmetric_batch(v, np.ones((2, 3)), types, np.array([1, -1]))
        with pytest.raises(ValueError, match="server"):
            solve_symmetric_batch(
                v, np.ones((2, 3)), types, np.array([1, 1]), servers=np.zeros((2, 3))
            )


# ------------------------------------------------------- non-convergence path
def _stiff_network() -> ClosedNetwork:
    return ClosedNetwork(
        visits=np.array([[1.0, 1.0], [1.0, 1.0]]),
        service=np.array([5.0, 7.0]),
        populations=np.array([4, 4]),
    )


class TestNonConvergence:
    def test_scalar_warns_and_flags(self):
        with pytest.warns(ConvergenceWarning, match="did not converge"):
            sol = bard_schweitzer(_stiff_network(), max_iter=2)
        assert not sol.converged
        assert sol.iterations == 2
        assert sol.residual > 0.0
        assert sol.telemetry is not None and not sol.telemetry.converged

    def test_scalar_strict_raises(self):
        with pytest.raises(ConvergenceError):
            bard_schweitzer(_stiff_network(), max_iter=2, strict=True)

    def test_batch_warns_and_flags_stragglers(self):
        nets = [_stiff_network(), _stiff_network()]
        with pytest.warns(ConvergenceWarning, match="2 point"):
            sols = solve_batch(nets, max_iter=2)
        for sol in sols:
            assert not sol.converged
            assert sol.iterations == 2
            assert sol.residual > 0.0
        bt = sols[0].telemetry.batch
        assert bt.converged == 0 and bt.batch_size == 2

    def test_batch_strict_raises(self):
        with pytest.raises(ConvergenceError):
            solve_batch([_stiff_network()], max_iter=2, strict=True)

    def test_symmetric_batch_warns_and_strict_raises(self):
        v = np.array([[1.0, 1.0]])
        s = np.array([[5.0, 7.0]])
        types = np.array([0, 1])
        pops = np.array([6])
        with pytest.warns(ConvergenceWarning):
            sols = solve_symmetric_batch(v, s, types, pops, max_iter=2)
        assert not sols[0].converged and sols[0].iterations == 2
        with pytest.raises(ConvergenceError):
            solve_symmetric_batch(v, s, types, pops, max_iter=2, strict=True)

    def test_converged_solve_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            sol = bard_schweitzer(_stiff_network())
        assert sol.converged
