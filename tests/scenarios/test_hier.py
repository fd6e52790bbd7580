"""Mesh-of-clusters with mixed link speeds (Kanrar & Siraj, arXiv:1110.3597).

The hier scenario solves a multi-class closed network -- one class per
processor over [procs][mems][intra links][gateways] -- with the full
Bard-Schweitzer AMVA.  The physics pinned here: visit conservation,
latency-hiding with more threads, degradation with slower gateways, and
degenerate shapes (single cluster, single processor) collapsing cleanly.
"""

import numpy as np
import pytest

import repro
from repro.params import ParamError
from repro.scenarios import ScenarioPerformance, get_scenario
from repro.scenarios.hier import HierParams, _routing, build_network

HIER = get_scenario("hier")

#: small machine: 2 clusters x 2 processors, quick to solve exactly enough
SMALL = HierParams(clusters=2, cluster_size=2, num_threads=4)


class TestParams:
    def test_defaults_validate(self):
        params = HierParams()
        assert params.num_processors == 16

    @pytest.mark.parametrize(
        "bad",
        [
            {"clusters": 0},
            {"cluster_size": -1},
            {"num_threads": 0},
            {"runlength": 0.0},
            {"p_remote": 1.5},
            {"p_intra": -0.1},
            {"memory_latency": -1.0},
            {"inter_delay": -2.0},
            {"memory_ports": 0},
        ],
    )
    def test_invalid_values_raise_param_error(self, bad):
        with pytest.raises(ParamError):
            HierParams(**bad)

    def test_round_trips_through_dict(self):
        params = HierParams(clusters=3, cluster_size=2, inter_delay=40.0)
        assert HierParams.from_dict(params.to_dict()) == params

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(TypeError, match="unknown hier parameter"):
            HierParams.from_dict({"clusters": 2, "torus_k": 4})


class TestNetwork:
    def test_station_layout_shape(self):
        net = build_network(SMALL)
        n_proc = SMALL.num_processors
        assert net.visits.shape == (n_proc, 3 * n_proc + SMALL.clusters)

    def test_memory_visits_conserve_one_access_per_cycle(self):
        net = build_network(SMALL)
        n_proc = SMALL.num_processors
        mem = slice(n_proc, 2 * n_proc)
        for j in range(n_proc):
            assert net.visits[j, j] == 1.0  # own processor
            assert net.visits[j, mem].sum() == pytest.approx(1.0)

    def test_gateway_visits_count_both_crossings(self):
        net = build_network(SMALL)
        n_proc = SMALL.num_processors
        _p_rem, _intra, inter = _routing(SMALL)
        gates = net.visits[0, 3 * n_proc :]
        # source gateway + destination gateways, request and reply each
        assert gates.sum() == pytest.approx(4.0 * inter)

    def test_single_cluster_has_no_gateway_traffic(self):
        net = build_network(HierParams(clusters=1, cluster_size=4))
        n_proc = 4
        assert np.all(net.visits[:, 3 * n_proc :] == 0.0)

    def test_single_processor_has_no_remote_traffic(self):
        p_rem, intra, inter = _routing(HierParams(clusters=1, cluster_size=1))
        assert (p_rem, intra, inter) == (0.0, 0.0, 0.0)


class TestSolve:
    def test_measures_and_convergence(self):
        perf = HIER.solve(SMALL)
        assert isinstance(perf, ScenarioPerformance)
        assert perf.scenario == "hier"
        assert perf.method == "amva"
        assert perf.converged
        assert set(perf.summary()) == {
            "U_p",
            "throughput",
            "lambda_net",
            "S_obs",
            "L_obs",
        }
        assert 0.0 < perf.U_p <= 1.0
        assert perf.S_obs > 0.0

    def test_unknown_method_raises_param_error(self):
        with pytest.raises(ParamError, match="pick from auto/amva"):
            HIER.solve(SMALL, method="symmetric")

    def test_more_threads_hide_latency(self):
        u1 = HIER.solve(SMALL.with_(num_threads=1)).U_p
        u4 = HIER.solve(SMALL.with_(num_threads=4)).U_p
        assert u4 > u1

    def test_slower_gateways_degrade_utilization(self):
        utils = [
            HIER.solve(SMALL.with_(inter_delay=d)).U_p
            for d in (2.0, 20.0, 80.0)
        ]
        assert utils[0] > utils[1] > utils[2]

    def test_single_cluster_immune_to_inter_delay(self):
        base = HierParams(clusters=1, cluster_size=4, num_threads=4)
        assert HIER.solve(base).U_p == pytest.approx(
            HIER.solve(base.with_(inter_delay=500.0)).U_p
        )

    def test_single_thread_single_processor_closed_form(self):
        # one thread on one processor: U_p = R / (R + L), no queueing at all
        params = HierParams(
            clusters=1,
            cluster_size=1,
            num_threads=1,
            runlength=10.0,
            memory_latency=30.0,
        )
        assert HIER.solve(params).U_p == pytest.approx(10.0 / 40.0, rel=1e-9)

    def test_more_memory_ports_help_under_contention(self):
        hot = SMALL.with_(num_threads=8, memory_latency=40.0)
        assert (
            HIER.solve(hot.with_(memory_ports=4)).U_p
            > HIER.solve(hot).U_p
        )

    def test_perf_round_trips_through_dict(self):
        perf = HIER.solve(SMALL)
        assert HIER.perf_from_dict(perf.to_dict()).to_dict() == perf.to_dict()


class TestExactReference:
    def test_amva_within_three_percent_below_exact_mva(self):
        """Bard-Schweitzer against exact MVA, the reference that does not
        share the kernel (hier has no simulator), on 2x2 clusters over n_t
        {1, 2, 3} x p_remote {0.1, 0.4, 0.8} x p_intra {0.5, 0.9}: every
        class is symmetric, so class 0's exact throughput is the per-
        processor throughput.  The AMVA never overestimates it and is
        within 3% (the worst point, n_t=2, p_remote=0.4, p_intra=0.5, is
        ~2.5% low)."""
        from repro.queueing.mva_exact import exact_mva

        bad = []
        for n_t in (1, 2, 3):
            for p_remote in (0.1, 0.4, 0.8):
                for p_intra in (0.5, 0.9):
                    point = dict(
                        clusters=2,
                        cluster_size=2,
                        num_threads=n_t,
                        p_remote=p_remote,
                        p_intra=p_intra,
                    )
                    amva = repro.solve(scenario="hier", **point).summary()[
                        "throughput"
                    ]
                    exact = exact_mva(build_network(HierParams(**point)))
                    ex = float(exact.throughput[0])
                    if not (amva <= ex and (ex - amva) / ex <= 0.03):
                        bad.append((n_t, p_remote, p_intra, amva, ex))
        assert not bad, (
            f"(n_t, p_remote, p_intra, AMVA X, exact X) out of bounds: {bad}"
        )


class TestBatch:
    POINTS = [SMALL.with_(num_threads=n, inter_delay=d)
              for n in (1, 2, 4, 8) for d in (5.0, 40.0)]

    def test_batchable_and_grouped_by_machine_shape(self):
        assert HIER.batchable_methods == ("amva",)
        assert HIER.group_key(SMALL) == HIER.group_key(SMALL.with_(num_threads=9))
        assert HIER.group_key(SMALL) != HIER.group_key(
            SMALL.with_(clusters=4, cluster_size=1)
        )

    def test_solve_points_bitwise_equals_per_point_solve(self):
        perfs, telemetry = HIER.solve_points(self.POINTS)
        assert telemetry.batch_size == len(self.POINTS)
        for point, perf in zip(self.POINTS, perfs):
            assert perf.to_dict() == HIER.solve(point).to_dict()

    def test_sweep_records_bitwise_equal_per_point_solve(self):
        """Which path filled a cache entry must not change its bytes."""
        records = repro.sweep(
            {"num_threads": [2, 4, 8]}, scenario="hier", backend="batch"
        )
        for rec in records:
            point = HierParams(num_threads=rec["num_threads"])
            assert (
                rec["perf"].to_dict()
                == repro.solve(point, scenario="hier").to_dict()
            )

    def test_mixed_machine_shapes_rejected(self):
        with pytest.raises(ValueError, match="share one"):
            HIER.solve_points([SMALL, SMALL.with_(clusters=3)])


class TestTolerance:
    def test_subsystem_catalogue(self):
        assert HIER.tolerance_subsystems == ("network", "interlink", "memory")

    @pytest.mark.parametrize("subsystem", ["network", "interlink", "memory"])
    def test_indices_in_unit_interval(self, subsystem):
        tol = HIER.tolerance(SMALL, subsystem=subsystem)
        assert tol.subsystem == subsystem
        assert 0.0 < float(tol) <= 1.0 + 1e-9

    def test_interlink_index_is_one_for_homogeneous_links(self):
        params = SMALL.with_(inter_delay=SMALL.intra_delay)
        tol = HIER.tolerance(params, subsystem="interlink")
        assert float(tol) == pytest.approx(1.0)

    def test_interlink_index_falls_with_gateway_slowdown(self):
        mild = HIER.tolerance(SMALL.with_(inter_delay=10.0), subsystem="interlink")
        harsh = HIER.tolerance(SMALL.with_(inter_delay=80.0), subsystem="interlink")
        assert float(harsh) < float(mild)

    def test_unknown_subsystem_raises(self):
        with pytest.raises(ValueError, match="interlink"):
            HIER.tolerance(SMALL, subsystem="steal")

    def test_facade_tolerance_index_default_subsystem(self):
        tol = repro.tolerance_index(
            scenario="hier", clusters=2, cluster_size=2, num_threads=4
        )
        assert tol.subsystem == "network"

    def test_no_simulator_capability(self):
        from repro.scenarios import ScenarioCapabilityError

        with pytest.raises(ScenarioCapabilityError, match="no simulator"):
            repro.simulate(scenario="hier", clusters=2, cluster_size=2)
