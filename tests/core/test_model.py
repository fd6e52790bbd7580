"""Unit tests for the MMS analytical model."""

import numpy as np
import pytest

from repro.core import MMSModel, solve
from repro.params import paper_defaults


@pytest.fixture
def default_perf():
    return solve(paper_defaults())


class TestStationArrays:
    def test_layout(self):
        model = MMSModel(paper_defaults())
        v, s, t, srv = model.station_arrays()
        p = 16
        assert v.shape == s.shape == t.shape == (4 * p,)
        # processor 0 visited once, others never
        assert v[0] == 1.0 and v[1:p].sum() == 0.0
        # memory visits sum to 1
        assert v[p : 2 * p].sum() == pytest.approx(1.0)

    def test_service_values(self):
        model = MMSModel(paper_defaults(memory_latency=7.0, switch_delay=3.0))
        _, s, t, _srv = model.station_arrays()
        assert np.allclose(s[t == 1], 7.0)
        assert np.allclose(s[t == 2], 3.0)
        assert np.allclose(s[t == 3], 3.0)

    def test_context_switch_in_processor_service(self):
        model = MMSModel(paper_defaults(context_switch=2.0))
        _, s, t, _srv = model.station_arrays()
        assert np.allclose(s[t == 0], 12.0)

    def test_full_network_shape(self):
        net = MMSModel(paper_defaults()).build_network()
        assert net.num_classes == 16
        assert net.num_stations == 64
        assert (net.populations == 8).all()


class TestSolve:
    def test_utilization_in_unit_interval(self, default_perf):
        assert 0.0 < default_perf.processor_utilization <= 1.0

    def test_converged(self, default_perf):
        assert default_perf.converged

    def test_lambda_net_is_p_remote_share(self, default_perf):
        assert default_perf.lambda_net == pytest.approx(
            0.2 * default_perf.access_rate
        )

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            MMSModel(paper_defaults()).solve(method="magic")

    def test_exact_method_on_tiny_instance(self):
        """Bard-Schweitzer against exact MVA, the reference that does not
        share the kernel, on every k=2 point of n_t 1-4 x p_remote
        {0.1, 0.4, 0.8}: the AMVA never overestimates U_p and is within
        3% (the worst point, n_t=3 at p_remote=0.1, is ~2.5% low)."""
        bad = []
        for n_t in (1, 2, 3, 4):
            for p_remote in (0.1, 0.4, 0.8):
                params = paper_defaults(k=2, num_threads=n_t, p_remote=p_remote)
                ex = MMSModel(params).solve(method="exact").processor_utilization
                bs = MMSModel(params).solve(method="symmetric").processor_utilization
                if not (bs <= ex and (ex - bs) / ex <= 0.03):
                    bad.append((n_t, p_remote, bs, ex))
        assert not bad, f"(n_t, p_remote, AMVA U_p, exact U_p) out of bounds: {bad}"

    def test_more_threads_more_utilization(self):
        u = [
            solve(paper_defaults(num_threads=n)).processor_utilization
            for n in (1, 2, 4, 8, 16)
        ]
        assert all(a < b + 1e-12 for a, b in zip(u, u[1:]))

    def test_s_obs_grows_with_threads(self):
        """Paper, Figure 4(b): S_obs increases roughly linearly in n_t."""
        s = [solve(paper_defaults(num_threads=n)).s_obs for n in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(s, s[1:]))

    def test_unloaded_s_obs_approaches_formula(self):
        """At n_t = 1 and tiny p_remote, S_obs -> (d_avg + 1) * S."""
        params = paper_defaults(num_threads=1, p_remote=0.001)
        perf = solve(params)
        model = MMSModel(params)
        expected = (model.d_avg + 1.0) * 10.0
        assert perf.s_obs == pytest.approx(expected, rel=0.02)

    def test_zero_p_remote_no_network(self):
        perf = solve(paper_defaults(p_remote=0.0))
        assert perf.lambda_net == 0.0
        assert perf.s_obs == 0.0
        assert perf.l_obs_remote == 0.0

    def test_local_only_balanced_system(self):
        """p_remote=0, R=L: two balanced stations, U_p = n/(n+1)."""
        perf = solve(paper_defaults(p_remote=0.0, num_threads=8))
        assert perf.processor_utilization == pytest.approx(8 / 9, rel=1e-6)

    def test_single_node_machine(self):
        perf = solve(paper_defaults(k=1, num_threads=4, p_remote=0.0))
        assert perf.processor_utilization == pytest.approx(4 / 5, rel=1e-6)

    def test_zero_switch_delay(self):
        perf = solve(paper_defaults(switch_delay=0.0))
        assert perf.s_obs == 0.0
        assert perf.processor_utilization > solve(
            paper_defaults()
        ).processor_utilization

    def test_network_saturation_ceiling(self):
        """Deep in saturation, lambda_net approaches Eq. (4)'s limit."""
        from repro.core import lambda_net_saturation

        params = paper_defaults(p_remote=0.8, num_threads=20)
        perf = solve(params)
        sat = lambda_net_saturation(params)
        assert perf.lambda_net <= sat * 1.001
        assert perf.lambda_net == pytest.approx(sat, rel=0.15)

    def test_system_throughput(self, default_perf):
        assert default_perf.system_throughput == pytest.approx(
            16 * default_perf.processor_utilization
        )

    def test_subsystem_stats_populated(self, default_perf):
        assert default_perf.processor.utilization == pytest.approx(
            default_perf.processor_busy
        )
        assert default_perf.memory.utilization > 0
        assert default_perf.inbound.queue_length >= 0

    def test_memory_utilization_is_xl(self, default_perf):
        """Every memory serves exactly one access per cycle: U_mem = X*L."""
        assert default_perf.memory.utilization == pytest.approx(
            default_perf.access_rate * 10.0
        )

    def test_remote_latency_exceeds_local(self):
        perf = solve(paper_defaults(p_remote=0.4))
        # same service, but the class's own-queue correction differs only
        # marginally; they should be close but both near L_obs
        assert perf.l_obs_local > 0
        assert perf.l_obs_remote > 0
        assert perf.l_obs == pytest.approx(
            0.8 * perf.l_obs_local + 0.2 * perf.l_obs_remote, rel=0.25
        )

    def test_round_trip_composition(self):
        perf = solve(paper_defaults(p_remote=0.3))
        assert perf.remote_round_trip == pytest.approx(
            2 * perf.s_obs + perf.l_obs_remote
        )


class TestSolverAgreement:
    def test_linearizer_close_to_amva(self):
        params = paper_defaults(k=2, num_threads=4)
        a = MMSModel(params).solve(method="amva")
        l = MMSModel(params).solve(method="linearizer")
        assert l.processor_utilization == pytest.approx(
            a.processor_utilization, rel=0.1
        )

    def test_linearizer_closer_to_exact_than_amva(self):
        params = paper_defaults(k=2, num_threads=3)
        model = MMSModel(params)
        ex = model.solve(method="exact").processor_utilization
        bs = model.solve(method="amva").processor_utilization
        lin = model.solve(method="linearizer").processor_utilization
        assert abs(lin - ex) <= abs(bs - ex) + 1e-9
