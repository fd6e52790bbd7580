"""The torus scenario is the pre-registry solver, bitwise.

The registry refactor is only safe if the registered default produces the
exact bytes the old code paths produced: same performance dicts, same
cache payloads, same SHA-256 job keys, same wire payloads.  These tests
pin that conformance point by point.
"""

import hashlib

import pytest

import repro
from repro.core.model import MMSModel
from repro.params import paper_defaults
from repro.runner.spec import JobSpec, canonical_json
from repro.scenarios import HierParams, WorkStealParams, get_scenario

TORUS = get_scenario("torus")

#: a grid spanning the symmetric fast path, AMVA, and asymmetric shapes
GRID = [
    (paper_defaults(), "auto"),
    (paper_defaults(num_threads=1), "auto"),
    (paper_defaults(num_threads=8, p_remote=0.3), "symmetric"),
    (paper_defaults(num_threads=4, p_remote=0.0), "auto"),
    (paper_defaults(num_threads=8, memory_ports=2), "amva"),
    (paper_defaults(num_threads=16, pattern="uniform"), "auto"),
]


class TestSolveBitwise:
    @pytest.mark.parametrize(("params", "method"), GRID)
    def test_scenario_solve_equals_model_solve(self, params, method):
        via_scenario = TORUS.solve(params, method=method)
        via_model = MMSModel(params).solve(method=method)
        assert via_scenario.to_dict() == via_model.to_dict()

    def test_canonical_method_matches_model_selection(self):
        for params, _ in GRID:
            expected = "symmetric" if MMSModel(params).is_symmetric else "amva"
            assert TORUS.canonical_method(params, "auto") == expected

    def test_solve_points_batch_equals_per_point_solve(self):
        for points, method in (
            ([paper_defaults(num_threads=n) for n in (1, 2, 4, 8)], "symmetric"),
            (
                [paper_defaults(num_threads=n, pattern="hotspot") for n in (2, 4, 8)],
                "amva",
            ),
        ):
            perfs, _telemetry = TORUS.solve_points(points, method=method)
            for point, perf in zip(points, perfs):
                assert perf.to_dict() == MMSModel(point).solve(method).to_dict()

    def test_hotspot_sweep_records_equal_per_point_solve(self):
        """Which path filled a cache entry must not change its bytes."""
        records = repro.sweep(
            {"num_threads": [2, 4, 8]},
            base=paper_defaults(pattern="hotspot"),
            backend="batch",
        )
        for rec in records:
            point = paper_defaults(num_threads=rec["num_threads"], pattern="hotspot")
            assert rec["perf"].to_dict() == repro.solve(point).to_dict()


class TestCacheKeyBitwise:
    @pytest.mark.parametrize(("params", "method"), GRID)
    def test_cache_payload_is_the_pre_registry_formula(self, params, method):
        spec = JobSpec(params=params, method=method)
        canonical = spec.canonical_method()
        payload = TORUS.cache_payload(params, canonical)
        # the exact pre-registry payload: method + params, nothing else
        assert payload == {"method": canonical, "params": params.to_dict()}
        expected_key = hashlib.sha256(
            canonical_json(payload).encode("utf-8")
        ).hexdigest()
        assert spec.key() == expected_key

    def test_key_identical_with_and_without_scenario_argument(self):
        params = paper_defaults(num_threads=8)
        assert (
            JobSpec(params=params).key()
            == JobSpec(params=params, scenario="torus").key()
        )

    def test_torus_wire_payload_has_no_scenario_field(self):
        payload = JobSpec(params=paper_defaults()).payload()
        assert "scenario" not in payload
        assert set(payload) == {"key", "method", "params"}

    @pytest.mark.parametrize(
        "params", [WorkStealParams(), HierParams(clusters=2, cluster_size=2)]
    )
    def test_non_torus_wire_payload_carries_scenario(self, params):
        payload = JobSpec(params=params).payload()
        assert payload["scenario"] in ("worksteal", "hier")

    @pytest.mark.parametrize(
        "params",
        [
            paper_defaults(num_threads=4),
            WorkStealParams(latency=3.0),
            HierParams(clusters=2, cluster_size=2),
        ],
    )
    def test_from_payload_round_trips_key_and_scenario(self, params):
        spec = JobSpec(params=params)
        rebuilt = JobSpec.from_payload(spec.payload())
        assert rebuilt.key() == spec.key()
        assert rebuilt.scenario == spec.scenario
        assert rebuilt.params == spec.params


class TestFacadeConformance:
    def test_facade_solve_routes_through_registered_torus(self):
        params = paper_defaults(num_threads=8, p_remote=0.2)
        assert (
            repro.solve(params, scenario="torus").to_dict()
            == MMSModel(params).solve().to_dict()
        )

    def test_sweep_records_identical_with_explicit_scenario(self):
        axes = {"num_threads": [1, 2, 4], "p_remote": [0.1, 0.3]}
        implicit = repro.sweep(axes, measure="U_p")
        explicit = repro.sweep(axes, measure="U_p", scenario="torus")
        assert implicit == explicit

    def test_sweep_perf_records_match_direct_solve(self):
        records = repro.sweep({"num_threads": [1, 2, 4]})
        for rec in records:
            expected = MMSModel(
                paper_defaults(num_threads=rec["num_threads"])
            ).solve()
            assert rec["perf"].to_dict() == expected.to_dict()
