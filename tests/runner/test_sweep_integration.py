"""sweep()/grid() through the runner: measures, progress, order invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis import grid, sweep
from repro.params import paper_defaults
from repro.runner import SweepRunner, default_runner, effective_config
from repro.runner.config import _configure


class TestMeasure:
    def test_string_measure_drops_perf(self):
        recs = sweep(
            paper_defaults(k=2), {"num_threads": [1, 2]}, measure="U_p"
        )
        assert all("perf" not in r for r in recs)
        assert all(isinstance(r["U_p"], float) for r in recs)
        assert recs[0]["U_p"] < recs[1]["U_p"]

    def test_attribute_measure(self):
        recs = sweep(
            paper_defaults(k=2),
            {"num_threads": [2]},
            measure="remote_round_trip",
        )
        assert recs[0]["remote_round_trip"] > 0

    def test_callable_measure(self):
        recs = sweep(
            paper_defaults(k=2),
            {"num_threads": [2]},
            measure=lambda params, perf: perf.processor_utilization * 2,
        )
        assert "value" in recs[0]

    def test_unknown_measure_raises(self):
        with pytest.raises(KeyError, match="unknown measure"):
            sweep(paper_defaults(k=2), {"num_threads": [2]}, measure="nope")

    def test_measure_matches_perf_path(self):
        axes = {"num_threads": [1, 2], "p_remote": [0.1, 0.3]}
        full = sweep(paper_defaults(k=2), axes)
        scalar = sweep(paper_defaults(k=2), axes, measure="U_p")
        for f, s in zip(full, scalar):
            assert s["U_p"] == f["perf"].processor_utilization


class TestProgress:
    def test_progress_called_per_unique_point(self):
        seen = []
        sweep(
            paper_defaults(k=2),
            {"num_threads": [1, 2, 4]},
            progress=lambda done, total, res: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_progress_includes_cache_hits(self, tmp_path):
        runner = SweepRunner(cache_dir=str(tmp_path))
        axes = {"num_threads": [1, 2]}
        sweep(paper_defaults(k=2), axes, runner=runner)
        hits = []
        sweep(
            paper_defaults(k=2),
            axes,
            runner=runner,
            progress=lambda done, total, res: hits.append(res.from_cache),
        )
        assert hits == [True, True]


class TestRunnerWiring:
    def test_explicit_runner_cache(self, tmp_path):
        runner = SweepRunner(cache_dir=str(tmp_path))
        axes = {"num_threads": [1, 2, 4]}
        a = sweep(paper_defaults(k=2), axes, runner=runner)
        b = sweep(paper_defaults(k=2), axes, runner=runner)
        assert runner.store.hits == 3
        for ra, rb in zip(a, b):
            assert ra["perf"].summary() == rb["perf"].summary()

    def test_configure_round_trip(self):
        prev = repro.configure(jobs=3, retries=2)
        try:
            cfg = effective_config()
            assert cfg["jobs"] == 3 and cfg["retries"] == 2
            assert default_runner().jobs == 3
        finally:
            repro.configure(**prev)

    def test_configure_rejects_unknown(self):
        with pytest.raises(TypeError):
            _configure(warp_factor=9)

    def test_env_defaults(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "5")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cfg = effective_config()
        assert cfg["jobs"] == 5
        assert cfg["cache_dir"] == str(tmp_path / "envcache")

    def test_failed_point_raises_from_sweep(self, tmp_path, monkeypatch):
        from tests.runner.test_executor import _flaky_worker

        monkeypatch.setenv("REPRO_TEST_CHAOS_DIR", str(tmp_path))
        runner = SweepRunner(retries=0, worker=_flaky_worker)
        with pytest.raises(RuntimeError, match="failed"):
            sweep(paper_defaults(k=2), {"num_threads": [2]}, runner=runner)


class TestGridThroughRunner:
    def test_grid_values_match_legacy_semantics(self):
        g = grid(
            paper_defaults(k=2),
            ("num_threads", [1, 2, 4]),
            ("p_remote", [0.1, 0.3]),
            lambda params, perf: perf.processor_utilization,
        )
        assert g.values.shape == (3, 2)
        recs = sweep(
            paper_defaults(k=2),
            {"num_threads": [1, 2, 4], "p_remote": [0.1, 0.3]},
            measure="U_p",
        )
        flat = np.array([r["U_p"] for r in recs]).reshape(3, 2)
        assert np.array_equal(g.values, flat)

    def test_grid_shares_runner_cache(self, tmp_path):
        runner = SweepRunner(cache_dir=str(tmp_path))
        args = (
            paper_defaults(k=2),
            ("num_threads", [1, 2]),
            ("p_remote", [0.1, 0.3]),
        )
        measure = lambda params, perf: perf.s_obs  # noqa: E731
        a = grid(*args, measure, runner=runner)
        b = grid(*args, measure, runner=runner)
        assert np.array_equal(a.values, b.values)
        assert runner.store.hits == 4


class TestOrderIndependence:
    @settings(max_examples=10, deadline=None)
    @given(
        threads=st.permutations([1, 2, 4, 8]),
        p_remotes=st.permutations([0.1, 0.2, 0.4]),
    )
    def test_results_independent_of_axis_iteration_order(
        self, threads, p_remotes
    ):
        """The map point -> U_p must not depend on the order axes are walked
        (content-addressed dedup may serve any point from any prior order)."""
        recs = sweep(
            paper_defaults(k=2),
            {"num_threads": list(threads), "p_remote": list(p_remotes)},
            measure="U_p",
        )
        by_point = {(r["num_threads"], r["p_remote"]): r["U_p"] for r in recs}
        assert by_point == _REFERENCE_UP

    def test_axis_order_swap_same_point_values(self):
        a = sweep(
            paper_defaults(k=2),
            {"num_threads": [1, 2], "p_remote": [0.1, 0.2]},
            measure="U_p",
        )
        b = sweep(
            paper_defaults(k=2),
            {"p_remote": [0.1, 0.2], "num_threads": [1, 2]},
            measure="U_p",
        )
        key = lambda r: (r["num_threads"], r["p_remote"])  # noqa: E731
        assert {key(r): r["U_p"] for r in a} == {key(r): r["U_p"] for r in b}


def _reference_up():
    out = {}
    for n in (1, 2, 4, 8):
        for p in (0.1, 0.2, 0.4):
            recs = sweep(
                paper_defaults(k=2),
                {"num_threads": [n], "p_remote": [p]},
                measure="U_p",
            )
            out[(n, p)] = recs[0]["U_p"]
    return out


_REFERENCE_UP = _reference_up()
