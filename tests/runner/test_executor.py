"""SweepRunner: dedup, caching, parallel equality, timeout/retry/crash paths.

The chaos workers are module-level so they pickle for process-pool dispatch;
they coordinate through files under ``$REPRO_TEST_CHAOS_DIR`` because that
state must be visible across the pool workers *and* the in-parent retry path.
"""

import os
import signal
import time

import pytest

from repro.params import paper_defaults
from repro.runner import JobSpec, ResultStore, SweepRunner, canonical_json
from repro.runner.executor import solve_job

SMALL = paper_defaults(k=2, num_threads=2)


def _specs(n_threads=(1, 2, 4, 8), p_remotes=(0.1, 0.2, 0.3)):
    return [
        JobSpec(paper_defaults(k=2, num_threads=n, p_remote=p))
        for n in n_threads
        for p in p_remotes
    ]


# --------------------------------------------------------------- chaos seams
def _sleepy_worker(payload):
    time.sleep(2.0)
    return solve_job(payload)


def _napping_worker(payload):
    """Well within any sane budget per point, but slow enough that a sweep
    of them outlives a short timeout in total."""
    time.sleep(0.2)
    return solve_job(payload)


def _selective_sleeper(payload):
    """Hang only the single-thread point; every other point solves fast."""
    if payload["params"]["workload"]["num_threads"] == 1:
        time.sleep(10.0)
    return solve_job(payload)


def _flaky_worker(payload):
    """Raise on the first two calls (per chaos dir), then solve normally."""
    marker = os.path.join(os.environ["REPRO_TEST_CHAOS_DIR"], "flaky-calls")
    with open(marker, "a") as fh:
        fh.write("x")
    if os.path.getsize(marker) <= 2:
        raise RuntimeError("transient fault")
    return solve_job(payload)


def _crashy_worker(payload):
    """SIGKILL the first worker process that runs (breaks the pool), then
    behave normally -- models a worker dying mid-sweep."""
    marker = os.path.join(os.environ["REPRO_TEST_CHAOS_DIR"], "crashed")
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return solve_job(payload)


@pytest.fixture
def chaos_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_CHAOS_DIR", str(tmp_path))
    return tmp_path


# ------------------------------------------------------------------- basics
class TestBasics:
    def test_single_point_matches_direct_solve(self):
        from repro.core import MMSModel

        perf = SweepRunner().solve(SMALL)
        direct = MMSModel(SMALL).solve()
        assert perf.summary() == direct.summary()

    def test_empty_run(self):
        report = SweepRunner().run([])
        assert report.results == []
        assert report.manifest.unique_points == 0
        assert report.manifest.cache_hit_rate == 0.0

    def test_duplicates_solved_once(self):
        spec = JobSpec(SMALL)
        report = SweepRunner().run([spec, spec, spec])
        m = report.manifest
        assert m.total_points == 3 and m.unique_points == 1 and m.solved == 1
        assert not report.results[0].from_cache
        assert report.results[1].from_cache and report.results[2].from_cache
        assert report.results[1].perf.summary() == report.results[0].perf.summary()

    def test_tiny_sweep_stays_serial_despite_jobs(self):
        report = SweepRunner(jobs=4).run(_specs(n_threads=(1,), p_remotes=(0.1,)))
        assert report.manifest.mode == "serial"

    def test_progress_callback(self):
        seen = []
        SweepRunner().run(
            _specs(), progress=lambda done, total, res: seen.append((done, total))
        )
        assert seen == [(i + 1, 12) for i in range(12)]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)
        with pytest.raises(ValueError):
            SweepRunner(retries=-1)


# ------------------------------------------------------------------- caching
class TestCaching:
    def test_cold_then_warm(self, tmp_path):
        specs = _specs()
        cold = SweepRunner(cache_dir=str(tmp_path)).run(specs)
        assert cold.manifest.cache_hits == 0 and cold.manifest.solved == 12

        warm = SweepRunner(cache_dir=str(tmp_path)).run(specs)
        assert warm.manifest.cache_hits == 12 and warm.manifest.solved == 0
        assert warm.manifest.cache_hit_rate == 1.0
        assert all(r.from_cache for r in warm.results)
        # a cache hit is bitwise-indistinguishable from a fresh solve
        assert [canonical_json(r) for r in warm.records()] == [
            canonical_json(r) for r in cold.records()
        ]

    def test_shared_store_object(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = _specs(n_threads=(2, 4), p_remotes=(0.2,))
        SweepRunner(store=store).run(specs)
        report = SweepRunner(store=store).run(specs)
        assert report.manifest.cache_hits == 2
        assert store.stats()["entries"] == 2

    def test_cache_survives_across_processes_format(self, tmp_path):
        """The persisted record is plain JSON a fresh store can serve."""
        specs = _specs(n_threads=(2,), p_remotes=(0.2,))
        SweepRunner(cache_dir=str(tmp_path)).run(specs)
        reopened = ResultStore(tmp_path)
        rec = reopened.get(specs[0].key())
        assert rec is not None and "perf" in rec and "elapsed" in rec

    def test_failures_not_cached(self, tmp_path, chaos_dir):
        # every attempt fails (retries=0 and 2 allowed failures budget)
        runner = SweepRunner(
            cache_dir=str(tmp_path), retries=0, worker=_flaky_worker
        )
        report = runner.run(_specs(n_threads=(2,), p_remotes=(0.2,)))
        assert not report.ok
        assert len(ResultStore(tmp_path)) == 0


# ------------------------------------------------- parallel/serial equality
class TestParallelEquality:
    def test_figure4_sized_sweep_parallel_equals_serial(self):
        """Figure-4 lattice (11 x 16 = 176 points on the 4x4 machine):
        process-pool execution must emit bitwise-identical records."""
        threads = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20)
        p_remotes = tuple(round(0.05 * i, 2) for i in range(1, 17))
        specs = [
            JobSpec(paper_defaults(num_threads=n, p_remote=p))
            for n in threads
            for p in p_remotes
        ]
        serial = SweepRunner(jobs=1).run(specs)
        parallel = SweepRunner(
            backend="process", jobs=2, min_parallel_points=1
        ).run(specs)
        assert parallel.manifest.mode == "parallel"
        assert [canonical_json(r) for r in parallel.records()] == [
            canonical_json(r) for r in serial.records()
        ]

    def test_parallel_fills_cache_serial_hits_it(self, tmp_path):
        specs = _specs()
        SweepRunner(jobs=2, min_parallel_points=1, cache_dir=str(tmp_path)).run(
            specs
        )
        warm = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run(specs)
        assert warm.manifest.cache_hit_rate == 1.0


# ----------------------------------------------------- failure-path handling
class TestTimeout:
    def test_parallel_timeout_records_failure(self):
        specs = _specs(n_threads=(2, 4), p_remotes=(0.2,))
        runner = SweepRunner(
            jobs=2, min_parallel_points=1, timeout=0.25, worker=_sleepy_worker
        )
        report = runner.run(specs)
        assert not report.ok
        assert report.manifest.timeouts >= 1
        assert any("timeout" in (r.error or "") for r in report.results)

    def test_timeout_budget_is_per_point_not_per_wait(self):
        """N hung points with a T-second timeout expire in ~T-bounded
        staggered waits plus one stall-guard window, not serially at N*T
        (the old semantics restarted the clock at each ``future.result``):
        running points time out as their own budgets expire, and once the
        pool has made no progress for a full budget the never-started
        points fail immediately instead of each waiting T."""
        specs = _specs(n_threads=(2, 3, 4, 5), p_remotes=(0.2,))
        runner = SweepRunner(
            jobs=2, min_parallel_points=1, timeout=0.5, retries=0,
            worker=_sleepy_worker,
        )
        start = time.monotonic()
        report = runner.run(specs)
        wall = time.monotonic() - start
        assert report.manifest.timeouts == 4
        # serialized semantics would cost ~4 * 0.5s of sequential waits
        assert wall < 1.5, f"timeouts serialized: {wall:.2f}s wall"

    def test_queue_wait_does_not_consume_solve_budget(self):
        """A pooled sweep whose *total* wall clock exceeds the per-point
        timeout must not time anything out: the budget clock arms when a
        point starts executing, not at submission, so points queued behind
        a busy pool keep their full solve budget (deadline-from-submission
        semantics spuriously failed every point collected after
        ~timeout)."""
        specs = _specs(n_threads=(1, 2, 3, 4, 5, 6), p_remotes=(0.2,))
        runner = SweepRunner(
            jobs=2, min_parallel_points=1, timeout=0.5, retries=0,
            worker=_napping_worker,
        )
        start = time.monotonic()
        report = runner.run(specs)
        wall = time.monotonic() - start
        # 6 x ~0.2s points on 2 workers: the sweep outlives the budget...
        assert wall > 0.5, f"sweep too fast to exercise the regression: {wall:.2f}s"
        # ...yet every point stayed well inside its own execution budget
        assert report.ok, [r.error for r in report.results if not r.ok]
        assert report.manifest.timeouts == 0

    def test_done_futures_collected_after_a_hung_point(self):
        """One point hangs past its deadline; the points that finished in the
        meantime are still collected as successes, not swept into the
        timeout."""
        specs = _specs(n_threads=(1, 2, 4, 8), p_remotes=(0.2,))
        runner = SweepRunner(
            jobs=2, min_parallel_points=1, timeout=1.5, retries=0,
            worker=_selective_sleeper,
        )
        report = runner.run(specs)
        assert report.manifest.timeouts == 1
        by_ok = {r.params.workload.num_threads: r.ok for r in report.results}
        assert by_ok == {1: False, 2: True, 4: True, 8: True}


class TestRetry:
    def test_transient_failures_retried_to_success(self, chaos_dir):
        runner = SweepRunner(retries=3, worker=_flaky_worker)
        report = runner.run(_specs(n_threads=(2,), p_remotes=(0.2,)))
        assert report.ok
        assert report.results[0].attempts == 3
        assert report.manifest.retries == 2

    def test_retries_exhausted_is_failure(self, chaos_dir):
        runner = SweepRunner(retries=1, worker=_flaky_worker)
        report = runner.run(_specs(n_threads=(2,), p_remotes=(0.2,)))
        assert not report.ok
        assert "transient fault" in report.results[0].error
        assert report.manifest.failures == 1

    def test_parallel_worker_exception_retried_in_parent(self, chaos_dir):
        """A raise in a pool worker consumes one attempt; the bounded retry
        runs in-process and succeeds."""
        specs = _specs()  # 12 points, enough to go parallel
        runner = SweepRunner(
            jobs=2, min_parallel_points=1, retries=2, worker=_flaky_worker
        )
        report = runner.run(specs)
        assert report.ok
        assert report.manifest.retries >= 1


class TestWorkerCrash:
    def test_broken_pool_falls_back_to_serial(self, chaos_dir):
        specs = _specs()
        runner = SweepRunner(jobs=2, min_parallel_points=1, worker=_crashy_worker)
        report = runner.run(specs)
        assert report.ok, [r.error for r in report.results if not r.ok]
        assert report.manifest.mode == "serial-fallback"
        assert report.manifest.worker_crashes == 1


# ----------------------------------------------------------------- manifest
class TestManifest:
    def test_manifest_shape(self, tmp_path):
        report = SweepRunner(cache_dir=str(tmp_path)).run(_specs())
        m = report.manifest.to_dict()
        for field in (
            "solver_version", "jobs", "mode", "total_points", "unique_points",
            "cache_hits", "solved", "failures", "timeouts", "retries",
            "worker_crashes", "wall_clock_s", "cache_hit_rate",
            "point_latency", "store",
        ):
            assert field in m, field
        assert m["point_latency"]["count"] == 12
        assert m["store"]["entries"] == 12

    def test_manifest_json_file(self, tmp_path):
        import json

        report = SweepRunner().run(_specs(n_threads=(2,), p_remotes=(0.2,)))
        out = tmp_path / "manifest.json"
        report.manifest.to_json(out)
        data = json.loads(out.read_text())
        assert data["unique_points"] == 1
