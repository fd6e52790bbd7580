"""Runner observability: stage timings, span parenting, amortized batches.

These tests exercise the full wiring: the sweep runner's stage spans and
manifest `stages`/`metrics` blocks, worker-span merging across the process
pool, and the amortization contract for batched solves (the true batch wall
clock is recorded once; per-point shares are flagged, never re-summed).
"""

import os

import pytest

import repro
from repro import obs
from repro.params import paper_defaults
from repro.runner import JobSpec, SweepRunner
from repro.runner.executor import solve_job


def _specs(n, method="amva"):
    return [
        JobSpec(params=paper_defaults(num_threads=1 + i), method=method)
        for i in range(n)
    ]


@pytest.fixture
def traced(tmp_path):
    """Tracing into a tmp JSONL file for the duration of one test."""
    path = tmp_path / "trace.jsonl"
    prev = repro.configure(trace=str(path))
    yield path
    tracer = obs.get_tracer()
    if tracer is not None:
        tracer.close()
    repro.configure(**prev)


class TestStages:
    def test_stages_tile_the_wall_clock(self, tmp_path):
        runner = SweepRunner(cache_dir=str(tmp_path / "c"), backend="serial")
        manifest = runner.run(_specs(4)).manifest
        assert set(manifest.stages) == {
            "spec_hash",
            "cache_lookup",
            "solve",
            "store_write",
            "assemble",
        }
        total = sum(manifest.stages.values())
        # consecutive perf_counter segments: they tile the run
        assert total == pytest.approx(manifest.wall_clock_s, rel=0.05)

    def test_stages_present_without_tracing(self, tmp_path):
        assert not obs.enabled()
        manifest = SweepRunner(backend="serial").run(_specs(2)).manifest
        assert manifest.stages["solve"] > 0

    def test_manifest_metrics_delta(self, tmp_path):
        runner = SweepRunner(cache_dir=str(tmp_path / "c"), backend="serial")
        manifest = runner.run(_specs(3)).manifest
        counters = manifest.metrics["counters"]
        assert counters["solver.points"] == 3
        assert counters["store.misses"] == 3
        assert counters["store.puts"] == 3
        # a warm rerun's delta shows hits, not solves
        warm = SweepRunner(cache_dir=str(tmp_path / "c"), backend="serial")
        counters = warm.run(_specs(3)).manifest.metrics["counters"]
        assert counters["store.hits"] == 3
        assert "solver.points" not in counters


class TestTraceSpans:
    def test_serial_run_trace_validates_with_one_root(self, traced):
        SweepRunner(backend="serial").run(_specs(3))
        obs.get_tracer().close()
        summary = obs.validate_trace(traced)
        assert summary.roots == 1
        assert summary.span_names["sweep.run"] == 1
        assert summary.span_names["sweep.point"] == 3
        assert summary.span_names["solver.solve"] == 3

    def test_stage_spans_parent_under_run(self, traced):
        SweepRunner(backend="serial").run(_specs(2))
        obs.get_tracer().close()
        from repro.obs.report import load_trace

        spans = {s["name"]: s for s in load_trace(traced) if s.get("kind") == "span"}
        run_id = spans["sweep.run"]["span_id"]
        for stage in ("sweep.spec_hash", "sweep.cache_lookup", "sweep.solve",
                      "sweep.store_write", "sweep.assemble"):
            assert spans[stage]["parent_id"] == run_id

    def test_process_backend_merges_worker_spans(self, traced):
        runner = SweepRunner(
            jobs=2, backend="process", min_parallel_points=2, worker=solve_job
        )
        manifest = runner.run(_specs(4)).manifest
        assert manifest.mode == "parallel"
        obs.get_tracer().close()
        summary = obs.validate_trace(traced)  # parent linkage holds
        assert summary.roots == 1
        assert summary.span_names["sweep.point"] == 4

        from repro.obs.report import load_trace

        spans = [s for s in load_trace(traced) if s.get("kind") == "span"]
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        solve_id = by_name["sweep.solve"][0]["span_id"]
        points = by_name["sweep.point"]
        assert all(p["parent_id"] == solve_id for p in points)
        # the spans really came from worker processes
        assert any(p["pid"] != os.getpid() for p in points)
        # and the workers' nested solver spans rode along too
        assert len(by_name["solver.solve"]) == 4

    def test_disabled_tracing_adds_no_payload_keys(self):
        """Without a tracer, pool payloads are untouched (byte-stable
        dispatch) and solve_job returns no span key."""
        out = solve_job(_specs(1)[0].payload())
        assert "spans" not in out


class TestAmortizedBatches:
    def test_batch_points_flagged_amortized(self, tmp_path):
        runner = SweepRunner(cache_dir=str(tmp_path / "c"), backend="batch")
        report = runner.run(_specs(5))
        assert report.manifest.mode == "batch"
        assert all(r.amortized for r in report.results)
        lat = report.manifest.point_latency
        assert lat["count"] == 5 and lat["amortized"] == 5
        # the true batch wall is recorded exactly once, in solver_batches
        [batch] = report.manifest.solver_batches
        assert batch["batch_size"] == 5
        assert batch["wall_time_s"] > 0

    def test_serial_points_not_amortized(self, tmp_path):
        report = SweepRunner(backend="serial").run(_specs(3))
        assert not any(r.amortized for r in report.results)
        assert report.manifest.point_latency["amortized"] == 0

    def test_amortized_flag_survives_cache_round_trip(self, tmp_path):
        cold = SweepRunner(cache_dir=str(tmp_path / "c"), backend="batch")
        assert all(r.amortized for r in cold.run(_specs(4)).results)
        warm = SweepRunner(cache_dir=str(tmp_path / "c"), backend="batch")
        report = warm.run(_specs(4))
        assert report.manifest.cache_hits == 4
        assert all(r.amortized and r.from_cache for r in report.results)

    def test_amortized_share_sums_to_batch_wall(self, tmp_path):
        report = SweepRunner(backend="batch").run(_specs(4))
        [batch] = report.manifest.solver_batches
        lat = report.manifest.point_latency
        # shares are an even split of the measured batch loop, which is
        # at least the kernel's own wall clock
        assert lat["total"] >= batch["wall_time_s"] * 0.99
        assert lat["max"] == pytest.approx(lat["min"])
