"""The batched sweep backend: routing, equivalence, and telemetry."""

import os

import pytest

import repro
from repro.analysis import experiments
from repro.analysis.sweep import sweep
from repro.params import paper_defaults
from repro.runner import JobSpec, SweepRunner, canonical_json
from repro.runner.config import effective_config


def _specs(n_threads=(1, 2, 4), p_remotes=(0.1, 0.2)):
    return [
        JobSpec(paper_defaults(num_threads=n, p_remote=p))
        for n in n_threads
        for p in p_remotes
    ]


class TestBackendRouting:
    def test_default_auto_batches_in_process(self):
        report = SweepRunner().run(_specs())
        assert report.manifest.backend == "auto"
        assert report.manifest.mode == "batch"
        assert report.manifest.solver_batches

    def test_forced_serial_never_batches(self):
        report = SweepRunner(backend="serial").run(_specs())
        assert report.manifest.mode == "serial"
        assert report.manifest.solver_batches == []

    def test_single_point_stays_serial(self):
        report = SweepRunner(backend="batch").run(_specs((2,), (0.2,)))
        assert report.manifest.mode == "serial"

    def test_custom_worker_disables_batching(self):
        calls = []

        def worker(payload):
            from repro.runner.executor import solve_job

            calls.append(payload["key"])
            return solve_job(payload)

        report = SweepRunner(worker=worker).run(_specs())
        assert report.manifest.mode == "serial"
        assert len(calls) == 6

    def test_unbatchable_method_goes_serial(self):
        specs = [
            JobSpec(paper_defaults(k=2, num_threads=n), method="linearizer")
            for n in (1, 2, 3)
        ]
        report = SweepRunner(backend="batch").run(specs)
        assert report.manifest.mode == "serial"
        assert report.ok

    def test_mixed_machine_sizes_batch_per_group(self):
        specs = [
            JobSpec(paper_defaults(k=k, num_threads=n))
            for k in (2, 3)
            for n in (1, 2, 4)
        ]
        report = SweepRunner(backend="batch").run(specs)
        assert report.manifest.mode == "batch"
        assert len(report.manifest.solver_batches) == 2
        assert {b["batch_size"] for b in report.manifest.solver_batches} == {3}

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SweepRunner(backend="quantum")
        with pytest.raises(ValueError, match="min_batch_points"):
            SweepRunner(min_batch_points=1)


def _figure4_specs():
    return [
        JobSpec(paper_defaults(num_threads=n, p_remote=p))
        for n in experiments.DEFAULT_THREADS
        for p in experiments.DEFAULT_P_REMOTE
    ]


def _canonical(report):
    assert report.ok, [r.error for r in report.results if not r.ok]
    return [canonical_json(r) for r in report.records()]


class TestJobsRouting:
    """``--jobs N`` routes by batchability: what batches never waits on a
    pool; only what cannot batch is pooled."""

    def test_figure4_lattice_batches_at_any_jobs(self):
        specs = _figure4_specs()
        assert len(specs) == 176
        serial_jobs = SweepRunner(jobs=1).run(specs)
        report = SweepRunner(jobs=2).run(specs)
        assert report.manifest.mode == "batch"
        assert report.manifest.degradations == []
        assert sum(b["batch_size"] for b in report.manifest.solver_batches) == 176
        assert _canonical(report) == _canonical(serial_jobs)

    def test_mixed_run_batches_symmetric_and_pools_linearizer(self):
        specs = [
            JobSpec(paper_defaults(k=2, num_threads=n, p_remote=p))
            for n in (1, 2, 4)
            for p in (0.1, 0.3)
        ] + [
            JobSpec(paper_defaults(k=2, num_threads=n), method="linearizer")
            for n in (1, 2, 3)
        ]
        report = SweepRunner(jobs=2, min_parallel_points=1).run(specs)
        assert report.manifest.mode == "parallel"
        assert report.manifest.degradations == []
        (batch,) = report.manifest.solver_batches
        assert batch["batch_size"] == 6
        serial = SweepRunner(backend="serial").run(specs)
        assert _canonical(report) == _canonical(serial)

    def test_timeout_pools_every_point(self):
        report = SweepRunner(jobs=2, timeout=60.0, min_parallel_points=1).run(
            _specs()
        )
        assert report.manifest.mode == "parallel"
        assert report.manifest.solver_batches == []
        assert _canonical(report) == _canonical(SweepRunner().run(_specs()))


class TestBackendInterop:
    """Cross-backend *interaction* contracts (cache handoff, progress order).

    Pure record-equivalence across the backend x kernel matrix lives in
    ``tests/queueing/test_kernel_conformance.py`` on the full Figure-4
    lattice; this class only keeps what that suite does not cover.
    """

    def test_batch_fills_cache_serial_hits_it(self, tmp_path):
        specs = _specs()
        cold = SweepRunner(backend="batch", cache_dir=str(tmp_path)).run(specs)
        assert cold.manifest.mode == "batch"
        warm = SweepRunner(backend="serial", cache_dir=str(tmp_path)).run(specs)
        assert warm.manifest.cache_hit_rate == 1.0
        assert [canonical_json(r) for r in warm.records()] == [
            canonical_json(r) for r in cold.records()
        ]

    def test_progress_in_order_under_batch(self):
        seen = []
        SweepRunner(backend="batch").run(
            _specs(), progress=lambda done, total, res: seen.append((done, total))
        )
        assert seen == [(i + 1, 6) for i in range(6)]


class TestTelemetry:
    def test_solver_batches_shape(self):
        report = SweepRunner(backend="batch").run(_specs())
        (batch,) = report.manifest.solver_batches
        assert batch["method"] == "symmetric"
        assert batch["batch_size"] == 6
        assert batch["iterations"] > 0
        assert batch["converged"] == 6
        assert 0.0 <= batch["max_residual"] <= 1e-12
        assert batch["active_trajectory"][0] == 6
        assert batch["wall_time_s"] > 0.0

    def test_telemetry_survives_manifest_json(self, tmp_path):
        import json

        report = SweepRunner(backend="batch").run(_specs())
        out = tmp_path / "manifest.json"
        report.manifest.to_json(out)
        data = json.loads(out.read_text())
        assert data["backend"] == "auto" or data["backend"] == "batch"
        assert data["solver_batches"][0]["batch_size"] == 6

    def test_point_latency_counts_batched_points(self):
        report = SweepRunner(backend="batch").run(_specs())
        assert report.manifest.point_latency["count"] == 6


class TestConfiguration:
    def test_env_var_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "serial")
        assert effective_config()["backend"] == "serial"
        monkeypatch.delenv("REPRO_SWEEP_BACKEND")
        assert effective_config()["backend"] == "auto"

    def test_configure_backend(self):
        prev = repro.configure(backend="batch")
        try:
            assert effective_config()["backend"] == "batch"
        finally:
            repro.configure(**prev)

    def test_sweep_backend_kwarg(self):
        records = sweep(
            paper_defaults(),
            {"num_threads": [1, 2, 4]},
            measure="U_p",
            backend="batch",
        )
        serial = sweep(
            paper_defaults(),
            {"num_threads": [1, 2, 4]},
            measure="U_p",
            backend="serial",
        )
        assert records == serial

    def test_sweep_rejects_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            sweep(paper_defaults(), {"num_threads": [1, 2]}, backend="nope")
