"""The shared-memory group handoff of the process backend.

Large same-shape symmetric groups ride to a pool worker as raw arrays in
``multiprocessing.shared_memory`` segments instead of per-point pickles.
These tests pin the contract of that path: records bitwise-equal to the
in-process batch backend, honest telemetry (``handoff == "shm"`` plus the
``solver.batch`` counters re-emitted in the parent), clean degradation to
the in-parent batch backend when the pool dies mid-group, and the
eligibility gates (custom worker, per-point timeout, group size).
"""

from __future__ import annotations

import pytest

import repro
from repro.params import paper_defaults
from repro.runner import JobSpec, SweepRunner, canonical_json
from repro.runner.executor import solve_job

pytestmark = pytest.mark.usefixtures("_no_leaked_plan")


def _specs(n_threads=(1, 2, 4, 8), p_remotes=(0.1, 0.2, 0.3), k=2):
    return [
        JobSpec(paper_defaults(k=k, num_threads=n, p_remote=p))
        for n in n_threads
        for p in p_remotes
    ]


def _records(report):
    assert report.ok, [r.error for r in report.results if not r.ok]
    return [canonical_json(r) for r in report.records()]


@pytest.fixture
def _no_leaked_plan():
    yield
    from repro import resilience

    assert resilience.get_injector() is None


@pytest.fixture
def fault_plan():
    from repro import resilience

    installed = []

    def _install(plan):
        installed.append(repro.configure(fault_plan=plan))
        return resilience.get_injector()

    yield _install
    for prev in reversed(installed):
        repro.configure(**prev)


class TestShmHandoff:
    def test_records_bitwise_equal_batch_backend(self):
        specs = _specs()
        batch = SweepRunner(backend="batch").run(specs)
        shm = SweepRunner(backend="process", jobs=2, min_shm_points=4).run(specs)
        assert _records(shm) == _records(batch)

    def test_manifest_marks_shm_batches(self):
        report = SweepRunner(backend="process", jobs=2, min_shm_points=4).run(
            _specs()
        )
        assert report.manifest.mode == "parallel"
        assert report.manifest.degradations == []
        shm_batches = [
            b for b in report.manifest.solver_batches if b.get("handoff") == "shm"
        ]
        assert shm_batches
        assert sum(b["batch_size"] for b in shm_batches) == 12
        assert all(b["method"] == "symmetric" for b in shm_batches)

    def test_batch_counters_reemitted_in_parent(self):
        report = SweepRunner(backend="process", jobs=2, min_shm_points=4).run(
            _specs()
        )
        counters = report.manifest.metrics.get("counters", {})
        assert counters.get("solver.batch.calls", 0) >= 1
        assert counters.get("solver.batch.points", 0) >= 12

    def test_mixed_machine_sizes_grouped_separately(self):
        # two (k) shapes cannot share one SoA stack: each forms its own group
        specs = _specs(k=2) + _specs(k=3)
        batch = SweepRunner(backend="batch").run(specs)
        shm = SweepRunner(backend="process", jobs=2, min_shm_points=4).run(specs)
        assert _records(shm) == _records(batch)
        shm_batches = [
            b
            for b in shm.manifest.solver_batches
            if b.get("handoff") == "shm"
        ]
        assert len(shm_batches) == 2


class TestEligibilityGates:
    def test_small_groups_stay_per_point(self):
        report = SweepRunner(
            backend="process", jobs=2, min_shm_points=1024
        ).run(_specs())
        assert report.manifest.mode == "parallel"
        assert not any(
            b.get("handoff") == "shm" for b in report.manifest.solver_batches
        )

    def test_timeout_disables_shm(self):
        report = SweepRunner(
            backend="process", jobs=2, min_shm_points=4, timeout=60.0
        ).run(_specs())
        assert report.ok
        assert not any(
            b.get("handoff") == "shm" for b in report.manifest.solver_batches
        )

    def test_custom_worker_disables_shm(self):
        report = SweepRunner(
            backend="process", jobs=2, min_shm_points=4, worker=_echo_worker
        ).run(_specs())
        assert report.ok
        assert not any(
            b.get("handoff") == "shm" for b in report.manifest.solver_batches
        )

    def test_min_shm_points_validated(self):
        with pytest.raises(ValueError, match="min_shm_points"):
            SweepRunner(min_shm_points=1)


def _echo_worker(payload):
    return solve_job(payload)


class TestShmDegradation:
    def test_pool_death_degrades_group_to_batch(self, fault_plan):
        fault_plan({"seed": 7, "sites": {"worker.crash": {"on_nth": [1]}}})
        specs = _specs()
        report = SweepRunner(backend="process", jobs=2, min_shm_points=4).run(
            specs
        )
        assert report.ok
        degradations = report.manifest.degradations
        assert any(
            d["from_mode"] == "shm" and d["to_mode"] == "batch"
            for d in degradations
        )
        # the degraded group still produced the canonical records
        baseline = SweepRunner(backend="batch").run(specs)
        assert _records(report) == _records(baseline)
