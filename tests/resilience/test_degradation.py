"""The explicit degradation chain and its manifest/metrics telemetry."""

from __future__ import annotations

import pytest

from repro.obs import registry
from repro.params import paper_defaults
from repro.resilience.degrade import DEGRADATION_CHAIN, DegradationPolicy
from repro.runner import JobSpec, SweepRunner


def _specs(n=6):
    return [
        JobSpec(params=paper_defaults(num_threads=t), method="auto")
        for t in range(1, n + 1)
    ]


class TestPolicy:
    def test_chain_order(self):
        assert DEGRADATION_CHAIN == ("batch", "process", "serial")

    def test_records_structured_entries(self):
        policy = DegradationPolicy()
        policy.degrade("batch", "serial", "kernel raised", 5)
        policy.degrade("process", "serial", "pool died", 2)
        assert policy.to_list() == [
            {
                "from_mode": "batch",
                "to_mode": "serial",
                "reason": "kernel raised",
                "points": 5,
            },
            {
                "from_mode": "process",
                "to_mode": "serial",
                "reason": "pool died",
                "points": 2,
            },
        ]

    def test_upward_transition_rejected(self):
        with pytest.raises(ValueError, match="down the chain"):
            DegradationPolicy().degrade("serial", "batch", "nope", 1)

    def test_self_transition_rejected(self):
        with pytest.raises(ValueError, match="down the chain"):
            DegradationPolicy().degrade("batch", "batch", "nope", 1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown degradation"):
            DegradationPolicy().degrade("gpu", "serial", "nope", 1)

    def test_counter_emitted(self):
        before = registry().counter("degrade.batch_to_serial").value
        DegradationPolicy().degrade("batch", "serial", "x", 1)
        assert registry().counter("degrade.batch_to_serial").value == before + 1


class TestRunnerDegradations:
    def test_clean_run_has_no_degradations(self):
        report = SweepRunner(backend="batch").run(_specs())
        assert report.ok
        assert report.manifest.degradations == []

    def test_batch_kernel_raise_degrades_to_serial(self, fault_plan):
        golden = SweepRunner(backend="serial").run(_specs()).records()
        fault_plan({"sites": {"solve.raise": {"on_nth": [1]}}})
        report = SweepRunner(backend="batch").run(_specs())
        assert report.ok
        assert report.records() == golden  # degraded run stays correct
        (entry,) = report.manifest.degradations
        assert entry["from_mode"] == "batch" and entry["to_mode"] == "serial"
        assert "InjectedFault" in entry["reason"]
        assert entry["points"] == len(_specs())
        assert report.manifest.mode == "serial"

    def test_pooled_batch_group_degrades_to_process(self, fault_plan):
        golden = SweepRunner(backend="serial").run(_specs()).records()
        fault_plan({"sites": {"solve.raise": {"on_nth": [1]}}})
        report = SweepRunner(jobs=2, min_parallel_points=1).run(_specs())
        assert report.ok
        assert report.records() == golden
        (entry,) = report.manifest.degradations
        assert entry["from_mode"] == "batch" and entry["to_mode"] == "process"
        assert entry["points"] == len(_specs())
        assert report.manifest.mode == "parallel"

    def test_batch_nan_poison_degrades_and_recovers(self, fault_plan):
        golden = SweepRunner(backend="serial").run(_specs()).records()
        fault_plan({"sites": {"solve.nan": {"on_nth": [1], "index": 2}}})
        report = SweepRunner(backend="batch").run(_specs())
        assert report.ok
        assert report.records() == golden
        (entry,) = report.manifest.degradations
        assert entry["reason"] == "non-finite measures in batched solve"
        # the metrics delta shows the fault actually fired
        assert report.manifest.metrics["counters"]["fault.solve.nan.fired"] >= 1

    def test_serial_nan_poison_burns_a_retry_then_recovers(self, fault_plan):
        golden = SweepRunner(backend="serial").run(_specs(3)).records()
        fault_plan({"sites": {"solve.nan": {"on_nth": [1]}}})
        report = SweepRunner(backend="serial", retries=1).run(_specs(3))
        assert report.ok
        assert report.records() == golden
        assert report.manifest.retries >= 1

    def test_nan_never_reaches_a_store(self, fault_plan, tmp_path):
        fault_plan({"sites": {"solve.nan": {"p": 1.0}}})
        report = SweepRunner(
            backend="serial", retries=0, cache_dir=str(tmp_path)
        ).run(_specs(2))
        assert not report.ok
        assert all(
            "non-finite" in r.error for r in report.results if not r.ok
        )
        # nothing poisoned was persisted
        from repro.runner.store import ResultStore

        assert len(ResultStore(tmp_path)) == 0
