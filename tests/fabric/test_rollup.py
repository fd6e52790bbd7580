"""Fleet observability rollup: shipped telemetry, fleet view, timeline.

The anchor fixture is a real 3-worker fabric sweep with worker tracing
on -- the PR's acceptance scenario -- so every assertion here runs
against telemetry actual subprocess workers shipped, not synthetic rows.
"""

from __future__ import annotations

import json

import pytest

from repro.fabric import ExperimentDB, FabricScheduler
from repro.fabric.rollup import (
    append_worker_snapshot,
    fleet_rollup,
    merge_traces,
    obs_dir,
    read_worker_snapshots,
    sweep_timeline,
    worker_metrics_path,
    worker_trace_path,
)
from repro.obs import registry
from repro.params import paper_defaults
from repro.runner import JobSpec


def _specs() -> list[JobSpec]:
    return [
        JobSpec(params=paper_defaults(num_threads=nt, p_remote=pr))
        for nt in (2, 4, 6)
        for pr in (0.2, 0.4)
    ]


@pytest.fixture(scope="module")
def fleet_run(tmp_path_factory):
    """One 3-worker traced fabric sweep; returns (fabric_dir, manifest)."""
    fabric_dir = tmp_path_factory.mktemp("fabric")
    with FabricScheduler(
        fabric_dir, poll_s=0.05, trace_workers=True
    ) as scheduler:
        report = scheduler.run(_specs(), workers=3, timeout=180)
    assert report.ok
    return fabric_dir, report.manifest


class TestShippedTelemetry:
    def test_each_worker_ships_metrics_jsonl(self, fleet_run):
        fabric_dir, manifest = fleet_run
        files = sorted(obs_dir(fabric_dir).glob("metrics-*.jsonl"))
        assert len(files) == 3  # one per worker, single writer each
        snapshots = read_worker_snapshots(fabric_dir)
        assert len(snapshots) == 3
        for wid, lines in snapshots.items():
            assert lines, wid
            # every line carries the tally plus a registry snapshot
            for rec in lines:
                assert rec["worker_id"] == wid
                assert "counters" in rec["metrics"]

    def test_each_worker_ships_a_trace(self, fleet_run):
        fabric_dir, _ = fleet_run
        traces = sorted(obs_dir(fabric_dir).glob("trace-*.jsonl"))
        assert len(traces) == 3
        for path in traces:
            first = json.loads(path.read_text().splitlines()[0])
            assert first["kind"] == "meta"

    def test_merge_traces_keeps_one_meta(self, fleet_run, tmp_path):
        fabric_dir, _ = fleet_run
        out = tmp_path / "merged.jsonl"
        events = merge_traces(fabric_dir, out_path=out)
        metas = [e for e in events if e.get("kind") == "meta"]
        assert len(metas) == 1
        spans = [e for e in events if e.get("kind") == "span"]
        assert spans  # workers traced their solves
        assert len(out.read_text().splitlines()) == len(events)

    def test_snapshot_paths_are_sanitized(self, tmp_path):
        p = worker_metrics_path(tmp_path, "host:1234/evil")
        assert p.name == "metrics-host_1234_evil.jsonl"
        assert worker_trace_path(tmp_path, 2).name == "trace-w2.jsonl"

    def test_append_skips_malformed_tail(self, tmp_path):
        append_worker_snapshot(tmp_path, "w1", {"leases": 1}, now=5.0)
        path = worker_metrics_path(tmp_path, "w1")
        with open(path, "a") as fh:
            fh.write('{"truncated": ')  # SIGKILL mid-write
        snaps = read_worker_snapshots(tmp_path)
        assert [s["t"] for s in snaps["w1"]] == [5.0]

    def test_ship_failure_counts_but_never_raises(self, tmp_path):
        (tmp_path / "obs").write_text("not a directory")
        before = registry().counter("fabric.obs.ship_errors").value
        append_worker_snapshot(tmp_path, "w1", {})  # must not raise
        assert registry().counter("fabric.obs.ship_errors").value == before + 1


class TestFleetRollup:
    def test_manifest_carries_fleet_block(self, fleet_run):
        _, manifest = fleet_run
        fleet = manifest.fabric["fleet"]
        assert set(fleet["workers"])  # one entry per registered worker
        assert len(fleet["workers"]) == 3
        assert fleet["trace_files"] == [
            "trace-w0.jsonl", "trace-w1.jsonl", "trace-w2.jsonl",
        ]

    def test_per_worker_view(self, fleet_run):
        _, manifest = fleet_run
        workers = manifest.fabric["fleet"]["workers"]
        done = sum(w["trials_done"] for w in workers.values())
        assert done == 6  # every point solved exactly once across the fleet
        for w in workers.values():
            assert w["trials_failed"] == 0
            assert w["busy_s"] >= 0.0
            assert w["heartbeat_gap_s"] >= 0.0
            if w["trials_done"]:
                assert w["throughput_per_s"] > 0.0

    def test_lease_latency_summary(self, fleet_run):
        _, manifest = fleet_run
        lat = manifest.fabric["fleet"]["lease_latency_s"]
        assert lat["count"] >= 1
        assert 0.0 <= lat["p50"] <= lat["max"]
        assert manifest.fabric["fleet"]["leases_expired"] == 0

    def test_shipped_digest_filters_counter_namespaces(self, fleet_run):
        _, manifest = fleet_run
        shipped = manifest.fabric["fleet"]["shipped_metrics"]
        assert len(shipped) == 3
        for digest in shipped.values():
            assert digest["snapshots"] >= 1
            for name in digest["counters"]:
                assert name.split(".")[0] in {
                    "solver", "store", "fabric", "sweep",
                }

    def test_manifest_provenance_fields(self, fleet_run):
        _, manifest = fleet_run
        assert manifest.mode == "fabric"
        assert manifest.kernel == "numpy"
        assert manifest.created_at > 0.0

    def test_rollup_direct_from_db(self, fleet_run):
        fabric_dir, manifest = fleet_run
        with ExperimentDB(fabric_dir) as db:
            fleet = fleet_rollup(
                db, manifest.fabric["experiment_id"], fabric_dir=fabric_dir
            )
        assert fleet["workers"] == manifest.fabric["fleet"]["workers"]


class TestSweepTimeline:
    def test_every_solved_trial_becomes_a_bar(self, fleet_run):
        fabric_dir, manifest = fleet_run
        with ExperimentDB(fabric_dir) as db:
            tl = sweep_timeline(db, manifest.fabric["experiment_id"])
        bars = [b for bars in tl["lanes"].values() for b in bars]
        assert len(bars) == 6
        assert tl["t0"] is not None and tl["t1"] >= tl["t0"]
        for b in bars:
            assert tl["t0"] <= b["start"] <= b["end"] <= tl["t1"]
            assert b["status"] == "done"

    def test_lanes_are_per_worker_and_sorted(self, fleet_run):
        fabric_dir, manifest = fleet_run
        with ExperimentDB(fabric_dir) as db:
            tl = sweep_timeline(db, manifest.fabric["experiment_id"])
        workers = set(manifest.fabric["fleet"]["workers"])
        assert set(tl["lanes"]) <= workers | {"(cache)"}
        for bars in tl["lanes"].values():
            starts = [b["start"] for b in bars]
            assert starts == sorted(starts)

    def test_empty_experiment_timeline(self, tmp_path):
        with FabricScheduler(tmp_path, poll_s=0.05) as scheduler:
            eid, _ = scheduler.submit(_specs())
            with ExperimentDB(tmp_path) as db:
                tl = sweep_timeline(db, eid)
        assert tl == {"t0": None, "t1": None, "lanes": {}}
