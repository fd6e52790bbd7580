"""CLI observability: `sweep --trace` and the `report` subcommand."""

import json

import pytest

import repro
from repro import obs
from repro.cli import main


@pytest.fixture(autouse=True)
def _tracing_off_after():
    yield
    repro.configure(trace=False)


def _sweep_argv(tmp_path, *extra):
    return [
        "sweep",
        "--k", "2",
        "--axis", "num_threads=1,2,4",
        "--manifest", str(tmp_path / "m.json"),
        *extra,
    ]


class TestSweepTrace:
    def test_trace_written_and_valid(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(_sweep_argv(tmp_path, "--trace", str(trace))) == 0
        out = capsys.readouterr().out
        assert f"[trace written to {trace}]" in out
        summary = obs.validate_trace(trace)
        assert summary.roots == 1
        assert summary.span_names["sweep.run"] == 1
        assert summary.metrics_records == 1  # final metrics snapshot
        first = json.loads(trace.read_text().splitlines()[0])
        assert first == {
            "kind": "meta",
            "schema": "repro-trace/1",
            "solver_version": json.loads((tmp_path / "m.json").read_text())[
                "solver_version"
            ],
        }

    def test_tracing_disabled_after_sweep(self, tmp_path):
        assert main(_sweep_argv(tmp_path, "--trace", str(tmp_path / "t.jsonl"))) == 0
        assert not obs.enabled()

    def test_sweep_without_trace_flag_records_identically(self, capsys, tmp_path):
        """Tracing must not disturb the deterministic records (bitwise)."""
        rec_a = tmp_path / "a.jsonl"
        rec_b = tmp_path / "b.jsonl"
        assert main(_sweep_argv(tmp_path, "--out", str(rec_a))) == 0
        assert (
            main(
                _sweep_argv(
                    tmp_path, "--out", str(rec_b), "--trace", str(tmp_path / "t.jsonl")
                )
            )
            == 0
        )
        assert rec_a.read_bytes() == rec_b.read_bytes()


class TestReportCommand:
    def test_report_from_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(_sweep_argv(tmp_path, "--trace", str(trace))) == 0
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Time attribution" in out
        assert "sweep.run" in out and "Metrics" in out

    def test_report_from_manifest(self, capsys, tmp_path):
        assert main(_sweep_argv(tmp_path)) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "m.json")]) == 0
        out = capsys.readouterr().out
        assert "Sweep stages" in out
        assert "solve" in out

    def test_report_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "nope.json")]) == 1
        assert "report failed" in capsys.readouterr().err

    def test_report_invalid_trace_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "span"}\n')
        assert main(["report", str(bad)]) == 1
        assert "report failed" in capsys.readouterr().err
