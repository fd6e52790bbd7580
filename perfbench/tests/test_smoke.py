"""Short runs of every workload: each named metric comes out with its unit."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import END_TO_END, FAILED_FRAC, PATH_METRICS, PER_LAYER
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(workload, trace, tmp_path):
    out = tmp_path / "runs.jsonl"
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
               "--trace", str(trace), "--out", str(out))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m.name: m.unit for m in wanted.values()
    }
    record = json.loads(out.read_text())
    named = dict(wanted)
    if not trace:
        named.update(PATH_METRICS[workload])
        named[FAILED_FRAC.name] = FAILED_FRAC
    assert {k: v["unit"] for k, v in record["metrics"].items()} == {
        m.name: m.unit for m in named.values()
    }
    for name in named:
        assert f" {name} " in proc.stdout
    assert record["env"]["kernel"] in ("numpy", "numba")
    if trace:
        assert result["metrics"]["trace.tiling_gap"]["value"] <= 0.05


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path, "--workload", "solve_point", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
