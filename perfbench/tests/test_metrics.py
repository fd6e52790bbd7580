import json
from pathlib import Path

import pytest

import workloads
from metrics import (
    END_TO_END,
    PER_LAYER,
    failed_frac,
    failures_verdict,
    percentile,
    tail,
    verdict,
)
from workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.mark.parametrize(
    "n, pct",
    [(10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
     (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None), (1, None)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, pct):
    got_pct, value, got_n = tail([float(i) for i in range(n)])
    assert got_n == n
    assert got_pct == pct
    if pct is not None:
        assert value == pytest.approx((n - 1) * pct / 100)
        assert sum(1 for i in range(n) if i > value) >= 10
    else:
        assert value is None


def test_percentile_interpolates_like_numpy():
    assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_failed_frac():
    assert failed_frac(8, 2) == 0.25
    with pytest.raises(ValueError):
        failed_frac(0, 0)


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_verdict_better_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread():
    faster = [v - 5 for v in PARENT]
    assert verdict(PARENT, faster, "lower", 0.1) == "better"
    # wins every pair, but by less than the parent's own quartile spread
    barely = [v - 0.01 for v in PARENT]
    assert verdict(PARENT, barely, "lower", 0.1) == "unchanged"


def test_verdict_worse_beyond_the_bound_only():
    assert verdict(PARENT, [v * 1.05 for v in PARENT], "lower", 0.1) == "unchanged"
    assert verdict(PARENT, [v * 1.2 for v in PARENT], "lower", 0.1) == "worse"
    assert verdict(PARENT, [v * 0.8 for v in PARENT], "higher", 0.1) == "worse"


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
    mixed = [v * 1.02 for v in noisy]
    assert verdict(noisy, mixed, "lower", 0.1) == "unresolved"
    assert verdict(noisy, [10.0] * 10, "lower", 0.1) == "better"


def test_any_rise_in_failures_is_worse():
    clean = [0.0] * 10
    assert failures_verdict(clean, clean) == "unchanged"
    # one failing change run where the parent never failed
    assert failures_verdict(clean, [0.0] * 9 + [0.001]) == "worse"
    # a higher median
    some = [0.01, 0.0, 0.02, 0.01, 0.0, 0.01, 0.02, 0.0, 0.01, 0.01]
    assert failures_verdict(some, [v + 0.01 for v in some]) == "worse"
    assert failures_verdict(some, clean) != "worse"


def test_a_setup_sample_pairs_the_launch_with_the_bare_starts_around_it(monkeypatch):
    bare = iter([0.2, 0.4])
    monkeypatch.setattr(workloads, "time_to_ready", lambda code, ctx: next(bare))

    class Launch(workloads.SolvePoint):
        def launch(self):
            return 0.6

    sample = workloads.setup_sample(Launch(workloads.Context(Path("."), {}, seed=1)))
    assert sample == pytest.approx((0.6, 0.3))


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == {
        m.name: (m.unit, m.better, m.bound) for m in END_TO_END.values()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        m.name: (m.unit, m.better) for m in PER_LAYER.values()
    }
    assert max(m.bound for m in END_TO_END.values()) == END_TO_END["setup_s"].bound
