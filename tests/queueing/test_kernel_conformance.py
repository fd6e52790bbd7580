"""Cross-backend conformance: one lattice, one answer.

The repo's numeric contract says the *execution plan* must never leak into
the *data*: any sweep backend (in-process batch, process pool, shared-memory
group handoff, per-point serial) must produce bitwise-identical records for
the same points.  This suite pins that contract on the real Figure-4
lattice (the 11 x 16 = 176-point ``(n_t, p_remote)`` grid of the paper) and
on the Table 2-4 golden payloads, replacing the scattered per-backend
equivalence tests that each checked one pair in isolation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import experiments
from repro.params import paper_defaults
from repro.runner import JobSpec, SweepRunner, canonical_json

GOLDEN_DIR = Path(__file__).parent.parent / "goldens"

#: the Figure-4 lattice: every (n_t, p_remote) point of the paper's surface
THREADS = experiments.DEFAULT_THREADS
P_REMOTES = experiments.DEFAULT_P_REMOTE

#: backend name -> runner factory for one conformance cell
RUNNERS = {
    "auto": lambda: SweepRunner(),
    "batch": lambda: SweepRunner(backend="batch"),
    "serial": lambda: SweepRunner(backend="serial"),
    "process": lambda: SweepRunner(backend="process", jobs=2),
}


def _ids(names) -> list[str]:
    """Cell ids keep the name of the kernel the cells were pinned on."""
    return [f"{name}-numpy" for name in names]


def _lattice_specs() -> list[JobSpec]:
    return [
        JobSpec(paper_defaults(runlength=10.0, num_threads=n, p_remote=p))
        for n in THREADS
        for p in P_REMOTES
    ]


def _canonical_records(report) -> list[str]:
    assert report.ok, [r.error for r in report.results if not r.ok]
    return [canonical_json(r) for r in report.records()]


@pytest.fixture(scope="module")
def reference_records() -> list[str]:
    """The reference column: the in-process batch backend."""
    return _canonical_records(SweepRunner(backend="batch").run(_lattice_specs()))


class TestLatticeMatrix:
    @pytest.mark.parametrize("backend", sorted(RUNNERS), ids=_ids(sorted(RUNNERS)))
    def test_cell_bitwise_matches_reference(self, backend, reference_records):
        report = RUNNERS[backend]().run(_lattice_specs())
        assert _canonical_records(report) == reference_records

    def test_batch_cell_actually_batched(self):
        report = RUNNERS["batch"]().run(_lattice_specs())
        assert report.manifest.mode == "batch"
        assert report.manifest.solver_batches


def _jsonable(obj: object) -> object:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


#: golden table name -> generator (the paper's Tables 2-4)
TABLES = {
    "table2": experiments.table2_network_tolerance,
    "table3": experiments.table3_partitioning_network,
    "table4": experiments.table4_partitioning_memory,
}


class TestTableGoldens:
    """Tables 2-4 must stay bitwise on the committed goldens.

    ``test_goldens.py`` pins the values at 1e-9 relative; here the bar is
    exact equality -- a kernel change that drifts within 1e-9 still breaks
    the cache contract.
    """

    @pytest.mark.parametrize("table", sorted(TABLES), ids=_ids(sorted(TABLES)))
    def test_table_bitwise_matches_golden(self, table):
        data = _jsonable(TABLES[table]().data)
        golden = json.loads((GOLDEN_DIR / f"{table}.json").read_text())
        assert data == golden
