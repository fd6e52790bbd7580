"""Experiment orchestration: managed sweeps with a content-addressed cache.

The paper's every figure and table is a parameter sweep; this package turns
those sweeps into managed jobs instead of ad-hoc loops:

* :mod:`~repro.runner.spec` -- :class:`JobSpec` canonicalizes a parameter
  point + solver method into a stable content-addressed key, so identical
  points are never solved twice (within a run or across runs);
* :mod:`~repro.runner.store` -- :class:`ResultStore` persists solved points
  (JSONL + index) with hit/miss accounting and automatic invalidation when
  :data:`SOLVER_VERSION` is bumped;
* :mod:`~repro.runner.executor` -- :class:`SweepRunner` executes the misses
  batch first: same-shape points as one batched fixed point in-process,
  the rest serially or on a process pool with per-point timeout, bounded
  retry, and graceful serial fallback when workers die;
* :mod:`~repro.runner.manifest` -- :class:`RunManifest` reports wall clock,
  per-point latency, cache hit rate and failure counts as JSON;
* :mod:`~repro.runner.config` -- process-global defaults wiring the runner
  into :func:`repro.analysis.sweep` and the benchmark harness.

Quick start::

    from repro import paper_defaults
    from repro.runner import JobSpec, SweepRunner

    runner = SweepRunner(jobs=4, cache_dir=".mms-cache")
    specs = [JobSpec(paper_defaults(num_threads=n)) for n in (1, 2, 4, 8)]
    report = runner.run(specs)
    print(report.manifest.summary())

or via the CLI: ``repro-mms sweep --axis num_threads=1,2,4,8 --jobs 4``.
"""

from .config import default_runner, effective_config, shared_store
from .executor import RunReport, SweepRunner, solve_job
from .manifest import RunManifest, latency_stats
from .spec import SOLVER_VERSION, JobSpec, RunResult, canonical_json
from .store import ResultStore, StoreLockError

__all__ = [
    "SOLVER_VERSION",
    "JobSpec",
    "RunResult",
    "canonical_json",
    "ResultStore",
    "StoreLockError",
    "RunManifest",
    "latency_stats",
    "SweepRunner",
    "RunReport",
    "solve_job",
    "default_runner",
    "effective_config",
    "shared_store",
]
