"""Batch analysis service on top of :mod:`repro.store`.

The store makes analysis results durable and addressable; this package
makes *running* analyses at fleet scale routine — and crash-safe:

* :mod:`repro.service.manifest` — expand a directory or manifest file
  into :class:`~repro.service.jobs.JobSpec` entries;
* :mod:`repro.service.scheduler` — :func:`run_batch`, a bounded worker
  pool with per-job retry/backoff and circuit breaking (via
  :mod:`repro.resilience`), per-job states
  (queued/running/done/cached/failed/timeout/cancelled), cooperative
  SIGINT/SIGTERM draining, and merged observability metrics (queue
  depth, cache hit ratio, latency);
* :mod:`repro.service.watchdog` — :func:`run_job_isolated`, deadline
  enforcement by running an attempt in a killable worker process;
* :mod:`repro.service.journal` — :class:`BatchJournal`, the write-ahead
  journal that makes ``repro batch --resume`` skip completed jobs;
* :mod:`repro.service.query` — cross-run queries over stored results:
  :func:`diff_results` flags per-phase rate and duration regressions
  between two analyses;
* :mod:`repro.service.dashboard` — :class:`LiveDashboard`, the in-place
  TTY status block behind ``repro batch --live``, driven by the
  telemetry bus;
* :mod:`repro.service.perf` — :func:`check_history`, self-regression
  checks that fit the paper's PWLR model to the telemetry ledger's
  per-stage duration series (``repro perf history`` / ``check``).

CLI surface: ``repro batch``, ``repro query``, ``repro diff``,
``repro store fsck``, ``repro perf``.
"""

from repro.service.dashboard import LiveDashboard
from repro.service.jobs import JobRecord, JobSpec, JobState
from repro.service.journal import JOURNAL_NAME, BatchJournal
from repro.service.manifest import TRACE_SUFFIX, load_manifest
from repro.service.perf import (
    PerfReport,
    StageVerdict,
    check_history,
    fit_duration_series,
    stage_series,
)
from repro.service.query import DiffReport, PhaseDelta, diff_results, diff_stored
from repro.service.scheduler import BatchConfig, BatchReport, run_batch
from repro.service.watchdog import JobOutcome, RemoteJobError, run_job_isolated

__all__ = [
    "JobState",
    "JobSpec",
    "JobRecord",
    "JOURNAL_NAME",
    "BatchJournal",
    "TRACE_SUFFIX",
    "load_manifest",
    "BatchConfig",
    "BatchReport",
    "run_batch",
    "JobOutcome",
    "RemoteJobError",
    "run_job_isolated",
    "DiffReport",
    "PhaseDelta",
    "diff_results",
    "diff_stored",
    "LiveDashboard",
    "PerfReport",
    "StageVerdict",
    "check_history",
    "fit_duration_series",
    "stage_series",
]
