"""Crash-safe batch scheduler: fan a manifest across a bounded worker pool.

:func:`run_batch` is the engine behind ``repro batch``.  Each job runs
:func:`~repro.store.cache.analyze_cached` — fingerprint, cache lookup,
pipeline on miss — wrapped in the resilience layer's
:func:`~repro.resilience.retry.call_with_retry`, so a transiently
unreadable trace gets ``max_attempts`` tries with deterministic backoff
while a hard failure is recorded (state ``FAILED``, error preserved)
without sinking the rest of the batch.  On top of that sit the
crash-safety mechanisms:

* **deadlines + watchdog** — with ``deadline_s`` set, every attempt runs
  in a killable worker process (:mod:`repro.service.watchdog`); a hung
  worker is killed, retried, and ultimately recorded as ``TIMEOUT``;
* **write-ahead journal** — every terminal job is fsynced to
  ``<store>/journal.jsonl`` (:mod:`repro.service.journal`), so
  ``resume=True`` skips already-complete jobs after a crash or Ctrl-C;
* **cooperative cancellation** — SIGINT/SIGTERM set a cancel flag:
  in-flight jobs drain, queued jobs become ``CANCELLED``, and a partial
  :class:`BatchReport` (``interrupted`` set) is still returned;
* **circuit breaker** — a job that keeps failing *identically* sheds
  its remaining retries (:mod:`repro.resilience.breaker`);
* **advisory store lock** — two concurrent batches sharing a store fail
  fast (:class:`~repro.store.lock.StoreLock`) instead of interleaving
  journal writes.

Worker-pool semantics: ``n_workers=1`` runs inline (no threads —
exceptions and profiling behave exactly like a loop), ``n_workers>1``
uses a thread pool.  Each worker re-activates the submitting thread's
observability context, so queue depth
(``service.queue_depth`` gauge), per-state job counters
(``service.jobs.done`` / ``.cached`` / ``.failed`` / ``.timeout`` /
``.cancelled`` / ``.resumed``), job latency (``service.job_seconds``
histogram) and the store's hit/miss counters all land in one merged
registry.  (In deadline mode the child process's store counters stay in
the child; the parent-side job-state counters remain authoritative.)

Beyond metrics, the scheduler narrates the batch on the telemetry bus
(:mod:`repro.observability.events`): ``batch_started``, a ``job_queued``
per runnable job, lifecycle events as each job starts and reaches its
terminal state, and ``batch_drained`` with the final counts — feeding
the ``--live`` dashboard and the ``/healthz`` endpoint.  When
``BatchConfig.ledger`` is on and observability is enabled, the finished
batch also appends one fsynced record to the store's telemetry ledger
(:mod:`repro.observability.ledger`) for ``repro perf``.
"""

from __future__ import annotations

import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.pipeline import AnalyzerConfig
from repro.analysis.report import format_table
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    RetryExhaustedError,
)
from repro.observability.context import counter as _metric_counter
from repro.observability.context import current as _current_obs
from repro.observability.context import gauge as _metric_gauge
from repro.observability.context import histogram as _metric_histogram
from repro.observability.context import publish as _publish
from repro.observability.ledger import RunLedger, stage_table
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.diagnostics import Diagnostics
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.service.jobs import JobRecord, JobSpec, JobState
from repro.service.journal import BatchJournal
from repro.service.watchdog import JobOutcome, RemoteJobError, run_job_isolated
from repro.store.artifacts import ResultStore
from repro.store.cache import analyze_cached
from repro.store.fingerprint import fingerprint_config
from repro.store.lock import StoreLock

__all__ = ["BatchConfig", "BatchReport", "run_batch"]

#: Bucket bounds for the job latency histogram (seconds).
_JOB_SECONDS_BOUNDS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0)

#: Journal states a resume may trust (successful terminals).
_RESUMABLE_STATES = (str(JobState.DONE), str(JobState.CACHED))

#: Terminal job state -> bus event kind.
_TERMINAL_EVENTS = {
    JobState.DONE: "job_finished",
    JobState.CACHED: "job_cached",
    JobState.FAILED: "job_failed",
    JobState.TIMEOUT: "job_timeout",
    JobState.CANCELLED: "job_cancelled",
}


def _publish_terminal(record: JobRecord) -> None:
    """Announce a job's terminal state on the telemetry bus."""
    kind = _TERMINAL_EVENTS.get(record.state)
    if kind is None:  # pragma: no cover - only terminal states reach here
        return
    payload: Dict[str, object] = {
        "wall_s": round(record.wall_s, 6),
        "attempts": record.attempts,
    }
    if record.error:
        payload["error"] = record.error
    _publish(kind, label=record.spec.label, **payload)


@dataclass(frozen=True)
class BatchConfig:
    """Scheduler policy for one batch run."""

    n_workers: int = 1
    max_attempts: int = 1
    backoff_base_s: float = 0.0
    salvage: bool = False
    analyzer: AnalyzerConfig = field(default_factory=AnalyzerConfig)
    #: Per-job deadline in seconds; setting it moves each attempt into a
    #: killable worker process watched by :mod:`repro.service.watchdog`.
    deadline_s: Optional[float] = None
    #: Skip jobs the write-ahead journal records as already complete.
    resume: bool = False
    #: Maintain ``<store>/journal.jsonl`` (required for ``resume``).
    journal: bool = True
    #: Hold the store's advisory lock for the duration of the batch.
    lock: bool = True
    #: Consecutive identical failures that open a job's circuit breaker
    #: and shed its remaining retries (0 disables the breaker).
    breaker_threshold: int = 3
    #: Injected faults (chaos tests / TAB benches); ``None`` in production.
    faults: Optional[FaultPlan] = None
    #: Append one telemetry record to ``<store>/telemetry/runs.jsonl``
    #: after the batch (only when observability is enabled).
    ledger: bool = True

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError(
                f"batch config: n_workers must be >= 1, got {self.n_workers}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(
                f"batch config: deadline_s must be > 0, got {self.deadline_s}"
            )
        if self.breaker_threshold < 0:
            raise ConfigurationError(
                f"batch config: breaker_threshold must be >= 0, "
                f"got {self.breaker_threshold}"
            )
        if self.resume and not self.journal:
            raise ConfigurationError(
                "batch config: resume requires the journal to be enabled"
            )

    @property
    def retry_policy(self) -> RetryPolicy:
        """The per-job retry policy this config implies."""
        return RetryPolicy(
            max_attempts=self.max_attempts, backoff_base_s=self.backoff_base_s
        )


@dataclass
class BatchReport:
    """Everything one :func:`run_batch` call did."""

    records: List[JobRecord]
    wall_s: float
    diagnostics: Diagnostics
    #: Why the batch stopped early ("SIGINT", "SIGTERM", ...), or None.
    interrupted: Optional[str] = None

    # ------------------------------------------------------------------
    def _count(self, state: JobState) -> int:
        return sum(1 for r in self.records if r.state == state)

    @property
    def n_jobs(self) -> int:
        """Total jobs scheduled."""
        return len(self.records)

    @property
    def n_done(self) -> int:
        """Jobs that ran the pipeline to completion."""
        return self._count(JobState.DONE)

    @property
    def n_cached(self) -> int:
        """Jobs satisfied from the store without running the pipeline."""
        return self._count(JobState.CACHED)

    @property
    def n_failed(self) -> int:
        """Jobs that exhausted their attempts."""
        return self._count(JobState.FAILED)

    @property
    def n_timeout(self) -> int:
        """Jobs killed by the watchdog on every attempt."""
        return self._count(JobState.TIMEOUT)

    @property
    def n_cancelled(self) -> int:
        """Jobs never started because the batch was interrupted."""
        return self._count(JobState.CANCELLED)

    @property
    def n_resumed(self) -> int:
        """Jobs satisfied from the write-ahead journal on resume."""
        return sum(1 for r in self.records if r.resumed)

    @property
    def ok(self) -> bool:
        """Whether every job produced a stored result."""
        return self.n_failed == 0 and self.n_timeout == 0 and self.n_cancelled == 0

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of successful jobs served from the store."""
        successes = self.n_done + self.n_cached
        return self.n_cached / successes if successes else 0.0

    def state_counts(self) -> Dict[str, int]:
        """``{state: count}`` over every record (zero states omitted)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            key = str(record.state)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable report for ``repro batch --json``."""
        return {
            "n_jobs": self.n_jobs,
            "states": self.state_counts(),
            "n_resumed": self.n_resumed,
            "cache_hit_ratio": round(self.cache_hit_ratio, 4),
            "wall_s": round(self.wall_s, 6),
            "ok": self.ok,
            "interrupted": self.interrupted,
            "jobs": [
                {
                    "trace": record.spec.trace_path,
                    "label": record.spec.label,
                    "state": str(record.state),
                    "attempts": record.attempts,
                    "wall_s": round(record.wall_s, 6),
                    "fingerprint": record.fingerprint,
                    "n_clusters": record.n_clusters,
                    "n_phases": record.n_phases,
                    "worst_diagnostic": record.worst_diagnostic,
                    "resumed": record.resumed,
                    "error": record.error,
                }
                for record in self.records
            ],
        }

    # ------------------------------------------------------------------
    def render_status(self) -> str:
        """Human-readable per-job table plus a summary line."""
        rows = []
        for record in self.records:
            rows.append(
                [
                    record.spec.label,
                    str(record.state),
                    str(record.attempts),
                    f"{record.wall_s:.3f}",
                    record.short_fingerprint,
                    str(record.n_clusters),
                    str(record.n_phases),
                    record.note,
                ]
            )
        table = format_table(
            ["trace", "state", "tries", "wall_s", "fingerprint", "clusters",
             "phases", "note"],
            rows,
        )
        extra = ""
        if self.n_timeout:
            extra += f", {self.n_timeout} timeout"
        if self.n_cancelled:
            extra += f", {self.n_cancelled} cancelled"
        summary = (
            f"{self.n_jobs} job(s): {self.n_done} analyzed, "
            f"{self.n_cached} cached, {self.n_failed} failed{extra} "
            f"(hit ratio {self.cache_hit_ratio:.0%}) in {self.wall_s:.3f}s"
        )
        lines = [table, summary]
        if self.interrupted:
            lines.append(
                f"batch interrupted by {self.interrupted}: in-flight jobs "
                f"drained, {self.n_cancelled} queued job(s) cancelled "
                f"(re-run with --resume to finish)"
            )
        return "\n".join(lines)


class _CancelSignal:
    """Sticky batch-wide cancellation flag (set by signals or faults)."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: Optional[str] = None

    def trip(self, reason: str) -> None:
        if not self._event.is_set():
            self.reason = reason
        self._event.set()

    @property
    def tripped(self) -> bool:
        return self._event.is_set()


def _install_signal_handlers(cancel: _CancelSignal) -> Dict[int, object]:
    """Route SIGINT/SIGTERM into ``cancel`` (main thread only)."""
    if threading.current_thread() is not threading.main_thread():
        return {}
    previous: Dict[int, object] = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        def handler(signum, _frame, _cancel=cancel):
            _cancel.trip(signal.Signals(signum).name)

        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover - exotic embeddings
            pass
    return previous


def _restore_signal_handlers(previous: Dict[int, object]) -> None:
    for sig, handler in previous.items():
        try:
            signal.signal(sig, handler)  # type: ignore[arg-type]
        except (ValueError, OSError):  # pragma: no cover
            pass


def _format_error(exc: BaseException) -> str:
    """One-line error string for job records (worker-side strings pass
    through verbatim, local exceptions get their type prefixed)."""
    if isinstance(exc, RemoteJobError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def _root_cause(exc: BaseException) -> BaseException:
    """The original failure under retry/breaker wrappers."""
    seen = set()
    while (
        isinstance(exc, RetryExhaustedError)
        and exc.__cause__ is not None
        and id(exc.__cause__) not in seen
    ):
        seen.add(id(exc))
        exc = exc.__cause__
    return exc


def _inline_outcome(trace_path: str, store, cfg: BatchConfig,
                    diagnostics: Diagnostics) -> JobOutcome:
    """Run one attempt in-process (no deadline) and summarize it."""
    cached = analyze_cached(
        trace_path,
        store,
        config=cfg.analyzer,
        salvage=cfg.salvage,
        diagnostics=diagnostics,
    )
    worst = cached.result.diagnostics.worst
    return JobOutcome(
        fingerprint=cached.fingerprint,
        cache_hit=cached.cache_hit,
        n_clusters=cached.result.n_clusters_analyzed,
        n_phases=sum(c.n_phases for c in cached.result.clusters),
        worst_diagnostic=None if worst is None else str(worst),
    )


def _run_job(
    record: JobRecord,
    store: ResultStore,
    config: BatchConfig,
    diagnostics: Diagnostics,
    breaker: Optional[CircuitBreaker],
    lock: threading.Lock,
    pending: List[int],
    finish: Callable[[JobRecord], None],
) -> None:
    """Execute one job in place, updating ``record`` and the metrics."""
    record.state = JobState.RUNNING
    start = time.perf_counter()
    label = record.spec.label
    _publish("job_started", label=label)
    hang_s = config.faults.hang_s(label) if config.faults else None

    def attempt() -> JobOutcome:
        record.attempts += 1
        if config.deadline_s is not None:
            return run_job_isolated(
                record.spec,
                store.root,
                config.analyzer,
                config.salvage,
                config.deadline_s,
                hang_s=hang_s,
            )
        return _inline_outcome(record.spec.trace_path, store, config, diagnostics)

    try:
        outcome = call_with_retry(
            attempt,
            config.retry_policy,
            diagnostics=diagnostics,
            label=f"analyze {label}",
            breaker=breaker,
            breaker_key=record.spec.trace_path,
        )
    except Exception as exc:  # noqa: BLE001 — a job must not sink the batch
        cause = _root_cause(exc)
        if isinstance(cause, DeadlineExceededError):
            record.state = JobState.TIMEOUT
            record.error = str(cause)
            with lock:
                diagnostics.error(
                    "service",
                    f"job {label} timed out after {record.attempts} attempt(s); "
                    f"worker killed by the watchdog",
                    deadline_s=config.deadline_s,
                    attempts=record.attempts,
                )
            _metric_counter("service.jobs.timeout").inc()
        else:
            record.state = JobState.FAILED
            record.error = _format_error(cause)
            with lock:
                diagnostics.error(
                    "service",
                    f"job {label} failed after {record.attempts} attempt(s)",
                    error=record.error,
                )
            _metric_counter("service.jobs.failed").inc()
    else:
        record.state = JobState.CACHED if outcome.cache_hit else JobState.DONE
        record.fingerprint = outcome.fingerprint
        record.n_clusters = outcome.n_clusters
        record.n_phases = outcome.n_phases
        record.worst_diagnostic = outcome.worst_diagnostic
        _metric_counter(
            "service.jobs.cached" if outcome.cache_hit else "service.jobs.done"
        ).inc()
    finally:
        record.wall_s = time.perf_counter() - start
        _metric_histogram(
            "service.job_seconds", bounds=_JOB_SECONDS_BOUNDS
        ).observe(record.wall_s)
        with lock:
            pending[0] -= 1
            _metric_gauge("service.queue_depth").set(pending[0])
        _publish_terminal(record)
        finish(record)


def run_batch(
    specs: Sequence[JobSpec],
    store: ResultStore,
    config: Optional[BatchConfig] = None,
) -> BatchReport:
    """Analyze every spec through ``store``; never raises for job failures.

    Returns a :class:`BatchReport` whose records preserve the input order
    regardless of completion order.  Check :attr:`BatchReport.ok` (the
    CLI turns it into the exit status) and :attr:`BatchReport.interrupted`
    for a SIGINT/SIGTERM drain.  The only exceptions that escape are
    configuration problems and :class:`~repro.errors.StoreLockError` when
    another batch holds the store.
    """
    cfg = config or BatchConfig()
    if not specs:
        raise ConfigurationError("batch: no jobs to run")
    records = [JobRecord(spec=spec) for spec in specs]
    diagnostics = Diagnostics()
    lock = threading.Lock()
    breaker = (
        CircuitBreaker(cfg.breaker_threshold) if cfg.breaker_threshold else None
    )
    store_lock = StoreLock(store.root) if cfg.lock else None
    if store_lock is not None:
        store_lock.acquire()
    journal = BatchJournal(store.root) if cfg.journal else None
    cancel = _CancelSignal()
    terminal_count = [0]

    def finish(record: JobRecord) -> None:
        """Shared terminal-state bookkeeping (journal, injected SIGINT)."""
        with lock:
            if journal is not None:
                journal.record_job(record)
            terminal_count[0] += 1
            n_terminal = terminal_count[0]
        if (
            cfg.faults is not None
            and cfg.faults.sigint_after is not None
            and n_terminal >= cfg.faults.sigint_after
        ):
            cancel.trip("SIGINT (injected)")

    def cancel_record(record: JobRecord) -> None:
        record.state = JobState.CANCELLED
        record.error = f"cancelled before start ({cancel.reason})"
        _metric_counter("service.jobs.cancelled").inc()
        with lock:
            pending[0] -= 1
            _metric_gauge("service.queue_depth").set(pending[0])
        _publish_terminal(record)
        finish(record)

    previous_handlers = _install_signal_handlers(cancel)
    start = time.perf_counter()
    try:
        # ------------------------------------------------------------------
        # resume: trust the journal for jobs that already completed
        # ------------------------------------------------------------------
        n_resumed = 0
        if cfg.resume and journal is not None:
            previous = journal.load_last_entries()
            for record in records:
                entry = previous.get(record.spec.trace_path)
                if (
                    entry
                    and entry.get("state") in _RESUMABLE_STATES
                    and isinstance(entry.get("fingerprint"), str)
                    and store.has(entry["fingerprint"])
                ):
                    record.state = JobState.CACHED
                    record.resumed = True
                    record.fingerprint = entry["fingerprint"]
                    record.n_clusters = int(entry.get("n_clusters") or 0)
                    record.n_phases = int(entry.get("n_phases") or 0)
                    record.worst_diagnostic = entry.get("worst_diagnostic")
                    n_resumed += 1
                    _metric_counter("service.jobs.resumed").inc()
            if n_resumed:
                diagnostics.info(
                    "service",
                    f"resume: journal satisfied {n_resumed} of "
                    f"{len(records)} job(s)",
                    resumed=n_resumed,
                )
        if journal is not None:
            journal.record_start(len(records), resumed=n_resumed)

        runnable = [r for r in records if not r.state.terminal]
        pending = [len(runnable)]
        _metric_gauge("service.queue_depth").set(pending[0])
        _publish(
            "batch_started",
            n_jobs=len(records),
            n_runnable=len(runnable),
            resumed=n_resumed,
            n_workers=cfg.n_workers,
        )
        for record in records:
            if record.resumed:
                _publish(
                    "job_cached", label=record.spec.label, resumed=True,
                    wall_s=0.0, attempts=0,
                )
        for record in runnable:
            _publish("job_queued", label=record.spec.label)

        # ------------------------------------------------------------------
        # dispatch
        # ------------------------------------------------------------------
        if cfg.n_workers == 1 or len(runnable) <= 1:
            for record in runnable:
                if cancel.tripped:
                    cancel_record(record)
                    continue
                _run_job(record, store, cfg, diagnostics, breaker, lock,
                         pending, finish)
        else:
            # Worker threads start with a fresh contextvars context where
            # the observability ContextVar is DISABLED; re-activate the
            # caller's.
            obs = _current_obs()

            def worker(record: JobRecord) -> None:
                with obs.activate():
                    if cancel.tripped:
                        cancel_record(record)
                        return
                    _run_job(record, store, cfg, diagnostics, breaker, lock,
                             pending, finish)

            n_workers = min(cfg.n_workers, len(runnable))
            with ThreadPoolExecutor(
                max_workers=n_workers, thread_name_prefix="repro-batch"
            ) as pool:
                for future in [pool.submit(worker, r) for r in runnable]:
                    future.result()
    finally:
        _restore_signal_handlers(previous_handlers)
        if journal is not None:
            journal.close()
        if store_lock is not None:
            store_lock.release()
    wall_s = time.perf_counter() - start
    report = BatchReport(
        records=records,
        wall_s=wall_s,
        diagnostics=diagnostics,
        interrupted=cancel.reason if cancel.tripped else None,
    )
    _publish(
        "batch_drained",
        n_jobs=report.n_jobs,
        done=report.n_done,
        cached=report.n_cached,
        failed=report.n_failed,
        timeout=report.n_timeout,
        cancelled=report.n_cancelled,
        wall_s=round(wall_s, 6),
        interrupted=report.interrupted,
    )
    if cfg.ledger:
        _append_ledger_record(report, store, cfg)
    return report


def _append_ledger_record(
    report: BatchReport, store: ResultStore, cfg: BatchConfig
) -> None:
    """Record this batch in the store's telemetry ledger (best effort).

    Skipped silently when observability is disabled — there is no span
    tree or metrics snapshot worth persisting, and the no-op fast path
    must stay free.  An unwritable ledger degrades to a diagnostics
    warning; it never fails the batch it describes.
    """
    obs = _current_obs()
    if not obs.enabled:
        return
    try:
        ledger = RunLedger(store.root)
        ledger.append(
            ledger.build_record(
                kind="batch",
                wall_s=report.wall_s,
                stages=stage_table(obs.profile()),
                metrics=dict(obs.metrics.snapshot()),
                config_fingerprint=fingerprint_config(
                    cfg.analyzer, salvage=cfg.salvage
                ),
                n_jobs=report.n_jobs,
                states=report.state_counts(),
                cache_hit_ratio=round(report.cache_hit_ratio, 4),
                interrupted=report.interrupted,
            )
        )
    except OSError as exc:
        report.diagnostics.warning(
            "service",
            "telemetry ledger write failed; run not recorded",
            error=str(exc),
            path=RunLedger(store.root).path,
        )
