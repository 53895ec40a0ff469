"""Deadline enforcement: run a job in a killable worker process.

Threads cannot be preempted in Python, so a job that *hangs* — an NFS
stall inside ``read()``, a livelocked native kernel, a fault-injected
``hang_worker`` — would wedge a thread-pool batch forever.  When a batch
has a deadline, each attempt therefore runs in its own worker
**process** (its own process group, so anything the attempt spawns
dies with it), and the submitting thread doubles as the watchdog: it
polls the result pipe, and on deadline expiry kills the whole group
(SIGTERM, short grace, SIGKILL) and raises
:class:`~repro.errors.DeadlineExceededError` — which the scheduler's
retry policy may retry before recording the job as ``TIMEOUT``.

The worker sends back only the small :class:`JobOutcome` summary the
:class:`~repro.service.jobs.JobRecord` needs; the analysis result itself
travels through the content-addressed store, exactly as in inline mode.

While it waits, the watchdog doubles as the job's pulse: every ~0.5s it
publishes a ``watchdog_heartbeat`` event (elapsed vs deadline) on the
telemetry bus, which the ``--live`` dashboard renders as a countdown on
the slowest running jobs.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.analysis.pipeline import AnalyzerConfig
from repro.errors import AnalysisError, DeadlineExceededError
from repro.observability.context import counter as _metric_counter
from repro.observability.context import publish as _publish
from repro.service.jobs import JobSpec

__all__ = ["JobOutcome", "RemoteJobError", "run_job_isolated"]

#: How often the watchdog polls the worker's pipe (seconds).
_POLL_S = 0.02

#: How often the watchdog publishes a heartbeat for a live job (seconds).
_HEARTBEAT_S = 0.5

#: Grace between SIGTERM and SIGKILL when a deadline fires (seconds).
_KILL_GRACE_S = 0.25


@dataclass(frozen=True)
class JobOutcome:
    """What one successful job attempt reports back to the scheduler."""

    fingerprint: str
    cache_hit: bool
    n_clusters: int
    n_phases: int
    worst_diagnostic: Optional[str]


class RemoteJobError(AnalysisError):
    """The worker process failed; the message carries the worker-side
    ``ExceptionType: message`` string verbatim."""


def _isolated_worker(
    conn,
    trace_path: str,
    store_root: str,
    config: AnalyzerConfig,
    salvage: bool,
    hang_s: Optional[float],
) -> None:
    """Worker-process entry point: analyze one trace through the store."""
    # Local import: the worker only pays for the cache/pipeline machinery
    # it actually runs, and the module import cycle stays trivial.
    from repro.store.artifacts import ResultStore
    from repro.store.cache import analyze_cached

    try:
        # Own process group, so the watchdog's killpg reaps anything
        # this analysis spawns along with us.
        os.setpgid(0, 0)
    except OSError:  # pragma: no cover - already a group leader
        pass
    try:
        if hang_s is not None:
            # Injected fault: stall before doing any work, exactly like
            # a worker stuck in an unresponsive syscall.
            time.sleep(hang_s)
        cached = analyze_cached(
            trace_path, ResultStore(store_root), config=config, salvage=salvage
        )
        worst = cached.result.diagnostics.worst
        payload: Dict[str, Any] = {
            "ok": True,
            "fingerprint": cached.fingerprint,
            "cache_hit": cached.cache_hit,
            "n_clusters": cached.result.n_clusters_analyzed,
            "n_phases": sum(c.n_phases for c in cached.result.clusters),
            "worst_diagnostic": None if worst is None else str(worst),
        }
    except Exception as exc:  # noqa: BLE001 — marshalled to the parent
        payload = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    try:
        conn.send(payload)
    finally:
        conn.close()


def _kill_worker(process: multiprocessing.process.BaseProcess) -> None:
    """SIGTERM the worker's process group, then SIGKILL stragglers."""
    pid = process.pid
    assert pid is not None
    for sig, grace in ((signal.SIGTERM, _KILL_GRACE_S), (signal.SIGKILL, None)):
        try:
            # The worker made itself a group leader; fall back to the
            # single process if the group is already gone (or the worker
            # died before setpgid).
            os.killpg(pid, sig)
        except (ProcessLookupError, PermissionError):
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        if grace is not None:
            process.join(timeout=grace)
            if not process.is_alive():
                break
    process.join()
    _metric_counter("service.watchdog.kills").inc()


def run_job_isolated(
    spec: JobSpec,
    store_root: str,
    config: AnalyzerConfig,
    salvage: bool,
    deadline_s: float,
    hang_s: Optional[float] = None,
) -> JobOutcome:
    """Run one job attempt in a watched worker process.

    Raises :class:`~repro.errors.DeadlineExceededError` when the worker
    overruns ``deadline_s`` (after killing it and its process group),
    :class:`RemoteJobError` when the worker reports a failure, and
    :class:`~repro.errors.AnalysisError` when the worker dies without
    reporting anything (a crash — OOM kill, segfault in a native lib).
    """
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_isolated_worker,
        args=(child_conn, spec.trace_path, store_root, config, salvage, hang_s),
        name=f"repro-job-{spec.label}",
    )
    process.start()
    child_conn.close()
    started = time.monotonic()
    deadline = started + deadline_s
    next_heartbeat = started + _HEARTBEAT_S
    payload: Optional[Dict[str, Any]] = None
    try:
        while True:
            if parent_conn.poll(_POLL_S):
                try:
                    payload = parent_conn.recv()
                except EOFError:
                    payload = None
                break
            if not process.is_alive():
                # One last drain: the worker may have sent and exited
                # between our poll and the liveness check.
                if parent_conn.poll(0):
                    try:
                        payload = parent_conn.recv()
                    except EOFError:
                        payload = None
                break
            now = time.monotonic()
            if now >= next_heartbeat:
                # The poll loop doubles as the job's pulse: elapsed vs
                # deadline feeds the live dashboard's countdown.
                _publish(
                    "watchdog_heartbeat",
                    label=spec.label,
                    elapsed_s=round(now - started, 3),
                    deadline_s=deadline_s,
                    pid=process.pid,
                )
                next_heartbeat = now + _HEARTBEAT_S
            if now >= deadline:
                _kill_worker(process)
                raise DeadlineExceededError(
                    f"job {spec.label} overran its {deadline_s:g}s deadline; "
                    f"worker process killed by the watchdog"
                )
    finally:
        parent_conn.close()
    process.join()
    if payload is None:
        raise AnalysisError(
            f"job {spec.label}: worker process died without reporting "
            f"(exit code {process.exitcode})"
        )
    if not payload.get("ok"):
        raise RemoteJobError(payload.get("error", "unknown worker failure"))
    return JobOutcome(
        fingerprint=payload["fingerprint"],
        cache_hit=payload["cache_hit"],
        n_clusters=payload["n_clusters"],
        n_phases=payload["n_phases"],
        worst_diagnostic=payload["worst_diagnostic"],
    )
