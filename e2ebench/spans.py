"""Outside-in span recorder for the traced benchmark run.

The benchmark does not rely on the program's own instrumentation.  It
replaces each layer entry point *at the module (or class) where callers
look it up* with a wrapper that records a span: name, start, end, parent
and process id.  Spans stay in memory and are written out when the
measured child ends.  A lookup site that no longer exists raises
``LookupError`` at install time, so a refactor that moves an entry point
fails the traced run loudly instead of silently losing a layer.

Forked batch workers inherit the wrappers.  The worker entry point is
wrapped too, so each worker writes its own spans (and a snapshot of its
metrics registry) to a side file that the parent merges.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from typing import Callable, Dict, List, Tuple

# (span name, module, attribute path) for every wrapped lookup site.
# An attribute path with a dot names a method on a class.
LOOKUP_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("trace.read_trace", "repro.cli", "read_trace"),
    ("trace.read_trace", "repro.stream.engine", "read_trace"),
    ("trace.read_trace", "repro.store.cache", "read_trace"),
    ("stream.process_text", "repro.stream.engine", "StreamEngine.process_text"),
    ("stream.refit", "repro.stream.engine", "StreamEngine._refit_cluster"),
    ("stream.finalize", "repro.stream.engine", "StreamEngine.finalize"),
    ("clustering.extract_bursts", "repro.analysis.pipeline", "extract_bursts"),
    ("clustering.build_features", "repro.analysis.pipeline", "build_features"),
    ("clustering.build_features", "repro.stream.model", "build_features"),
    ("clustering.estimate_eps", "repro.analysis.pipeline", "estimate_eps"),
    ("clustering.estimate_eps", "repro.stream.model", "estimate_eps"),
    ("clustering.dbscan_fit", "repro.clustering.dbscan", "DBSCAN.fit"),
    ("folding.select_instances", "repro.analysis.pipeline", "select_instances"),
    ("folding.select_instances", "repro.stream.engine", "select_instances"),
    ("folding.fold_cluster", "repro.analysis.pipeline", "fold_cluster"),
    ("folding.fold_cluster", "repro.stream.engine", "fold_cluster"),
    ("folding.clip_to_unit_range", "repro.analysis.pipeline", "clip_to_unit_range"),
    (
        "folding.enforce_instance_monotonicity",
        "repro.analysis.pipeline",
        "enforce_instance_monotonicity",
    ),
    ("folding.fold_callstacks", "repro.analysis.pipeline", "fold_callstacks"),
    ("fitting.fit_pwlr", "repro.phases.detect", "fit_pwlr"),
    ("fitting.refit_slopes_many", "repro.phases.detect", "refit_slopes_many"),
    ("phases.detect_phases", "repro.analysis.pipeline", "detect_phases"),
    ("phases.detect_phases", "repro.stream.engine", "detect_phases"),
    ("phases.map_phases_to_source", "repro.analysis.pipeline", "map_phases_to_source"),
    ("analysis.analyze", "repro.analysis.pipeline", "FoldingAnalyzer.analyze"),
    ("analysis.generate_hints", "repro.cli", "generate_hints"),
    ("analysis.render_report", "repro.cli", "render_report"),
    ("store.fingerprint_trace_file", "repro.store.cache", "fingerprint_trace_file"),
    ("store.get", "repro.store.artifacts", "ResultStore.get"),
    ("store.put", "repro.store.artifacts", "ResultStore.put"),
    ("service.run_batch", "repro.cli", "run_batch"),
    ("service.run_job_isolated", "repro.service.scheduler", "run_job_isolated"),
    ("observability.ledger_append", "repro.observability.ledger", "RunLedger.append"),
)

# The forked batch worker's entry point, looked up by run_job_isolated.
WORKER_SITE = ("repro.service.watchdog", "_isolated_worker")


def _resolve(module_name: str, path: str) -> Tuple[object, str, Callable]:
    """(owner, attribute, current value) of a lookup site, or LookupError."""
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"lookup site {module_name} is gone: {exc}") from None
    *outer, attr = path.split(".")
    for name in outer:
        if not hasattr(owner, name):
            raise LookupError(f"lookup site {module_name}.{path} is gone")
        owner = getattr(owner, name)
    if not callable(getattr(owner, attr, None)):
        raise LookupError(f"lookup site {module_name}.{path} is gone")
    return owner, attr, getattr(owner, attr)


class SpanRecorder:
    """In-memory spans with parent links, plus counts attached to spans.

    ``counts`` accumulates work done, keyed by metric name; the hooks in
    :data:`_COUNT_HOOKS` read it off each wrapped call's return value.
    Forked workers write their side files to ``out_dir``.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: List[Dict[str, object]] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[str] = []
        self._next = 0

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span that was timed elsewhere."""
        self.spans.append({"id": f"{os.getpid()}:{self._next}", "name": name,
                           "start": start, "end": end, "parent": None,
                           "pid": os.getpid()})
        self._next += 1

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = _COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = f"{os.getpid()}:{self._next}"
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self._stack.pop()
                self.spans.append({"id": span_id, "name": name, "start": start,
                                   "end": end, "parent": parent,
                                   "pid": os.getpid()})
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every lookup site; raises LookupError if one is gone."""
        resolved = [(name, *_resolve(module, path))
                    for name, module, path in LOOKUP_SITES]
        worker_owner, worker_attr, worker_fn = _resolve(*WORKER_SITE)
        for name, owner, attr, fn in resolved:
            setattr(owner, attr, self.wrap(name, fn))
        setattr(worker_owner, worker_attr, self._wrap_worker(worker_fn))

    def _wrap_worker(self, fn: Callable) -> Callable:
        """Worker entry point: record into a fresh span list and metrics
        registry, and write both to a side file before the worker exits
        (forked workers leave through ``os._exit``, so no atexit runs)."""

        @functools.wraps(fn)
        def worker(*args, **kwargs):
            from repro.observability import Observability

            self.spans = []  # drop the spans inherited from the parent
            self.counts = {}
            obs = Observability()
            try:
                with obs.activate():
                    return fn(*args, **kwargs)
            finally:
                side = os.path.join(self.out_dir, f"worker-{os.getpid()}.json")
                with open(side, "w", encoding="utf-8") as handle:
                    json.dump({"spans": self.spans, "counts": self.counts,
                               "registry": obs.metrics.snapshot()}, handle)

        return worker


def _count_records(rec: SpanRecorder, trace) -> None:
    rec.count("trace.records", trace.n_records)


def _count_stream_records(rec: SpanRecorder, n: int) -> None:
    rec.count("stream.records", n)


def _count_bursts(rec: SpanRecorder, bursts) -> None:
    rec.count("clustering.bursts", len(bursts))


def _count_clusters(rec: SpanRecorder, result) -> None:
    rec.count("clustering.clusters", result.n_clusters)


def _count_folded(rec: SpanRecorder, folded) -> None:
    rec.count("folding.folded_points", sum(len(fc.x) for fc in folded.values()))


def _count_phases(rec: SpanRecorder, phase_set) -> None:
    rec.count("phases.phases", len(phase_set))


def _count_put(rec: SpanRecorder, path: str) -> None:
    rec.count("store.bytes_written", os.path.getsize(path))


_COUNT_HOOKS: Dict[str, Callable] = {
    "trace.read_trace": _count_records,
    "stream.process_text": _count_stream_records,
    "clustering.extract_bursts": _count_bursts,
    "clustering.dbscan_fit": _count_clusters,
    "folding.fold_cluster": _count_folded,
    "phases.detect_phases": _count_phases,
    "store.put": _count_put,
}


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Dict[str, object]]) -> Dict[str, float]:
    """Busy time per span name, net of the time its child spans cover."""
    children: Dict[object, List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out: Dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        inside = [(max(s, start), min(e, end))
                  for s, e in children.get(span["id"], ()) if e > start and s < end]
        busy = (end - start) - _union_length(inside)
        out[span["name"]] = out.get(span["name"], 0.0) + busy
    return out


def coverage(spans: List[Dict[str, object]], start: float, end: float) -> float:
    """Share of [start, end] that the union of all spans covers."""
    clipped = [(max(s["start"], start), min(s["end"], end)) for s in spans
               if s["end"] > start and s["start"] < end]
    return _union_length(clipped) / (end - start)
