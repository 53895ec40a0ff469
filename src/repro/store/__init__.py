"""Stable serialization + content-addressed storage of analysis results.

The pipeline is expensive and deterministic; its input (a trace file plus
an :class:`~repro.analysis.pipeline.AnalyzerConfig`) fully determines its
output.  This package exploits that:

* :mod:`repro.store.serialize` — a versioned JSON codec for
  :class:`~repro.analysis.pipeline.AnalysisResult`.  Everything a report,
  the hint engine, or a cross-run diff needs round-trips exactly (phases,
  fitted PWLR models, source attributions, diagnostics, profile); the raw
  folded sample arrays are summarized, not stored (see docs/SERVICE.md).
* :mod:`repro.store.fingerprint` — the content address: a digest of the
  trace bytes plus the semantic analyzer configuration.  Knobs that
  cannot change results (``profile``, ``progress_every``) are excluded,
  so a profiled re-run hits the cache of a quiet one.
* :mod:`repro.store.artifacts` — :class:`ResultStore`, the on-disk
  fingerprint-keyed artifact store with atomic writes, per-read content
  digest verification, and a quarantine for artifacts that fail it.
* :mod:`repro.store.cache` — :func:`analyze_cached`, the read-through
  cache wrapper around the pipeline that `repro batch` and
  ``repro analyze --store`` share; corrupt hits are quarantined and
  re-derived instead of raised.
* :mod:`repro.store.fsck` — :func:`fsck_store`, the integrity scanner
  behind ``repro store fsck [--repair]``.
* :mod:`repro.store.lock` — :class:`StoreLock`, the advisory exclusive
  lock two concurrent ``repro batch`` processes contend on.
"""

from repro.store.artifacts import ResultStore, StoreEntry, content_digest
from repro.store.cache import CachedAnalysis, analyze_cached
from repro.store.fsck import FsckIssue, FsckReport, fsck_store
from repro.store.fingerprint import (
    config_fingerprint_dict,
    config_from_dict,
    config_to_dict,
    fingerprint_config,
    fingerprint_trace_file,
    fingerprint_trace_text,
)
from repro.store.lock import StoreLock
from repro.store.serialize import (
    RESULT_FORMAT,
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)

__all__ = [
    "RESULT_FORMAT",
    "result_to_dict",
    "result_from_dict",
    "result_to_json",
    "result_from_json",
    "config_to_dict",
    "config_from_dict",
    "config_fingerprint_dict",
    "fingerprint_config",
    "fingerprint_trace_file",
    "fingerprint_trace_text",
    "ResultStore",
    "StoreEntry",
    "content_digest",
    "CachedAnalysis",
    "analyze_cached",
    "FsckIssue",
    "FsckReport",
    "fsck_store",
    "StoreLock",
]
