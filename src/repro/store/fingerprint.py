"""Content addressing: trace bytes + semantic analyzer config → digest.

The pipeline is deterministic: the same trace analyzed under the same
*semantic* configuration produces the identical result, so the pair's
digest is a safe cache key.  Two knobs are excluded from the
fingerprint because they cannot change the result, only how the run is
narrated: ``profile`` and ``progress_every`` (observability only).

Retired knobs are dropped on read, so configs stored before their
removal still load and their store entries stay valid.  Each only chose
between paths with identical results and was never part of the
fingerprint:

* ``n_jobs`` selected a per-cluster process pool whose results matched
  the serial analysis bit for bit;
* ``pwlr.search_kernel`` chose between two PWLR rankings that selected
  identical breakpoints.

Any other unknown field is refused.

Trace identity is the file's *bytes* (streamed SHA-256), not the parsed
records: two files that parse identically but differ textually get
distinct fingerprints, which errs on the side of re-analysis — the safe
direction for a cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Mapping

from repro.analysis.pipeline import AnalyzerConfig
from repro.errors import ConfigurationError
from repro.fitting.pwlr import PWLRConfig

__all__ = [
    "FINGERPRINT_FORMAT",
    "config_to_dict",
    "config_from_dict",
    "config_fingerprint_dict",
    "fingerprint_config",
    "fingerprint_trace_file",
    "fingerprint_trace_text",
]

#: Fingerprint scheme identifier, mixed into every digest; bump when the
#: config canonicalization or hashing recipe changes.
FINGERPRINT_FORMAT = "repro-fp/1"

#: AnalyzerConfig fields that cannot affect analysis output.
_NON_SEMANTIC_FIELDS = ("profile", "progress_every")

#: Retired AnalyzerConfig fields that stored configs may still carry.
_RETIRED_FIELDS = ("n_jobs",)

#: Retired PWLRConfig fields that stored configs may still carry.
_RETIRED_PWLR_FIELDS = ("search_kernel",)

_READ_CHUNK = 1 << 20


def config_to_dict(config: AnalyzerConfig) -> Dict[str, Any]:
    """Full JSON-able view of ``config`` (round-trips via
    :func:`config_from_dict`)."""
    out = dataclasses.asdict(config)
    if out["counters"] is not None:
        out["counters"] = list(out["counters"])
    return out


def config_from_dict(data: Mapping[str, Any]) -> AnalyzerConfig:
    """Rebuild an :class:`AnalyzerConfig` from :func:`config_to_dict`."""
    payload = {k: v for k, v in data.items() if k not in _RETIRED_FIELDS}
    known = {f.name for f in dataclasses.fields(AnalyzerConfig)}
    unknown = set(payload) - known
    if unknown:
        raise ConfigurationError(
            f"stored analyzer config has unknown fields: {sorted(unknown)}"
        )
    if payload.get("counters") is not None:
        payload["counters"] = tuple(str(c) for c in payload["counters"])
    if "pwlr" in payload and isinstance(payload["pwlr"], Mapping):
        payload["pwlr"] = {
            k: v for k, v in payload["pwlr"].items() if k not in _RETIRED_PWLR_FIELDS
        }
        pwlr_known = {f.name for f in dataclasses.fields(PWLRConfig)}
        pwlr_unknown = set(payload["pwlr"]) - pwlr_known
        if pwlr_unknown:
            raise ConfigurationError(
                f"stored PWLR config has unknown fields: {sorted(pwlr_unknown)}"
            )
        payload["pwlr"] = PWLRConfig(**payload["pwlr"])
    return AnalyzerConfig(**payload)


def config_fingerprint_dict(config: AnalyzerConfig) -> Dict[str, Any]:
    """The semantic subset of ``config`` that enters the fingerprint."""
    out = config_to_dict(config)
    for name in _NON_SEMANTIC_FIELDS:
        out.pop(name, None)
    return out


def _canonical_config_json(config: AnalyzerConfig) -> str:
    return json.dumps(
        config_fingerprint_dict(config), sort_keys=True, separators=(",", ":")
    )


def _combine(trace_digest: str, config: AnalyzerConfig, salvage: bool) -> str:
    payload = "\n".join(
        [
            FINGERPRINT_FORMAT,
            trace_digest,
            _canonical_config_json(config),
            f"salvage={bool(salvage)}",
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_config(config: AnalyzerConfig, salvage: bool = False) -> str:
    """Trace-independent digest of the semantic configuration alone.

    The telemetry ledger stamps runs with this so ``repro perf`` can
    tell a genuine performance level shift from a config change that
    legitimately altered the work done per run.
    """
    payload = "\n".join(
        [
            FINGERPRINT_FORMAT,
            _canonical_config_json(config),
            f"salvage={bool(salvage)}",
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_trace_file(
    path: str, config: AnalyzerConfig, salvage: bool = False
) -> str:
    """Fingerprint of analyzing the trace file at ``path`` under
    ``config``.

    ``salvage`` enters the digest because a salvage read of a damaged
    file yields a different record stream (and different diagnostics)
    than a strict read of the same bytes.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_READ_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return _combine(digest.hexdigest(), config, salvage)


def fingerprint_trace_text(
    text: str, config: AnalyzerConfig, salvage: bool = False
) -> str:
    """Fingerprint of a trace already in memory as serialized text
    (see :func:`repro.trace.writer.dump_trace_text`)."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return _combine(digest, config, salvage)
