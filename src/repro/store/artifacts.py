"""Content-addressed on-disk store of serialized analysis results.

Layout (one JSON envelope per artifact, sharded by digest prefix so a
directory never accumulates millions of entries)::

    <root>/
      objects/
        ab/
          ab3f...e1.json      # {"format", "fingerprint", "digest", "meta", "result"}
      quarantine/
        cd91...07.json        # artifacts that failed an integrity check
        quarantine.jsonl      # one {"fingerprint", "reason", "ts"} line per event

Writes are atomic (temp file + ``os.replace`` in the same directory), so
a crashed writer never leaves a half-artifact a reader could load, and
concurrent writers of the *same* fingerprint are idempotent — they
produce identical bytes, so last-replace-wins is harmless.  Every
envelope carries a SHA-256 ``digest`` of its canonical result payload;
:meth:`ResultStore.get` re-verifies it on every read, and anything that
fails — unparseable JSON, wrong format stamp, digest mismatch — is moved
to ``quarantine/`` and surfaced as
:class:`~repro.errors.StoreIntegrityError` rather than trusted.  The
``meta`` block (app name, source trace path, creation time, analyzer
config, headline counts) lets ``repro query`` list a store without
deserializing full results.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.analysis.pipeline import AnalysisResult
from repro.errors import AmbiguousPrefixError, AnalysisError, StoreIntegrityError
from repro.observability.context import counter as _metric_counter
from repro.store.serialize import RESULT_FORMAT, result_from_dict, result_to_dict

__all__ = ["StoreEntry", "ResultStore", "STORE_FORMAT", "content_digest"]

#: Envelope format identifier.
STORE_FORMAT = "repro-store/1"

_FULL_DIGEST_LEN = 64

#: Quarantine subdirectory and event log names.
QUARANTINE_DIR = "quarantine"
QUARANTINE_LOG = "quarantine.jsonl"


def content_digest(result_dict: Mapping[str, Any]) -> str:
    """``sha256:<hex>`` digest of a result payload's canonical JSON.

    The canonical form (sorted keys, no whitespace) is independent of
    how the envelope happens to be pretty-printed on disk, so the digest
    survives any JSON re-encoding that preserves content.

    The ``profile`` block is excluded: span wall/CPU timings vary run to
    run whenever observability is active, while the digest must be a
    function of what the analysis *concluded* — the same carve-out the
    fingerprint makes for ``profile``. Two analyses of the
    same trace and config therefore share a digest even when one was
    profiled and the other was not.
    """
    semantic = {k: v for k, v in result_dict.items() if k != "profile"}
    canonical = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StoreEntry:
    """One stored artifact as listed by :meth:`ResultStore.entries`."""

    fingerprint: str
    app_name: str
    trace_path: str
    created_unix: float
    n_clusters: int
    n_phases: int
    worst_diagnostic: Optional[str]

    @property
    def short(self) -> str:
        """Abbreviated fingerprint for tables."""
        return self.fingerprint[:12]


class ResultStore:
    """Fingerprint-keyed store of serialized analysis results."""

    def __init__(self, root: str) -> None:
        self.root = root

    @property
    def quarantine_dir(self) -> str:
        """Directory corrupt artifacts are moved to (may not exist yet)."""
        return os.path.join(self.root, QUARANTINE_DIR)

    # ------------------------------------------------------------------
    def object_path(self, fingerprint: str) -> str:
        """On-disk path of the artifact for ``fingerprint`` (may not exist)."""
        self._check_fingerprint(fingerprint)
        return os.path.join(
            self.root, "objects", fingerprint[:2], f"{fingerprint}.json"
        )

    def quarantine_path(self, fingerprint: str) -> str:
        """Where the artifact for ``fingerprint`` lands when quarantined."""
        self._check_fingerprint(fingerprint)
        return os.path.join(self.root, QUARANTINE_DIR, f"{fingerprint}.json")

    @staticmethod
    def _check_fingerprint(fingerprint: str) -> None:
        if len(fingerprint) != _FULL_DIGEST_LEN or not all(
            c in "0123456789abcdef" for c in fingerprint
        ):
            raise AnalysisError(
                f"malformed fingerprint {fingerprint!r} "
                f"(expected {_FULL_DIGEST_LEN} hex chars)"
            )

    # ------------------------------------------------------------------
    def has(self, fingerprint: str) -> bool:
        """Whether an artifact exists for ``fingerprint``."""
        return os.path.exists(self.object_path(fingerprint))

    def put(
        self,
        fingerprint: str,
        result: AnalysisResult,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """Store ``result`` under ``fingerprint``; returns the object path.

        The write is atomic; re-putting an existing fingerprint rewrites
        the identical result bytes (only ``meta.created_unix`` moves).
        """
        path = self.object_path(fingerprint)
        result_dict = result_to_dict(result)
        envelope: Dict[str, Any] = {
            "format": STORE_FORMAT,
            "fingerprint": fingerprint,
            "digest": content_digest(result_dict),
            "meta": self._build_meta(result, meta),
            "result": result_dict,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle, sort_keys=True)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        _metric_counter("store.puts").inc()
        return path

    @staticmethod
    def _build_meta(
        result: AnalysisResult, extra: Optional[Mapping[str, Any]]
    ) -> Dict[str, Any]:
        worst = result.diagnostics.worst
        meta: Dict[str, Any] = {
            "app_name": result.app_name,
            "created_unix": time.time(),
            "n_clusters": result.n_clusters_analyzed,
            "n_phases": sum(c.n_phases for c in result.clusters),
            "worst_diagnostic": None if worst is None else str(worst),
        }
        if extra:
            meta.update(extra)
        return meta

    def get(self, fingerprint: str) -> AnalysisResult:
        """Load the result stored under ``fingerprint``.

        Every read re-verifies the envelope's content digest.  A corrupt
        or truncated artifact is moved to ``quarantine/`` and raised as
        :class:`~repro.errors.StoreIntegrityError` — callers like
        :func:`~repro.store.cache.analyze_cached` treat that as a cache
        miss and re-derive, so one rotten artifact never poisons a batch.
        """
        path = self.object_path(fingerprint)
        try:
            envelope = self._load_envelope(path)
            self._verify_digest(path, envelope)
        except StoreIntegrityError as exc:
            _metric_counter("store.integrity_failures").inc()
            quarantined = self.quarantine(fingerprint, str(exc))
            raise StoreIntegrityError(
                f"{exc} (artifact quarantined to {quarantined})"
            ) from None
        _metric_counter("store.gets").inc()
        return result_from_dict(envelope["result"])

    def get_meta(self, fingerprint: str) -> Dict[str, Any]:
        """Load only the ``meta`` block (cheap relative to a full get)."""
        return dict(self._load_envelope(self.object_path(fingerprint))["meta"])

    @staticmethod
    def _load_envelope(path: str) -> Dict[str, Any]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            raise AnalysisError(
                f"no stored result at {path} (not analyzed yet?)"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreIntegrityError(
                f"cannot read stored result {path}: {exc}"
            ) from None
        if not isinstance(envelope, dict) or envelope.get("format") != STORE_FORMAT:
            raise StoreIntegrityError(
                f"{path} is not a {STORE_FORMAT} artifact "
                f"(format={envelope.get('format') if isinstance(envelope, dict) else None!r})"
            )
        result = envelope.get("result")
        if not isinstance(result, dict) or result.get("format") != RESULT_FORMAT:
            raise StoreIntegrityError(f"{path}: envelope carries no usable result")
        return envelope

    @staticmethod
    def _verify_digest(path: str, envelope: Mapping[str, Any]) -> None:
        """Check the envelope's content digest (legacy artifacts without
        one pass — ``repro store fsck --repair`` upgrades them)."""
        stored = envelope.get("digest")
        if stored is None:
            return
        actual = content_digest(envelope["result"])
        if actual != stored:
            raise StoreIntegrityError(
                f"{path}: content digest mismatch "
                f"(stored {stored[:19]}..., actual {actual[:19]}...)"
            )

    # ------------------------------------------------------------------
    def quarantine(self, fingerprint: str, reason: str) -> str:
        """Move ``fingerprint``'s artifact into ``quarantine/``.

        The move is a same-filesystem rename (atomic); the reason is
        appended to ``quarantine/quarantine.jsonl`` so ``repro store
        fsck`` and operators can audit what was evicted and why.
        Returns the quarantine path (even if the source was already
        gone — quarantining is idempotent).
        """
        destination = self.quarantine_path(fingerprint)
        os.makedirs(os.path.dirname(destination), exist_ok=True)
        try:
            os.replace(self.object_path(fingerprint), destination)
        except FileNotFoundError:
            pass
        log_path = os.path.join(self.root, QUARANTINE_DIR, QUARANTINE_LOG)
        with open(log_path, "a", encoding="utf-8") as handle:
            json.dump(
                {"fingerprint": fingerprint, "reason": reason, "ts": time.time()},
                handle,
                sort_keys=True,
            )
            handle.write("\n")
        _metric_counter("store.quarantined").inc()
        return destination

    def quarantined(self) -> List[str]:
        """Fingerprints currently sitting in ``quarantine/``, sorted."""
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        if not os.path.isdir(qdir):
            return []
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(qdir)
            if name.endswith(".json") and len(name) == _FULL_DIGEST_LEN + len(".json")
        )

    # ------------------------------------------------------------------
    def fingerprints(self) -> List[str]:
        """Every stored fingerprint, sorted."""
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return []
        found: List[str] = []
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json") and not name.startswith("."):
                    found.append(name[: -len(".json")])
        return found

    def entries(self) -> Iterator[StoreEntry]:
        """Iterate the store's artifacts as :class:`StoreEntry` rows.

        Unreadable artifacts (foreign files, partial manual copies) are
        skipped rather than aborting the listing.
        """
        for fingerprint in self.fingerprints():
            try:
                meta = self.get_meta(fingerprint)
            except AnalysisError:
                continue
            yield StoreEntry(
                fingerprint=fingerprint,
                app_name=str(meta.get("app_name", "")),
                trace_path=str(meta.get("trace_path", "")),
                created_unix=float(meta.get("created_unix", 0.0)),
                n_clusters=int(meta.get("n_clusters", 0)),
                n_phases=int(meta.get("n_phases", 0)),
                worst_diagnostic=meta.get("worst_diagnostic"),
            )

    def resolve(self, prefix: str) -> str:
        """Expand a fingerprint prefix to the unique stored fingerprint.

        Raises :class:`~repro.errors.AmbiguousPrefixError` (with the full
        colliding digests on ``.candidates``) when more than one artifact
        matches.
        """
        prefix = prefix.lower()
        if not prefix:
            raise AnalysisError("empty fingerprint prefix")
        matches = [fp for fp in self.fingerprints() if fp.startswith(prefix)]
        if not matches:
            raise AnalysisError(
                f"no stored result matches fingerprint prefix {prefix!r}"
            )
        if len(matches) > 1:
            raise AmbiguousPrefixError(prefix, matches)
        return matches[0]

    def __len__(self) -> int:
        return len(self.fingerprints())

    def __repr__(self) -> str:
        return f"ResultStore({self.root!r}, {len(self)} artifact(s))"
