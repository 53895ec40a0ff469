"""Tailing byte source for a growing trace (``repro watch``).

:class:`TraceTailSource` is the byte feed.  It follows a growing file by
offset (re-opening per poll, so rotation/late creation are tolerated)
or drains a text stream (stdin), spooling its bytes to a temp file so
finalization can re-read the complete input.  Consumed bytes run
through a rolling sha256 so checkpoints can prove on resume that the
file's consumed prefix is the one the state was built from.

The text it yields is parsed by the one trace parser,
:class:`repro.trace.reader.TraceParser` (re-exported as
:class:`repro.stream.StreamParser`), in salvage mode with a bounded
dedup window: that window is the only difference from a batch salvage
read of the same bytes.

The source applies backpressure by construction: it is pull-based.
Records are only materialized when the engine asks for the next chunk,
so a slow consumer never buffers more than one chunk of undecoded text.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from typing import IO, Iterator, Optional

from repro.errors import StreamError

__all__ = ["TraceTailSource"]


@dataclass
class _SpoolState:
    """Bookkeeping of the stdin spool file (stream mode only)."""

    path: str
    handle: IO[str]
    eof: bool = False


class TraceTailSource:
    """Byte feed for a growing trace: file-by-offset or stdin-with-spool.

    File mode (``TraceTailSource(path)``) re-opens the file on every
    :meth:`read_available` call, seeks to the consumed offset and reads
    up to ``chunk_size`` bytes — a file that does not exist *yet* reads
    as empty rather than failing, so a watcher can be started before its
    producer.  Stream mode (``TraceTailSource.from_stream(sys.stdin)``)
    drains the stream in chunks and spools every byte to a temp file so
    :meth:`final_path` can hand the complete input to the exact batch
    re-read at finalization.

    The source maintains a rolling sha256 over consumed bytes; its
    :meth:`prefix_digest` goes into checkpoints, and :meth:`seek_to`
    verifies it on resume by re-hashing the file prefix.
    """

    def __init__(self, path: str, chunk_size: int = 1 << 16) -> None:
        if chunk_size < 1:
            raise StreamError(f"chunk_size must be >= 1, got {chunk_size}")
        self.path = path
        self.chunk_size = chunk_size
        self.offset = 0
        self._hasher = hashlib.sha256()
        self._spool: Optional[_SpoolState] = None

    @classmethod
    def from_stream(
        cls,
        stream: IO[str],
        chunk_size: int = 1 << 16,
        spool_dir: Optional[str] = None,
    ) -> "TraceTailSource":
        """Source draining ``stream`` (e.g. stdin), spooling to a file."""
        fd, spool_path = tempfile.mkstemp(
            prefix="repro-watch-spool-", suffix=".rpt", dir=spool_dir
        )
        handle = os.fdopen(fd, "w", encoding="utf-8")
        source = cls(spool_path, chunk_size=chunk_size)
        source._spool = _SpoolState(path=spool_path, handle=handle)
        source._stream = stream  # type: ignore[attr-defined]
        return source

    # ------------------------------------------------------------------
    @property
    def is_stream(self) -> bool:
        """True in stdin/spool mode."""
        return self._spool is not None

    @property
    def at_eof(self) -> bool:
        """Stream mode: whether the input stream is exhausted.

        File mode never reports EOF — the file may still grow; idleness
        is the engine's judgement (``--until-idle``).
        """
        return self._spool is not None and self._spool.eof

    def read_available(self) -> str:
        """Return the next chunk of new text (possibly empty)."""
        if self._spool is not None:
            return self._read_stream()
        return self._read_file()

    def _read_file(self) -> str:
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self.offset)
                data = handle.read(self.chunk_size)
        except FileNotFoundError:
            return ""
        if not data:
            return ""
        # Hold back a torn multi-byte UTF-8 tail so decode never splits a
        # character (traces are ASCII in practice, but cheap to be exact).
        while data:
            try:
                text = data.decode("utf-8")
                break
            except UnicodeDecodeError as exc:
                if exc.reason.startswith("unexpected end of data") or (
                    len(data) - exc.start <= 3
                ):
                    data = data[: exc.start]
                    if not data:
                        return ""
                else:
                    raise StreamError(
                        f"{self.path}: undecodable bytes at offset "
                        f"{self.offset + exc.start}"
                    ) from None
        self.offset += len(data)
        self._hasher.update(data)
        return text

    def _read_stream(self) -> str:
        assert self._spool is not None
        if self._spool.eof:
            return ""
        text = self._stream.read(self.chunk_size)  # type: ignore[attr-defined]
        if text == "":
            self._spool.eof = True
            self._spool.handle.flush()
            return ""
        self._spool.handle.write(text)
        self._spool.handle.flush()
        data = text.encode("utf-8")
        self.offset += len(data)
        self._hasher.update(data)
        return text

    def drain(self) -> Iterator[str]:
        """Yield chunks until the source has no more bytes *right now*."""
        while True:
            text = self.read_available()
            if not text:
                return
            yield text

    # ------------------------------------------------------------------
    def prefix_digest(self) -> str:
        """sha256 (hex) of every byte consumed so far."""
        return self._hasher.copy().hexdigest()

    def seek_to(self, offset: int, expected_digest: str) -> None:
        """Position a fresh file source at ``offset``, verifying that the
        on-disk prefix hashes to ``expected_digest`` (checkpoint resume).
        """
        if self.is_stream:
            raise StreamError("cannot seek a stream source (no stable prefix)")
        hasher = hashlib.sha256()
        remaining = offset
        try:
            with open(self.path, "rb") as handle:
                while remaining > 0:
                    data = handle.read(min(remaining, 1 << 20))
                    if not data:
                        break
                    hasher.update(data)
                    remaining -= len(data)
        except FileNotFoundError:
            raise StreamError(
                f"cannot resume: {self.path} does not exist"
            ) from None
        if remaining > 0:
            raise StreamError(
                f"cannot resume: {self.path} is shorter ({offset - remaining} "
                f"bytes) than the checkpointed offset ({offset})"
            )
        digest = hasher.hexdigest()
        if digest != expected_digest:
            raise StreamError(
                f"cannot resume: the first {offset} bytes of {self.path} "
                f"changed since the checkpoint (digest {digest[:12]} != "
                f"{expected_digest[:12]})"
            )
        self.offset = offset
        self._hasher = hasher

    def final_path(self) -> str:
        """Path of the complete input for the exact finalization re-read."""
        if self._spool is not None:
            if not self._spool.handle.closed:
                self._spool.handle.flush()
            return self._spool.path
        return self.path

    def close(self) -> None:
        """Release the spool handle (stream mode; no-op in file mode).

        The spool *file* is left on disk — finalization may still need
        it; the engine's caller removes it when done.
        """
        if self._spool is not None and not self._spool.handle.closed:
            self._spool.handle.close()
