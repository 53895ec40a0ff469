"""Trace serialization (single-file text format, version 1).

Layout::

    #REPRO-TRACE v1
    app <quoted-name>
    ranks <n>
    meta <quoted-key> <quoted-value>
    [dict]
    <EventDictionary lines>
    [records]
    S <rank> <t0> <t1> <state_id> <quoted-label>
    I <rank> <t> <marker> <quoted-mpi-call> <cid>=<val>,...
    P <rank> <t> <cid>=<val>,... <frames>

Frames are ``routine@file@line`` joined with ``|`` (or ``-`` for in-MPI
samples with an empty stack); free-text fields are percent-quoted so the
format stays strictly whitespace-delimited.  Floats are written with
``repr`` so a write/read round trip is bit-exact — the test suite asserts
this property.

Two writers share the same line formatting:

* :func:`write_trace` — the batch writer: a complete in-memory
  :class:`~repro.trace.records.Trace` to a file in one pass, records
  grouped by tag (all ``S``, then ``I``, then ``P``).
* :class:`TraceTailWriter` — the append-mode live writer: header and
  dictionary up front, then one record per :meth:`~TraceTailWriter.append`
  call, flushed immediately so a follower (``repro watch``) sees each
  record as soon as the producer emits it.
"""

from __future__ import annotations

import io
import os
from typing import IO, List, Mapping, Optional, Union
from urllib.parse import quote

from repro.errors import TraceFormatError
from repro.trace.pcf import EventDictionary
from repro.trace.records import (
    InstrumentationRecord,
    SampleRecord,
    StateKind,
    StateRecord,
    Trace,
)

__all__ = ["write_trace", "dump_trace_text", "TraceTailWriter"]

FORMAT_HEADER = "#REPRO-TRACE v1"


def _format_counters(counters: Mapping[str, float], dictionary: EventDictionary) -> str:
    if not counters:
        return "-"
    return ",".join(
        f"{dictionary.counter_id(name)}={float(value)!r}" for name, value in counters.items()
    )


def _quote(text: str) -> str:
    if not text:
        return "-"
    if text == "-":
        # urllib never percent-encodes "-", which would collide with the
        # empty-field sentinel and read back as "" — escape it by hand.
        return "%2D"
    return quote(text, safe="")


def _format_state(state: StateRecord, dictionary: EventDictionary) -> str:
    return (
        f"S {state.rank} {float(state.t_start)!r} {float(state.t_end)!r} "
        f"{dictionary.state_id(state.kind.value)} {_quote(state.label)}"
    )


def _format_instrumentation(
    probe: InstrumentationRecord, dictionary: EventDictionary
) -> str:
    return (
        f"I {probe.rank} {float(probe.time)!r} {probe.marker} "
        f"{_quote(probe.mpi_call)} {_format_counters(probe.counters, dictionary)}"
    )


def _format_sample(sample: SampleRecord, dictionary: EventDictionary) -> str:
    if sample.frames:
        frames = "|".join(
            f"{_quote(routine)}@{_quote(path)}@{line}"
            for routine, path, line in sample.frames
        )
    else:
        frames = "-"
    return (
        f"P {sample.rank} {float(sample.time)!r} "
        f"{_format_counters(sample.counters, dictionary)} {frames}"
    )


def write_trace(trace: Trace, destination: Union[str, IO[str]]) -> None:
    """Write ``trace`` to a path or text stream."""
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            _write(trace, handle)
    else:
        _write(trace, destination)


def dump_trace_text(trace: Trace) -> str:
    """Serialize ``trace`` to a string (round-trip test helper)."""
    buffer = io.StringIO()
    _write(trace, buffer)
    return buffer.getvalue()


def _write_preamble(
    handle: IO[str],
    dictionary: EventDictionary,
    app_name: str,
    n_ranks: int,
    metadata: Mapping[str, str],
) -> None:
    handle.write(FORMAT_HEADER + "\n")
    handle.write(f"app {_quote(app_name)}\n")
    handle.write(f"ranks {n_ranks}\n")
    for key, value in metadata.items():
        handle.write(f"meta {_quote(key)} {_quote(value)}\n")
    handle.write("[dict]\n")
    for line in dictionary.to_lines():
        handle.write(line + "\n")
    handle.write("[records]\n")


def _write(trace: Trace, handle: IO[str]) -> None:
    dictionary = EventDictionary()
    # Pre-allocate ids in deterministic order (counters as first seen).
    for name in trace.counter_names():
        dictionary.counter_id(name)
    for record in trace.states:
        dictionary.state_id(record.kind.value)

    _write_preamble(handle, dictionary, trace.app_name, trace.n_ranks, trace.metadata)
    for state in trace.states:
        handle.write(_format_state(state, dictionary) + "\n")
    for probe in trace.instrumentation:
        handle.write(_format_instrumentation(probe, dictionary) + "\n")
    for sample in trace.samples:
        handle.write(_format_sample(sample, dictionary) + "\n")


class TraceTailWriter:
    """Append-mode trace writer simulating a live producer.

    The batch writer needs the whole :class:`~repro.trace.records.Trace`
    up front; this one writes the header and a *frozen* event dictionary
    first and then appends one record per call, flushing after every
    line so a concurrent follower (``repro watch``, ``tail -f``) observes
    each record as soon as it exists.  Because the dictionary is frozen
    at creation, a record naming a counter or state that was not
    registered raises :class:`~repro.errors.TraceFormatError` instead of
    silently allocating an id the header never declared.

    Use :meth:`create` to start a new trace file (registering the
    counter vocabulary up front) or :meth:`open` to resume appending to
    an existing one (the header and dictionary are re-read from disk).
    The instance is a context manager; :meth:`close` flushes and closes
    the underlying handle.
    """

    def __init__(
        self,
        path: str,
        handle: IO[str],
        dictionary: EventDictionary,
        n_ranks: int,
        fsync: bool = False,
    ) -> None:
        self.path = path
        self.n_ranks = n_ranks
        self.fsync = fsync
        self.n_appended = 0
        self._handle = handle
        self._dictionary = dictionary
        self._counters = frozenset(dictionary.counter_ids)
        self._states = frozenset(dictionary.state_ids)

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str,
        app_name: str,
        n_ranks: int,
        counters: List[str],
        metadata: Optional[Mapping[str, str]] = None,
        fsync: bool = False,
    ) -> "TraceTailWriter":
        """Start a new trace file and return a writer positioned after
        the ``[records]`` marker.

        ``counters`` fixes the counter vocabulary (and its id order) for
        the lifetime of the file; both state kinds are pre-registered so
        ``S`` records never need a dictionary extension either.
        """
        if n_ranks < 1:
            raise TraceFormatError(f"n_ranks must be >= 1, got {n_ranks}")
        dictionary = EventDictionary()
        for name in counters:
            dictionary.counter_id(name)
        for kind in StateKind:
            dictionary.state_id(kind.value)
        handle = open(path, "w", encoding="utf-8")
        _write_preamble(handle, dictionary, app_name, n_ranks, dict(metadata or {}))
        handle.flush()
        writer = cls(path, handle, dictionary, n_ranks, fsync=fsync)
        writer._maybe_fsync()
        return writer

    @classmethod
    def open(cls, path: str, fsync: bool = False) -> "TraceTailWriter":
        """Resume appending to an existing trace file.

        The header and dictionary are re-read from disk (strictly — a
        damaged preamble refuses the append rather than desynchronizing
        ids); the file must already contain its ``[records]`` marker.
        """
        # The reader imports this module; import it here, at call time.
        from repro.trace.reader import ReadPolicy, TraceParser

        parser = TraceParser(ReadPolicy.STRICT)
        try:
            with open(path, "r", encoding="utf-8", newline="") as handle:
                for raw in handle:
                    parser.feed(raw)
                    if parser.section == "records":
                        break
                else:
                    parser.finish()
        except TraceFormatError as exc:
            raise TraceFormatError(f"{path}: {exc}") from None
        if parser.section != "records":
            raise TraceFormatError(
                f"{path}: no [records] section — not an appendable trace"
            )
        if parser.n_ranks < 1:
            raise TraceFormatError(f"{path}: header missing a valid 'ranks' line")
        dictionary, n_ranks = parser.dictionary, parser.n_ranks
        handle = open(path, "a", encoding="utf-8")
        return cls(path, handle, dictionary, n_ranks, fsync=fsync)

    # ------------------------------------------------------------------
    def _check_counters(self, counters: Mapping[str, float]) -> None:
        unknown = [name for name in counters if name not in self._counters]
        if unknown:
            raise TraceFormatError(
                f"counter(s) {sorted(unknown)} not registered in the tail "
                f"writer's dictionary (frozen at create time; "
                f"registered: {sorted(self._counters)})"
            )

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise TraceFormatError(
                f"rank {rank} out of range for a {self.n_ranks}-rank trace"
            )

    def _emit(self, line: str) -> None:
        self._handle.write(line + "\n")
        self._handle.flush()
        self._maybe_fsync()
        self.n_appended += 1

    def _maybe_fsync(self) -> None:
        if self.fsync:
            os.fsync(self._handle.fileno())

    # ------------------------------------------------------------------
    def append_state(self, record: StateRecord) -> None:
        """Append one ``S`` record and flush."""
        self._check_rank(record.rank)
        if record.kind.value not in self._states:
            # Possible after open() on a file whose dictionary only ever
            # saw one state kind; allocating now would desync the header.
            raise TraceFormatError(
                f"state kind {record.kind.value!r} not registered in the "
                f"tail writer's dictionary (frozen; "
                f"registered: {sorted(self._states)})"
            )
        self._emit(_format_state(record, self._dictionary))

    def append_instrumentation(self, record: InstrumentationRecord) -> None:
        """Append one ``I`` record and flush."""
        self._check_rank(record.rank)
        self._check_counters(record.counters)
        self._emit(_format_instrumentation(record, self._dictionary))

    def append_sample(self, record: SampleRecord) -> None:
        """Append one ``P`` record and flush."""
        self._check_rank(record.rank)
        self._check_counters(record.counters)
        self._emit(_format_sample(record, self._dictionary))

    def append(
        self, record: Union[StateRecord, InstrumentationRecord, SampleRecord]
    ) -> None:
        """Append any record type (dispatches on the dataclass)."""
        if isinstance(record, StateRecord):
            self.append_state(record)
        elif isinstance(record, InstrumentationRecord):
            self.append_instrumentation(record)
        elif isinstance(record, SampleRecord):
            self.append_sample(record)
        else:
            raise TraceFormatError(f"not a trace record: {record!r}")

    def close(self) -> None:
        """Flush and close the underlying file handle (idempotent)."""
        if not self._handle.closed:
            self._handle.flush()
            self._maybe_fsync()
            self._handle.close()

    def __enter__(self) -> "TraceTailWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
