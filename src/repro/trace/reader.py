"""Trace deserialization — inverse of :mod:`repro.trace.writer`.

One incremental parser, :class:`TraceParser`, owns the format: it takes
text in chunks of any size, holds back a torn last line until its
newline arrives, and walks the one section machine (magic header →
header lines → ``[dict]`` → ``[records]``).  The batch reads
(:func:`read_trace`, :func:`read_trace_salvaged`, :func:`load_trace_text`,
:func:`salvage_trace_text`) feed it the whole input and build a
:class:`~repro.trace.records.Trace`; ``repro watch`` feeds it a growing
file (re-exported as :class:`repro.stream.StreamParser`).  Live and batch
therefore cannot disagree on what a file says.

Line rules: the magic header must be the first line, and only ``\\n``
ends a line (surrounding whitespace, such as the ``\\r`` of a CRLF file,
is stripped; the writer percent-quotes every other separator).

Two read policies (:class:`ReadPolicy`):

* **STRICT** (default for the batch reads) — unknown record tags,
  missing sections, ids absent from the dictionary, malformed fields, and
  non-finite/negative numbers all raise
  :class:`~repro.errors.TraceFormatError` with the offending line number.
  A strict read that returns is a guarantee the file is exactly what the
  writer produced.
* **SALVAGE** — damaged lines are *dropped, counted, and reported* instead
  of aborting the read: production traces arrive truncated, bit-rotted and
  clock-skewed, and one bad byte must not cost the other 99.9% of the
  records.  :func:`read_trace_salvaged` returns the recovered
  :class:`~repro.trace.records.Trace` together with a
  :class:`SalvageReport` itemizing every drop by reason.  Only when
  *nothing* is recoverable (no header, or no usable ``ranks`` and no valid
  records) does salvage raise :class:`~repro.errors.SalvageError`.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import IO, Dict, Iterable, List, Optional, Tuple, Union
from urllib.parse import unquote

from repro.errors import ConfigurationError, SalvageError, TraceFormatError
from repro.observability.context import counter as _metric_counter
from repro.observability.context import span as _span
from repro.trace.pcf import EventDictionary
from repro.trace.records import (
    InstrumentationRecord,
    SampleRecord,
    StateKind,
    StateRecord,
    Trace,
)
from repro.trace.writer import FORMAT_HEADER

__all__ = [
    "ReadPolicy",
    "SalvageReport",
    "TraceParser",
    "read_trace",
    "read_trace_salvaged",
    "load_trace_text",
    "salvage_trace_text",
]

#: One parsed record of any tag.
Record = Union[StateRecord, InstrumentationRecord, SampleRecord]

#: Characters per chunk fed to the parser by the batch reads.
_CHUNK = 1 << 16


class ReadPolicy(enum.Enum):
    """How the reader treats damaged input."""

    STRICT = "strict"
    SALVAGE = "salvage"


@dataclass
class SalvageReport:
    """What a salvage-mode read dropped, and why.

    ``reasons`` counts drop events by category (``malformed-record``,
    ``unknown-tag``, ``unknown-id``, ``bad-timestamp``, ``rank-out-of-range``,
    ``duplicate-record``, ``non-finite-counter``, ``header``,
    ``dictionary``).  ``first_bad``/``last_bad`` pin the offending region
    of the file for a human with an editor.  ``non-finite-counter`` drops
    remove a single counter entry, not the whole record, so they are
    excluded from ``n_lines_dropped``.
    """

    n_record_lines: int = 0
    n_records_kept: int = 0
    n_lines_dropped: int = 0
    n_counters_dropped: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)
    first_bad: Optional[Tuple[int, str]] = None
    last_bad: Optional[Tuple[int, str]] = None
    inferred_ranks: bool = False

    def _note(self, lineno: int, line: str, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        clipped = line if len(line) <= 120 else line[:117] + "..."
        if self.first_bad is None:
            self.first_bad = (lineno, clipped)
        self.last_bad = (lineno, clipped)

    def drop_line(self, lineno: int, line: str, reason: str) -> None:
        """Record one whole-line drop."""
        self.n_lines_dropped += 1
        self._note(lineno, line, reason)

    def drop_counter(self, lineno: int, item: str) -> None:
        """Record one non-finite counter entry removed from a kept record."""
        self.n_counters_dropped += 1
        self._note(lineno, item, "non-finite-counter")

    @property
    def clean(self) -> bool:
        """True when nothing was dropped or inferred."""
        return (
            self.n_lines_dropped == 0
            and self.n_counters_dropped == 0
            and not self.inferred_ranks
        )

    @property
    def drop_fraction(self) -> float:
        """Fraction of record lines dropped."""
        if self.n_record_lines == 0:
            return 0.0
        return self.n_lines_dropped / self.n_record_lines

    def summary(self) -> str:
        """Human-readable multi-line rendering (CLI output)."""
        if self.clean:
            return f"salvage: clean — all {self.n_records_kept} records read"
        lines = [
            f"salvage: kept {self.n_records_kept}/{self.n_record_lines} records "
            f"({self.n_lines_dropped} lines dropped, "
            f"{self.n_counters_dropped} counter entries dropped)"
        ]
        for reason in sorted(self.reasons):
            lines.append(f"  {reason:<22} {self.reasons[reason]}")
        if self.first_bad is not None:
            lines.append(f"  first bad line {self.first_bad[0]}: {self.first_bad[1]!r}")
        if self.last_bad is not None and self.last_bad != self.first_bad:
            lines.append(f"  last bad line  {self.last_bad[0]}: {self.last_bad[1]!r}")
        if self.inferred_ranks:
            lines.append("  rank count inferred from records (header damaged)")
        return "\n".join(lines)


def read_trace(
    source: Union[str, IO[str]], policy: ReadPolicy = ReadPolicy.STRICT
) -> Trace:
    """Read a trace from a path or text stream.

    With ``policy=ReadPolicy.SALVAGE`` damaged lines are skipped silently;
    use :func:`read_trace_salvaged` when the drop report matters (it
    almost always does).
    """
    trace, _report = _read_source(source, policy)
    return trace


def read_trace_salvaged(source: Union[str, IO[str]]) -> Tuple[Trace, SalvageReport]:
    """Salvage-read a trace, returning what survived plus the drop report."""
    return _read_source(source, ReadPolicy.SALVAGE)


def load_trace_text(text: str, policy: ReadPolicy = ReadPolicy.STRICT) -> Trace:
    """Parse a trace from a string (round-trip test helper)."""
    trace, _report = _read(_slices(text), policy)
    return trace


def salvage_trace_text(text: str) -> Tuple[Trace, SalvageReport]:
    """Salvage-parse a trace from a string, with the drop report."""
    return _read(_slices(text), ReadPolicy.SALVAGE)


def _slices(text: str) -> Iterable[str]:
    return (text[start:start + _CHUNK] for start in range(0, len(text), _CHUNK))


def _read_source(
    source: Union[str, IO[str]], policy: ReadPolicy
) -> Tuple[Trace, SalvageReport]:
    if isinstance(source, str):
        # newline="" keeps "\r" in the text, so only "\n" ends a line.
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return _read(iter(lambda: handle.read(_CHUNK), ""), policy)
    return _read(iter(lambda: source.read(_CHUNK), ""), policy)


def _read(chunks: Iterable[str], policy: ReadPolicy) -> Tuple[Trace, SalvageReport]:
    """Feed every chunk to one unbounded-window parser, then build the trace."""
    with _span("read_trace", policy=policy.value):
        parser = TraceParser(policy=policy, dedup_window=None)
        records: List[Record] = []
        for chunk in chunks:
            records += parser.feed(chunk)
        records += parser.finish()
        trace = parser.build_trace(records)
    _metric_counter("read.records_kept").inc(trace.n_records)
    _metric_counter("read.lines_dropped").inc(parser.report.n_lines_dropped)
    return trace, parser.report


def _unquote(token: str) -> str:
    return "" if token == "-" else unquote(token)


def _fail(lineno: int, message: str, reason: str) -> None:
    """Raise a :class:`TraceFormatError` tagged with a salvage reason."""
    error = TraceFormatError(f"line {lineno}: {message}")
    error.reason = reason  # type: ignore[attr-defined]
    raise error


def _parse_counters(
    token: str,
    dictionary: EventDictionary,
    lineno: int,
    policy: ReadPolicy,
    report: SalvageReport,
) -> Dict[str, float]:
    if token == "-":
        return {}
    names = dictionary.counter_names_by_text
    counters: Dict[str, float] = {}
    for item in token.split(","):
        cid_text, eq, value_text = item.partition("=")
        if not eq:
            _fail(lineno, f"malformed counter item {item!r}", "malformed-record")
        # Ids in canonical text hit the table; any other spelling that
        # int() accepts (``042000010``) resolves after the value check.
        name = names.get(cid_text)
        try:
            if name is None:
                cid = int(cid_text)
            value = float(value_text)
        except ValueError:
            _fail(lineno, f"malformed counter item {item!r}", "malformed-record")
        if not math.isfinite(value):
            # A failed PMU read: drop the entry in salvage (the record's
            # other counters are still good), refuse the file in strict.
            if policy is ReadPolicy.STRICT:
                _fail(
                    lineno, f"non-finite counter value {item!r}", "non-finite-counter"
                )
            report.drop_counter(lineno, item)
            continue
        if name is None:
            try:
                name = dictionary.counter_name(cid)
            except TraceFormatError:
                _fail(lineno, f"counter id {cid} not in event dictionary", "unknown-id")
        counters[name] = value
    return counters


def _parse_frames(token: str, lineno: int) -> Tuple[Tuple[str, str, int], ...]:
    if token == "-":
        return ()
    frames: List[Tuple[str, str, int]] = []
    for item in token.split("|"):
        parts = item.split("@")
        if len(parts) != 3:
            _fail(lineno, f"malformed frame {item!r}", "malformed-record")
        routine, path, line_text = parts
        try:
            line = int(line_text)
        except ValueError:
            _fail(lineno, f"malformed frame line {item!r}", "malformed-record")
        frames.append((_unquote(routine), _unquote(path), line))
    return tuple(frames)


def _parse_time(text: str, lineno: int, what: str = "timestamp") -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0.0:
        _fail(lineno, f"{what} must be finite and >= 0, got {text!r}", "bad-timestamp")
    return value


def _parse_record(
    tag: str,
    fields: List[str],
    dictionary: EventDictionary,
    lineno: int,
    policy: ReadPolicy,
    report: SalvageReport,
) -> Record:
    """Parse one record line into a typed record, or raise (tagged)."""
    if tag == "S":
        rank, t0, t1, sid, label = fields
        try:
            kind = StateKind(dictionary.state_name(int(sid)))
        except TraceFormatError:
            _fail(lineno, f"state id {sid} not in event dictionary", "unknown-id")
        return StateRecord(
            rank=int(rank),
            t_start=_parse_time(t0, lineno, "state start"),
            t_end=_parse_time(t1, lineno, "state end"),
            kind=kind,
            label=_unquote(label),
        )
    if tag == "I":
        rank, t, marker, call, counters = fields
        return InstrumentationRecord(
            rank=int(rank),
            time=_parse_time(t, lineno),
            marker=marker,
            mpi_call=_unquote(call),
            counters=_parse_counters(counters, dictionary, lineno, policy, report),
        )
    if tag == "P":
        rank, t, counters, frames = fields
        return SampleRecord(
            rank=int(rank),
            time=_parse_time(t, lineno),
            counters=_parse_counters(counters, dictionary, lineno, policy, report),
            frames=_parse_frames(frames, lineno),
        )
    _fail(lineno, f"unknown record tag {tag!r}", "unknown-tag")


class TraceParser:
    """Incremental parser over chunked trace text — the only one there is.

    :meth:`feed` takes a chunk of any size and returns the typed records
    it completed; the piece after the last newline is held back until
    the rest of its line arrives, and :meth:`finish` parses it as the
    final line.  :meth:`build_trace` then checks the end-of-input rules
    and assembles the :class:`~repro.trace.records.Trace` (the batch
    reads); ``repro watch`` consumes the records as they come instead.

    ``policy`` decides what a damaged line does: STRICT raises
    :class:`~repro.errors.TraceFormatError` with its line number, SALVAGE
    drops and counts it in :attr:`report`.  Salvage also drops exact
    duplicate record lines (retried writes), remembering the last
    ``dedup_window`` distinct lines; ``None`` remembers them all, which
    is what a batch read uses.  A live stream keeps the window bounded,
    and duplicates further apart than that are left to the exact
    finalization re-read.

    A salvage parser is fully serializable (:meth:`state_to_dict` /
    :meth:`from_state`), so a checkpointed stream resumes with identical
    drop counts and dedup behavior.
    """

    def __init__(
        self,
        policy: ReadPolicy = ReadPolicy.SALVAGE,
        dedup_window: Optional[int] = 4096,
    ) -> None:
        if dedup_window is not None and dedup_window < 1:
            raise ConfigurationError(f"dedup_window must be >= 1, got {dedup_window}")
        self.policy = policy
        self.dedup_window = dedup_window
        self.report = SalvageReport()
        self.lineno = 0
        self.section = "preamble"  # preamble -> header -> dict -> records
        self.app_name = ""
        self.n_ranks = 0
        self.metadata: Dict[str, str] = {}
        self.max_rank_seen = -1
        self._tail: List[str] = []  # pieces of the torn trailing line
        self._dict_lines: List[str] = []  # accepted dictionary lines
        self.dictionary = EventDictionary()
        self._recent: "OrderedDict[str, None]" = OrderedDict()

    @property
    def strict(self) -> bool:
        """Whether a damaged line raises instead of being dropped."""
        return self.policy is ReadPolicy.STRICT

    @property
    def effective_ranks(self) -> int:
        """Rank count: from the header, or inferred from records so far."""
        if self.n_ranks >= 1:
            return self.n_ranks
        return self.max_rank_seen + 1

    # ------------------------------------------------------------------
    def feed(self, text: str) -> List[Record]:
        """Consume a chunk of text; return the records it completed."""
        if "\n" not in text:
            if text:
                self._tail.append(text)
            return []
        if self._tail:
            text = "".join(self._tail) + text
        pieces = text.split("\n")
        tail = pieces.pop()  # "" when the chunk ended on a newline
        self._tail = [tail] if tail else []
        out: List[Record] = []
        for piece in pieces:
            record = self._line(piece)
            if record is not None:
                out.append(record)
        return out

    def finish(self) -> List[Record]:
        """Parse the held-back tail as the final line, at end of input.

        A tail without its newline is a line like any other: if the
        producer died mid-record, it is damaged and handled per policy.
        """
        if not self._tail:
            return []
        tail = "".join(self._tail)
        self._tail = []
        record = self._line(tail)
        return [record] if record is not None else []

    def build_trace(self, records: List[Record]) -> Trace:
        """Assemble the records of a finished parse into a :class:`Trace`.

        Raises when the input held no line at all, and when the header
        gave no usable ``ranks`` (strict) or nothing was left to infer it
        from (salvage).
        """
        if self.section == "preamble":
            self._fatal("empty trace file")
        n_ranks = self.n_ranks
        if n_ranks < 1:
            if self.strict:
                raise TraceFormatError("trace header missing a valid 'ranks' line")
            if not records:
                raise SalvageError(
                    "trace has no usable 'ranks' header and no readable records"
                )
            n_ranks = self.max_rank_seen + 1
        trace = Trace(n_ranks=n_ranks, app_name=self.app_name, metadata=self.metadata)
        # Ranks were range-checked per line, so the lists take records as is.
        by_type = {
            StateRecord: trace.states,
            InstrumentationRecord: trace.instrumentation,
            SampleRecord: trace.samples,
        }
        for record in records:
            by_type[type(record)].append(record)
        return trace

    # ------------------------------------------------------------------
    def _fatal(self, message: str) -> None:
        """Not a trace at any damage level."""
        raise TraceFormatError(message) if self.strict else SalvageError(message)

    def _damaged(self, line: str, message: str, reason: str) -> None:
        """Raise (strict) or drop and count (salvage) the current line."""
        if self.strict:
            raise TraceFormatError(f"line {self.lineno}: {message}")
        self.report.drop_line(self.lineno, line, reason)

    def _line(self, raw: str) -> Optional[Record]:
        self.lineno += 1
        line = raw.strip()
        if self.section == "records" and line[:1] not in ("", "["):
            return self._record_line(line)
        if self.section == "preamble":
            if line != FORMAT_HEADER:
                shown = raw.rstrip("\r")
                self._fatal(
                    f"missing trace header; expected {FORMAT_HEADER!r}, got {shown!r}"
                )
            self.section = "header"
        elif not line:
            pass
        elif line == "[dict]":
            self.section = "dict"
        elif line == "[records]":
            self.section = "records"
        elif self.section == "header":
            self._header_line(raw.rstrip("\r"), line)
        elif self.section == "dict":
            self._dict_line(line)
        else:
            return self._record_line(line)
        return None

    def _header_line(self, raw: str, line: str) -> None:
        parts = line.split()
        if parts[0] == "app" and len(parts) == 2:
            self.app_name = _unquote(parts[1])
        elif parts[0] == "ranks" and len(parts) == 2:
            try:
                self.n_ranks = int(parts[1])
            except ValueError:
                self._damaged(line, f"malformed ranks line {raw!r}", "header")
        elif parts[0] == "meta" and len(parts) == 3:
            self.metadata[_unquote(parts[1])] = _unquote(parts[2])
        else:
            self._damaged(line, f"unknown header line {raw!r}", "header")

    def _dict_line(self, line: str) -> None:
        # A line is accepted iff the dictionary still parses with it added,
        # so EventDictionary.from_lines stays the one dictionary parser.
        try:
            dictionary = EventDictionary.from_lines(self._dict_lines + [line])
        except TraceFormatError as exc:
            self._damaged(line, str(exc), "dictionary")
            return
        self._dict_lines.append(line)
        self.dictionary = dictionary

    def _record_line(self, line: str) -> Optional[Record]:
        report = self.report
        report.n_record_lines += 1
        if self.strict and self.n_ranks < 1:
            raise TraceFormatError("trace header missing a valid 'ranks' line")
        tag, rest = line[0], line[2:] if len(line) > 2 else ""
        try:
            record = _parse_record(
                tag, rest.split(), self.dictionary, self.lineno, self.policy, report
            )
        except TraceFormatError as exc:
            reason = getattr(exc, "reason", None)
            if self.strict and reason is not None:
                raise
            # Untagged: a record invariant (negative rank, bad marker, ...).
            self._damaged(line, str(exc), reason or "malformed-record")
            return None
        except (ValueError, KeyError) as exc:
            self._damaged(line, f"malformed record {line!r}: {exc}", "malformed-record")
            return None
        if not self.strict:
            recent = self._recent
            if line in recent:
                report.drop_line(self.lineno, line, "duplicate-record")
                return None
            recent[line] = None
            if self.dedup_window is not None and len(recent) > self.dedup_window:
                recent.popitem(last=False)
        rank = record.rank
        if self.n_ranks >= 1 and rank >= self.n_ranks:
            self._damaged(
                line, f"rank {rank} out of range [0, {self.n_ranks})",
                "rank-out-of-range",
            )
            return None
        if rank > self.max_rank_seen:
            self.max_rank_seen = rank
            if self.n_ranks < 1:
                report.inferred_ranks = True
        report.n_records_kept += 1
        return record

    # ------------------------------------------------------------------
    def state_to_dict(self) -> Dict[str, object]:
        """Serializable snapshot of the full parser state."""
        return {
            "dedup_window": self.dedup_window,
            "lineno": self.lineno,
            "section": self.section,
            "app_name": self.app_name,
            "n_ranks": self.n_ranks,
            "metadata": dict(self.metadata),
            "max_rank_seen": self.max_rank_seen,
            "tail": "".join(self._tail),
            "dict_lines": list(self._dict_lines),
            "recent": list(self._recent),
            "report": dataclasses.asdict(self.report),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "TraceParser":
        """Rebuild a salvage parser from :meth:`state_to_dict` output."""
        window = state["dedup_window"]
        parser = cls(dedup_window=None if window is None else int(window))  # type: ignore[arg-type]
        parser.lineno = int(state["lineno"])  # type: ignore[arg-type]
        parser.section = str(state["section"])
        parser.app_name = str(state["app_name"])
        parser.n_ranks = int(state["n_ranks"])  # type: ignore[arg-type]
        parser.metadata = dict(state["metadata"])  # type: ignore[arg-type]
        parser.max_rank_seen = int(state["max_rank_seen"])  # type: ignore[arg-type]
        parser._tail = [str(state["tail"])] if state["tail"] else []
        parser._dict_lines = list(state["dict_lines"])  # type: ignore[arg-type]
        parser.dictionary = EventDictionary.from_lines(parser._dict_lines)
        parser._recent = OrderedDict((line, None) for line in state["recent"])  # type: ignore[union-attr]
        report = dict(state["report"])  # type: ignore[arg-type]
        report["reasons"] = dict(report["reasons"])
        for key in ("first_bad", "last_bad"):  # JSON turned them into lists
            if report[key] is not None:
                report[key] = tuple(report[key])
        parser.report = SalvageReport(**report)
        return parser
