"""Trace record types and the in-memory :class:`Trace` container.

Records are plain frozen dataclasses ordered by ``(time, rank)``.  Call
stacks inside :class:`SampleRecord` are stored as tuples of
``(routine_name, file_path, line)`` triples rather than live
:class:`~repro.source.callpath.CallPath` objects, so a trace read back from
disk is identical to one kept in memory (the analysis side only ever needs
the symbolic frames, exactly like a real tracer resolving addresses through
debug info).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import TraceFormatError
from repro.source.callpath import CallPath

__all__ = [
    "StateKind",
    "FrameTriple",
    "StateRecord",
    "InstrumentationRecord",
    "SampleRecord",
    "Trace",
    "callpath_to_frames",
    "records_by_rank",
]

#: ``(routine_name, file_path, line)`` — the serialized form of one frame.
FrameTriple = Tuple[str, str, int]


def callpath_to_frames(callpath: Optional[CallPath]) -> Tuple[FrameTriple, ...]:
    """Flatten a live call path into serializable frame triples."""
    if callpath is None:
        return ()
    return tuple(
        (f.routine.name, f.routine.file.path, f.line) for f in callpath.frames
    )


class StateKind(enum.Enum):
    """What a rank is doing during a state interval."""

    COMPUTE = "compute"
    COMM = "comm"


@dataclass(frozen=True)
class StateRecord:
    """Rank ``rank`` is in state ``kind`` during ``[t_start, t_end]``.

    ``label`` carries the MPI call name for COMM states; it is empty for
    COMPUTE states (the tracer does not know kernel identities — recovering
    them is the clustering stage's job).
    """

    rank: int
    t_start: float
    t_end: float
    kind: StateKind
    label: str = ""

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise TraceFormatError(f"negative rank: {self.rank}")
        if not self.t_end >= self.t_start:
            raise TraceFormatError(
                f"state interval inverted: [{self.t_start}, {self.t_end}]"
            )

    @property
    def duration(self) -> float:
        """Interval length in seconds."""
        return self.t_end - self.t_start


@dataclass(frozen=True)
class InstrumentationRecord:
    """A minimal-instrumentation probe: comm enter/exit + counters.

    ``marker`` is ``"comm_enter"`` or ``"comm_exit"``; ``counters`` maps
    counter names to values accumulated since the rank started.
    """

    rank: int
    time: float
    marker: str
    mpi_call: str
    counters: Mapping[str, float]

    VALID_MARKERS = ("comm_enter", "comm_exit")

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise TraceFormatError(f"negative rank: {self.rank}")
        if self.marker not in self.VALID_MARKERS:
            raise TraceFormatError(
                f"marker must be one of {self.VALID_MARKERS}, got {self.marker!r}"
            )
        for name, value in self.counters.items():
            if value < 0:
                raise TraceFormatError(f"negative counter {name}={value} at t={self.time}")


@dataclass(frozen=True)
class SampleRecord:
    """A coarse-grain sampler tick: accumulated counters + call stack.

    ``frames`` is empty when the sample landed inside a communication call
    (the unwinder stops at the MPI library boundary).
    """

    rank: int
    time: float
    counters: Mapping[str, float]
    frames: Tuple[FrameTriple, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise TraceFormatError(f"negative rank: {self.rank}")
        for name, value in self.counters.items():
            if value < 0:
                raise TraceFormatError(f"negative counter {name}={value} at t={self.time}")

    @property
    def leaf_frame(self) -> Optional[FrameTriple]:
        """Innermost frame, or ``None`` for in-MPI samples."""
        return self.frames[-1] if self.frames else None

    @property
    def in_mpi(self) -> bool:
        """Whether the sample landed inside a communication call."""
        return not self.frames


@dataclass
class Trace:
    """In-memory trace: all records of one run, plus run metadata."""

    n_ranks: int
    app_name: str = ""
    states: List[StateRecord] = field(default_factory=list)
    instrumentation: List[InstrumentationRecord] = field(default_factory=list)
    samples: List[SampleRecord] = field(default_factory=list)
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise TraceFormatError(f"n_ranks must be >= 1, got {self.n_ranks}")

    # ------------------------------------------------------------------
    # mutation (used by the tracer)
    # ------------------------------------------------------------------
    def add_state(self, record: StateRecord) -> None:
        """Append a state record (rank must be in range)."""
        self._check_rank(record.rank)
        self.states.append(record)

    def add_instrumentation(self, record: InstrumentationRecord) -> None:
        """Append an instrumentation record."""
        self._check_rank(record.rank)
        self.instrumentation.append(record)

    def add_sample(self, record: SampleRecord) -> None:
        """Append a sample record."""
        self._check_rank(record.rank)
        self.samples.append(record)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise TraceFormatError(f"rank {rank} out of range [0, {self.n_ranks})")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def sort(self) -> None:
        """Sort every record list by ``(time, rank)`` in place."""
        self.states.sort(key=lambda r: (r.t_start, r.rank))
        self.instrumentation.sort(key=lambda r: (r.time, r.rank))
        self.samples.sort(key=lambda r: (r.time, r.rank))

    def states_of(self, rank: int) -> List[StateRecord]:
        """State records of one rank, in time order."""
        self._check_rank(rank)
        return sorted(
            (r for r in self.states if r.rank == rank), key=lambda r: r.t_start
        )

    def instrumentation_of(self, rank: int) -> List[InstrumentationRecord]:
        """Instrumentation records of one rank, in time order."""
        self._check_rank(rank)
        return sorted(
            (r for r in self.instrumentation if r.rank == rank),
            key=lambda r: r.time,
        )

    def samples_of(self, rank: int) -> List[SampleRecord]:
        """Sample records of one rank, in time order."""
        self._check_rank(rank)
        return sorted((r for r in self.samples if r.rank == rank), key=lambda r: r.time)

    def counter_names(self) -> List[str]:
        """Counter names present in the trace (stable first-seen order)."""
        seen: List[str] = []
        for record in self.instrumentation:
            for name in record.counters:
                if name not in seen:
                    seen.append(name)
        for record in self.samples:
            for name in record.counters:
                if name not in seen:
                    seen.append(name)
        return seen

    @property
    def duration(self) -> float:
        """Time of the last record in the trace (0 when empty)."""
        candidates = [0.0]
        if self.states:
            candidates.append(max(r.t_end for r in self.states))
        if self.instrumentation:
            candidates.append(max(r.time for r in self.instrumentation))
        if self.samples:
            candidates.append(max(r.time for r in self.samples))
        return max(candidates)

    @property
    def n_records(self) -> int:
        """Total number of records of all kinds."""
        return len(self.states) + len(self.instrumentation) + len(self.samples)

    def __repr__(self) -> str:
        return (
            f"Trace(app={self.app_name!r}, ranks={self.n_ranks}, "
            f"states={len(self.states)}, probes={len(self.instrumentation)}, "
            f"samples={len(self.samples)})"
        )


def records_by_rank(records: Sequence, n_ranks: int) -> List[List]:
    """Timestamped records split by rank (list ``r`` holds rank ``r``),
    each in time order; ranks outside ``[0, n_ranks)`` are left out.

    One pass buckets the records by rank in their given order, and a
    stable sort by time orders each bucket: the order that
    :meth:`Trace.instrumentation_of` / :meth:`Trace.samples_of` give each
    rank, without one pass over all records per rank.
    """
    grouped: List[List] = [[] for _ in range(n_ranks)]
    for record in records:
        if 0 <= record.rank < n_ranks:
            grouped[record.rank].append(record)
    for bucket in grouped:
        bucket.sort(key=lambda r: r.time)
    return grouped
