"""Computation-burst extraction from traces.

A computation burst is the region between a communication exit and the next
communication entry on the same rank.  Its endpoints carry exact counter
snapshots (the minimal-instrumentation probes), so each burst knows its
duration and per-counter totals; the samples that landed inside it are
attached for the folding stage.

One state machine pairs the probes and attaches the samples:
:class:`IncrementalBurstAssembler`.  Live reads (``repro watch``) feed it
records as they arrive; :func:`extract_bursts` feeds it a whole trace,
rank by rank.

Extraction works purely from the trace — never from ground truth — so the
pipeline sees exactly what a real tool would.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ClusteringError, StreamError
from repro.observability.context import counter as _metric_counter
from repro.observability.context import span as _span
from repro.trace.records import (
    InstrumentationRecord,
    SampleRecord,
    StateRecord,
    Trace,
    records_by_rank,
)

__all__ = [
    "ComputationBurst",
    "BurstSet",
    "IncrementalBurstAssembler",
    "extract_bursts",
    "burst_to_dict",
    "burst_from_dict",
]

Record = Union[StateRecord, InstrumentationRecord, SampleRecord]


def _values_and_presence(raw: List[Optional[float]]) -> Tuple[np.ndarray, np.ndarray]:
    """``(values, present)`` arrays from possibly-None sample values.

    ``np.array(..., dtype=float)`` maps None to NaN in a single C-level
    pass; the Python-level presence scan only runs when some value was
    NaN-or-None, so the common complete case costs one pass instead of
    three.  A genuinely-NaN trace value keeps ``present=True``.
    """
    values = np.array(raw, dtype=float)
    if np.isnan(values).any():
        present = np.array([v is not None for v in raw], dtype=bool)
    else:
        present = np.ones(values.size, dtype=bool)
    return values, present


@dataclass
class ComputationBurst:
    """One computation region delimited by communication probes."""

    rank: int
    index: int
    t_start: float
    t_end: float
    start_counters: Mapping[str, float]
    end_counters: Mapping[str, float]
    samples: List[SampleRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.t_end > self.t_start:
            raise ClusteringError(
                f"burst rank={self.rank} idx={self.index}: empty interval "
                f"[{self.t_start}, {self.t_end}]"
            )
        # Lazy per-burst sample arrays (built on first access, after the
        # extraction step assigns ``samples``).  These feed the vectorized
        # folding inner loop; see sample_times()/sample_values().
        self._sample_times: Optional[np.ndarray] = None
        self._sample_values: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    @property
    def duration(self) -> float:
        """Burst length in seconds."""
        return self.t_end - self.t_start

    def delta(self, counter: str) -> float:
        """Events of ``counter`` accumulated inside the burst."""
        try:
            return float(self.end_counters[counter] - self.start_counters[counter])
        except KeyError:
            raise ClusteringError(
                f"counter {counter!r} missing from burst probes; "
                f"available: {sorted(self.start_counters)}"
            ) from None

    def delta_or_nan(self, counter: str) -> float:
        """Like :meth:`delta` but NaN when the counter was not measured
        in this burst (PMU multiplexing)."""
        start = self.start_counters.get(counter)
        end = self.end_counters.get(counter)
        if start is None or end is None:
            return float("nan")
        return float(end - start)

    def has_counter(self, counter: str) -> bool:
        """Whether this burst's probes measured ``counter``."""
        return counter in self.start_counters and counter in self.end_counters

    def rate(self, counter: str) -> float:
        """Mean event rate of ``counter`` over the burst (events/s)."""
        return self.delta(counter) / self.duration

    @property
    def counter_names(self) -> List[str]:
        """Counters snapshot at the burst boundary."""
        return list(self.start_counters)

    # ------------------------------------------------------------------
    # vectorized sample views (the folding hot path)
    # ------------------------------------------------------------------
    def sample_times(self) -> np.ndarray:
        """Sample timestamps as an array, cached after first access.

        Extraction assigns :attr:`samples` once; a cache whose length no
        longer matches it is rebuilt.
        """
        if self._sample_times is None or self._sample_times.size != len(
            self.samples
        ):
            self._sample_times = np.array(
                [s.time for s in self.samples], dtype=float
            )
        return self._sample_times

    def sample_values(self, counter: str) -> Tuple[np.ndarray, np.ndarray]:
        """Per-sample values of ``counter`` plus a presence mask, cached.

        Returns ``(values, present)`` index-aligned with :attr:`samples`:
        ``present[i]`` is False where the sample did not carry the counter
        (its ``values[i]`` is NaN).  A value that is genuinely NaN in the
        trace stays NaN *with* ``present=True`` so callers can keep the
        exact semantics of a per-sample ``counters.get``.
        """
        cached = self._sample_values.get(counter)
        if cached is not None and cached[0].size == len(self.samples):
            return cached
        raw = [s.counters.get(counter) for s in self.samples]
        values, present = _values_and_presence(raw)
        self._sample_values[counter] = (values, present)
        return values, present

    @staticmethod
    def batch_sample_times(
        bursts: Sequence["ComputationBurst"],
    ) -> np.ndarray:
        """Concatenated sample times of ``bursts`` in (burst, sample) order.

        Builds the flat array in one pass and seeds each burst's
        :meth:`sample_times` cache with a zero-copy view — constructing
        thousands of tiny per-burst arrays one by one was the measured
        cold-path cost of the vectorized fold.
        """
        if not bursts:
            return np.empty(0)
        if all(
            b._sample_times is not None
            and b._sample_times.size == len(b.samples)
            for b in bursts
        ):
            return np.concatenate([b._sample_times for b in bursts])
        flat = np.array(
            [s.time for b in bursts for s in b.samples], dtype=float
        )
        offset = 0
        for b in bursts:
            n = len(b.samples)
            b._sample_times = flat[offset : offset + n]
            offset += n
        return flat

    @staticmethod
    def batch_sample_values_all(
        bursts: Sequence["ComputationBurst"], counters: Sequence[str]
    ) -> Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]]:
        """All-counters-at-once variant of :meth:`batch_sample_values`.

        When every sample carries every counter (no PMU multiplexing, no
        NaN values) a single ``itemgetter`` pass extracts the whole
        value matrix — one C-level call per sample instead of one dict
        lookup per (sample, counter) pair.  Returns None when that fast
        path cannot preserve exact per-counter presence semantics (a
        missing key, or any NaN-or-None value); callers then fall back
        to :meth:`batch_sample_values` per counter.
        """
        if not counters:
            return {}
        getter = operator.itemgetter(*counters)
        try:
            rows = [getter(s.counters) for b in bursts for s in b.samples]
        except KeyError:
            return None
        mat = np.array(rows, dtype=float)
        if not rows:
            mat = mat.reshape(0, len(counters))
        elif len(counters) == 1:
            mat = mat.reshape(-1, 1)
        if np.isnan(mat).any():
            # Can't tell a genuine NaN (present=True) from a None value
            # (present=False) after the float conversion — punt.
            return None
        present = np.ones(mat.shape[0], dtype=bool)
        return {
            c: (np.ascontiguousarray(mat[:, j]), present)
            for j, c in enumerate(counters)
        }

    @staticmethod
    def batch_sample_values(
        bursts: Sequence["ComputationBurst"], counter: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated ``(values, present)`` of ``counter`` over ``bursts``.

        Same semantics as :meth:`sample_values`, same (burst, sample)
        order as :meth:`batch_sample_times`; seeds each burst's cache
        with views of the flat arrays.
        """
        if not bursts:
            return np.empty(0), np.empty(0, dtype=bool)
        cached = [b._sample_values.get(counter) for b in bursts]
        if all(
            c is not None and c[0].size == len(b.samples)
            for b, c in zip(bursts, cached)
        ):
            return (
                np.concatenate([c[0] for c in cached]),
                np.concatenate([c[1] for c in cached]),
            )
        raw = [s.counters.get(counter) for b in bursts for s in b.samples]
        values, present = _values_and_presence(raw)
        offset = 0
        for b in bursts:
            n = len(b.samples)
            b._sample_values[counter] = (
                values[offset : offset + n],
                present[offset : offset + n],
            )
            offset += n
        return values, present


@dataclass
class BurstSet:
    """All bursts of a trace plus vectorized accessors.

    The array accessors (:meth:`durations`, :meth:`deltas`,
    :meth:`deltas_or_nan`) are memoized — per-cluster analysis calls them
    from inner loops, and rebuilding a 20k-element list per call was a
    measured hot spot.  The cached arrays are shared, not copied: callers
    must treat them as read-only.  :meth:`subset` returns a fresh
    ``BurstSet``, which is what invalidates the caches — mutating
    :attr:`bursts` in place after an accessor has been called is not
    supported.
    """

    bursts: List[ComputationBurst]

    def __post_init__(self) -> None:
        if not self.bursts:
            raise ClusteringError("burst set is empty")
        self._durations: Optional[np.ndarray] = None
        self._deltas: Dict[str, np.ndarray] = {}
        self._deltas_or_nan: Dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.bursts)

    def __iter__(self):
        return iter(self.bursts)

    def __getitem__(self, i: int) -> ComputationBurst:
        return self.bursts[i]

    def durations(self) -> np.ndarray:
        """Array of burst durations (memoized; treat as read-only)."""
        if self._durations is None:
            self._durations = np.array([b.duration for b in self.bursts])
        return self._durations

    def deltas(self, counter: str) -> np.ndarray:
        """Array of per-burst totals for ``counter`` (memoized)."""
        cached = self._deltas.get(counter)
        if cached is None:
            cached = np.array([b.delta(counter) for b in self.bursts])
            self._deltas[counter] = cached
        return cached

    def rates(self, counter: str) -> np.ndarray:
        """Array of per-burst mean rates for ``counter``."""
        return self.deltas(counter) / self.durations()

    @property
    def counter_names(self) -> List[str]:
        """Union of counters measured in any burst (stable order).

        With a multiplexing tracer, individual bursts carry only their
        scheduled set; the union is what folding can reconstruct (each
        counter from its own subset of instances).
        """
        seen: List[str] = []
        for burst in self.bursts:
            for name in burst.start_counters:
                if name not in seen:
                    seen.append(name)
        return seen

    def common_counters(self) -> List[str]:
        """Counters measured in *every* burst (the clustering features'
        vocabulary — feature vectors must be complete)."""
        common = set(self.bursts[0].start_counters) & set(self.bursts[0].end_counters)
        for burst in self.bursts[1:]:
            common &= set(burst.start_counters)
            common &= set(burst.end_counters)
        return [name for name in self.counter_names if name in common]

    def deltas_or_nan(self, counter: str) -> np.ndarray:
        """Per-burst totals with NaN where unmeasured (memoized)."""
        cached = self._deltas_or_nan.get(counter)
        if cached is None:
            cached = np.array([b.delta_or_nan(counter) for b in self.bursts])
            self._deltas_or_nan[counter] = cached
        return cached

    def subset(self, indices: Sequence[int]) -> "BurstSet":
        """New set holding the bursts at ``indices``."""
        return BurstSet([self.bursts[i] for i in indices])

    @property
    def n_samples(self) -> int:
        """Total samples attached across all bursts."""
        return sum(len(b.samples) for b in self.bursts)


@dataclass
class _RankState:
    """Pairing + attachment state of one rank."""

    #: (time, counters) of the open comm_exit boundary; None while inside
    #: communication.  Seeded with (0.0, zeros) on the first probe.
    open_boundary: Optional[Tuple[float, Dict[str, float]]] = None
    seen_probe: bool = False
    #: Closed (t0, c0, t1, c1) intervals waiting for their samples.
    pending: List[Tuple[float, Dict[str, float], float, Dict[str, float]]] = field(
        default_factory=list
    )
    #: Buffered samples not yet consumed by an emitted burst.
    samples: List[SampleRecord] = field(default_factory=list)
    #: Latest sample time seen (the attachment watermark).
    watermark: float = float("-inf")
    #: ``t_end`` of the last emitted burst — samples at or before this
    #: can never attach to anything anymore.
    consumed_until: float = float("-inf")
    #: Per-rank index of the next emitted burst.
    index: int = 0


class IncrementalBurstAssembler:
    """Record stream → :class:`ComputationBurst` objects, one record at a time.

    Per rank, probes pair as follows: the region from t=0 (zero counters,
    keyed by the first probe's counter set) to the first ``comm_enter`` is
    a burst, and so is each region from a ``comm_exit`` to the next
    ``comm_enter``.  Probes that break the exit/enter alternation are
    skipped and counted per rank in :attr:`mispaired`: on a damaged trace
    a dropped probe line costs exactly the one burst it delimited, never
    the alignment of every burst after it.  Intervals with
    ``t_end <= t_start`` (back-to-back communication) or shorter than
    ``min_duration`` are not bursts, and per-rank indices count only the
    bursts emitted.

    A burst carries the samples strictly inside ``(t_start, t_end)``, in
    time order.  A closed burst waits in a per-rank *pending* queue until
    the rank's sample watermark (the latest sample time seen) reaches its
    ``t_end``; by then every sample that can belong to it has arrived, so
    it is emitted with its samples attached and the consumed sample prefix
    is discarded.  This is exact for time-ordered producers (the
    :class:`~repro.trace.writer.TraceTailWriter` discipline) and for
    :func:`extract_bursts`, which feeds a rank's probes and then its
    samples.  Otherwise it is safely approximate: a sample arriving behind
    the watermark after its burst was emitted is counted in
    :attr:`late_samples` and ignored, and a live run's finalization re-read
    restores exactness.

    Memory stays bounded for pathological live inputs (e.g. a batch-written
    file whose sample section trails all probes): when a rank's pending
    queue exceeds ``max_pending`` its oldest burst is emitted with whatever
    samples have arrived, counted in :attr:`forced_emissions`.

    Feed records with :meth:`feed`; completed bursts come back as soon as
    their sample set is provably complete.  :meth:`flush` drains every
    still-pending burst at end of stream.
    """

    def __init__(
        self, min_duration: float = 0.0, max_pending: int = 256
    ) -> None:
        if max_pending < 1:
            raise StreamError(f"max_pending must be >= 1, got {max_pending}")
        self.min_duration = min_duration
        self.max_pending = max_pending
        self.mispaired: Dict[int, int] = {}
        self.late_samples = 0
        self.forced_emissions = 0
        self.n_bursts = 0
        self._ranks: Dict[int, _RankState] = {}

    # ------------------------------------------------------------------
    def feed(self, record: Record) -> List[ComputationBurst]:
        """Consume one record; return any bursts it completed."""
        if isinstance(record, InstrumentationRecord):
            return self._probe(record)
        if isinstance(record, SampleRecord):
            return self._sample(record)
        return []  # StateRecord: not used for burst extraction

    def flush(self) -> List[ComputationBurst]:
        """Emit every pending burst with the samples that arrived.

        Call at end of stream; an open boundary (a comm_exit whose enter
        never arrived) is discarded.
        """
        out: List[ComputationBurst] = []
        for rank in sorted(self._ranks):
            out.extend(self._emit_ready(rank, force_all=True))
        return out

    # ------------------------------------------------------------------
    def _state(self, rank: int) -> _RankState:
        state = self._ranks.get(rank)
        if state is None:
            state = self._ranks[rank] = _RankState()
        return state

    def _probe(self, probe: InstrumentationRecord) -> List[ComputationBurst]:
        state = self._state(probe.rank)
        if not state.seen_probe:
            state.open_boundary = (
                0.0, {name: 0.0 for name in probe.counters}
            )
            state.seen_probe = True
        if probe.marker == "comm_enter":
            if state.open_boundary is None:
                # enter with no preceding exit: its exit was lost
                self.mispaired[probe.rank] = self.mispaired.get(probe.rank, 0) + 1
                return []
            t0, c0 = state.open_boundary
            state.open_boundary = None
            if probe.time > t0 and (probe.time - t0) >= self.min_duration:
                state.pending.append((t0, c0, probe.time, dict(probe.counters)))
                return self._emit_ready(probe.rank)
            return []
        # comm_exit
        if state.open_boundary is not None and state.open_boundary[0] != 0.0:
            # two exits in a row: the burst in between lost its enter probe
            self.mispaired[probe.rank] = self.mispaired.get(probe.rank, 0) + 1
        state.open_boundary = (probe.time, dict(probe.counters))
        return []

    def _sample(self, sample: SampleRecord) -> List[ComputationBurst]:
        state = self._state(sample.rank)
        if sample.time <= state.consumed_until:
            # Its burst was already emitted (every future burst attaches
            # strictly after consumed_until): the online model missed it.
            self.late_samples += 1
            return []
        state.samples.append(sample)
        if sample.time > state.watermark:
            state.watermark = sample.time
        return self._emit_ready(sample.rank)

    # ------------------------------------------------------------------
    def _emit_ready(self, rank: int, force_all: bool = False) -> List[ComputationBurst]:
        state = self._ranks[rank]
        out: List[ComputationBurst] = []
        while state.pending:
            t0, c0, t1, c1 = state.pending[0]
            ready = force_all or state.watermark >= t1
            if not ready and len(state.pending) > self.max_pending:
                # Bounded-memory escape hatch: a producer that defers all
                # samples (batch-written section order) must not grow the
                # queue without limit.  Emit the oldest burst with what
                # arrived; late samples for it will be counted.
                self.forced_emissions += 1
                ready = True
            if not ready:
                break
            state.pending.pop(0)
            out.append(self._build(rank, state, t0, c0, t1, c1))
        return out

    def _build(
        self,
        rank: int,
        state: _RankState,
        t0: float,
        c0: Dict[str, float],
        t1: float,
        c1: Dict[str, float],
    ) -> ComputationBurst:
        # c0 and c1 are this burst's own copies (taken when the probes
        # arrived).  Samples strictly inside (t0, t1), time-sorted with a
        # stable sort so arrival order breaks ties.
        state.samples.sort(key=lambda s: s.time)
        times = [s.time for s in state.samples]
        lo = bisect.bisect_right(times, t0)
        hi = bisect.bisect_left(times, t1)
        burst = ComputationBurst(
            rank=rank,
            index=state.index,
            t_start=t0,
            t_end=t1,
            start_counters=c0,
            end_counters=c1,
        )
        burst.samples = state.samples[lo:hi]
        # Samples at or before t1 can never attach to a later burst
        # (the next burst opens at t >= t1 and attaches strictly after
        # its own t_start).
        state.samples = state.samples[hi:]
        state.consumed_until = t1
        state.index += 1
        self.n_bursts += 1
        return burst

    # ------------------------------------------------------------------
    @property
    def n_pending(self) -> int:
        """Bursts currently waiting for their sample watermark."""
        return sum(len(s.pending) for s in self._ranks.values())

    # ------------------------------------------------------------------
    def state_to_dict(self) -> Dict[str, object]:
        """Serializable snapshot of the full assembler state."""
        return {
            "min_duration": self.min_duration,
            "max_pending": self.max_pending,
            "mispaired": {str(k): v for k, v in self.mispaired.items()},
            "late_samples": self.late_samples,
            "forced_emissions": self.forced_emissions,
            "n_bursts": self.n_bursts,
            "ranks": {
                str(rank): {
                    "open_boundary": (
                        [state.open_boundary[0], dict(state.open_boundary[1])]
                        if state.open_boundary is not None
                        else None
                    ),
                    "seen_probe": state.seen_probe,
                    "pending": [
                        [t0, dict(c0), t1, dict(c1)]
                        for t0, c0, t1, c1 in state.pending
                    ],
                    "samples": [_sample_to_dict(s) for s in state.samples],
                    "watermark": state.watermark,
                    "consumed_until": state.consumed_until,
                    "index": state.index,
                }
                for rank, state in self._ranks.items()
            },
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "IncrementalBurstAssembler":
        """Rebuild an assembler from :meth:`state_to_dict` output."""
        asm = cls(
            min_duration=float(state["min_duration"]),
            max_pending=int(state["max_pending"]),
        )
        asm.mispaired = {int(k): int(v) for k, v in state["mispaired"].items()}  # type: ignore[union-attr]
        asm.late_samples = int(state["late_samples"])
        asm.forced_emissions = int(state["forced_emissions"])
        asm.n_bursts = int(state["n_bursts"])
        for rank_text, data in state["ranks"].items():  # type: ignore[union-attr]
            rank_state = _RankState(
                open_boundary=(
                    (float(data["open_boundary"][0]), dict(data["open_boundary"][1]))
                    if data["open_boundary"] is not None
                    else None
                ),
                seen_probe=bool(data["seen_probe"]),
                pending=[
                    (float(t0), dict(c0), float(t1), dict(c1))
                    for t0, c0, t1, c1 in data["pending"]
                ],
                samples=[_sample_from_dict(s) for s in data["samples"]],
                watermark=float(data["watermark"]),
                consumed_until=float(data["consumed_until"]),
                index=int(data["index"]),
            )
            asm._ranks[int(rank_text)] = rank_state
        return asm


def extract_bursts(
    trace: Trace,
    min_duration: float = 0.0,
    mispaired: Optional[Dict[int, int]] = None,
) -> BurstSet:
    """Extract computation bursts from ``trace``.

    Runs the :class:`IncrementalBurstAssembler` state machine over the
    whole trace (see it for the pairing rules and the ``min_duration``
    screen).  Each rank's probes go in first, in time order, then its
    samples, then a flush, so the set is ordered by ``(rank, index)``.
    ``max_pending`` is the trace's probe count, which no rank's pending
    queue can exceed, so no burst is ever emitted before all its samples.

    Probes that break the exit/enter alternation are counted per rank in
    ``mispaired`` when the caller passes a dict (a clean trace records
    nothing).
    """
    if not trace.instrumentation:
        raise ClusteringError(
            "trace has no instrumentation records — bursts cannot be "
            "delimited (was instrumentation disabled?)"
        )
    with _span("extract_bursts", n_ranks=trace.n_ranks):
        assembler = IncrementalBurstAssembler(
            min_duration, max_pending=len(trace.instrumentation)
        )
        bursts: List[ComputationBurst] = []
        probes = records_by_rank(trace.instrumentation, trace.n_ranks)
        samples = records_by_rank(trace.samples, trace.n_ranks)
        for rank_probes, rank_samples in zip(probes, samples):
            for record in rank_probes:
                bursts.extend(assembler.feed(record))
            for record in rank_samples:
                bursts.extend(assembler.feed(record))
            bursts.extend(assembler.flush())
        if not bursts:
            raise ClusteringError("no computation bursts found in trace")
    if mispaired is not None:
        for rank, n in assembler.mispaired.items():
            mispaired[rank] = mispaired.get(rank, 0) + n
    _metric_counter("bursts.extracted").inc(len(bursts))
    if mispaired:
        _metric_counter("bursts.mispaired_probes").inc(sum(mispaired.values()))
    return BurstSet(bursts)


def burst_to_dict(burst: ComputationBurst) -> Dict[str, object]:
    """Serialize one burst (with attached samples) for checkpoints."""
    return {
        "rank": burst.rank,
        "index": burst.index,
        "t_start": burst.t_start,
        "t_end": burst.t_end,
        "start_counters": dict(burst.start_counters),
        "end_counters": dict(burst.end_counters),
        "samples": [_sample_to_dict(s) for s in burst.samples],
    }


def burst_from_dict(data: Dict[str, object]) -> ComputationBurst:
    """Rebuild a burst from :func:`burst_to_dict` output."""
    burst = ComputationBurst(
        rank=int(data["rank"]),
        index=int(data["index"]),
        t_start=float(data["t_start"]),
        t_end=float(data["t_end"]),
        start_counters={str(k): float(v) for k, v in data["start_counters"].items()},  # type: ignore[union-attr]
        end_counters={str(k): float(v) for k, v in data["end_counters"].items()},  # type: ignore[union-attr]
    )
    burst.samples = [_sample_from_dict(s) for s in data["samples"]]  # type: ignore[union-attr]
    return burst


def _sample_to_dict(sample: SampleRecord) -> Dict[str, object]:
    return {
        "rank": sample.rank,
        "time": sample.time,
        "counters": dict(sample.counters),
        "frames": [list(frame) for frame in sample.frames],
    }


def _sample_from_dict(data: Dict[str, object]) -> SampleRecord:
    return SampleRecord(
        rank=int(data["rank"]),
        time=float(data["time"]),
        counters={str(k): float(v) for k, v in data["counters"].items()},  # type: ignore[union-attr]
        frames=tuple(
            (str(r), str(p), int(ln)) for r, p, ln in data["frames"]  # type: ignore[union-attr]
        ),
    )
