"""Trace summary statistics.

Quick structural health checks used by tests and by the analysis pipeline's
preflight: record counts, sampling cadence actually achieved, compute/comm
time split, and per-rank balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import TraceFormatError
from repro.trace.records import StateKind, Trace, records_by_rank

__all__ = ["TraceStats", "compute_stats"]


@dataclass(frozen=True)
class TraceStats:
    """Aggregate numbers describing one trace."""

    n_ranks: int
    n_states: int
    n_probes: int
    n_samples: int
    duration: float
    compute_time_total: float
    comm_time_total: float
    samples_per_second: float
    mean_sample_period: float
    samples_in_mpi_fraction: float
    per_rank_compute_time: Dict[int, float]

    @property
    def compute_fraction(self) -> float:
        """Fraction of total state time spent computing."""
        total = self.compute_time_total + self.comm_time_total
        return self.compute_time_total / total if total > 0 else 0.0

    @property
    def parallel_efficiency(self) -> float:
        """Mean rank compute time / max rank compute time (1.0 = balanced)."""
        if not self.per_rank_compute_time:
            return 0.0
        values = np.array(list(self.per_rank_compute_time.values()))
        peak = values.max()
        return float(values.mean() / peak) if peak > 0 else 0.0


def compute_stats(trace: Trace) -> TraceStats:
    """Compute :class:`TraceStats` for ``trace``."""
    if trace.n_records == 0:
        raise TraceFormatError("cannot summarize an empty trace")

    compute_total = 0.0
    comm_total = 0.0
    per_rank: Dict[int, float] = {r: 0.0 for r in range(trace.n_ranks)}
    for state in trace.states:
        if state.kind is StateKind.COMPUTE:
            compute_total += state.duration
            per_rank[state.rank] += state.duration
        else:
            comm_total += state.duration

    duration = trace.duration
    n_samples = len(trace.samples)
    in_mpi = sum(1 for s in trace.samples if s.in_mpi)

    periods: List[float] = []
    for rank_samples in records_by_rank(trace.samples, trace.n_ranks):
        times = [s.time for s in rank_samples]
        if len(times) >= 2:
            periods.extend(np.diff(times).tolist())
    mean_period = float(np.mean(periods)) if periods else 0.0

    return TraceStats(
        n_ranks=trace.n_ranks,
        n_states=len(trace.states),
        n_probes=len(trace.instrumentation),
        n_samples=n_samples,
        duration=duration,
        compute_time_total=compute_total,
        comm_time_total=comm_total,
        samples_per_second=(n_samples / duration / trace.n_ranks) if duration > 0 else 0.0,
        mean_sample_period=mean_period,
        samples_in_mpi_fraction=(in_mpi / n_samples) if n_samples else 0.0,
        per_rank_compute_time=per_rank,
    )
