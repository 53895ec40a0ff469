"""Self-regression checks: fit the paper's PWLR model to our own history.

The telemetry ledger (:mod:`repro.observability.ledger`) accumulates one
record per run with per-stage wall-clock totals.  This module dogfoods
the repository's own contribution: each stage's duration series is
turned into the paper's *accumulated-counter* setting — normalized
cumulative time against normalized run index — and fitted with
:func:`repro.fitting.pwlr.fit_pwlr` (anchored, monotone).  On such a
series a stage running at a steady cost is a straight line; a
performance regression is a *level shift*, exactly the breakpoint
structure the fitter was built to find.  Each fitted segment's slope
converts back to seconds-per-run, and ``repro perf check --gate`` fails
the build when the latest segment's level exceeds the previous one by a
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.report import format_table
from repro.errors import ConfigurationError, FittingError
from repro.fitting.pwlr import PWLRConfig, fit_pwlr

__all__ = [
    "TOTAL_STAGE",
    "StageVerdict",
    "PerfReport",
    "stage_series",
    "fit_duration_series",
    "segment_levels",
    "check_history",
]

#: Pseudo-stage for each record's end-to-end wall time.
TOTAL_STAGE = "(total)"

#: Fewest runs a stage needs before fitting (the PWLR fitter's own floor).
MIN_RUNS = 8

#: A previous level below this (seconds/run) is noise, not a baseline.
_LEVEL_FLOOR_S = 1e-6


def stage_series(
    records: Sequence[Mapping[str, object]],
) -> Dict[str, List[float]]:
    """Per-stage wall-clock duration series across ledger records.

    Returns ``{stage: [seconds, ...]}`` oldest-first, including the
    :data:`TOTAL_STAGE` series built from each record's ``wall_s``.  A
    stage absent from a record simply skips that run (series lengths may
    differ), so a pipeline change that renames a stage degrades to a
    shorter history instead of corrupting the series.
    """
    series: Dict[str, List[float]] = {TOTAL_STAGE: []}
    for record in records:
        wall = record.get("wall_s")
        if isinstance(wall, (int, float)):
            series[TOTAL_STAGE].append(float(wall))
        stages = record.get("stages")
        if not isinstance(stages, Mapping):
            continue
        for name, row in stages.items():
            if not isinstance(row, Mapping):
                continue
            value = row.get("wall_s")
            if isinstance(value, (int, float)):
                series.setdefault(str(name), []).append(float(value))
    if not series[TOTAL_STAGE]:
        del series[TOTAL_STAGE]
    return series


def fit_duration_series(durations: Sequence[float]):
    """Fit the PWLR model to one stage's duration history.

    The series is recast as the paper's accumulated-counter shape:
    ``x = run_index / n`` against ``y = cumulative_seconds / total``,
    both on [0, 1], then fitted anchored (the cumulative series pins
    (0,0)-(1,1) by construction) and monotone (time never un-elapses).
    A run's cost is the local slope, so a sustained slowdown shows up
    as a breakpoint between two slope levels.

    Raises :class:`~repro.errors.FittingError` for fewer than
    :data:`MIN_RUNS` runs or an all-zero series.
    """
    values = np.asarray(list(durations), dtype=float)
    n = values.size
    if n < MIN_RUNS:
        raise FittingError(
            f"perf: need >= {MIN_RUNS} runs to fit, got {n}"
        )
    total = float(values.sum())
    if total <= 0.0:
        raise FittingError("perf: all-zero duration series")
    x = np.arange(1, n + 1, dtype=float) / n
    y = np.cumsum(values) / total
    config = PWLRConfig(
        # Segments shorter than one run are meaningless on an n-run
        # series; keep the bound inside the fitter's (0, 0.5) window.
        min_separation=float(min(0.45, max(0.011, 1.0 / n))),
        anchor=True,
        monotone=True,
    )
    return fit_pwlr(x, y, config)


def segment_levels(model, total_s: float, n_runs: int) -> List[float]:
    """Per-segment cost level in seconds **per run**.

    On the normalized cumulative series a slope of 1 means the average
    per-run cost; scaling by ``total / n`` converts each segment's slope
    back to seconds per run.
    """
    scale = total_s / n_runs
    return [float(slope) * scale for slope in model.slopes]


@dataclass(frozen=True)
class StageVerdict:
    """The perf check's conclusion for one stage's history."""

    stage: str
    n_runs: int
    status: str  #: "ok", "regressed", or "insufficient"
    latest_level_s: float = 0.0
    prev_level_s: float = 0.0
    ratio: float = 1.0
    #: 1-based run index where the latest level began (None when flat).
    breakpoint_run: Optional[int] = None
    n_segments: int = 0
    note: str = ""

    @property
    def regressed(self) -> bool:
        """Whether this stage tripped the gate."""
        return self.status == "regressed"


@dataclass
class PerfReport:
    """Every stage verdict from one :func:`check_history` pass."""

    verdicts: List[StageVerdict] = field(default_factory=list)
    threshold: float = 1.5
    n_records: int = 0

    @property
    def regressions(self) -> List[StageVerdict]:
        """The verdicts that tripped the gate."""
        return [v for v in self.verdicts if v.regressed]

    @property
    def ok(self) -> bool:
        """Whether no stage regressed (the ``--gate`` exit status)."""
        return not self.regressions

    def render(self) -> str:
        """Human-readable verdict table plus a summary line."""
        rows = []
        for v in self.verdicts:
            rows.append(
                [
                    v.stage,
                    str(v.n_runs),
                    v.status,
                    f"{v.latest_level_s:.4f}" if v.n_segments else "-",
                    f"{v.prev_level_s:.4f}" if v.n_segments > 1 else "-",
                    f"{v.ratio:.2f}x" if v.n_segments > 1 else "-",
                    "-" if v.breakpoint_run is None else f"run {v.breakpoint_run}",
                    v.note,
                ]
            )
        table = format_table(
            ["stage", "runs", "status", "latest s/run", "prev s/run",
             "ratio", "shift at", "note"],
            rows,
        )
        n_reg = len(self.regressions)
        summary = (
            f"{len(self.verdicts)} stage(s) over {self.n_records} run(s): "
            f"{n_reg} regression(s) at threshold {self.threshold:g}x"
        )
        return f"{table}\n{summary}"


def _verdict_for(
    stage: str, durations: Sequence[float], threshold: float, min_runs: int
) -> StageVerdict:
    n = len(durations)
    if n < max(min_runs, MIN_RUNS):
        return StageVerdict(
            stage=stage, n_runs=n, status="insufficient",
            note=f"need >= {max(min_runs, MIN_RUNS)} runs",
        )
    try:
        model = fit_duration_series(durations)
    except FittingError as exc:
        return StageVerdict(
            stage=stage, n_runs=n, status="insufficient", note=str(exc)
        )
    levels = segment_levels(model, float(np.sum(durations)), n)
    latest = levels[-1]
    if len(levels) == 1:
        return StageVerdict(
            stage=stage, n_runs=n, status="ok",
            latest_level_s=latest, n_segments=1, note="flat",
        )
    prev = levels[-2]
    breakpoint_run = int(round(float(model.breakpoints[-1]) * n)) + 1
    ratio = latest / prev if prev > _LEVEL_FLOOR_S else float("inf")
    regressed = prev > _LEVEL_FLOOR_S and ratio > threshold
    return StageVerdict(
        stage=stage,
        n_runs=n,
        status="regressed" if regressed else "ok",
        latest_level_s=latest,
        prev_level_s=prev,
        ratio=ratio,
        breakpoint_run=breakpoint_run,
        n_segments=len(levels),
        note="level shift" if regressed else "",
    )


def check_history(
    records: Sequence[Mapping[str, object]],
    threshold: float = 1.5,
    min_runs: int = MIN_RUNS,
) -> PerfReport:
    """Fit every stage's ledger history and judge it against ``threshold``.

    A stage is ``regressed`` when the PWLR fit over its run-indexed
    cumulative time ends in a segment whose per-run level exceeds the
    previous segment's by more than ``threshold`` (a multiplicative
    factor); stages with fewer than ``min_runs`` records are reported
    as ``insufficient``, never failed — a fresh store must pass the
    gate.  Verdicts are sorted regressions-first, then by stage name.
    """
    if threshold <= 1.0:
        raise ConfigurationError(
            f"perf: threshold must be > 1.0, got {threshold}"
        )
    series = stage_series(records)
    verdicts = [
        _verdict_for(stage, durations, threshold, min_runs)
        for stage, durations in series.items()
    ]
    verdicts.sort(key=lambda v: (not v.regressed, v.stage))
    return PerfReport(
        verdicts=verdicts, threshold=threshold, n_records=len(records)
    )
