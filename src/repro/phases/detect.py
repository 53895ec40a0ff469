"""Phase detection: fitted segments → phases with absolute metrics.

The pivot counter (instructions by default) determines the breakpoints —
one regression, searched once; every other counter's slopes are then
re-estimated *at those shared breakpoints*, so all metrics describe the
same phase boundaries.  De-normalizing a slope gives the phase's absolute
event rate::

    rate_c(phase) = slope_c(phase) * mean_total_c / mean_duration

from which the derived metrics (MIPS, IPC, MPKI, ...) follow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.counters.derived import compute_metrics
from repro.errors import FittingError, PhaseError
from repro.fitting.kernel_smooth import KernelSmoother, smoother_breakpoints
from repro.fitting.model_selection import drop_narrowest_sliver, significant_boundaries
from repro.fitting.pwlr import (
    PiecewiseLinearModel,
    PWLRConfig,
    fit_pwlr,
    refit_slopes_many,
)
from repro.folding.fold import FoldedCounter
from repro.observability.context import counter as _metric_counter
from repro.observability.context import span as _span
from repro.resilience.diagnostics import Diagnostics

__all__ = ["Phase", "PhaseSet", "detect_phases"]

#: Default pivot counter whose regression defines the breakpoints.
DEFAULT_PIVOT = "PAPI_TOT_INS"

#: Counters (besides the pivot) whose regressions also contribute
#: breakpoints when present.  Two phases can retire instructions at the
#: same rate yet differ completely in cache or FP behaviour; running the
#: breakpoint search on these counters too — exactly as the paper fits
#: each counter's folded samples — recovers boundaries invisible to the
#: pivot alone.  Cycles are pointless here: on normalized time their
#: cumulative curve is the identity.
DEFAULT_BREAKPOINT_COUNTERS = (
    "PAPI_L3_TCM",
    "PAPI_FP_OPS",
    "PAPI_BR_MSP",
    "PAPI_VEC_INS",
    "PAPI_L1_DCM",
)


@dataclass(frozen=True)
class Phase:
    """One detected phase of a computation region.

    ``x_start``/``x_end`` are normalized; ``t_start_s``/``duration_s`` are
    de-normalized with the cluster's mean instance duration.  ``rates``
    maps counters to absolute events/second; ``metrics`` holds the derived
    metrics computed from those rates.
    """

    index: int
    x_start: float
    x_end: float
    t_start_s: float
    duration_s: float
    rates: Mapping[str, float]
    metrics: Mapping[str, float]

    def __post_init__(self) -> None:
        if not 0.0 <= self.x_start < self.x_end <= 1.0 + 1e-9:
            raise PhaseError(
                f"phase {self.index}: invalid normalized span "
                f"[{self.x_start}, {self.x_end}]"
            )
        if self.duration_s <= 0:
            raise PhaseError(f"phase {self.index}: non-positive duration")

    @property
    def x_span(self) -> float:
        """Normalized width of the phase."""
        return self.x_end - self.x_start

    def metric(self, name: str) -> float:
        """Derived metric by name; raises with the available set listed."""
        try:
            return self.metrics[name]
        except KeyError:
            raise PhaseError(
                f"phase {self.index} has no metric {name!r}; "
                f"available: {sorted(self.metrics)}"
            ) from None


@dataclass
class PhaseSet:
    """All phases of one cluster plus the models behind them."""

    cluster_id: int
    phases: List[Phase]
    pivot_counter: str
    pivot_model: PiecewiseLinearModel
    counter_models: Dict[str, PiecewiseLinearModel]
    mean_duration: float
    n_instances: int

    def __post_init__(self) -> None:
        if not self.phases:
            raise PhaseError(f"cluster {self.cluster_id}: empty phase set")

    def __len__(self) -> int:
        return len(self.phases)

    def __iter__(self):
        return iter(self.phases)

    @property
    def boundaries(self) -> np.ndarray:
        """Interior normalized phase boundaries."""
        return np.array([p.x_end for p in self.phases[:-1]])

    def dominant_phase(self, by: str = "duration_s") -> Phase:
        """Phase with the largest ``by`` attribute (default: longest)."""
        return max(self.phases, key=lambda p: getattr(p, by))

    def weighted_metric(self, name: str) -> float:
        """Duration-weighted mean of a metric across phases."""
        weights = np.array([p.duration_s for p in self.phases])
        values = np.array([p.metric(name) for p in self.phases])
        return float(np.dot(values, weights) / weights.sum())


def _smoother_fallback_breaks(fc: FoldedCounter) -> List[float]:
    """Kernel-smoother baseline breakpoints for a counter whose PWLR fit
    failed — the prior-work estimator never needs an optimizer, so it
    survives data the breakpoint search cannot digest."""
    try:
        smoother = KernelSmoother.with_plugin_bandwidth(fc.x, fc.y)
        return [float(b) for b in smoother_breakpoints(smoother)]
    except FittingError:
        return []


def detect_phases(
    folded: Mapping[str, FoldedCounter],
    cluster_id: int = 0,
    pivot: str = DEFAULT_PIVOT,
    config: Optional[PWLRConfig] = None,
    breakpoint_counters: Optional[Sequence[str]] = None,
    diagnostics: Optional[Diagnostics] = None,
    allow_fallback: bool = False,
) -> PhaseSet:
    """Detect phases from folded counters.

    ``folded`` maps counter names to folded sample sets of one cluster
    (same instances).  The pivot counter must be present.  Breakpoints are
    searched on the pivot *and* on every ``breakpoint_counters`` entry
    present in ``folded`` (defaults to :data:`DEFAULT_BREAKPOINT_COUNTERS`);
    the union of the discovered boundaries — deduplicated within the
    configured minimum separation and pruned of boundaries insignificant
    for *every* counter — defines the phases.  Per-counter slopes are then
    re-estimated at the shared boundaries.

    With ``allow_fallback=True`` (degraded mode) a failed PWLR breakpoint
    search falls back to the kernel-smoother baseline's breakpoints, and a
    failed slope refit drops that counter from the phase metrics instead
    of aborting the cluster — each event recorded in ``diagnostics``.  The
    pivot's slope refit has no substitute: its failure still raises.
    """
    if pivot not in folded:
        raise PhaseError(
            f"pivot counter {pivot!r} missing from folded set "
            f"({sorted(folded)})"
        )
    cfg = config or PWLRConfig()
    diag = diagnostics if diagnostics is not None else Diagnostics()
    with _span(
        "detect_phases", cluster_id=cluster_id, n_counters=len(folded)
    ):
        phase_set = _detect_phases_impl(
            folded, cluster_id, pivot, cfg, breakpoint_counters, diag,
            allow_fallback,
        )
    _metric_counter("phases.detected").inc(len(phase_set))
    return phase_set


def _detect_phases_impl(
    folded: Mapping[str, FoldedCounter],
    cluster_id: int,
    pivot: str,
    cfg: PWLRConfig,
    breakpoint_counters: Optional[Sequence[str]],
    diag: Diagnostics,
    allow_fallback: bool,
) -> PhaseSet:
    search_counters = [pivot] + [
        c
        for c in (
            DEFAULT_BREAKPOINT_COUNTERS
            if breakpoint_counters is None
            else breakpoint_counters
        )
        if c in folded and c != pivot
    ]

    # 1. independent breakpoint search per counter
    candidate_breaks: List[float] = []
    for counter in search_counters:
        fc = folded[counter]
        try:
            model = fit_pwlr(fc.x, fc.y, config=cfg)
            candidate_breaks.extend(float(b) for b in model.breakpoints)
        except FittingError as exc:
            if not allow_fallback:
                raise
            fallback_breaks = _smoother_fallback_breaks(fc)
            diag.degraded(
                "fitting",
                f"PWLR breakpoint search failed for {counter}; "
                f"kernel-smoother baseline supplied "
                f"{len(fallback_breaks)} breakpoint(s)",
                cluster_id=cluster_id,
                counter=counter,
                error=str(exc),
            )
            candidate_breaks.extend(fallback_breaks)

    # 2. dedupe co-located boundaries from different counters (they
    #    describe the same transition, jittered by the boundary blur)
    dedupe_window = max(cfg.min_separation, cfg.min_phase_span)
    merged = _dedupe_boundaries(candidate_breaks, dedupe_window)

    # 3. refit every counter at the merged boundaries and prune boundaries
    #    insignificant for every search counter
    refit_failed: set = set()

    def refit(
        fc: FoldedCounter, ys: Sequence[np.ndarray], breaks: Sequence[float]
    ) -> List[PiecewiseLinearModel]:
        return refit_slopes_many(
            fc.x,
            ys,
            breaks,
            anchor=cfg.anchor,
            anchor_weight=cfg.anchor_weight,
            monotone=cfg.monotone,
        )

    def refit_alone(
        counter: str, breaks: Sequence[float]
    ) -> Optional[PiecewiseLinearModel]:
        fc = folded[counter]
        try:
            return refit(fc, [fc.y], breaks)[0]
        except FittingError as exc:
            # The pivot's slopes ARE the phase definition — no refit, no
            # phases.  Any other counter just loses its metrics.
            if counter == pivot:
                raise
            refit_failed.add(counter)
            diag.warning(
                "fitting",
                f"slope refit failed for {counter}; "
                f"counter dropped from phase metrics",
                cluster_id=cluster_id,
                counter=counter,
                error=str(exc),
            )
            return None

    def refit_all(breaks: Sequence[float]) -> Dict[str, PiecewiseLinearModel]:
        # Counters folded from the same instances share one abscissa, so
        # each group is one refit_slopes_many call on one design.  Under
        # allow_fallback a failed group is retried one counter at a time,
        # which drops only the counters that fail on their own.
        groups: Dict[bytes, List[str]] = {}
        for counter, fc in folded.items():
            if counter not in refit_failed:
                groups.setdefault(fc.x.tobytes(), []).append(counter)
        models: Dict[str, PiecewiseLinearModel] = {}
        for counters in groups.values():
            try:
                fitted = refit(
                    folded[counters[0]], [folded[c].y for c in counters], breaks
                )
            except FittingError:
                if not allow_fallback:
                    raise
                fitted = [refit_alone(c, breaks) for c in counters]
            models.update((c, m) for c, m in zip(counters, fitted) if m is not None)
        return {c: models[c] for c in folded if c in models}

    def search_models() -> List[PiecewiseLinearModel]:
        return [counter_models[c] for c in search_counters if c in counter_models]

    counter_models = refit_all(merged)
    boundaries = list(merged)
    if boundaries and cfg.merge_slope_tol > 0:
        kept = significant_boundaries(boundaries, search_models(), cfg.merge_slope_tol)
        if len(kept) < len(boundaries):
            boundaries = kept
            counter_models = refit_all(boundaries)

    # 4. merge boundary-blur slivers: drop the weaker boundary of the
    #    narrowest phase below min_phase_span and refit, until none is left
    while boundaries and cfg.min_phase_span > 0:
        cleaned = drop_narrowest_sliver(
            boundaries, search_models(), cfg.min_phase_span
        )
        if cleaned is None:
            break
        boundaries = cleaned
        counter_models = refit_all(boundaries)

    pivot_model = counter_models[pivot]
    pivot_folded = folded[pivot]

    mean_duration = pivot_folded.mean_duration
    phases: List[Phase] = []
    knots = pivot_model.knots
    for i in range(pivot_model.n_segments):
        x0, x1 = float(knots[i]), float(knots[i + 1])
        rates: Dict[str, float] = {}
        for counter, model in counter_models.items():
            fc = folded[counter]
            mean_rate = fc.mean_total / fc.mean_duration
            rates[counter] = float(model.slopes[i]) * mean_rate
        metrics = compute_metrics(rates)
        phases.append(
            Phase(
                index=i,
                x_start=x0,
                x_end=x1,
                t_start_s=x0 * mean_duration,
                duration_s=(x1 - x0) * mean_duration,
                rates=rates,
                metrics=metrics,
            )
        )
    return PhaseSet(
        cluster_id=cluster_id,
        phases=phases,
        pivot_counter=pivot,
        pivot_model=pivot_model,
        counter_models=counter_models,
        mean_duration=mean_duration,
        n_instances=pivot_folded.n_instances,
    )


def _dedupe_boundaries(boundaries: Sequence[float], min_separation: float) -> List[float]:
    """Average boundaries from different counters that fall within
    ``min_separation`` of each other (they describe the same transition)."""
    if not boundaries:
        return []
    ordered = sorted(float(b) for b in boundaries)
    groups: List[List[float]] = [[ordered[0]]]
    for b in ordered[1:]:
        if b - groups[-1][-1] < min_separation:
            groups[-1].append(b)
        else:
            groups.append([b])
    return [float(np.mean(group)) for group in groups]
