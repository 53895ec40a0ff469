"""Bootstrap confidence intervals for per-phase rates.

The folded scatter comes from a finite set of instances; how trustworthy
is a phase's fitted rate?  Resampling *instances* (not points — points of
one instance are correlated) with replacement, refitting the per-segment
slopes at the detected breakpoints, and taking percentile intervals gives
a non-parametric CI that honestly reflects instance-to-instance
variability.  Reports can then say "phase 1: 5260 +/- 40 MIPS" instead of
a bare point estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.fitting.pwlr import PiecewiseLinearModel, fit_fixed_breakpoints
from repro.folding.fold import FoldedCounter

__all__ = ["RateInterval", "bootstrap_phase_rates"]


@dataclass(frozen=True)
class RateInterval:
    """Percentile bootstrap CI for one phase's rate of one counter."""

    counter: str
    phase_index: int
    point: float
    low: float
    high: float
    confidence: float
    n_resamples: int

    def __post_init__(self) -> None:
        if not self.low <= self.high:
            raise AnalysisError(
                f"inverted interval [{self.low}, {self.high}] for "
                f"{self.counter} phase {self.phase_index}"
            )

    @property
    def half_width(self) -> float:
        """Half the interval width (the "+/-" of a report line)."""
        return 0.5 * (self.high - self.low)

    @property
    def relative_half_width(self) -> float:
        """Half width over the point estimate (0 when the point is 0)."""
        return self.half_width / abs(self.point) if self.point else 0.0

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high


def bootstrap_phase_rates(
    folded: FoldedCounter,
    model: PiecewiseLinearModel,
    n_resamples: int = 200,
    confidence: float = 0.95,
    rng: Optional[np.random.Generator] = None,
    anchor: bool = True,
    monotone: bool = True,
) -> List[RateInterval]:
    """Bootstrap CIs for every segment rate of ``folded``'s counter.

    Breakpoints stay fixed at ``model``'s (they are structural); only the
    slopes are re-estimated per resample.  Returns one interval per
    segment, in segment order, in absolute events/second.
    """
    if n_resamples < 10:
        raise AnalysisError(f"n_resamples must be >= 10, got {n_resamples}")
    if not 0.5 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0.5, 1), got {confidence}")
    rng = rng or np.random.default_rng(0)

    instance_ids = np.unique(folded.instance_ids)
    if instance_ids.size < 4:
        raise AnalysisError(
            f"need >= 4 instances to bootstrap, got {instance_ids.size}"
        )
    # index folded points by instance once
    points_of: Dict[int, np.ndarray] = {
        int(i): np.flatnonzero(folded.instance_ids == i) for i in instance_ids
    }
    mean_rate = folded.mean_total / folded.mean_duration

    slopes_boot = np.empty((n_resamples, model.n_segments))
    for b in range(n_resamples):
        chosen = rng.choice(instance_ids, size=instance_ids.size, replace=True)
        idx = np.concatenate([points_of[int(i)] for i in chosen])
        x, y = folded.x[idx], folded.y[idx]
        if x.size < model.n_segments + 2:
            # degenerate resample (tiny instances); redraw deterministic-ly
            slopes_boot[b] = model.slopes
            continue
        refit = fit_fixed_breakpoints(
            x, y, model.breakpoints, anchor=anchor, monotone=monotone
        )
        slopes_boot[b] = refit.slopes

    alpha = 1.0 - confidence
    lows = np.quantile(slopes_boot, alpha / 2, axis=0) * mean_rate
    highs = np.quantile(slopes_boot, 1 - alpha / 2, axis=0) * mean_rate
    points = model.slopes * mean_rate
    return [
        RateInterval(
            counter=folded.counter,
            phase_index=segment,
            point=float(points[segment]),
            low=float(min(lows[segment], points[segment])),
            high=float(max(highs[segment], points[segment])),
            confidence=confidence,
            n_resamples=n_resamples,
        )
        for segment in range(model.n_segments)
    ]
