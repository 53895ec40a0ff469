"""Model-selection criteria and boundary rules for the breakpoint search.

BIC under the Gaussian-residual likelihood, with the standard
``n log(SSE/n) + p log(n)`` form; AIC included for the ablation bench,
which compares both criteria.

The post-selection boundary rules live here too, each in one place, and
both :func:`repro.fitting.pwlr.fit_pwlr` (one model) and
:func:`repro.phases.detect.detect_phases` (the search counters' models
refit at shared boundaries) call them:

- :func:`merge_insignificant` removes boundaries between segments whose
  slopes are practically identical — a breakpoint placed inside a
  homogeneous phase reduces SSE a little but describes no real structure.
  It carries the left slope across a merged boundary, so a slow drift
  over several boundaries still ends in one kept boundary.
- :func:`significant_boundaries` keeps the boundaries at which *some*
  model changes slope appreciably, judging each adjacent pair on its own.
- :func:`drop_narrowest_sliver` removes the weaker boundary of the
  narrowest phase below the span floor (a boundary-blur artifact).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import FittingError

__all__ = [
    "bic",
    "aic",
    "merge_insignificant",
    "boundary_strength",
    "significant_boundaries",
    "drop_narrowest_sliver",
]

#: SSE floor avoiding log(0) for perfect fits on exact synthetic data.
_SSE_FLOOR = 1e-18


def bic(sse: float, n: int, n_params: int) -> float:
    """Bayesian information criterion (lower is better)."""
    if n < 1:
        raise FittingError(f"n must be >= 1, got {n}")
    if n_params < 0:
        raise FittingError(f"n_params must be >= 0, got {n_params}")
    if sse < 0:
        raise FittingError(f"sse must be >= 0, got {sse}")
    return n * math.log(max(sse, _SSE_FLOOR) / n) + n_params * math.log(n)


def aic(sse: float, n: int, n_params: int) -> float:
    """Akaike information criterion (lower is better)."""
    if n < 1:
        raise FittingError(f"n must be >= 1, got {n}")
    if n_params < 0:
        raise FittingError(f"n_params must be >= 0, got {n_params}")
    if sse < 0:
        raise FittingError(f"sse must be >= 0, got {sse}")
    return n * math.log(max(sse, _SSE_FLOOR) / n) + 2.0 * n_params


def merge_insignificant(model, tol: float = 0.12) -> np.ndarray:
    """Breakpoints to keep after merging similar-slope neighbors.

    Two adjacent segments are merged when their slope difference is below
    ``tol`` times the mean absolute slope of the model.  Returns the
    retained interior breakpoints (the caller refits at them).
    """
    if tol < 0:
        raise FittingError(f"tol must be >= 0, got {tol}")
    slopes = np.asarray(model.slopes, dtype=float)
    breaks = np.asarray(model.breakpoints, dtype=float)
    if breaks.size == 0:
        return breaks
    scale = float(np.mean(np.abs(slopes)))
    if scale == 0.0:
        # All-flat model: every boundary is insignificant.
        return np.array([])
    keep = []
    left_slope = slopes[0]
    for i, boundary in enumerate(breaks):
        right_slope = slopes[i + 1]
        if abs(right_slope - left_slope) >= tol * scale:
            keep.append(float(boundary))
            left_slope = right_slope
        # else: merged — left_slope persists as the reference
    return np.asarray(keep)


def boundary_strength(index: int, models: Sequence) -> float:
    """Strength of boundary ``index``: the largest slope change across it,
    relative to each model's mean absolute slope, over ``models`` (all
    fitted at the same boundaries).  An all-flat model contributes 0."""
    strength = 0.0
    for model in models:
        slopes = model.slopes
        scale = float(np.mean(np.abs(slopes)))
        if scale == 0.0:
            continue
        strength = max(
            strength, abs(float(slopes[index + 1] - slopes[index])) / scale
        )
    return strength


def significant_boundaries(
    boundaries: Sequence[float], models: Sequence, tol: float
) -> List[float]:
    """Keep boundaries where *some* model changes slope appreciably.

    A boundary is significant for a model when the slope change across it
    exceeds ``tol`` times that model's mean absolute slope.
    """
    return [
        float(boundary)
        for i, boundary in enumerate(boundaries)
        if boundary_strength(i, models) >= tol
    ]


def drop_narrowest_sliver(
    boundaries: Sequence[float], models: Sequence, min_span: float
) -> Optional[List[float]]:
    """Boundaries after removing the weaker boundary (by
    :func:`boundary_strength` over ``models``) of the narrowest segment
    narrower than ``min_span``; ``None`` when no segment is that narrow.

    Instance-to-instance jitter smears each true boundary into a knee,
    which a PWL fit splits with two nearby breakpoints; the sliver
    between them is an artifact, merged into its weaker-boundary
    neighbor.  The caller refits at the returned boundaries.
    """
    breaks = [float(b) for b in boundaries]
    spans = np.diff(np.concatenate([[0.0], breaks, [1.0]]))
    narrow = np.flatnonzero(spans < min_span)
    if narrow.size == 0:
        return None
    segment = int(narrow[np.argmin(spans[narrow])])
    adjacent = [b for b in (segment - 1, segment) if 0 <= b < len(breaks)]
    breaks.pop(min(adjacent, key=lambda b: boundary_strength(b, models)))
    return breaks
