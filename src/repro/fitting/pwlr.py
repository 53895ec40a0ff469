"""Continuous piece-wise linear regression with breakpoint search.

The model on normalized time x in [0, 1] is::

    y(x) = a + s_1 * len(seg_1 ∩ [0,x]) + ... + s_m * len(seg_m ∩ [0,x])

i.e. continuous, linear within each segment, with per-segment slopes
``s_j`` and interior breakpoints ``b_1 < ... < b_{m-1}``.  Because folded
accumulated counters are non-decreasing and pinned to (0,0)-(1,1), the fit
supports two physically-motivated options used by the default pipeline (and
switched off by the ablation bench):

* **anchoring** — heavy pseudo-observations at (0,0) and (1,1);
* **monotonicity** — slopes constrained >= 0 via NNLS.

Breakpoint *positions* are searched greedily over a candidate grid with
local refinement, and the breakpoint *count* is selected by BIC (see
:mod:`repro.fitting.model_selection`), followed by a merge pass that
removes boundaries between segments with statistically indistinguishable
slopes.

The search ranks thousands of candidate configurations per fit, all on
one evaluator: the prefix-moment normal equations of
:mod:`repro.fitting.moments` score a whole batch of candidates in one
vectorized pass, O(k^3) per candidate and independent of the sample
count, and the search ranks the returned SSE arrays without building a
model per candidate.  A row whose moments solve is unreliable escapes to
the dense per-candidate least squares.  Only the winners are refit, and
always through the exact (optionally NNLS-constrained, anchored) path;
the ``pwlr_search`` selftest suite checks that the dense least-squares
oracle ranks every greedy step the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize_scalar, nnls

from repro.errors import FittingError
from repro.fitting import model_selection
from repro.fitting.moments import MomentProfile
from repro.observability.context import counter as _metric_counter
from repro.observability.context import histogram as _metric_histogram
from repro.observability.context import span as _span

__all__ = [
    "PiecewiseLinearModel",
    "PWLRConfig",
    "fit_fixed_breakpoints",
    "fit_pwlr",
    "refit_slopes_many",
]


def _evaluate_pwl(
    knots: np.ndarray, slopes: np.ndarray, intercept: float, xs: np.ndarray
) -> np.ndarray:
    """Evaluate a continuous PWL curve at ``xs``.

    Single source of the evaluation arithmetic shared by
    :meth:`PiecewiseLinearModel.predict` and the post-fit residual pass
    in :func:`fit_fixed_breakpoints` — both must produce bit-identical
    values for the reported data SSE to match a later re-prediction.
    """
    values = intercept + np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])
    idx = np.clip(np.searchsorted(knots, xs, side="right") - 1, 0, slopes.size - 1)
    return values[idx] + slopes[idx] * (xs - knots[idx])


@dataclass(frozen=True)
class PiecewiseLinearModel:
    """A fitted continuous piece-wise linear curve on [0, 1].

    ``breakpoints`` are the interior boundaries; ``slopes`` has one entry
    per segment (``len(breakpoints) + 1``).  ``sse``/``n_points`` describe
    the fit on the data it was estimated from.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    intercept: float
    sse: float
    n_points: int

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float)
        sl = np.asarray(self.slopes, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        if bp.size and (np.any(bp <= 0.0) or np.any(bp >= 1.0)):
            raise FittingError(f"interior breakpoints must lie in (0,1): {bp}")
        if bp.size > 1 and np.any(np.diff(bp) <= 0):
            raise FittingError(f"breakpoints must be strictly increasing: {bp}")
        if sl.size != bp.size + 1:
            raise FittingError(
                f"{sl.size} slopes for {bp.size} breakpoints (need {bp.size + 1})"
            )
        if self.n_points < 0:
            raise FittingError(f"negative n_points: {self.n_points}")

    # ------------------------------------------------------------------
    @property
    def knots(self) -> np.ndarray:
        """All segment boundaries including 0 and 1."""
        return np.concatenate([[0.0], self.breakpoints, [1.0]])

    @property
    def n_segments(self) -> int:
        """Number of linear segments."""
        return int(self.slopes.size)

    @property
    def segment_lengths(self) -> np.ndarray:
        """Length of each segment on the normalized axis."""
        return np.diff(self.knots)

    def knot_values(self) -> np.ndarray:
        """Model value at each knot (continuity makes this well defined)."""
        return self.intercept + np.concatenate(
            [[0.0], np.cumsum(self.slopes * self.segment_lengths)]
        )

    def predict(self, x) -> np.ndarray:
        """Evaluate the curve at ``x`` (vectorized).

        Evaluation contract (pinned by ``tests/test_property_pwlr.py``
        and the selftest ``predict`` oracle suite):

        - The curve is **continuous everywhere**, including at interior
          breakpoints: segments join at the shared knot value.
        - Segment selection is **right-continuous** — exactly at an
          interior breakpoint ``b_i`` the point belongs to the segment
          *starting* there, so an infinitesimal step to the right stays
          on the same segment (``slope_at`` agrees).
        - Outside ``[0, 1]`` the curve is **extended linearly**, not
          clamped: ``x < 0`` extrapolates the first segment's line and
          ``x > 1`` the last segment's.  ``x == 1.0`` lies on the last
          segment (there is no knot beyond it to switch to).
        - Scalar input returns a Python ``float``; array input returns
          an array of the broadcast shape.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = _evaluate_pwl(self.knots, self.slopes, self.intercept, xs)
        return out if np.ndim(x) else float(out[0])

    def slope_at(self, x) -> np.ndarray:
        """Segment slope at ``x`` (vectorized).

        Follows the same segment-selection contract as :meth:`predict`:
        **right-continuous** at interior breakpoints (``slope_at(b_i)``
        is the slope of the segment starting at ``b_i``), and clamped to
        the edge segments outside ``[0, 1]`` — ``x <= 0`` reports the
        first slope, ``x >= 1`` the last — matching the linear extension
        :meth:`predict` applies there.  Scalar in, ``float`` out.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.clip(
            np.searchsorted(self.knots, xs, side="right") - 1, 0, self.n_segments - 1
        )
        out = self.slopes[idx]
        return out if np.ndim(x) else float(out[0])

    def segments(self) -> List[Tuple[float, float, float]]:
        """List of ``(x_start, x_end, slope)`` triples."""
        knots = self.knots
        return [
            (float(knots[i]), float(knots[i + 1]), float(self.slopes[i]))
            for i in range(self.n_segments)
        ]

    @property
    def rmse(self) -> float:
        """Root mean squared error on the fitting data."""
        return float(np.sqrt(self.sse / self.n_points)) if self.n_points else 0.0


@dataclass(frozen=True)
class PWLRConfig:
    """Knobs of the automatic fit.

    Attributes
    ----------
    max_breakpoints:
        Upper bound on interior breakpoints (phases - 1).
    n_candidates:
        Size of the uniform candidate grid the search works on.
    min_separation:
        Minimum distance between breakpoints (and to the edges); phases
        finer than this are not representable.
    anchor:
        Pin the curve to (0,0) and (1,1) with heavy pseudo-points.
    anchor_weight:
        Weight of each pseudo-point relative to the whole sample.
    monotone:
        Constrain slopes to be >= 0 (accumulated counters cannot shrink).
    bic_patience:
        Keep adding breakpoints this many steps past a BIC worsening
        before giving up (escapes single-step local minima).
    merge_slope_tol:
        After selection, merge adjacent segments whose slopes differ by
        less than this fraction of the mean absolute slope.
    refine_passes:
        Local-refinement sweeps over breakpoint positions per added point.
    min_phase_span:
        Phases narrower than this are considered boundary-blur artifacts
        (instance-to-instance jitter smears each true boundary into a
        knee, which a PWL fit splits with two nearby breakpoints) and are
        merged into their weaker-boundary neighbor by the phase-detection
        stage.
    """

    max_breakpoints: int = 11
    n_candidates: int = 96
    min_separation: float = 0.01
    anchor: bool = True
    anchor_weight: float = 0.25
    monotone: bool = True
    bic_patience: int = 2
    merge_slope_tol: float = 0.12
    refine_passes: int = 2
    min_phase_span: float = 0.02

    def __post_init__(self) -> None:
        if self.max_breakpoints < 0:
            raise FittingError(f"max_breakpoints must be >= 0: {self.max_breakpoints}")
        if self.n_candidates < 2:
            raise FittingError(f"n_candidates must be >= 2: {self.n_candidates}")
        if not 0.0 < self.min_separation < 0.5:
            raise FittingError(f"min_separation must be in (0, 0.5): {self.min_separation}")
        if self.anchor_weight <= 0:
            raise FittingError(f"anchor_weight must be > 0: {self.anchor_weight}")
        if self.bic_patience < 0:
            raise FittingError(f"bic_patience must be >= 0: {self.bic_patience}")
        if self.merge_slope_tol < 0:
            raise FittingError(f"merge_slope_tol must be >= 0: {self.merge_slope_tol}")
        if self.refine_passes < 0:
            raise FittingError(f"refine_passes must be >= 0: {self.refine_passes}")
        if not 0.0 <= self.min_phase_span < 0.5:
            raise FittingError(
                f"min_phase_span must be in [0, 0.5): {self.min_phase_span}"
            )


# ----------------------------------------------------------------------
# fixed-breakpoint fit
# ----------------------------------------------------------------------
def _segment_basis(x: np.ndarray, breakpoints: np.ndarray) -> np.ndarray:
    """Column j = length of segment j intersected with [0, x].

    With this parameterization the coefficient of column j *is* the slope
    of segment j, which makes the monotonicity constraint a plain
    non-negativity constraint.
    """
    knots = np.concatenate([[0.0], breakpoints, [1.0]])
    lo = knots[:-1]
    hi = knots[1:]
    return np.clip(x[:, None], lo[None, :], hi[None, :]) - lo[None, :]


def _finish_model(
    x: np.ndarray,
    y: np.ndarray,
    bp: np.ndarray,
    intercept: float,
    slopes: np.ndarray,
) -> PiecewiseLinearModel:
    """Assemble the fitted model, reporting the *data* SSE (anchors
    excluded) so BIC compares models on the same likelihood."""
    slopes = np.asarray(slopes, dtype=float)
    knots = np.concatenate([[0.0], bp, [1.0]])
    residuals = y - _evaluate_pwl(knots, slopes, intercept, x)
    return PiecewiseLinearModel(
        breakpoints=bp,
        slopes=slopes,
        intercept=intercept,
        sse=float(residuals @ residuals),
        n_points=int(x.size),
    )


def _fit_at(
    x: np.ndarray,
    ys: Sequence[np.ndarray],
    breakpoints: Sequence[float],
    anchor: bool,
    anchor_weight: float,
    monotone: bool,
) -> List[PiecewiseLinearModel]:
    """The one fixed-breakpoint least-squares solve, for every target in
    ``ys`` on the shared abscissa ``x``.

    The anchored, sqrt-weighted design is built once; each target is then
    solved on its own, by NNLS with a free intercept (``a = a_plus -
    a_minus``, both >= 0) when ``monotone``, else by minimum-norm
    ``lstsq``, so a batch of targets is bit-identical to one call per
    target.
    """
    x = np.asarray(x, dtype=float)
    targets = [np.asarray(yy, dtype=float) for yy in ys]
    for yy in targets:
        if x.ndim != 1 or x.shape != yy.shape:
            raise FittingError(
                f"x/y must be equal-length 1-D arrays: {x.shape} vs {yy.shape}"
            )
    if x.size < 2:
        raise FittingError(f"need at least 2 points to fit, got {x.size}")
    bp = np.sort(np.asarray(breakpoints, dtype=float))
    if bp.size and (bp[0] <= 0.0 or bp[-1] >= 1.0):
        raise FittingError(f"breakpoints must be interior to (0,1): {bp}")

    n = x.size
    if anchor:
        w_anchor = anchor_weight * n
        x_fit = np.concatenate([x, [0.0, 1.0]])
        weights = np.concatenate([np.ones(n), [w_anchor, w_anchor]])
    else:
        x_fit, weights = x, np.ones(n)
    sqrt_w = np.sqrt(weights)
    columns = [np.ones_like(x_fit)]
    if monotone:
        columns.append(-np.ones_like(x_fit))
    columns.append(_segment_basis(x_fit, bp))
    scaled = np.column_stack(columns) * sqrt_w[:, None]
    n_intercept = 2 if monotone else 1

    models: List[PiecewiseLinearModel] = []
    for yy in targets:
        target = (np.concatenate([yy, [0.0, 1.0]]) if anchor else yy) * sqrt_w
        if monotone:
            coeffs, _ = nnls(scaled, target)
            intercept = float(coeffs[0] - coeffs[1])
        else:
            coeffs = np.linalg.lstsq(scaled, target, rcond=None)[0]
            intercept = float(coeffs[0])
        models.append(_finish_model(x, yy, bp, intercept, coeffs[n_intercept:]))
    return models


def fit_fixed_breakpoints(
    x: np.ndarray,
    y: np.ndarray,
    breakpoints: Sequence[float],
    anchor: bool = True,
    anchor_weight: float = 0.25,
    monotone: bool = True,
) -> PiecewiseLinearModel:
    """Least-squares continuous PWL fit with known breakpoints.

    ``anchor_weight`` is the fraction of the total sample weight assigned
    to *each* of the two pseudo-points (0,0) and (1,1).
    """
    return _fit_at(x, [y], breakpoints, anchor, anchor_weight, monotone)[0]


# ----------------------------------------------------------------------
# search evaluator
# ----------------------------------------------------------------------
class _SearchEvaluator:
    """Scores candidate breakpoint configurations for the search.

    Every configuration is scored on one :class:`MomentProfile` of the
    series, in batches through :meth:`MomentProfile.evaluate_many`; the
    search ranks the returned SSE arrays and never builds a model for a
    candidate.  A row the profile flags unreliable (near-interpolating,
    singular or non-finite) is re-scored by the dense unconstrained fit,
    so cancellation noise never decides a comparison.  ``n_evals`` and
    ``n_exact_escapes`` accumulate locally and are flushed to the
    metrics registry once per fit.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, cfg: "PWLRConfig") -> None:
        self.x = x
        self.y = y
        self.cfg = cfg
        self.n_evals = 0
        self.n_exact_escapes = 0
        self._profile = MomentProfile(
            x, y, anchor=cfg.anchor, anchor_weight=cfg.anchor_weight
        )

    def sse_many(self, configs: Sequence[Sequence[float]]) -> np.ndarray:
        """Data SSE of each configuration; all rows have one length."""
        self.n_evals += len(configs)
        bp = np.asarray(configs, dtype=float).reshape(len(configs), -1)
        _, sse, ok = self._profile.evaluate_many(bp)
        for row in np.flatnonzero(~ok):
            self.n_exact_escapes += 1
            sse[row] = fit_fixed_breakpoints(
                self.x,
                self.y,
                bp[row],
                anchor=self.cfg.anchor,
                anchor_weight=self.cfg.anchor_weight,
                monotone=False,
            ).sse
        return sse

    def sse_one(self, breaks: Sequence[float]) -> float:
        """Data SSE of one configuration."""
        return float(self.sse_many([list(breaks)])[0])


# ----------------------------------------------------------------------
# automatic breakpoint search
# ----------------------------------------------------------------------
def fit_pwlr(
    x: np.ndarray,
    y: np.ndarray,
    config: Optional[PWLRConfig] = None,
) -> PiecewiseLinearModel:
    """Automatic continuous PWL fit: greedy breakpoint insertion + BIC.

    Algorithm:

    1. start from the single-segment fit;
    2. repeatedly add the candidate breakpoint that minimizes SSE, then
       locally refine every breakpoint on the candidate grid;
    3. keep the BIC-best model seen, stopping ``bic_patience`` steps after
       BIC stops improving or at ``max_breakpoints``;
    4. merge adjacent segments with indistinguishable slopes and refit.
    """
    cfg = config or PWLRConfig()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 8:
        raise FittingError(f"need at least 8 points for the search, got {x.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise FittingError("x and y must be finite (NaN or inf in the input)")
    with _span("fit_pwlr", n_points=int(x.size)) as rec:
        model, evaluator = _fit_pwlr_impl(x, y, cfg)
    _metric_counter("pwlr.fits").inc()
    _metric_counter("pwlr.candidate_evaluations").inc(evaluator.n_evals)
    if evaluator.n_exact_escapes:
        _metric_counter("pwlr.search_exact_escapes").inc(evaluator.n_exact_escapes)
    if rec is not None:
        _metric_histogram("pwlr.fit_seconds").observe(rec.wall_s)
    return model


def _fit_pwlr_impl(
    x: np.ndarray, y: np.ndarray, cfg: "PWLRConfig"
) -> Tuple[PiecewiseLinearModel, _SearchEvaluator]:
    grid = np.linspace(cfg.min_separation, 1.0 - cfg.min_separation, cfg.n_candidates)
    evaluator = _SearchEvaluator(x, y, cfg)

    def final_fit(breaks: Sequence[float]) -> PiecewiseLinearModel:
        return fit_fixed_breakpoints(
            x,
            y,
            breaks,
            anchor=cfg.anchor,
            anchor_weight=cfg.anchor_weight,
            monotone=cfg.monotone,
        )

    def bic(sse: float, n_breaks: int) -> float:
        # Free parameters: intercept + slopes + breakpoint positions.
        return model_selection.bic(sse, int(x.size), 2 + 2 * n_breaks)

    current: List[float] = []
    best_breaks: List[float] = []
    best_bic = bic(evaluator.sse_one(current), 0)
    worsening = 0

    while len(current) < cfg.max_breakpoints:
        with _span("pwlr.add", n_breaks=len(current)):
            addition = _best_addition(evaluator, current, grid, cfg.min_separation)
        if addition is None:
            break
        current, sse = addition
        with _span("pwlr.window_refine", n_breaks=len(current)):
            for _ in range(cfg.refine_passes):
                current, sse = _refine_positions(
                    evaluator, current, sse, grid, cfg.min_separation
                )
        # Refine positions off-grid before judging this k: BIC must compare
        # each breakpoint count at its best achievable positions, not at
        # grid-quantized ones (a sharp knee between grid points otherwise
        # makes k+2 staircases look better than the true k).
        with _span("pwlr.continuous_refine", n_breaks=len(current)):
            current = _continuous_refine(
                evaluator.sse_one, current, cfg.min_separation, passes=1
            )
        candidate_bic = bic(evaluator.sse_one(current), len(current))
        if candidate_bic < best_bic:
            best_bic = candidate_bic
            best_breaks = list(current)
            worsening = 0
        else:
            worsening += 1
            if worsening > cfg.bic_patience:
                break

    # Continuous position refinement: the grid quantizes breakpoints, and
    # with sharp knees that quantization splits one true boundary into two
    # neighboring grid points.  A bounded 1-D minimization per breakpoint
    # recovers the exact position (exact on noiseless data).
    with _span("pwlr.continuous_refine", n_breaks=len(best_breaks)):
        best_breaks = _continuous_refine(
            evaluator.sse_one, best_breaks, cfg.min_separation
        )

    with _span("pwlr.final_fit", n_breaks=len(best_breaks)):
        best_model = final_fit(best_breaks)
    with _span("pwlr.merge", n_breaks=len(best_breaks)):
        while True:
            before = best_model.breakpoints.size
            if cfg.merge_slope_tol > 0 and best_model.breakpoints.size:
                merged_breaks = model_selection.merge_insignificant(
                    best_model, tol=cfg.merge_slope_tol
                )
                if merged_breaks.size < best_model.breakpoints.size:
                    best_model = final_fit(list(merged_breaks))
            if cfg.min_phase_span > 0 and best_model.breakpoints.size:
                cleaned = model_selection.drop_narrowest_sliver(
                    best_model.breakpoints, [best_model], cfg.min_phase_span
                )
                if cleaned is not None:
                    best_model = final_fit(cleaned)
            if best_model.breakpoints.size == before:
                break
    return best_model, evaluator


def _addition_trials(
    current: List[float], grid: np.ndarray, min_sep: float
) -> List[List[float]]:
    """Every configuration ``current`` plus one grid candidate at least
    ``min_sep`` away from each existing breakpoint, in grid order."""
    return [
        sorted(current + [float(candidate)])
        for candidate in grid
        if not any(abs(candidate - b) < min_sep for b in current)
    ]


def _best_addition(
    evaluator: _SearchEvaluator,
    current: List[float],
    grid: np.ndarray,
    min_sep: float,
) -> Optional[Tuple[List[float], float]]:
    """Score every candidate insertion in one batch; return the
    ``(breaks, sse)`` of the best one (first wins on ties, NaN never)."""
    trials = _addition_trials(current, grid, min_sep)
    if not trials:
        return None
    sse = evaluator.sse_many(trials)
    ranked = np.where(sse < np.inf, sse, np.inf)
    best = int(np.argmin(ranked))
    if not ranked[best] < np.inf:
        return None
    return trials[best], float(sse[best])


def _refine_positions(
    evaluator: _SearchEvaluator,
    current: List[float],
    sse: float,
    grid: np.ndarray,
    min_sep: float,
    window: int = 5,
) -> Tuple[List[float], float]:
    """Coordinate descent on breakpoint positions, ``window`` grid steps
    wide; each breakpoint's window is scored as one batch and a position
    is taken only if it beats the running best by more than 1e-15."""
    breaks = list(current)
    best_sse = sse
    for i in range(len(breaks)):
        others = breaks[:i] + breaks[i + 1 :]
        anchor_idx = int(np.argmin(np.abs(grid - breaks[i])))
        lo = max(0, anchor_idx - window)
        hi = min(grid.size, anchor_idx + window + 1)
        positions: List[float] = []
        trials: List[List[float]] = []
        for candidate in grid[lo:hi]:
            if any(abs(candidate - b) < min_sep for b in others):
                continue
            positions.append(float(candidate))
            trials.append(sorted(others + [float(candidate)]))
        best_pos = breaks[i]
        if trials:
            for position, trial_sse in zip(positions, evaluator.sse_many(trials)):
                if trial_sse < best_sse - 1e-15:
                    best_sse = float(trial_sse)
                    best_pos = position
        breaks[i] = best_pos
        breaks.sort()
    return breaks, best_sse


def _continuous_refine(
    sse_at,
    breaks: List[float],
    min_sep: float,
    passes: int = 2,
    xatol: float = 1e-5,
) -> List[float]:
    """Coordinate descent with continuous (off-grid) breakpoint positions.

    ``sse_at(breaks)`` is the SSE of a whole configuration, so the value
    at the current position is the same for every ``i``: it is computed
    once up front and carried across accepted moves instead of being
    re-scored after every minimizer call.
    """
    breaks = sorted(float(b) for b in breaks)
    if not breaks:
        return breaks
    current_sse: Optional[float] = None
    for _ in range(passes):
        for i in range(len(breaks)):
            lo = (breaks[i - 1] + min_sep) if i > 0 else min_sep
            hi = (breaks[i + 1] - min_sep) if i < len(breaks) - 1 else 1.0 - min_sep
            if hi <= lo:
                continue
            others = breaks[:i] + breaks[i + 1 :]

            def objective(position: float) -> float:
                return sse_at(sorted(others + [float(position)]))

            if current_sse is None:
                current_sse = objective(breaks[i])
            result = minimize_scalar(
                objective, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
            )
            if result.fun <= current_sse:
                breaks[i] = float(result.x)
                current_sse = float(result.fun)
        breaks.sort()
    return breaks


def refit_slopes_many(
    x: np.ndarray,
    ys: Sequence[np.ndarray],
    breakpoints: Sequence[float],
    anchor: bool = True,
    anchor_weight: float = 0.25,
    monotone: bool = True,
) -> List[PiecewiseLinearModel]:
    """Fit *other counters'* slopes at shared ``breakpoints``.

    The pipeline finds breakpoints once on the search counters and
    re-estimates per-segment slopes for every counter at those shared
    boundaries, so all metrics describe the same phases.  Counters folded
    from the same instances share ``x``, so one call solves them all on
    one design; entry ``i`` is bit-identical to
    ``fit_fixed_breakpoints(x, ys[i], breakpoints, ...)``.

    Returns one fitted model per entry of ``ys``, in order.
    """
    models = _fit_at(x, ys, breakpoints, anchor, anchor_weight, monotone)
    if models:
        _metric_counter("pwlr.refits").inc(len(models))
        _metric_counter("pwlr.refit_batches").inc()
    return models
