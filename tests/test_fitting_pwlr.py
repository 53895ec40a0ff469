"""Tests for repro.fitting.pwlr — the piece-wise linear regression."""

import numpy as np
import pytest

from repro.errors import FittingError
from repro.fitting.pwlr import (
    PiecewiseLinearModel,
    PWLRConfig,
    fit_fixed_breakpoints,
    fit_pwlr,
)


def pwl_curve(x, breakpoints, slopes, intercept=0.0):
    """Evaluate a continuous PWL curve (reference implementation)."""
    knots = np.concatenate([[0.0], breakpoints, [1.0]])
    y = np.full_like(x, intercept, dtype=float)
    for i, slope in enumerate(slopes):
        lo, hi = knots[i], knots[i + 1]
        y += slope * np.clip(x, lo, hi) - slope * lo
    return y


def normalized_pwl(x, breakpoints, raw_slopes):
    """A PWL curve rescaled to pass through (0,0)-(1,1)."""
    y = pwl_curve(x, np.asarray(breakpoints), np.asarray(raw_slopes))
    end = pwl_curve(np.array([1.0]), np.asarray(breakpoints), np.asarray(raw_slopes))[0]
    return y / end


class TestPiecewiseLinearModel:
    def _model(self):
        return PiecewiseLinearModel(
            breakpoints=np.array([0.25, 0.75]),
            slopes=np.array([2.0, 0.5, 1.0]),
            intercept=0.0,
            sse=0.0,
            n_points=10,
        )

    def test_knots_and_segments(self):
        model = self._model()
        assert np.allclose(model.knots, [0.0, 0.25, 0.75, 1.0])
        assert model.n_segments == 3
        assert model.segments()[1] == (0.25, 0.75, 0.5)

    def test_predict_continuity(self):
        model = self._model()
        eps = 1e-9
        for b in model.breakpoints:
            assert model.predict(b - eps) == pytest.approx(
                model.predict(b + eps), abs=1e-6
            )

    def test_predict_values(self):
        model = self._model()
        assert model.predict(0.0) == pytest.approx(0.0)
        assert model.predict(0.25) == pytest.approx(0.5)
        assert model.predict(0.75) == pytest.approx(0.75)
        assert model.predict(1.0) == pytest.approx(1.0)

    def test_slope_at(self):
        model = self._model()
        assert model.slope_at(0.1) == 2.0
        assert model.slope_at(0.5) == 0.5
        assert model.slope_at(0.9) == 1.0
        assert np.allclose(model.slope_at(np.array([0.1, 0.9])), [2.0, 1.0])

    def test_validation(self):
        with pytest.raises(FittingError):
            PiecewiseLinearModel(
                breakpoints=np.array([0.5, 0.25]),
                slopes=np.ones(3),
                intercept=0.0,
                sse=0.0,
                n_points=1,
            )
        with pytest.raises(FittingError):
            PiecewiseLinearModel(
                breakpoints=np.array([0.5]),
                slopes=np.ones(3),
                intercept=0.0,
                sse=0.0,
                n_points=1,
            )
        with pytest.raises(FittingError):
            PiecewiseLinearModel(
                breakpoints=np.array([1.5]),
                slopes=np.ones(2),
                intercept=0.0,
                sse=0.0,
                n_points=1,
            )


class TestFitFixedBreakpoints:
    def test_exact_recovery_noiseless(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(0, 1, 400))
        true_breaks = [0.3, 0.7]
        y = normalized_pwl(x, true_breaks, [3.0, 0.5, 1.5])
        model = fit_fixed_breakpoints(x, y, true_breaks)
        assert model.sse < 1e-12
        assert np.allclose(model.predict(x), y, atol=1e-6)

    def test_monotone_constraint(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(0, 1, 300))
        y = normalized_pwl(x, [0.5], [1.0, 0.2]) + rng.normal(0, 0.02, x.size)
        model = fit_fixed_breakpoints(x, y, [0.5], monotone=True)
        assert np.all(model.slopes >= -1e-12)

    def test_anchor_pins_endpoints(self):
        rng = np.random.default_rng(2)
        x = np.sort(rng.uniform(0.2, 0.8, 200))  # no data near the edges
        y = x.copy()
        model = fit_fixed_breakpoints(x, y, [], anchor=True, anchor_weight=10.0)
        assert model.predict(0.0) == pytest.approx(0.0, abs=1e-3)
        assert model.predict(1.0) == pytest.approx(1.0, abs=1e-3)

    def test_no_breakpoints_is_line(self):
        x = np.linspace(0, 1, 50)
        y = 0.3 + 0.4 * x
        model = fit_fixed_breakpoints(x, y, [], anchor=False, monotone=False)
        assert model.n_segments == 1
        assert model.intercept == pytest.approx(0.3, abs=1e-9)
        assert model.slopes[0] == pytest.approx(0.4, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(FittingError):
            fit_fixed_breakpoints(np.array([0.1]), np.array([0.1]), [])
        with pytest.raises(FittingError):
            fit_fixed_breakpoints(np.linspace(0, 1, 10), np.zeros(9), [])
        with pytest.raises(FittingError):
            fit_fixed_breakpoints(np.linspace(0, 1, 10), np.zeros(10), [1.5])


class TestFitPwlrAuto:
    def test_recovers_breakpoints_noiseless(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0, 1, 800))
        true_breaks = [0.3, 0.7]
        y = normalized_pwl(x, true_breaks, [3.0, 0.5, 1.5])
        model = fit_pwlr(x, y)
        assert model.breakpoints.size == 2
        assert np.allclose(model.breakpoints, true_breaks, atol=0.02)

    def test_recovers_with_noise(self):
        rng = np.random.default_rng(4)
        x = np.sort(rng.uniform(0, 1, 1500))
        true_breaks = [0.2, 0.55, 0.8]
        y = normalized_pwl(x, true_breaks, [2.0, 0.3, 1.2, 3.0])
        y = y + rng.normal(0, 0.005, x.size)
        model = fit_pwlr(x, y)
        assert model.breakpoints.size == 3
        assert np.allclose(np.sort(model.breakpoints), true_breaks, atol=0.03)

    def test_straight_line_gets_no_breakpoints(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0, 1, 600))
        y = x + rng.normal(0, 0.004, x.size)
        model = fit_pwlr(x, y)
        assert model.breakpoints.size == 0

    def test_fine_phase_detected(self):
        # a 4%-wide flat phase in the middle — the "very fine granularity"
        # selling point of the paper
        rng = np.random.default_rng(6)
        x = np.sort(rng.uniform(0, 1, 3000))
        true_breaks = [0.48, 0.52]
        y = normalized_pwl(x, true_breaks, [1.0, 0.02, 1.0])
        y = y + rng.normal(0, 0.002, x.size)
        config = PWLRConfig(min_separation=0.01, min_phase_span=0.01)
        model = fit_pwlr(x, y, config=config)
        assert model.breakpoints.size == 2
        assert np.allclose(np.sort(model.breakpoints), true_breaks, atol=0.015)

    def test_max_breakpoints_respected(self):
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(0, 1, 500))
        y = normalized_pwl(x, [0.2, 0.4, 0.6, 0.8], [1, 3, 0.5, 2, 0.8])
        config = PWLRConfig(max_breakpoints=2)
        model = fit_pwlr(x, y, config=config)
        assert model.breakpoints.size <= 2

    def test_too_few_points(self):
        with pytest.raises(FittingError):
            fit_pwlr(np.linspace(0, 1, 4), np.linspace(0, 1, 4))

    def test_nan_in_y_is_a_fitting_error(self):
        x = np.sort(np.random.default_rng(2).uniform(0, 1, 600))
        y = x.copy()
        y[5] = np.nan
        with pytest.raises(FittingError, match="finite"):
            fit_pwlr(x, y)

    def test_inf_in_x_is_a_fitting_error(self):
        x = np.sort(np.random.default_rng(2).uniform(0, 1, 600))
        y = x.copy()
        x[-1] = np.inf
        with pytest.raises(FittingError, match="finite"):
            fit_pwlr(x, y)

    def test_config_validation(self):
        with pytest.raises(FittingError):
            PWLRConfig(max_breakpoints=-1)
        with pytest.raises(FittingError):
            PWLRConfig(min_separation=0.6)
        with pytest.raises(FittingError):
            PWLRConfig(anchor_weight=0.0)
        with pytest.raises(FittingError):
            PWLRConfig(min_phase_span=0.7)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        x = np.sort(rng.uniform(0, 1, 400))
        y = normalized_pwl(x, [0.5], [2.0, 0.5]) + rng.normal(0, 0.01, x.size)
        a = fit_pwlr(x, y)
        b = fit_pwlr(x, y)
        assert np.array_equal(a.breakpoints, b.breakpoints)
        assert np.array_equal(a.slopes, b.slopes)


class TestRefitSlopes:
    def test_other_counter_at_shared_breaks(self):
        rng = np.random.default_rng(9)
        x = np.sort(rng.uniform(0, 1, 600))
        pivot_y = normalized_pwl(x, [0.4], [2.0, 0.5])
        other_y = normalized_pwl(x, [0.4], [0.2, 3.0])
        pivot_model = fit_pwlr(x, pivot_y)
        other_model = fit_fixed_breakpoints(x, other_y, pivot_model.breakpoints)
        assert np.array_equal(other_model.breakpoints, pivot_model.breakpoints)
        # slope ordering reversed vs pivot
        assert other_model.slopes[0] < other_model.slopes[1]
