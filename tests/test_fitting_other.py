"""Tests for fitting.model_selection, kernel_smooth, evaluation."""

import numpy as np
import pytest

from repro.errors import FittingError
from repro.fitting.evaluation import evaluate_fit, evaluate_series
from repro.fitting.kernel_smooth import KernelSmoother, smoother_breakpoints
from repro.fitting.model_selection import aic, bic, merge_insignificant
from repro.fitting.pwlr import PiecewiseLinearModel, fit_pwlr
from repro.machine.rates import RateFunction, RateSegment


class TestInformationCriteria:
    def test_bic_penalizes_parameters(self):
        assert bic(1.0, 100, 5) > bic(1.0, 100, 2)

    def test_bic_rewards_fit(self):
        assert bic(0.1, 100, 2) < bic(1.0, 100, 2)

    def test_aic_weaker_penalty_large_n(self):
        # log(1000) > 2, so BIC penalizes harder than AIC at large n
        delta_bic = bic(1.0, 1000, 5) - bic(1.0, 1000, 4)
        delta_aic = aic(1.0, 1000, 5) - aic(1.0, 1000, 4)
        assert delta_bic > delta_aic

    def test_zero_sse_finite(self):
        assert np.isfinite(bic(0.0, 100, 2))

    def test_validation(self):
        with pytest.raises(FittingError):
            bic(-1.0, 10, 1)
        with pytest.raises(FittingError):
            aic(1.0, 0, 1)


class TestMergeInsignificant:
    def _model(self, breaks, slopes):
        return PiecewiseLinearModel(
            breakpoints=np.asarray(breaks, dtype=float),
            slopes=np.asarray(slopes, dtype=float),
            intercept=0.0,
            sse=0.0,
            n_points=100,
        )

    def test_similar_slopes_merged(self):
        model = self._model([0.5], [1.0, 1.01])
        assert merge_insignificant(model, tol=0.1).size == 0

    def test_distinct_slopes_kept(self):
        model = self._model([0.5], [1.0, 3.0])
        assert np.allclose(merge_insignificant(model, tol=0.1), [0.5])

    def test_chain_merging_uses_reference_slope(self):
        # slopes creep up gradually; all steps below tol vs mean -> merge all
        model = self._model([0.3, 0.6], [1.0, 1.02, 1.04])
        assert merge_insignificant(model, tol=0.1).size == 0

    def test_all_flat(self):
        model = self._model([0.5], [0.0, 0.0])
        assert merge_insignificant(model).size == 0

    def test_no_breakpoints(self):
        model = self._model([], [1.0])
        assert merge_insignificant(model).size == 0


class TestKernelSmoother:
    def test_smooth_line_recovered(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(0, 1, 500))
        y = x + rng.normal(0, 0.01, 500)
        smoother = KernelSmoother.with_plugin_bandwidth(x, y)
        grid = np.linspace(0.1, 0.9, 20)
        values, derivs = smoother.evaluate(grid)
        assert np.allclose(values, grid, atol=0.02)
        assert np.allclose(derivs, 1.0, atol=0.1)

    def test_derivative_blurs_at_knee(self):
        rng = np.random.default_rng(2)
        x = np.sort(rng.uniform(0, 1, 800))
        y = np.where(x < 0.5, 1.6 * x, 0.8 + 0.4 * (x - 0.5))
        smoother = KernelSmoother.with_plugin_bandwidth(x, y)
        _, derivs = smoother.evaluate(np.array([0.5]))
        # smoothed derivative at the knee is between the two slopes
        assert 0.4 < derivs[0] < 1.6

    def test_breakpoints_found_for_strong_knee(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0, 1, 1000))
        y = np.where(x < 0.5, 1.9 * x, 0.95 + 0.1 * (x - 0.5) / 0.5 * 0.5)
        smoother = KernelSmoother(x=x, y=y, bandwidth=0.03)
        breaks = smoother_breakpoints(smoother)
        assert breaks.size >= 1
        assert np.min(np.abs(breaks - 0.5)) < 0.05

    def test_no_breaks_for_line(self):
        rng = np.random.default_rng(4)
        x = np.sort(rng.uniform(0, 1, 500))
        smoother = KernelSmoother(x=x, y=x.copy(), bandwidth=0.05)
        breaks = smoother_breakpoints(smoother)
        assert breaks.size <= 1  # numerical ripples may produce one at most

    def test_validation(self):
        with pytest.raises(FittingError):
            KernelSmoother(x=np.zeros(2), y=np.zeros(2), bandwidth=0.1)
        with pytest.raises(FittingError):
            KernelSmoother(x=np.zeros(10), y=np.zeros(10), bandwidth=0.0)


class TestEvaluation:
    def _truth(self):
        return RateFunction(
            [
                RateSegment(0.0, 0.5, {"A": 10.0}),
                RateSegment(0.5, 1.0, {"A": 30.0}),
            ]
        )

    def test_perfect_model_scores_perfectly(self):
        truth = self._truth()
        model = PiecewiseLinearModel(
            breakpoints=np.array([0.5]),
            slopes=np.array([0.5, 1.5]),
            intercept=0.0,
            sse=0.0,
            n_points=100,
        )
        ev = evaluate_fit(model, truth, "A")
        assert ev.curve_mae < 1e-12
        assert ev.rate_relative_mae < 1e-12
        assert ev.curve_r2 == pytest.approx(1.0)

    def test_wrong_model_scores_badly(self):
        truth = self._truth()
        model = PiecewiseLinearModel(
            breakpoints=np.array([]),
            slopes=np.array([1.0]),
            intercept=0.0,
            sse=0.0,
            n_points=100,
        )
        ev = evaluate_fit(model, truth, "A")
        assert ev.rate_relative_mae > 0.2

    def test_series_shape_mismatch(self):
        with pytest.raises(FittingError):
            evaluate_series(np.zeros(4), np.zeros(4), np.zeros(5), np.zeros(5))

    def test_str_contains_metrics(self):
        ev = evaluate_series(
            np.linspace(0, 1, 10),
            np.ones(10),
            np.linspace(0, 1, 10),
            np.ones(10),
        )
        assert "R2" in str(ev)
