"""Moments search evaluator: property tests, degenerate-geometry escapes,
equivalence with the retired dense ranking, the search golden, and the
batched multi-counter refit."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FittingError
from repro.fitting.moments import MomentProfile
from repro.fitting.pwlr import (
    PWLRConfig,
    fit_pwlr,
    refit_slopes,
    refit_slopes_many,
)
from repro.observability.context import Observability

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


# ----------------------------------------------------------------------
# reference implementation: dense weighted least squares
# ----------------------------------------------------------------------
def dense_reference(x, y, w, breaks, anchor, anchor_weight=0.25):
    """Unconstrained anchored weighted PWL fit the long way; returns the
    weighted *data* SSE (anchors excluded)."""
    n = x.size
    breaks = np.asarray(sorted(breaks), dtype=float)
    if anchor:
        wa = anchor_weight * n
        x_fit = np.concatenate([x, [0.0, 1.0]])
        y_fit = np.concatenate([y, [0.0, 1.0]])
        w_fit = np.concatenate([w, [wa, wa]])
    else:
        x_fit, y_fit, w_fit = x, y, w
    knots = np.concatenate([[0.0], breaks, [1.0]])

    def basis(xs):
        return np.clip(xs[:, None], knots[:-1][None, :], knots[1:][None, :]) - knots[
            :-1
        ][None, :]

    design = np.column_stack([np.ones_like(x_fit), basis(x_fit)])
    sw = np.sqrt(w_fit)
    coeffs, *_ = np.linalg.lstsq(design * sw[:, None], y_fit * sw, rcond=None)
    pred = coeffs[0] + basis(x) @ coeffs[1:]
    return coeffs, float(np.sum(w * (y - pred) ** 2))


@st.composite
def moment_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n = draw(st.integers(min_value=16, max_value=400))
    k = draw(st.integers(min_value=0, max_value=5))
    anchor = draw(st.booleans())
    weighted = draw(st.booleans())
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    y = np.cumsum(rng.uniform(0.0, 0.02, n)) + rng.normal(0.0, 0.05, n)
    w = rng.uniform(0.5, 2.0, n) if weighted else np.ones(n)
    # Well-posed geometries only: every segment must hold at least one
    # sample, otherwise its basis column is constant over the data and
    # the system is legitimately singular (the kernel escapes to exact,
    # which the degenerate-geometry tests below cover).
    breaks = []
    prev = 0.0
    for p in sorted(rng.uniform(0.05, 0.95, k)):
        if (
            p - prev >= 0.05
            and np.any((x >= prev) & (x < p))
            and np.any(x >= p)
        ):
            breaks.append(float(p))
            prev = p
    return x, y, w, breaks, anchor, weighted


class TestMomentProfileMath:
    @given(moment_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_sse_matches_dense_lstsq(self, case):
        """Moments-kernel SSE == dense weighted-lstsq SSE (rtol=1e-9)."""
        x, y, w, breaks, anchor, weighted = case
        profile = MomentProfile(
            x, y, weights=w if weighted else None, anchor=anchor
        )
        coeffs, sse, ok = profile.evaluate_one(breaks)
        ref_coeffs, ref_sse = dense_reference(x, y, w, breaks, anchor)
        assert ok
        assert sse == pytest.approx(ref_sse, rel=1e-9, abs=1e-12)
        assert np.allclose(coeffs, ref_coeffs, rtol=1e-6, atol=1e-8)

    def test_unsorted_input_matches_sorted(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, 200)
        y = x**2 + rng.normal(0.0, 0.01, 200)
        order = np.argsort(x, kind="stable")
        a = MomentProfile(x, y).evaluate_one([0.4, 0.7])
        b = MomentProfile(x[order], y[order]).evaluate_one([0.4, 0.7])
        assert a[1] == b[1]
        assert np.array_equal(a[0], b[0])

    def test_near_interpolating_fit_is_flagged_not_ok(self):
        """Noiseless PWL data at its true breakpoints: the quadratic form
        is pure cancellation noise, so the row must escape to exact."""
        x = np.linspace(0.0, 1.0, 240)
        knots = np.array([0.0, 0.4, 1.0])
        slopes = np.array([0.5, 2.0])
        vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])
        idx = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, 1)
        y = (vals[idx] + slopes[idx] * (x - knots[idx])) / vals[-1]
        _, sse, ok = MomentProfile(x, y).evaluate_one([0.4])
        assert not ok

    def test_singular_system_is_flagged_not_ok(self):
        """A segment holding no samples (and a shared near-zero span)
        makes the normal equations singular — NaN row, ok False."""
        x = np.concatenate([np.linspace(0.0, 0.4, 100), np.linspace(0.6, 1.0, 100)])
        y = x.copy()
        profile = MomentProfile(x, y, anchor=False)
        _, _, ok = profile.evaluate_many(
            np.array([[0.45, 0.45000000001, 0.55]])
        )
        assert not ok[0]

    def test_input_validation(self):
        with pytest.raises(FittingError):
            MomentProfile(np.array([0.5]), np.array([0.5]))
        with pytest.raises(FittingError):
            MomentProfile(np.linspace(0, 1, 10), np.zeros(9))
        with pytest.raises(FittingError):
            MomentProfile(
                np.linspace(0, 1, 10), np.zeros(10), weights=np.ones(4)
            )


def _fit_hex(model):
    return {
        "breakpoints": [float(b).hex() for b in model.breakpoints],
        "slopes": [float(v).hex() for v in model.slopes],
        "intercept": float(model.intercept).hex(),
        "sse": float(model.sse).hex(),
    }


def _search_counters(x, y, cfg=None):
    obs = Observability(collect_rss=False)
    with obs.activate():
        model = fit_pwlr(x, y, cfg)
    return model, obs.metrics.snapshot()


def _three_phase_series(n):
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    knots = np.array([0.0, 0.3, 0.7, 1.0])
    slopes = np.array([0.5, 2.0, 0.8])
    vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])
    idx = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, 2)
    y = vals[idx] + slopes[idx] * (x - knots[idx]) + rng.normal(0, 0.01, n)
    return x, y


class TestKernelSelection:
    """There is one search evaluator: every candidate is ranked on the
    moments SSE array, and only unreliable rows escape to the dense fit."""

    def test_config_rejects_unknown_kernel(self):
        for kernel in ("auto", "moments", "exact"):
            with pytest.raises(TypeError):
                PWLRConfig(search_kernel=kernel)

    @pytest.mark.parametrize("n", [200, 2000])
    def test_series_ranks_on_moments(self, n):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(0, 1, n))
        y = x + rng.normal(0, 0.01, n)
        _, snap = _search_counters(x, y)
        assert snap["pwlr.candidate_evaluations"] > 0
        assert "pwlr.search_exact_escapes" not in snap

    def test_duplicate_x_ranks_on_moments(self):
        """Only 30 distinct abscissae: the moments rows stay reliable, so
        nothing escapes and the fit is the one the dense ranking chose
        (evaluation count recorded from the dense-ranked search)."""
        rng = np.random.default_rng(1)
        x = np.repeat(np.linspace(0.0, 1.0, 30), 20)
        y = x + rng.normal(0, 0.01, x.size)
        model, snap = _search_counters(x, y)
        assert "pwlr.search_exact_escapes" not in snap
        assert snap["pwlr.candidate_evaluations"] == 498
        assert model.breakpoints.size == 0

    def test_nonfinite_input_escapes_to_dense_path(self):
        """NaN data make every moments row unreliable; the rows go to the
        dense fit, which refuses NaN input as before."""
        x = np.sort(np.random.default_rng(2).uniform(0, 1, 600))
        y = x.copy()
        y[5] = np.nan
        _, _, ok = MomentProfile(x, y).evaluate_many(np.array([[0.3], [0.6]]))
        assert not ok.any()
        with pytest.raises(ValueError):
            fit_pwlr(x, y)


class TestKernelEquivalence:
    """The moments ranking selects what the retired dense ranking
    selected: models and evaluation counts recorded from the dense
    (``"exact"``) search are reproduced bit for bit."""

    DENSE_RANKED = {
        200: {
            "breakpoints": [
                "0x1.2f5661b52067dp-2", "0x1.67492ef83b7d2p-1", "0x1.f533d740fad53p-1"
            ],
            "slopes": [
                "0x1.c653ad95212b0p-2", "0x1.0c50a8cf00e2bp+1",
                "0x1.019c13f975da7p-2", "0x0.0p+0",
            ],
            "intercept": "0x1.7795c4bdb83c3p-10",
            "sse": "0x1.53c6191b00ba2p-2",
        },
        1500: {
            "breakpoints": [
                "0x1.339720ec5b5b8p-2", "0x1.66ca0dd45efd6p-1", "0x1.f5c21b9923009p-1"
            ],
            "slopes": [
                "0x1.e2b1019f6f1edp-2", "0x1.0b47e299c9ff3p+1",
                "0x1.08142b109d0a1p-2", "0x0.0p+0",
            ],
            "intercept": "0x1.11fceaecd848bp-10",
            "sse": "0x1.424f30e4f6a4ap+1",
        },
    }

    @pytest.mark.parametrize("n", [200, 1500])
    def test_kernels_select_identical_models(self, n):
        x, y = _three_phase_series(n)
        assert _fit_hex(fit_pwlr(x, y)) == self.DENSE_RANKED[n]

    def test_candidate_evaluations_kernel_independent(self):
        rng = np.random.default_rng(11)
        x = np.sort(rng.uniform(0.0, 1.0, 900))
        y = np.minimum(x * 2.0, 0.6 + 0.5 * x) + rng.normal(0, 0.02, 900)
        _, snap = _search_counters(x, y)
        # Both retired kernels reported 1024 on this series.
        assert snap["pwlr.candidate_evaluations"] == 1024

    def test_retired_kernel_counters_not_published(self):
        rng = np.random.default_rng(13)
        x = np.sort(rng.uniform(0.0, 1.0, 600))
        y = x**2 + rng.normal(0, 0.02, 600)
        _, snap = _search_counters(x, y)
        assert snap["pwlr.fits"] == 1
        assert not [k for k in snap if k.startswith("pwlr.kernel.")]
        assert "pwlr.search_cache_hits" not in snap


class TestSearchGolden:
    def test_fit_pwlr_matches_golden(self):
        """fit_pwlr on the seed-0 quick corpus, bit for bit, against
        values recorded before the search had a single evaluator."""
        from repro.verify.corpus import pwl_datasets

        with open(os.path.join(GOLDEN_DIR, "pwlr_search_seed0.json")) as handle:
            golden = json.load(handle)["cases"]
        cases = pwl_datasets(0, full=False)
        assert sorted(golden) == sorted(case.name for case in cases)
        for case in cases:
            cfg = PWLRConfig(anchor=case.anchor, monotone=case.monotone)
            assert _fit_hex(fit_pwlr(case.x, case.y, cfg)) == golden[case.name], (
                case.name
            )


class TestFingerprintInvariance:
    #: fingerprint_config(AnalyzerConfig()) recorded while PWLRConfig
    #: still had its search_kernel knob; store entries keyed by it stay
    #: cache hits because the fit results are byte-identical.
    DEFAULT_FINGERPRINT = (
        "9c42cef190973be986ba8c57958d8001a4a11dec2b232eb923c67ca07f668726"
    )

    def test_search_kernel_excluded_from_fingerprint(self):
        from repro.analysis.pipeline import AnalyzerConfig
        from repro.store.fingerprint import (
            config_fingerprint_dict,
            fingerprint_config,
        )

        assert "search_kernel" not in config_fingerprint_dict(AnalyzerConfig())["pwlr"]
        assert fingerprint_config(AnalyzerConfig()) == self.DEFAULT_FINGERPRINT

    def test_stored_config_with_retired_search_kernel_reads(self):
        from repro.analysis.pipeline import AnalyzerConfig
        from repro.store.fingerprint import config_from_dict, config_to_dict

        stored = config_to_dict(AnalyzerConfig())
        stored["pwlr"]["search_kernel"] = "exact"
        assert config_from_dict(stored) == AnalyzerConfig()

    def test_stored_config_with_unknown_pwlr_field_refused(self):
        from repro.analysis.pipeline import AnalyzerConfig
        from repro.errors import ConfigurationError
        from repro.store.fingerprint import config_from_dict, config_to_dict

        stored = config_to_dict(AnalyzerConfig())
        stored["pwlr"]["search_kernels"] = "exact"
        with pytest.raises(ConfigurationError, match="search_kernels"):
            config_from_dict(stored)


class TestRefitSlopesMany:
    def _make(self, n=300, n_counters=4, seed=5):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0.0, 1.0, n))
        ys = [
            np.cumsum(rng.uniform(0.0, 0.02, n)) + rng.normal(0, 0.02, n)
            for _ in range(n_counters)
        ]
        model = fit_pwlr(x, ys[0])
        return x, ys, model

    def test_monotone_batch_bit_identical_to_loop(self):
        x, ys, model = self._make()
        batched = refit_slopes_many(x, ys, model)
        for yy, got in zip(ys, batched):
            want = refit_slopes(x, yy, model)
            assert np.array_equal(got.breakpoints, want.breakpoints)
            assert np.array_equal(got.slopes, want.slopes)
            assert got.intercept == want.intercept
            assert got.sse == want.sse

    def test_unconstrained_batch_matches_loop(self):
        x, ys, model = self._make()
        batched = refit_slopes_many(x, ys, model, monotone=False)
        for yy, got in zip(ys, batched):
            want = refit_slopes(x, yy, model, monotone=False)
            assert np.allclose(got.slopes, want.slopes, rtol=1e-9, atol=1e-11)
            assert got.intercept == pytest.approx(want.intercept, rel=1e-9, abs=1e-11)
            assert got.sse == pytest.approx(want.sse, rel=1e-9, abs=1e-12)

    def test_counts_one_refit_per_counter(self):
        x, ys, model = self._make(n_counters=3)
        obs = Observability(collect_rss=False)
        with obs.activate():
            refit_slopes_many(x, ys, model)
        snap = obs.metrics.snapshot()
        assert snap["pwlr.refits"] == 3
        assert snap["pwlr.refit_batches"] == 1

    def test_empty_batch_and_validation(self):
        x, ys, model = self._make()
        assert refit_slopes_many(x, [], model) == []
        with pytest.raises(FittingError):
            refit_slopes_many(x, [ys[0][:-1]], model)
