"""Degraded-mode pipeline: fallback chains fire exactly when intended.

The chaos-marked tests push corrupted traces through the *full* pipeline
(salvage read -> clustering -> folding -> fitting -> phases) and assert the
analysis still lands, with every degradation on record in the result's
diagnostics.  The unit-level tests force each fallback chain individually.
"""

import numpy as np
import pytest

import repro.analysis.pipeline as pipeline_mod
import repro.phases.detect as detect_mod
from repro.analysis.pipeline import AnalyzerConfig, FoldingAnalyzer
from repro.errors import AnalysisError, ClusteringError, FittingError, FoldingError
from repro.folding.fold import fold_cluster
from repro.phases.detect import detect_phases
from repro.resilience import CORRUPTION_OPS, CorruptionSpec, Diagnostics, Severity
from repro.resilience.inject import corrupt_trace_text
from repro.trace.reader import salvage_trace_text
from repro.trace.writer import dump_trace_text

PIVOT = "PAPI_TOT_INS"


@pytest.fixture(scope="module")
def trace_text(multiphase_trace):
    return dump_trace_text(multiphase_trace)


class TestConfigValidation:
    def test_iqr_factor_must_be_positive(self):
        with pytest.raises(AnalysisError, match="iqr_factor"):
            AnalyzerConfig(iqr_factor=0.0)
        with pytest.raises(AnalysisError, match="iqr_factor"):
            AnalyzerConfig(iqr_factor=-1.5)

    def test_min_folded_points_floor(self):
        with pytest.raises(AnalysisError, match="min_folded_points"):
            AnalyzerConfig(min_folded_points=1)
        AnalyzerConfig(min_folded_points=2)  # boundary is legal

    def test_range_tolerance_non_negative(self):
        with pytest.raises(AnalysisError, match="range_tolerance"):
            AnalyzerConfig(range_tolerance=-0.01)
        AnalyzerConfig(range_tolerance=0.0)  # boundary is legal


class TestPristineRunIsClean:
    def test_no_diagnostics_without_damage(self, multiphase_artifacts):
        assert len(multiphase_artifacts.result.diagnostics) == 0
        assert multiphase_artifacts.result.diagnostics.clean


class TestEpsFallbackChain:
    def test_failed_kdist_falls_back_to_quantile(self, multiphase_trace, monkeypatch):
        def boom(points, k):
            raise ClusteringError("forced k-dist failure")

        monkeypatch.setattr(pipeline_mod, "estimate_eps", boom)
        result = FoldingAnalyzer().analyze(multiphase_trace)
        assert result.n_clusters_analyzed >= 1
        degraded = result.diagnostics.by_severity(Severity.DEGRADED)
        assert any("quantile" in e.message for e in degraded)
        assert all(e.stage == "clustering" for e in degraded)

    def test_degenerate_kdist_estimate_also_falls_back(
        self, multiphase_trace, monkeypatch
    ):
        monkeypatch.setattr(pipeline_mod, "estimate_eps", lambda points, k: 0.0)
        result = FoldingAnalyzer().analyze(multiphase_trace)
        assert result.n_clusters_analyzed >= 1
        assert result.diagnostics.by_stage("clustering")

    def test_fail_fast_mode_propagates(self, multiphase_trace, monkeypatch):
        def boom(points, k):
            raise ClusteringError("forced k-dist failure")

        monkeypatch.setattr(pipeline_mod, "estimate_eps", boom)
        analyzer = FoldingAnalyzer(AnalyzerConfig(degraded_mode=False))
        with pytest.raises(ClusteringError, match="forced"):
            analyzer.analyze(multiphase_trace)

    def test_explicit_eps_is_never_second_guessed(
        self, multiphase_trace, monkeypatch
    ):
        def boom(points, k):  # must not be called at all
            raise AssertionError("estimate_eps called despite explicit eps")

        monkeypatch.setattr(pipeline_mod, "estimate_eps", boom)
        result = FoldingAnalyzer(AnalyzerConfig(eps=0.05)).analyze(multiphase_trace)
        assert result.n_clusters_analyzed >= 1


class TestBurstScreening:
    @staticmethod
    def _burst_set(deltas, duration=0.01):
        from repro.clustering.bursts import BurstSet, ComputationBurst

        bursts = []
        t = 0.0
        for i, delta in enumerate(deltas):
            bursts.append(
                ComputationBurst(
                    rank=0,
                    index=i,
                    t_start=t,
                    t_end=t + duration,
                    start_counters={PIVOT: 0.0},
                    end_counters={PIVOT: float(delta)},
                )
            )
            t += duration * 2
        return BurstSet(bursts)

    def test_screen_drops_absurd_bursts(self):
        bursts = self._burst_set([1e7] * 20 + [1e13] * 2)
        diag = Diagnostics()
        screened = FoldingAnalyzer()._screen_bursts(bursts, diag)
        assert len(screened) == 20
        warnings = diag.by_severity(Severity.WARNING)
        assert any("screened" in e.message for e in warnings)

    def test_abandoned_screen_emits_degraded_diagnostic(self):
        # 10 plausible + 4 absurd bursts, but min_pts=12: screening would
        # leave too few to cluster, so it must back off *audibly*.
        bursts = self._burst_set([1e7] * 10 + [1e13] * 4)
        diag = Diagnostics()
        analyzer = FoldingAnalyzer(AnalyzerConfig(min_pts=12))
        screened = analyzer._screen_bursts(bursts, diag)
        assert len(screened) == 14  # nothing dropped
        degraded = diag.by_severity(Severity.DEGRADED)
        assert any("abandoned" in e.message for e in degraded)
        assert all(e.stage == "clustering" for e in degraded)

    def test_clean_screen_is_silent(self):
        bursts = self._burst_set([1e7] * 20)
        diag = Diagnostics()
        assert FoldingAnalyzer()._screen_bursts(bursts, diag) is bursts
        assert diag.clean


class TestPWLRFallbackChain:
    def test_breakpoint_search_falls_back_to_smoother(
        self, multiphase_artifacts, monkeypatch
    ):
        folded = multiphase_artifacts.result.clusters[0].folded

        def boom(x, y, config=None):
            raise FittingError("forced PWLR failure")

        monkeypatch.setattr(detect_mod, "fit_pwlr", boom)
        diag = Diagnostics()
        phase_set = detect_phases(folded, diagnostics=diag, allow_fallback=True)
        assert len(phase_set) >= 1
        degraded = diag.by_severity(Severity.DEGRADED)
        assert degraded and all(e.stage == "fitting" for e in degraded)
        assert any("kernel-smoother" in e.message for e in degraded)

    def test_no_fallback_without_opt_in(self, multiphase_artifacts, monkeypatch):
        folded = multiphase_artifacts.result.clusters[0].folded

        def boom(x, y, config=None):
            raise FittingError("forced PWLR failure")

        monkeypatch.setattr(detect_mod, "fit_pwlr", boom)
        with pytest.raises(FittingError, match="forced"):
            detect_phases(folded, allow_fallback=False)

    def test_refit_drops_non_pivot_counter(self, multiphase_artifacts, monkeypatch):
        folded = multiphase_artifacts.result.clusters[0].folded
        victims = [c for c in folded if c != PIVOT]
        assert victims, "fixture cluster folds only the pivot"
        victim = victims[0]
        real_many = detect_mod.refit_slopes_many

        def selective_many(x, ys, breaks, **kwargs):
            # Sees the group call and then the per-counter retries.
            if any(np.array_equal(yy, folded[victim].y) for yy in ys):
                raise FittingError("forced refit failure")
            return real_many(x, ys, breaks, **kwargs)

        monkeypatch.setattr(detect_mod, "refit_slopes_many", selective_many)
        diag = Diagnostics()
        phase_set = detect_phases(folded, diagnostics=diag, allow_fallback=True)
        assert victim not in phase_set.counter_models
        assert PIVOT in phase_set.counter_models
        warnings = diag.by_severity(Severity.WARNING)
        assert any(e.context.get("counter") == victim for e in warnings)

    def test_pivot_refit_failure_has_no_substitute(
        self, multiphase_artifacts, monkeypatch
    ):
        folded = multiphase_artifacts.result.clusters[0].folded
        real_many = detect_mod.refit_slopes_many

        def selective_many(x, ys, breaks, **kwargs):
            if any(np.array_equal(yy, folded[PIVOT].y) for yy in ys):
                raise FittingError("forced pivot refit failure")
            return real_many(x, ys, breaks, **kwargs)

        monkeypatch.setattr(detect_mod, "refit_slopes_many", selective_many)
        with pytest.raises(FittingError, match="forced pivot refit failure"):
            detect_phases(folded, diagnostics=Diagnostics(), allow_fallback=True)


class TestFoldDropReporting:
    def test_optional_counter_without_samples_is_recorded(
        self, multiphase_artifacts
    ):
        instances = multiphase_artifacts.result.clusters[0].instances
        drops = {}
        folded = fold_cluster(
            instances, [PIVOT, "PAPI_NOT_A_COUNTER"], required=[PIVOT], drops=drops
        )
        assert PIVOT in folded
        assert "PAPI_NOT_A_COUNTER" not in folded
        assert "folded samples" in drops["PAPI_NOT_A_COUNTER"]

    def test_required_counter_still_raises(self, multiphase_artifacts):
        instances = multiphase_artifacts.result.clusters[0].instances
        with pytest.raises(FoldingError, match="PAPI_NOT_A_COUNTER"):
            fold_cluster(
                instances,
                [PIVOT, "PAPI_NOT_A_COUNTER"],
                required=[PIVOT, "PAPI_NOT_A_COUNTER"],
            )


@pytest.mark.chaos
class TestCorruptedEndToEnd:
    """Corrupt -> salvage -> analyze survives every operator (fixed seed)."""

    @pytest.mark.parametrize("op", sorted(CORRUPTION_OPS))
    def test_single_operator(self, trace_text, op):
        corrupted = corrupt_trace_text(
            trace_text, [CorruptionSpec(op=op, rate=0.1)], seed=3
        )
        trace, report = salvage_trace_text(corrupted)
        result = FoldingAnalyzer().analyze(trace, salvage=report)
        assert result.n_clusters_analyzed >= 1
        # the salvage report always lands in the diagnostics, clean or not
        assert result.diagnostics.by_stage("read")
        if not report.clean:
            assert not result.diagnostics.clean

    def test_ten_percent_mixed_corruption(self, trace_text):
        """The ISSUE's acceptance scenario: 10% mixed damage, fixed seed."""
        specs = [
            CorruptionSpec(op="drop_samples", rate=0.1),
            CorruptionSpec(op="nan_counters", rate=0.1),
            CorruptionSpec(op="bitflip_fields", rate=0.1),
            CorruptionSpec(op="truncate", rate=0.02),
        ]
        corrupted = corrupt_trace_text(trace_text, specs, seed=42)
        trace, report = salvage_trace_text(corrupted)
        assert not report.clean
        assert report.n_records_kept > 0
        result = FoldingAnalyzer().analyze(trace, salvage=report)
        assert result.n_clusters_analyzed >= 1
        diag = result.diagnostics
        # every drop reason observed by the reader is echoed as an event
        read_events = diag.by_stage("read")
        assert len(read_events) == len(report.reasons)
        for event in read_events:
            assert event.severity == Severity.WARNING
            assert report.reasons[event.context["reason"]] == event.context["count"]

    def test_diagnostics_render_in_summary(self, trace_text):
        corrupted = corrupt_trace_text(
            trace_text, [CorruptionSpec(op="bitflip_fields", rate=0.1)], seed=3
        )
        trace, report = salvage_trace_text(corrupted)
        result = FoldingAnalyzer().analyze(trace, salvage=report)
        text = result.diagnostics.summary()
        assert "event(s)" in text
        assert "warning/read" in text
