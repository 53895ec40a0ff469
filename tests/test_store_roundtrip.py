"""Serialization round-trip: serialize → deserialize → identical report.

The store's contract is that a deserialized result is indistinguishable
from the original wherever it is consumed: ``render_report`` output is
byte-identical (including skipped clusters and diagnostics), the hint
engine produces the same hints, and re-serializing yields the same JSON
(so re-putting a loaded result is idempotent).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.hints import generate_hints
from repro.analysis.pipeline import AnalyzerConfig
from repro.analysis.report import render_report
from repro.errors import AnalysisError, ConfigurationError
from repro.store import (
    RESULT_FORMAT,
    config_from_dict,
    config_to_dict,
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)


def _roundtrip(result):
    return result_from_json(result_to_json(result))


class TestReportByteIdentity:
    def test_multiphase_report_identical(self, multiphase_artifacts):
        original = multiphase_artifacts.result
        restored = _roundtrip(original)
        assert render_report(original, generate_hints(original)) == render_report(
            restored, generate_hints(restored)
        )

    def test_cgpop_report_identical(self, cgpop_artifacts):
        original = cgpop_artifacts.result
        restored = _roundtrip(original)
        assert render_report(original, generate_hints(original)) == render_report(
            restored, generate_hints(restored)
        )

    def test_report_identical_with_skipped_clusters(self, multiphase_artifacts):
        original = dataclasses.replace(
            multiphase_artifacts.result,
            skipped={7: "too few instances (3 < 8)", 2: "folded points < 16"},
        )
        restored = _roundtrip(original)
        assert restored.skipped == original.skipped
        assert all(isinstance(k, int) for k in restored.skipped)
        assert render_report(original, generate_hints(original)) == render_report(
            restored, generate_hints(restored)
        )


class TestJsonStability:
    def test_serialize_is_idempotent(self, multiphase_artifacts):
        text = result_to_json(multiphase_artifacts.result)
        assert result_to_json(result_from_json(text)) == text

    def test_double_roundtrip_stable(self, cgpop_artifacts):
        once = _roundtrip(cgpop_artifacts.result)
        twice = _roundtrip(once)
        assert result_to_json(once) == result_to_json(twice)


class TestFidelity:
    def test_diagnostics_preserved(self, multiphase_artifacts):
        original = multiphase_artifacts.result
        restored = _roundtrip(original)
        assert restored.diagnostics.summary() == original.diagnostics.summary()
        assert restored.diagnostics.worst == original.diagnostics.worst
        assert len(restored.diagnostics) == len(original.diagnostics)

    def test_phase_models_preserved(self, multiphase_artifacts):
        import numpy as np

        original = multiphase_artifacts.result.clusters[0]
        restored = _roundtrip(multiphase_artifacts.result).clusters[0]
        assert np.array_equal(
            restored.phase_set.pivot_model.breakpoints,
            original.phase_set.pivot_model.breakpoints,
        )
        assert np.array_equal(
            restored.phase_set.pivot_model.slopes,
            original.phase_set.pivot_model.slopes,
        )
        assert set(restored.phase_set.counter_models) == set(
            original.phase_set.counter_models
        )

    def test_phase_rates_exact(self, multiphase_artifacts):
        for orig_c, rest_c in zip(
            multiphase_artifacts.result.clusters,
            _roundtrip(multiphase_artifacts.result).clusters,
        ):
            for orig_p, rest_p in zip(
                orig_c.phase_set.phases, rest_c.phase_set.phases
            ):
                assert dict(rest_p.rates) == {
                    k: float(v) for k, v in orig_p.rates.items()
                }
                assert rest_p.duration_s == orig_p.duration_s

    def test_trace_stats_preserved(self, multiphase_artifacts):
        original = multiphase_artifacts.result.trace_stats
        restored = _roundtrip(multiphase_artifacts.result).trace_stats
        assert restored.n_ranks == original.n_ranks
        assert restored.duration == pytest.approx(original.duration, abs=0)
        assert restored.parallel_efficiency == pytest.approx(
            original.parallel_efficiency, abs=0
        )

    def test_result_methods_still_work(self, multiphase_artifacts):
        restored = _roundtrip(multiphase_artifacts.result)
        dominant = restored.dominant_cluster()
        assert dominant.cluster_id in {c.cluster_id for c in restored.clusters}
        assert restored.n_clusters_analyzed == len(restored.clusters)


class TestDataclassHooks:
    def test_to_dict_from_dict_methods(self, multiphase_artifacts):
        original = multiphase_artifacts.result
        data = original.to_dict()
        assert data["format"] == RESULT_FORMAT
        restored = type(original).from_dict(data)
        assert render_report(original, generate_hints(original)) == render_report(
            restored, generate_hints(restored)
        )


class TestFormatChecks:
    def test_unknown_format_rejected(self, multiphase_artifacts):
        data = result_to_dict(multiphase_artifacts.result)
        data["format"] = "repro-result/999"
        with pytest.raises(AnalysisError, match="format"):
            result_from_dict(data)

    def test_missing_format_rejected(self):
        with pytest.raises(AnalysisError):
            result_from_dict({"app_name": "x"})


class TestConfigCodec:
    def test_config_roundtrip(self):
        config = AnalyzerConfig(eps=0.05, min_pts=4, progress_every=3)
        restored = config_from_dict(config_to_dict(config))
        assert restored == config

    def test_unknown_config_field_rejected(self):
        data = config_to_dict(AnalyzerConfig())
        data["not_a_knob"] = 1
        with pytest.raises(ConfigurationError, match="unknown fields"):
            config_from_dict(data)


class TestNonFiniteAndDegenerate:
    """Hostile-but-legal payloads: NaN/inf diagnostic context values and
    zero-slope (plateau) segment models must survive the codec."""

    def _hostile_diagnostics(self):
        import math

        from repro.resilience.diagnostics import Diagnostics

        diags = Diagnostics()
        diags.warning(
            "folding",
            "probe rate not finite",
            rate=math.nan,
            limit=math.inf,
            window=(math.nan, 1.0),
            nested={1: (-math.inf, 0.0)},
        )
        return diags

    def test_nonfinite_diagnostic_context_roundtrip(self, multiphase_artifacts):
        import math

        hostile = dataclasses.replace(
            multiphase_artifacts.result, diagnostics=self._hostile_diagnostics()
        )
        text = result_to_json(hostile)
        restored = result_from_json(text)
        assert result_to_json(restored) == text
        ctx = restored.diagnostics.events[-1].context
        assert math.isnan(ctx["rate"])
        assert ctx["limit"] == math.inf
        assert math.isnan(ctx["window"][0]) and ctx["window"][1] == 1.0
        assert ctx["nested"][1] == (-math.inf, 0.0)

    def test_stdlib_literal_eval_cannot_parse_nan_containers(self):
        # Pins why the codec needs its own evaluator: ast.literal_eval
        # rejects the bare ``nan``/``inf`` names that repr() emits inside
        # containers, so '(nan, 1.0)' -- a perfectly legal context value
        # repr -- is unparseable with the stdlib helper alone.
        import ast
        import math

        from repro.store.serialize import _safe_literal_eval

        text = repr((math.nan, 1.0))
        assert text == "(nan, 1.0)"
        with pytest.raises(ValueError):
            ast.literal_eval(text)
        value = _safe_literal_eval(text)
        assert math.isnan(value[0]) and value[1] == 1.0
        assert _safe_literal_eval("-inf") == -math.inf
        with pytest.raises(AnalysisError):
            _safe_literal_eval("__import__('os')")

    def test_zero_slope_segments_roundtrip(self, multiphase_artifacts):
        data = result_to_dict(multiphase_artifacts.result)
        for cluster in data["clusters"]:
            for model in cluster["phase_set"]["counter_models"].values():
                model["slopes"] = [0.0] * len(model["slopes"])
        restored = result_from_dict(data)
        text = result_to_json(restored)
        assert result_to_json(result_from_json(text)) == text
        for cluster in restored.clusters:
            assert not cluster.phase_set.pivot_model.slopes.any()
            assert cluster.phase_set.pivot_model.slope_at(0.5) == 0.0

    def test_nonfinite_result_survives_store_artifact_path(
        self, multiphase_artifacts, tmp_path
    ):
        # Same hostile payload, but through the full repro-result/1
        # artifact path: put -> digest-verified read -> identical JSON.
        import math

        from repro.store import ResultStore

        hostile = dataclasses.replace(
            multiphase_artifacts.result, diagnostics=self._hostile_diagnostics()
        )
        store = ResultStore(str(tmp_path / "store"))
        store.put("a" * 64, hostile)
        restored = store.get("a" * 64)
        assert result_to_json(restored) == result_to_json(hostile)
        assert math.isnan(restored.diagnostics.events[-1].context["rate"])
