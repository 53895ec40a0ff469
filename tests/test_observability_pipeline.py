"""Observability threaded through the pipeline: profile coverage, CLI, logs."""

import json
import logging

import pytest

from repro.analysis.pipeline import AnalyzerConfig, FoldingAnalyzer
from repro.cli import main
from repro.errors import AnalysisError
from repro.observability import Observability, read_profile_json
from repro.observability.logs import PROGRESS_LOGGER, progress

# Every one of these stages must appear exactly once inside each
# ``cluster`` span of a healthy analysis.
PER_CLUSTER_STAGES = (
    "select_instances",
    "fold",
    "filter",
    "fold_callstacks",
    "detect_phases",
    "map_source",
    "reconstruct",
)
TOP_LEVEL_STAGES = ("trace_stats", "extract_bursts", "build_features", "clustering")


@pytest.fixture(scope="module")
def observed_analysis(multiphase_trace):
    """One full analysis under an enabled observability context."""
    obs = Observability()
    with obs.activate():
        result = FoldingAnalyzer().analyze(multiphase_trace)
    return obs, result


class TestProfileCoverage:
    def test_profile_attached_with_analyze_root(self, observed_analysis):
        _, result = observed_analysis
        assert result.profile is not None
        assert [r.name for r in result.profile.roots] == ["analyze"]

    def test_every_stage_once_per_cluster(self, observed_analysis):
        _, result = observed_analysis
        assert not result.skipped  # healthy run: every cluster analyzed
        clusters = result.profile.find_all("cluster")
        assert len(clusters) == result.n_clusters_analyzed
        for cluster_span in clusters:
            names = [rec.name for _, rec in cluster_span.walk()]
            for stage in PER_CLUSTER_STAGES:
                assert names.count(stage) == 1, (
                    f"cluster {cluster_span.attrs.get('cluster_id')}: "
                    f"{stage} appears {names.count(stage)}x"
                )

    def test_top_level_stages_once(self, observed_analysis):
        _, result = observed_analysis
        for stage in TOP_LEVEL_STAGES:
            assert len(result.profile.find_all(stage)) == 1
        clustering = result.profile.find_all("clustering")[0]
        child_names = [c.name for c in clustering.children]
        assert "estimate_eps" in child_names
        assert "dbscan" in child_names

    def test_pwlr_fits_nest_under_detect_phases(self, observed_analysis):
        _, result = observed_analysis
        (detect,) = result.profile.find_all("detect_phases")
        assert any(
            rec.name == "fit_pwlr" for _, rec in detect.walk()
        )

    def test_fit_pwlr_explains_its_time(self, observed_analysis):
        _, result = observed_analysis
        fits = result.profile.find_all("fit_pwlr")
        assert fits
        for fit in fits:
            names = [child.name for child in fit.children]
            assert set(names) <= {
                "pwlr.add",
                "pwlr.window_refine",
                "pwlr.continuous_refine",
                "pwlr.final_fit",
                "pwlr.merge",
            }
            assert names[-2:] == ["pwlr.final_fit", "pwlr.merge"]
            assert names.count("pwlr.add") >= 1
            assert names.count("pwlr.continuous_refine") >= 1

    def test_metrics_agree_with_result(self, observed_analysis):
        obs, result = observed_analysis
        snap = obs.metrics.snapshot()
        assert snap["analysis.clusters_analyzed"] == result.n_clusters_analyzed
        assert snap["pwlr.fits"] > 0
        assert snap["folding.folds"] > 0
        assert snap["bursts.extracted"] > 0
        assert snap["phases.detected"] > 0
        # one gauge and one histogram ride along with the counters
        assert 0 < snap["clustering.estimated_eps"] < 1
        assert snap["pwlr.fit_seconds.count"] == snap["pwlr.fits"]
        assert snap["pwlr.fit_seconds.max"] >= snap["pwlr.fit_seconds.min"] > 0

    def test_profile_false_disables_collection(self, multiphase_trace):
        obs = Observability()
        with obs.activate():
            result = FoldingAnalyzer(AnalyzerConfig(profile=False)).analyze(
                multiphase_trace
            )
        assert result.profile is None
        assert obs.tracer.roots == []
        assert obs.metrics.snapshot() == {}


class TestConfigValidation:
    def test_profile_must_be_bool(self):
        with pytest.raises(AnalysisError):
            AnalyzerConfig(profile="yes")

    def test_progress_every_must_be_positive_int(self):
        with pytest.raises(AnalysisError):
            AnalyzerConfig(progress_every=0)
        with pytest.raises(AnalysisError):
            AnalyzerConfig(progress_every=1.5)


class TestProgressLogging:
    def _capture(self, verbosity: int):
        import io

        from repro.observability.logs import configure_cli_logging

        handler = configure_cli_logging(verbosity)
        handler.stream = io.StringIO()
        return handler

    def test_progress_emits_at_default_verbosity(self):
        handler = self._capture(0)
        progress("clustering %d bursts", 42)
        assert "clustering 42 bursts" in handler.stream.getvalue()

    def test_quiet_silences_progress(self):
        handler = self._capture(-1)
        progress("clustering %d bursts", 42)
        assert handler.stream.getvalue() == ""
        logging.getLogger(PROGRESS_LOGGER).warning("still visible")
        assert "still visible" in handler.stream.getvalue()

    def test_verbose_shows_logger_names(self):
        handler = self._capture(1)
        progress("stage done")
        assert "[repro.progress] stage done" in handler.stream.getvalue()

    def test_reconfiguration_replaces_handler(self):
        from repro.observability.logs import ROOT_LOGGER, configure_cli_logging

        before = configure_cli_logging(0)
        after = configure_cli_logging(1)
        handlers = logging.getLogger(ROOT_LOGGER).handlers
        assert after in handlers
        assert before not in handlers


class TestCliRoundTrip:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("obs") / "run.rpt")
        assert (
            main(
                [
                    "trace", "--app", "multiphase", "--iterations", "80",
                    "--ranks", "2", "--seed", "9", "-o", path,
                ]
            )
            == 0
        )
        return path

    @pytest.fixture(scope="class")
    def sink_paths(self, trace_path, tmp_path_factory):
        out = tmp_path_factory.mktemp("obs-out")
        profile = str(out / "profile.json")
        jsonl = str(out / "events.jsonl")
        chrome = str(out / "chrome.json")
        code = main(
            [
                "analyze", trace_path,
                "--profile", profile,
                "--log-jsonl", jsonl,
                "--chrome-trace", chrome,
            ]
        )
        assert code == 0
        return profile, jsonl, chrome

    def test_profile_artifact_round_trips(self, sink_paths):
        profile_path, _, _ = sink_paths
        profile, metrics = read_profile_json(profile_path)
        names = profile.stage_names()
        assert "read_trace" in names
        assert "analyze" in names
        assert "fit_pwlr" in names
        assert metrics["pwlr.fits"] > 0

    def test_jsonl_events_parse(self, sink_paths):
        _, jsonl_path, _ = sink_paths
        with open(jsonl_path) as handle:
            events = [json.loads(line) for line in handle]
        kinds = {e["event"] for e in events}
        assert "span" in kinds
        assert "metric" in kinds
        assert any("/" in e.get("path", "") for e in events)

    def test_chrome_trace_parses(self, sink_paths):
        _, _, chrome_path = sink_paths
        with open(chrome_path) as handle:
            data = json.load(handle)
        assert any(e.get("ph") == "X" for e in data["traceEvents"])

    def test_report_renders_profile(self, sink_paths, capsys):
        profile_path, _, _ = sink_paths
        assert main(["report", profile_path]) == 0
        out = capsys.readouterr().out
        assert "profiled total:" in out
        assert "fit_pwlr" in out
        assert "metrics:" in out

    def test_report_chrome_export(self, sink_paths, tmp_path, capsys):
        profile_path, _, _ = sink_paths
        chrome = str(tmp_path / "exported.json")
        assert main(["report", profile_path, "--chrome", chrome]) == 0
        with open(chrome) as handle:
            assert "traceEvents" in json.load(handle)

    def test_report_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == 1

    def test_analyze_without_sinks_attaches_nothing(self, trace_path, capsys):
        assert main(["analyze", trace_path]) == 0
        out = capsys.readouterr().out
        assert "Folding analysis" in out
