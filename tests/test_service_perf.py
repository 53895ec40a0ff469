"""The self-regression gate: PWLR fits over the repo's own run history."""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError, FittingError
from repro.service import check_history, fit_duration_series, stage_series
from repro.service.perf import (
    MIN_RUNS,
    TOTAL_STAGE,
    segment_levels,
)


def _record(wall_s, stages):
    return {
        "format": "repro-telemetry/1",
        "kind": "batch",
        "wall_s": wall_s,
        "stages": {
            name: {"calls": 1, "wall_s": s, "self_wall_s": s, "cpu_s": s}
            for name, s in stages.items()
        },
    }


def _history(stage_walls):
    """Ledger records from ``{stage: [per-run seconds]}`` (equal lengths)."""
    n = len(next(iter(stage_walls.values())))
    records = []
    for i in range(n):
        stages = {name: walls[i] for name, walls in stage_walls.items()}
        records.append(_record(sum(stages.values()), stages))
    return records


class TestStageSeries:
    def test_collects_per_stage_and_total(self):
        records = _history({"fold": [1.0, 2.0], "fit": [0.5, 0.5]})
        series = stage_series(records)
        assert series["fold"] == [1.0, 2.0]
        assert series["fit"] == [0.5, 0.5]
        assert series[TOTAL_STAGE] == [1.5, 2.5]

    def test_ragged_records_tolerated(self):
        records = _history({"fold": [1.0, 1.0]})
        records.append(_record(3.0, {"new_stage": 3.0}))
        records.append({"kind": "batch", "stages": "not-a-mapping"})
        series = stage_series(records)
        assert series["fold"] == [1.0, 1.0]
        assert series["new_stage"] == [3.0]
        assert series[TOTAL_STAGE] == [1.0, 1.0, 3.0]

    def test_empty_history(self):
        assert stage_series([]) == {}


class TestFitDurationSeries:
    def test_flat_series_is_one_segment(self):
        model = fit_duration_series([1.0] * 12)
        levels = segment_levels(model, 12.0, 12)
        assert len(levels) == 1
        assert levels[0] == pytest.approx(1.0, rel=0.05)

    def test_level_shift_found_at_the_right_run(self):
        durations = [1.0] * 8 + [2.0] * 8
        model = fit_duration_series(durations)
        levels = segment_levels(model, sum(durations), len(durations))
        assert len(levels) >= 2
        assert levels[-1] / levels[0] == pytest.approx(2.0, rel=0.15)
        # the shift sits at run 9 (1-based), i.e. breakpoint near 0.5
        assert float(model.breakpoints[-1]) == pytest.approx(0.5, abs=0.1)

    def test_too_few_runs_raises(self):
        with pytest.raises(FittingError, match="need >="):
            fit_duration_series([1.0] * (MIN_RUNS - 1))

    def test_all_zero_series_raises(self):
        with pytest.raises(FittingError, match="all-zero"):
            fit_duration_series([0.0] * 10)


class TestCheckHistory:
    def test_flat_history_is_ok(self):
        report = check_history(_history({"fold": [1.0] * 10}))
        assert report.ok
        assert report.n_records == 10
        assert {v.status for v in report.verdicts} == {"ok"}

    def test_two_x_slowdown_trips_the_gate(self):
        walls = {"fold": [1.0] * 8 + [2.0] * 8, "fit": [0.5] * 16}
        report = check_history(_history(walls))
        assert not report.ok
        regressed = {v.stage for v in report.regressions}
        assert "fold" in regressed
        assert "fit" not in regressed
        verdict = next(v for v in report.regressions if v.stage == "fold")
        assert verdict.ratio == pytest.approx(2.0, rel=0.15)
        assert verdict.breakpoint_run == 9
        # regressions sort first
        assert report.verdicts[0].regressed

    def test_mild_drift_below_threshold_passes(self):
        walls = {"fold": [1.0] * 8 + [1.2] * 8}
        assert check_history(_history(walls), threshold=1.5).ok

    def test_short_history_is_insufficient_not_failed(self):
        report = check_history(_history({"fold": [1.0] * 3}))
        assert report.ok
        assert {v.status for v in report.verdicts} == {"insufficient"}

    def test_min_runs_raises_the_floor(self):
        report = check_history(
            _history({"fold": [1.0] * 10}), min_runs=12
        )
        assert {v.status for v in report.verdicts} == {"insufficient"}

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ConfigurationError, match="threshold"):
            check_history([], threshold=1.0)

    def test_render_mentions_the_shift(self):
        walls = {"fold": [1.0] * 8 + [2.0] * 8}
        text = check_history(_history(walls)).render()
        assert "regressed" in text
        assert "run 9" in text
        assert "regression(s) at threshold 1.5x" in text

    def test_empty_history_report(self):
        report = check_history([])
        assert report.ok
        assert report.verdicts == []


class TestRetiredKernelCounters:
    def test_old_ledger_lines_still_parse(self, tmp_path, capsys):
        """Ledger lines written while fits published ``pwlr.kernel.*``
        counters still load, feed the series, and pass the gate."""
        import json

        from repro.cli import main
        from repro.observability.ledger import RunLedger

        store = tmp_path / "store"
        ledger = RunLedger(str(store))
        records = _history({"fit_pwlr": [1.0] * 8, "fold": [0.5] * 8})
        for i, record in enumerate(records):
            record["metrics"] = {
                "pwlr.kernel.exact" if i % 2 else "pwlr.kernel.moments": 3,
                "pwlr.search_cache_hits": 40,
            }
        os.makedirs(os.path.dirname(ledger.path))
        with open(ledger.path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        loaded = ledger.records()
        assert len(loaded) == 8
        assert stage_series(loaded)["fit_pwlr"] == [1.0] * 8
        assert check_history(loaded).ok
        assert main(["-q", "perf", "history", str(store)]) == 0
        assert "kernel" not in capsys.readouterr().out
