"""Tests for repro.clustering.bursts — burst extraction."""

import numpy as np
import pytest

from repro.clustering.bursts import BurstSet, ComputationBurst, extract_bursts
from repro.errors import ClusteringError
from repro.trace.records import Trace


class TestExtractBursts:
    def test_burst_count_matches_truth(self, multiphase_timeline, multiphase_trace):
        bursts = extract_bursts(multiphase_trace)
        truth_count = sum(len(r.bursts) for r in multiphase_timeline.ranks)
        assert len(bursts) == truth_count

    def test_burst_intervals_match_truth(self, multiphase_timeline, multiphase_trace):
        bursts = extract_bursts(multiphase_trace)
        rank0 = [b for b in bursts if b.rank == 0]
        truth0 = multiphase_timeline.ranks[0].bursts
        for extracted, truth in zip(rank0, truth0):
            assert extracted.t_start == pytest.approx(truth.t_start, abs=1e-12)
            assert extracted.t_end == pytest.approx(truth.t_end, abs=1e-12)

    def test_deltas_positive(self, multiphase_trace):
        bursts = extract_bursts(multiphase_trace)
        assert np.all(bursts.deltas("PAPI_TOT_INS") > 0)
        assert np.all(bursts.deltas("PAPI_TOT_CYC") > 0)

    def test_first_burst_starts_at_zero_counters(self, multiphase_trace):
        bursts = extract_bursts(multiphase_trace)
        first = next(b for b in bursts if b.rank == 0 and b.index == 0)
        assert all(v == 0.0 for v in first.start_counters.values())
        assert first.t_start == 0.0

    def test_samples_attached_in_interval(self, multiphase_trace):
        bursts = extract_bursts(multiphase_trace)
        for burst in bursts.bursts[:50]:
            for sample in burst.samples:
                assert burst.t_start <= sample.time <= burst.t_end

    def test_all_compute_samples_attached(self, multiphase_timeline, multiphase_trace):
        bursts = extract_bursts(multiphase_trace)
        attached = bursts.n_samples
        in_compute = sum(1 for s in multiphase_trace.samples if not s.in_mpi)
        assert attached == in_compute

    def test_min_duration_filter(self, multiphase_trace):
        bursts_all = extract_bursts(multiphase_trace)
        cutoff = float(np.median(bursts_all.durations()))
        bursts_filtered = extract_bursts(multiphase_trace, min_duration=cutoff)
        assert len(bursts_filtered) < len(bursts_all)
        assert np.all(bursts_filtered.durations() >= cutoff)

    def test_trace_without_instrumentation(self):
        trace = Trace(n_ranks=1)
        with pytest.raises(ClusteringError, match="instrumentation"):
            extract_bursts(trace)


class TestComputationBurst:
    def _burst(self):
        return ComputationBurst(
            rank=0,
            index=0,
            t_start=1.0,
            t_end=3.0,
            start_counters={"PAPI_TOT_INS": 100.0},
            end_counters={"PAPI_TOT_INS": 500.0},
        )

    def test_delta_rate(self):
        burst = self._burst()
        assert burst.delta("PAPI_TOT_INS") == 400.0
        assert burst.rate("PAPI_TOT_INS") == 200.0
        assert burst.duration == 2.0

    def test_missing_counter(self):
        with pytest.raises(ClusteringError, match="PAPI_NOPE"):
            self._burst().delta("PAPI_NOPE")

    def test_empty_interval_rejected(self):
        with pytest.raises(ClusteringError):
            ComputationBurst(0, 0, 1.0, 1.0, {}, {})


class TestBurstSet:
    def test_subset(self, multiphase_trace):
        bursts = extract_bursts(multiphase_trace)
        sub = bursts.subset([0, 2, 4])
        assert len(sub) == 3
        assert sub[1] is bursts[2]

    def test_empty_rejected(self):
        with pytest.raises(ClusteringError):
            BurstSet([])

    def test_rates_are_deltas_over_durations(self, multiphase_trace):
        bursts = extract_bursts(multiphase_trace)
        expected = bursts.deltas("PAPI_TOT_INS") / bursts.durations()
        assert np.allclose(bursts.rates("PAPI_TOT_INS"), expected)
