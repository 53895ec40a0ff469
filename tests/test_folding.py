"""Tests for repro.folding — instances, folding, filtering, call stacks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.bursts import extract_bursts
from repro.errors import FoldingError
from repro.folding.callstack import fold_callstacks
from repro.folding.filtering import clip_to_unit_range, enforce_instance_monotonicity
from repro.folding.fold import FoldedCounter, fold_cluster
from repro.folding.instances import select_instances
from repro.folding.reconstruct import Reconstruction


@pytest.fixture(scope="module")
def instances(multiphase_artifacts):
    art = multiphase_artifacts
    return select_instances(
        art.result.bursts, art.result.clustering.labels, 0
    )


@pytest.fixture(scope="module")
def folded_ins(instances):
    return fold_cluster(instances, ["PAPI_TOT_INS"])["PAPI_TOT_INS"]


class TestSelectInstances:
    def test_selects_cluster_members(self, multiphase_artifacts, instances):
        labels = multiphase_artifacts.result.clustering.labels
        assert instances.n_candidates == int(np.sum(labels == 0))
        assert len(instances) <= instances.n_candidates

    def test_outliers_pruned(self, core):
        from repro.analysis.experiments import run_app
        from repro.workload.apps import multiphase_app
        from repro.workload.variability import VariabilityModel

        app = multiphase_app(
            iterations=150,
            ranks=1,
            variability=VariabilityModel(outlier_prob=0.1, outlier_scale=4.0),
        )
        art = run_app(app, core=core, seed=33)
        inst = select_instances(
            art.result.bursts, art.result.clustering.labels, 0
        )
        # clustering already isolates most dilated instances (their duration
        # feature differs); pruning removes any that slipped through, so the
        # retained duration spread must be tight
        durations = inst.durations
        assert durations.max() / durations.min() < 2.0

    def test_no_pruning_option(self, multiphase_artifacts):
        art = multiphase_artifacts
        inst = select_instances(
            art.result.bursts, art.result.clustering.labels, 0, prune_outliers=False
        )
        assert inst.n_pruned_duration == 0
        assert len(inst) == inst.n_candidates

    def test_min_instances_enforced(self, multiphase_artifacts):
        art = multiphase_artifacts
        with pytest.raises(FoldingError, match="instances"):
            select_instances(
                art.result.bursts,
                art.result.clustering.labels,
                0,
                min_instances=10**6,
            )

    def test_unknown_cluster(self, multiphase_artifacts):
        art = multiphase_artifacts
        with pytest.raises(FoldingError):
            select_instances(art.result.bursts, art.result.clustering.labels, 99)

    def test_summary_keys(self, instances):
        summary = instances.summary()
        assert {"instances", "pruned", "mean_duration_s", "cv_duration", "samples"} <= set(
            summary
        )


class TestFoldCluster:
    def test_folded_in_unit_square(self, folded_ins):
        assert np.all(folded_ins.x >= 0.0) and np.all(folded_ins.x <= 1.0)
        # quantization can push y a hair out; must be within tolerance
        assert np.all(folded_ins.y >= -0.01) and np.all(folded_ins.y <= 1.01)

    def test_sorted_by_x(self, folded_ins):
        assert np.all(np.diff(folded_ins.x) >= 0)

    def test_point_count_matches_samples(self, instances, folded_ins):
        assert folded_ins.n_points == instances.n_samples

    def test_folded_points_on_truth_curve(self, core, folded_ins, small_multiphase_app):
        truth = small_multiphase_app.kernels()[0].base_rate_function(core)
        y_true = truth.normalized_cumulative(folded_ins.x, "PAPI_TOT_INS")
        # mild variability + quantization: points hug the exact curve
        assert np.mean(np.abs(folded_ins.y - y_true)) < 0.01

    def test_required_counter_missing_raises(self, instances):
        with pytest.raises(FoldingError):
            fold_cluster(instances, ["PAPI_TOT_INS"], min_points=10**9)

    def test_optional_counter_dropped(self, instances):
        # With an absurd support demand, optional counters are silently
        # dropped while required ones must raise.
        folded = fold_cluster(
            instances,
            ["PAPI_TOT_INS", "PAPI_L3_TCM"],
            min_points=instances.n_samples + 1,
            required=[],
        )
        assert folded == {}
        with pytest.raises(FoldingError):
            fold_cluster(
                instances,
                ["PAPI_TOT_INS", "PAPI_L3_TCM"],
                min_points=instances.n_samples + 1,
                required=["PAPI_TOT_INS"],
            )

    def test_required_not_subset(self, instances):
        with pytest.raises(FoldingError, match="required"):
            fold_cluster(instances, ["PAPI_TOT_INS"], required=["PAPI_L3_TCM"])

    def test_empty_counters(self, instances):
        with pytest.raises(FoldingError):
            fold_cluster(instances, [])

    def test_density_coverage(self, folded_ins):
        density = folded_ins.density(10)
        assert density.sum() == folded_ins.n_points
        assert np.all(density > 0)  # samples cover the whole instance

    def test_subset_instances(self, folded_ins):
        wanted = list(range(0, folded_ins.n_instances, 2))
        sub = folded_ins.subset_instances(wanted)
        assert sub.n_points < folded_ins.n_points
        assert set(np.unique(sub.instance_ids)) <= set(wanted)
        # n_instances must reflect the subset, set at construction time
        # (not patched in afterwards, which would bypass validation)
        assert sub.n_instances == len(wanted)

    def test_drops_metric_counts_only_new_drops(self, instances):
        # A caller accumulating drops across clusters must not have the
        # pre-existing entries re-counted by every later call.
        from repro.observability.context import Observability

        obs = Observability()
        with obs.activate():
            drops = {"PREVIOUS_COUNTER": "dropped by an earlier cluster"}
            fold_cluster(
                instances,
                ["PAPI_TOT_INS", "PAPI_L3_TCM"],
                min_points=instances.n_samples + 1,
                required=[],
                drops=drops,
            )
        assert len(drops) == 3  # the two new drops joined the old entry
        assert obs.metrics.snapshot()["folding.dropped_counters"] == 2


def _scalar_reference_fold(instances, counters):
    """The historical per-sample scalar fold, kept as the equivalence
    oracle for the vectorized implementation."""
    per = {}
    for counter in counters:
        xs, ys, ids = [], [], []
        for instance_id, burst in enumerate(instances):
            duration = burst.duration
            for sample in burst.samples:
                start = burst.start_counters.get(counter)
                end = burst.end_counters.get(counter)
                value = sample.counters.get(counter)
                if start is None or end is None or value is None:
                    continue
                span = end - start
                if span <= 0:
                    continue
                xs.append((sample.time - burst.t_start) / duration)
                ys.append((value - start) / span)
                ids.append(instance_id)
        order = np.argsort(np.asarray(xs), kind="stable")
        per[counter] = (
            np.asarray(xs)[order],
            np.asarray(ys)[order],
            np.asarray(ids, dtype=int)[order],
        )
    return per


class TestVectorizedFoldEquivalence:
    """The vectorized fold must be bit-for-bit identical to the scalar
    loop it replaced — same arithmetic, same (instance, sample) order."""

    def _assert_bit_identical(self, instances, counters, **kwargs):
        folded = fold_cluster(instances, counters, **kwargs)
        reference = _scalar_reference_fold(instances, counters)
        assert folded, "fold produced no counters"
        for counter, fc in folded.items():
            x, y, ids = reference[counter]
            assert fc.x.tobytes() == x.tobytes()
            assert fc.y.tobytes() == y.tobytes()
            assert fc.instance_ids.tobytes() == ids.tobytes()

    def test_multiphase_artifacts_bit_identical(self, multiphase_artifacts):
        art = multiphase_artifacts
        instances = select_instances(
            art.result.bursts, art.result.clustering.labels, 0
        )
        counters = art.result.bursts.counter_names
        self._assert_bit_identical(instances, counters, required=[])

    def test_cgpop_all_clusters_bit_identical(self, cgpop_artifacts):
        art = cgpop_artifacts
        labels = art.result.clustering.labels
        for cluster_id in sorted(set(labels[labels >= 0].tolist())):
            instances = select_instances(art.result.bursts, labels, cluster_id)
            counters = art.result.bursts.counter_names
            self._assert_bit_identical(
                instances, counters, min_points=1, required=[]
            )

    def test_multiplexed_samples_bit_identical(self):
        # Samples carrying only a subset of counters (PMU multiplexing),
        # missing probes, and a non-advancing counter: every skip rule of
        # the scalar loop must survive vectorization.
        from repro.clustering.bursts import ComputationBurst
        from repro.folding.instances import ClusterInstances
        from repro.trace.records import SampleRecord

        rng = np.random.default_rng(42)
        counters = ["A", "B", "C"]
        bursts = []
        t = 0.0
        for i in range(30):
            duration = 0.01
            start = {"A": 0.0, "B": 0.0}
            end = {"A": 1000.0, "B": 0.0}  # B never advances
            if i % 3 == 0:
                start["C"] = 0.0  # C probed only in some bursts
                end["C"] = 500.0
            samples = []
            for s_time in np.sort(rng.uniform(t, t + duration, 6)):
                frac = (s_time - t) / duration
                carried = {"A": frac * 1000.0}
                if rng.random() < 0.5:
                    carried["C"] = frac * 500.0
                samples.append(
                    SampleRecord(rank=0, time=float(s_time), counters=carried)
                )
            bursts.append(
                ComputationBurst(
                    rank=0,
                    index=i,
                    t_start=t,
                    t_end=t + duration,
                    start_counters=start,
                    end_counters=end,
                    samples=samples,
                )
            )
            t += duration * 2
        instances = ClusterInstances(
            cluster_id=0,
            bursts=bursts,
            n_candidates=len(bursts),
            n_pruned_duration=0,
        )
        self._assert_bit_identical(
            instances, ["A", "C"], min_points=1, required=[]
        )
        # B advances nowhere: required -> error, optional -> dropped
        drops = {}
        folded = fold_cluster(
            instances, counters, min_points=1, required=[], drops=drops
        )
        assert "B" not in folded and "B" in drops


class TestFilters:
    def _folded(self, x, y, ids=None):
        x = np.asarray(x, dtype=float)
        order = np.argsort(x)
        y = np.asarray(y, dtype=float)[order]
        ids = (np.zeros(x.size, dtype=int) if ids is None else np.asarray(ids))[order]
        return FoldedCounter(
            counter="PAPI_TOT_INS",
            x=x[order],
            y=y,
            instance_ids=ids,
            n_instances=int(ids.max()) + 1,
            mean_duration=1.0,
            mean_total=100.0,
        )

    def test_clip_drops_far_points(self):
        folded = self._folded([0.1, 0.5, 0.9], [0.1, 2.0, 0.9])
        kept, report = clip_to_unit_range(folded, tolerance=0.05)
        assert report.n_dropped == 1
        assert kept.n_points == 2

    def test_clip_clamps_near_points(self):
        folded = self._folded([0.0, 1.0], [-0.01, 1.01])
        kept, report = clip_to_unit_range(folded, tolerance=0.05)
        assert report.n_dropped == 0
        assert np.all(kept.y >= 0.0) and np.all(kept.y <= 1.0)

    def test_monotonicity_filter(self):
        # instance 0: y dips at x=0.6 -> dropped; instance 1 independent
        folded = self._folded(
            [0.2, 0.4, 0.6, 0.8, 0.5],
            [0.2, 0.5, 0.3, 0.9, 0.4],
            ids=[0, 0, 0, 0, 1],
        )
        kept, report = enforce_instance_monotonicity(folded)
        assert report.n_dropped == 1
        assert 0.3 not in kept.y

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotonicity_matches_scalar_scan(self, seed):
        from repro.verify.oracles import oracle_instance_monotonicity

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        y = np.round(rng.normal(0.0, 1.0, size=n), 1)  # rounding makes ties
        y[rng.random(n) < 0.1] = np.nan
        ids = rng.integers(0, int(rng.integers(1, 8)), size=n)
        tolerance = float(rng.choice([0.0, 1e-9, 0.1]))
        folded = self._folded(np.arange(n, dtype=float), y, ids=ids)
        kept, report = enforce_instance_monotonicity(folded, tolerance=tolerance)
        want = np.asarray(
            oracle_instance_monotonicity(y.tolist(), ids.tolist(), tolerance), dtype=bool
        )
        assert kept.x.tolist() == np.flatnonzero(want).tolist()
        assert report.n_dropped == int(np.sum(~want))

    def test_monotonicity_keeps_clean_data(self, folded_ins):
        kept, report = enforce_instance_monotonicity(folded_ins)
        assert report.drop_fraction < 0.01

    def test_filter_report_properties(self):
        folded = self._folded([0.1], [0.1])
        _, report = clip_to_unit_range(folded)
        assert report.n_after == 1
        assert report.drop_fraction == 0.0


class TestFoldCallstacks:
    def test_folding_covers_instances(self, instances):
        stacks = fold_callstacks(instances)
        assert stacks.n_points > 0
        assert np.all(np.diff(stacks.x) >= 0)

    def test_routine_shares_sum_to_one(self, instances):
        stacks = fold_callstacks(instances)
        shares = stacks.routine_shares(0.0, 1.0)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_dominant_matches_truth_phase(self, core, instances, small_multiphase_app):
        kernel = small_multiphase_app.kernels()[0]
        truth = kernel.base_rate_function(core)
        bounds = truth.normalized_boundaries
        stacks = fold_callstacks(instances)
        # middle of the longest phase (index 2, compute_bound)
        x0, x1 = bounds[1], bounds[2]
        mid_lo = x0 + 0.3 * (x1 - x0)
        mid_hi = x0 + 0.7 * (x1 - x0)
        dominant = stacks.dominant_routine(mid_lo, mid_hi)
        assert dominant == "phase_2"

    def test_line_shares(self, instances):
        stacks = fold_callstacks(instances)
        lines = stacks.line_shares(0.0, 1.0)
        assert lines
        for (path, line), share in lines.items():
            assert path.endswith(".f90")
            assert 0 < share <= 1

    def test_dominant_sequence_length(self, instances):
        stacks = fold_callstacks(instances)
        assert len(stacks.dominant_sequence(25)) == 25

    def test_common_prefix_is_main(self, instances):
        stacks = fold_callstacks(instances)
        prefix = stacks.common_prefix(0.0, 1.0)
        assert prefix
        assert prefix[0][0] == "main"

    def test_bad_window(self, instances):
        stacks = fold_callstacks(instances)
        with pytest.raises(FoldingError):
            stacks.routine_shares(0.5, 0.4)


class TestReconstruction:
    def test_denormalization(self, folded_ins):
        from repro.fitting.pwlr import fit_pwlr

        model = fit_pwlr(folded_ins.x, folded_ins.y)
        recon = Reconstruction.from_folded(folded_ins, model)
        assert recon.mean_rate == pytest.approx(
            folded_ins.mean_total / folded_ins.mean_duration
        )
        times, rates = recon.profile(64)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(folded_ins.mean_duration)
        assert np.all(rates >= 0)

    def test_segment_rates_cover_duration(self, folded_ins):
        from repro.fitting.pwlr import fit_pwlr

        model = fit_pwlr(folded_ins.x, folded_ins.y)
        recon = Reconstruction.from_folded(folded_ins, model)
        segments = recon.segment_rates()
        assert segments[0][0] == 0.0
        assert segments[-1][1] == pytest.approx(folded_ins.mean_duration)

    def test_events_at_endpoints(self, folded_ins):
        from repro.fitting.pwlr import fit_pwlr

        model = fit_pwlr(folded_ins.x, folded_ins.y)
        recon = Reconstruction.from_folded(folded_ins, model)
        assert recon.events_at(1.0) == pytest.approx(folded_ins.mean_total, rel=0.02)
