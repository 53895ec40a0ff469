"""Tests for repro.clustering — features, DBSCAN, refinement, quality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.bursts import extract_bursts
from repro.clustering.dbscan import DBSCAN, NOISE, estimate_eps
from repro.clustering.features import build_features
from repro.clustering.quality import score_against_truth, silhouette, truth_labels_for
from repro.clustering.refinement import refine_clusters
from repro.errors import ClusteringError


def blobs(rng, centers, n_per, spread=0.05):
    """Well-separated Gaussian blobs."""
    points = []
    for center in centers:
        points.append(rng.normal(center, spread, size=(n_per, len(center))))
    return np.vstack(points)


class TestDBSCAN:
    def test_recovers_blobs(self):
        rng = np.random.default_rng(0)
        points = blobs(rng, [(0, 0), (5, 5), (10, 0)], 100)
        result = DBSCAN(eps=0.5, min_pts=5).fit(points)
        assert result.n_clusters == 3
        assert result.noise_fraction == 0.0
        # each blob is one label
        for start in range(0, 300, 100):
            assert len(set(result.labels[start : start + 100])) == 1

    def test_isolated_points_are_noise(self):
        rng = np.random.default_rng(1)
        points = np.vstack([blobs(rng, [(0, 0)], 50), [[100.0, 100.0]]])
        result = DBSCAN(eps=0.5, min_pts=5).fit(points)
        assert result.labels[-1] == NOISE

    def test_labels_renumbered_by_size(self):
        rng = np.random.default_rng(2)
        points = blobs(rng, [(0, 0), (10, 10)], 50)
        points = np.vstack([points, blobs(rng, [(20, 20)], 150)])
        result = DBSCAN(eps=0.5, min_pts=5).fit(points)
        # largest cluster (150 points) gets id 0
        assert np.sum(result.labels == 0) == 150

    def test_members_and_sizes(self):
        rng = np.random.default_rng(3)
        points = blobs(rng, [(0, 0), (5, 5)], 40)
        result = DBSCAN(eps=0.5, min_pts=5).fit(points)
        assert sorted(result.sizes()) == [40, 40]
        assert result.members(0).size == 40
        with pytest.raises(ClusteringError):
            result.members(5)

    def test_block_size_invariance(self):
        rng = np.random.default_rng(4)
        points = blobs(rng, [(0, 0), (4, 4)], 60)
        a = DBSCAN(eps=0.4, min_pts=5, block=7).fit(points)
        b = DBSCAN(eps=0.4, min_pts=5, block=512).fit(points)
        assert np.array_equal(a.labels, b.labels)

    def test_parameter_validation(self):
        with pytest.raises(ClusteringError):
            DBSCAN(eps=0.0)
        with pytest.raises(ClusteringError):
            DBSCAN(eps=1.0, min_pts=0)

    def test_empty_input(self):
        with pytest.raises(ClusteringError):
            DBSCAN(eps=1.0).fit(np.empty((0, 2)))

    def test_all_noise_when_sparse(self):
        points = np.arange(20, dtype=float).reshape(-1, 1) * 100
        result = DBSCAN(eps=1.0, min_pts=3).fit(points)
        assert result.n_clusters == 0
        assert result.noise_fraction == 1.0


class TestEstimateEps:
    def test_within_cluster_scale(self):
        rng = np.random.default_rng(5)
        points = blobs(rng, [(0, 0), (10, 10)], 200, spread=0.1)
        eps = estimate_eps(points, k=5)
        # large enough to join blob members, far below blob separation
        assert 0.05 < eps < 5.0
        result = DBSCAN(eps=eps, min_pts=5).fit(points)
        assert result.n_clusters == 2

    def test_too_few_points(self):
        with pytest.raises(ClusteringError):
            estimate_eps(np.zeros((1, 2)))

    def test_duplicates_degenerate(self):
        points = np.zeros((50, 2))
        eps = estimate_eps(points)
        assert eps > 0

    def test_duplicate_sites_hit_degenerate_floor(self):
        # Exact duplicates have k-dist 0, so the estimate must reach the
        # documented degenerate floor -- not a ~1e-7 artifact of
        # catastrophic cancellation in the norms-identity expansion
        # (||a||^2 + ||b||^2 - 2 a.b on identical O(1) points).  At that
        # floor DBSCAN must still group the duplicates.
        rng = np.random.default_rng(2)
        sites = rng.normal(size=(5, 3)) * 3.0
        points = np.repeat(sites, 12, axis=0)
        eps = estimate_eps(points, k=4)
        assert eps == 1e-9
        result = DBSCAN(eps=eps, min_pts=4, index="blocked").fit(points)
        assert result.n_clusters == 5
        assert result.noise_fraction == 0.0


class TestGridIndex:
    """The grid spatial index must be invisible: byte-identical labels."""

    def _assert_identical(self, points, eps, min_pts=5):
        grid = DBSCAN(eps=eps, min_pts=min_pts, index="grid").fit(points)
        blocked = DBSCAN(eps=eps, min_pts=min_pts, index="blocked").fit(points)
        assert grid.labels.tobytes() == blocked.labels.tobytes()
        return grid

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_points_identical_labels(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(260, 600))
        d = int(rng.integers(1, 5))
        points = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
        eps = float(rng.uniform(0.05, 2.0))
        self._assert_identical(points, eps, min_pts=int(rng.integers(2, 10)))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_duplicate_heavy_identical_labels(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(12, 3))
        points = base[rng.integers(0, 12, size=400)]
        points += rng.normal(scale=1e-9, size=points.shape)
        self._assert_identical(points, eps=0.5)

    def test_single_cluster_identical_labels(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(500, 2)) * 0.05
        result = self._assert_identical(points, eps=0.5)
        assert result.n_clusters == 1

    def test_mixed_clusters_and_noise_identical(self):
        rng = np.random.default_rng(12)
        points = np.vstack(
            [blobs(rng, [(0, 0), (6, 6), (12, 0)], 150), rng.uniform(-5, 20, (40, 2))]
        )
        self._assert_identical(points, eps=0.4)

    def test_auto_selects_blocked_below_threshold(self):
        rng = np.random.default_rng(13)
        points = rng.normal(size=(100, 2))
        clusterer = DBSCAN(eps=0.5, min_pts=5)
        clusterer.fit(points)
        assert clusterer._last_index_used == "blocked"

    def test_auto_selects_grid_at_scale(self):
        # spread-out geometry: many occupied cells, so auto picks the grid
        rng = np.random.default_rng(14)
        points = rng.uniform(0, 10, size=(800, 2))
        clusterer = DBSCAN(eps=0.4, min_pts=5)
        clusterer.fit(points)
        assert clusterer._last_index_used == "grid"

    def test_high_dim_falls_back_to_blocked(self):
        rng = np.random.default_rng(15)
        points = rng.normal(size=(400, 9))
        clusterer = DBSCAN(eps=1.0, min_pts=5)
        clusterer.fit(points)
        assert clusterer._last_index_used == "blocked"

    def test_invalid_index_rejected(self):
        with pytest.raises(ClusteringError):
            DBSCAN(eps=1.0, index="kdtree")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_grid_table_edge_geometries_identical(self, seed):
        from repro.clustering.dbscan import _grid_table
        from repro.verify.corpus import grid_table_clouds

        sparse, negative, six = grid_table_clouds(seed)
        n = len(sparse.points)
        assert _grid_table(sparse.points, sparse.eps).n_cells > n // 4
        assert np.all(negative.points < 0.0)
        assert six.points.shape[1] == 6
        for case in (sparse, negative, six):
            self._assert_identical(case.points, case.eps, case.min_pts)

    def test_grid_table_candidates_are_the_neighbor_cells(self):
        from repro.clustering.dbscan import _grid_table

        rng = np.random.default_rng(16)
        points = rng.uniform(-3.0, 3.0, size=(300, 3))
        cell = 0.7
        table = _grid_table(points, cell)
        coords = np.floor((points - points.min(axis=0)) / cell).astype(int)
        for c in range(table.n_cells):
            members = table.members(c)
            assert np.all(np.diff(members) > 0)
            home = coords[members[0]]
            assert np.all(coords[members] == home)
            near = np.flatnonzero(np.all(np.abs(coords - home) <= 1, axis=1))
            assert table.candidates(c).tolist() == near.tolist()

    def test_stride_overflow_falls_back_to_blocked(self):
        from repro.clustering.dbscan import _grid_table
        from repro.verify.corpus import stride_overflow_cloud

        case = stride_overflow_cloud(0)
        assert _grid_table(case.points, case.eps) is None
        auto = DBSCAN(eps=case.eps, min_pts=case.min_pts)
        labels = auto.fit(case.points).labels
        assert auto._last_index_used == "blocked"
        blocked = DBSCAN(eps=case.eps, min_pts=case.min_pts, index="blocked")
        assert labels.tobytes() == blocked.fit(case.points).labels.tobytes()
        with pytest.raises(ClusteringError, match="cannot be gridded"):
            DBSCAN(eps=case.eps, min_pts=case.min_pts, index="grid").fit(case.points)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_estimate_eps_grid_matches_exact(self, seed):
        rng = np.random.default_rng(seed)
        # >= 2048 points engages the pilot-sample grid path
        points = rng.normal(size=(2200, 3)) * rng.uniform(0.5, 5.0)
        eps_grid = estimate_eps(points, k=8)
        # reference: the exact blocked k-dist scan with the same formula
        from repro.clustering.dbscan import _kdist_rows

        norms = np.einsum("ij,ij->i", points, points)
        kdist = _kdist_rows(points, norms, 8, np.arange(len(points), dtype=np.intp))
        eps_exact = float(np.quantile(kdist, 0.95)) * 3.0
        # the grid path is mathematically exact; differently-shaped BLAS
        # matmuls may still differ in the last ulp
        assert eps_grid == pytest.approx(eps_exact, rel=1e-9)


class TestRefinement:
    def test_multi_density_split(self):
        rng = np.random.default_rng(6)
        tight = blobs(rng, [(0, 0), (1.2, 1.2)], 80, spread=0.05)
        loose = blobs(rng, [(10, 10)], 80, spread=0.4)
        points = np.vstack([tight, loose])
        result = refine_clusters(points, min_pts=5)
        # the two tight blobs must not be merged; the loose one must survive
        assert result.n_clusters >= 3
        labels_tight_a = set(result.labels[:80]) - {NOISE}
        labels_tight_b = set(result.labels[80:160]) - {NOISE}
        assert labels_tight_a and labels_tight_b
        assert labels_tight_a.isdisjoint(labels_tight_b)

    def test_ladder_validation(self):
        points = np.random.default_rng(0).normal(size=(50, 2))
        with pytest.raises(ClusteringError):
            refine_clusters(points, eps_ladder=[0.1, 0.5])  # must decrease
        with pytest.raises(ClusteringError):
            refine_clusters(points, eps_ladder=[-1.0])

    def test_homogeneous_cluster_not_split(self):
        rng = np.random.default_rng(7)
        points = blobs(rng, [(0, 0)], 150, spread=0.1)
        result = refine_clusters(points, min_pts=5, spread_threshold=0.5)
        assert result.n_clusters == 1


class TestQuality:
    def test_truth_labels(self, multiphase_artifacts):
        bursts = multiphase_artifacts.result.bursts
        labels = truth_labels_for(bursts, multiphase_artifacts.timeline)
        assert len(labels) == len(bursts)
        assert set(labels) == {"multiphase"}

    def test_perfect_clustering_scores(self, cgpop_artifacts):
        art = cgpop_artifacts
        quality = score_against_truth(
            art.result.bursts, art.result.clustering.labels, art.timeline
        )
        assert quality.purity == pytest.approx(1.0)
        assert quality.coverage > 0.9
        assert quality.n_true_kernels == 2
        assert quality.recovered

    def test_label_length_mismatch(self, multiphase_artifacts):
        with pytest.raises(ClusteringError):
            score_against_truth(
                multiphase_artifacts.result.bursts,
                np.zeros(3, dtype=int),
                multiphase_artifacts.timeline,
            )

    def test_silhouette_separated_blobs(self):
        rng = np.random.default_rng(8)
        points = blobs(rng, [(0, 0), (10, 10)], 100)
        labels = np.repeat([0, 1], 100)
        assert silhouette(points, labels) > 0.9

    def test_silhouette_single_cluster_zero(self):
        points = np.random.default_rng(0).normal(size=(50, 2))
        assert silhouette(points, np.zeros(50, dtype=int)) == 0.0

    def test_silhouette_subsampling(self):
        rng = np.random.default_rng(9)
        points = blobs(rng, [(0, 0), (10, 10)], 3000)
        labels = np.repeat([0, 1], 3000)
        assert silhouette(points, labels, max_points=500) > 0.9


class TestFeatures:
    def test_feature_names(self, multiphase_artifacts):
        fm = build_features(multiphase_artifacts.result.bursts)
        assert fm.feature_names[0] == "log10_duration"
        assert all(name.endswith("_per_ins") for name in fm.feature_names[1:])

    def test_finite_and_shaped(self, multiphase_artifacts):
        fm = build_features(multiphase_artifacts.result.bursts)
        assert fm.n_points == len(multiphase_artifacts.result.bursts)
        assert np.all(np.isfinite(fm.values))

    def test_missing_instructions_rejected(self, multiphase_trace):
        bursts = extract_bursts(multiphase_trace)
        for burst in bursts:
            burst.start_counters = {
                k: v for k, v in burst.start_counters.items() if k != "PAPI_TOT_INS"
            }
            burst.end_counters = {
                k: v for k, v in burst.end_counters.items() if k != "PAPI_TOT_INS"
            }
        with pytest.raises(ClusteringError, match="PAPI_TOT_INS"):
            build_features(bursts)

    def test_no_duration_feature(self, multiphase_artifacts):
        fm = build_features(
            multiphase_artifacts.result.bursts, include_duration=False
        )
        assert "log10_duration" not in fm.feature_names

    def test_scale_floors_tame_noise(self, multiphase_artifacts):
        # single-kernel app: all bursts equivalent; after floored scaling
        # the point cloud must stay compact (max pairwise spread small)
        fm = build_features(multiphase_artifacts.result.bursts)
        spread = fm.values.max(axis=0) - fm.values.min(axis=0)
        assert np.all(spread < 4.0)
