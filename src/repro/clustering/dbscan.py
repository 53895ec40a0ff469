"""From-scratch DBSCAN (Ester et al., 1996).

Density-based clustering is the published choice for burst structure
detection because cluster counts are unknown and noise bursts (startup,
outlier iterations) must be rejectable.  Neighborhood queries have two
interchangeable backends:

* **grid** — a uniform spatial index with cell size ``eps``: each point's
  neighbors can only live in the 3^d cells around its own, so the
  per-point work is proportional to local density instead of n.  This is
  the fast path for the low-dimensional feature geometries the pipeline
  produces (a handful of standardized columns).
* **blocked** — the dense row-block distance matrix: O(n^2) work but
  O(block * n) memory.  It remains the fallback for high-dimensional or
  grid-degenerate geometries (eps so large that every point lands in a
  few cells), where the index cannot prune anything.

Both backends return identical neighbor sets (indices in ascending
order), so the produced labels are byte-identical — property-tested in
``tests/test_clustering_algorithms.py``.  ``index="auto"`` (the default)
picks per call; ``"grid"``/``"blocked"`` force a backend.

Labels follow the scikit-learn convention: cluster ids 0..k-1, noise -1.
Cluster ids are renumbered by decreasing cluster size so id 0 is always
the dominant structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ClusteringError
from repro.observability.context import counter as _metric_counter
from repro.observability.context import gauge as _metric_gauge
from repro.observability.context import span as _span

__all__ = ["DBSCAN", "DBSCANResult", "estimate_eps", "estimate_eps_quantile"]

NOISE = -1
_UNVISITED = -2

#: Above this dimensionality the 3^d neighbor-cell sweep stops paying for
#: itself (the pipeline's feature matrices have <= 5-6 columns).
_GRID_MAX_DIMS = 6
#: Below this point count the blocked matrix is a single cheap matmul.
_GRID_MIN_POINTS = 256
#: Fewer occupied cells than this means eps is so large relative to the
#: data extent that the index cannot prune — use the matrix path.
_GRID_MIN_CELLS = 8
#: Cell coordinates beyond this magnitude risk int64/float trouble.
_GRID_MAX_COORD = 1e15


#: Linear cell ids must stay below this (int64 arithmetic).
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class _GridTable:
    """A uniform grid over a point set, as arrays.

    Each point's cell has a linear id: its integer cell coordinates,
    shifted to start at 1, times row-major strides.  One empty cell of
    padding on each side keeps every neighbor of an occupied cell inside
    the box, so adding a linear offset never wraps onto another cell.
    The occupied cells are a sorted id array with their members in CSR
    form: ``order`` lists point indices grouped by cell (ascending within
    a cell), and cell ``c`` owns ``order[starts[c] : starts[c] +
    counts[c]]``.  ``offsets`` holds the sorted linear ids of the 3^d
    neighbor steps.
    """

    cells: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    order: np.ndarray
    offsets: np.ndarray

    @property
    def n_cells(self) -> int:
        """Number of occupied cells."""
        return int(self.cells.size)

    def members(self, c: int) -> np.ndarray:
        """Point indices in occupied cell ``c``, ascending."""
        start = self.starts[c]
        return self.order[start : start + self.counts[c]]

    def candidates(self, c: int) -> np.ndarray:
        """All point indices in the 3^d cells around cell ``c``, ascending."""
        probe = self.cells[c] + self.offsets
        pos = np.searchsorted(self.cells, probe)
        pos[pos == self.cells.size] = 0
        hit = pos[self.cells[pos] == probe]
        counts = self.counts[hit]
        # CSR gather: the run of ``order`` positions of every hit cell.
        ends = np.cumsum(counts)
        gather = np.repeat(self.starts[hit] - ends + counts, counts)
        gather += np.arange(gather.size)
        cand = self.order[gather]
        cand.sort()
        return cand


def _grid_table(points: np.ndarray, cell: float) -> Optional[_GridTable]:
    """Index ``points`` in a uniform grid of size ``cell``.

    Returns ``None`` when the geometry cannot be gridded safely: cell
    coordinates would overflow, or the linear ids would not fit int64.
    """
    n, d = points.shape
    mins = points.min(axis=0)
    span = points.max(axis=0) - mins
    if not np.all(np.isfinite(span)) or np.any(span / cell > _GRID_MAX_COORD):
        return None
    coords = np.floor((points - mins) / cell).astype(np.int64)
    strides = []
    size = 1
    for extent in reversed((coords.max(axis=0) + 3).tolist()):
        strides.append(size)
        size *= extent
    if size > _INT64_MAX:
        return None
    stride = np.array(strides[::-1], dtype=np.int64)
    linear = (coords + 1) @ stride
    order = np.argsort(linear, kind="stable")
    ordered = linear[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, n])
    steps = np.indices((3,) * d).reshape(d, -1).T - 1
    return _GridTable(
        cells=ordered[starts],
        starts=starts,
        counts=counts,
        order=order,
        offsets=np.sort(steps @ stride),
    )


@dataclass
class DBSCANResult:
    """Clustering outcome: labels plus derived views."""

    labels: np.ndarray
    eps: float
    min_pts: int

    @property
    def n_clusters(self) -> int:
        """Number of clusters found (noise excluded)."""
        return int(self.labels.max()) + 1 if np.any(self.labels >= 0) else 0

    @property
    def noise_fraction(self) -> float:
        """Fraction of points labeled noise."""
        return float(np.mean(self.labels == NOISE))

    def members(self, cluster_id: int) -> np.ndarray:
        """Indices of the points in ``cluster_id``."""
        if cluster_id < 0 or cluster_id >= self.n_clusters:
            raise ClusteringError(
                f"cluster id {cluster_id} out of range [0, {self.n_clusters})"
            )
        return np.flatnonzero(self.labels == cluster_id)

    def sizes(self) -> List[int]:
        """Cluster sizes, index-aligned with cluster ids."""
        return [int(np.sum(self.labels == c)) for c in range(self.n_clusters)]


class DBSCAN:
    """Density-based clustering with Euclidean metric.

    ``index`` selects the neighborhood backend: ``"auto"`` (default) uses
    the uniform-grid spatial index when the geometry allows and falls back
    to the blocked distance matrix otherwise; ``"grid"``/``"blocked"``
    force a backend (the property tests and the TAB-7 bench use this to
    compare the two).
    """

    INDEXES = ("auto", "grid", "blocked")

    def __init__(
        self, eps: float, min_pts: int = 8, block: int = 512, index: str = "auto"
    ) -> None:
        if eps <= 0:
            raise ClusteringError(f"eps must be positive, got {eps}")
        if min_pts < 1:
            raise ClusteringError(f"min_pts must be >= 1, got {min_pts}")
        if block < 1:
            raise ClusteringError(f"block must be >= 1, got {block}")
        if index not in self.INDEXES:
            raise ClusteringError(
                f"index must be one of {self.INDEXES}, got {index!r}"
            )
        self.eps = float(eps)
        self.min_pts = int(min_pts)
        self.block = int(block)
        self.index = index
        #: Backend the last fit actually used ("grid"/"blocked") — the
        #: auto selection can still fall back on degenerate geometries.
        self._last_index_used: Optional[str] = None

    # ------------------------------------------------------------------
    # neighborhood backends
    # ------------------------------------------------------------------
    def _select_index(self, points: np.ndarray) -> str:
        """Resolve ``"auto"`` to a concrete backend for this geometry."""
        if self.index != "auto":
            return self.index
        n, d = points.shape
        if d > _GRID_MAX_DIMS or n < _GRID_MIN_POINTS:
            return "blocked"
        return "grid"

    def _neighborhoods(self, points: np.ndarray) -> List[np.ndarray]:
        """Indices within ``eps`` of each point (self included)."""
        if self._select_index(points) == "grid":
            grid = self._neighborhoods_grid(points, force=self.index == "grid")
            if grid is not None:
                self._last_index_used = "grid"
                return grid
            if self.index == "grid":
                raise ClusteringError(
                    "grid index forced but the geometry cannot be gridded "
                    "(cell coordinates would overflow); use index='auto' "
                    "or 'blocked'"
                )
        self._last_index_used = "blocked"
        return self._neighborhoods_blocked(points)

    def _neighborhoods_blocked(self, points: np.ndarray) -> List[np.ndarray]:
        """O(n^2) row-block scan — the always-correct fallback."""
        n = points.shape[0]
        sq_eps = self.eps * self.eps
        norms = np.einsum("ij,ij->i", points, points)
        neighborhoods: List[np.ndarray] = []
        for start in range(0, n, self.block):
            stop = min(start + self.block, n)
            chunk = points[start:stop]
            # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b
            d2 = norms[start:stop, None] + norms[None, :] - 2.0 * chunk @ points.T
            _snap_identity_noise(d2, norms[start:stop], norms)
            within = d2 <= sq_eps
            for row in range(stop - start):
                neighborhoods.append(np.flatnonzero(within[row]))
        return neighborhoods

    def _neighborhoods_grid(
        self, points: np.ndarray, force: bool = False
    ) -> Optional[List[np.ndarray]]:
        """Uniform-grid neighborhood queries (cell size = eps).

        Every eps-ball around a point in cell c is contained in the 3^d
        cells around c, so only those candidates are examined.  Distances
        use the same norms identity as the blocked path so both backends
        agree on membership.  Returns ``None`` when the grid degenerates:
        always on coordinate overflow, and — unless ``force`` — when too
        few cells are occupied for the index to prune anything (the grid
        would still be correct there, just not faster).
        """
        n = points.shape[0]
        table = _grid_table(points, self.eps)
        if table is None:
            return None
        if table.n_cells < _GRID_MIN_CELLS and not force:
            return None
        sq_eps = self.eps * self.eps
        norms = np.einsum("ij,ij->i", points, points)
        neighborhoods: List[Optional[np.ndarray]] = [None] * n
        for c in range(table.n_cells):
            idx = table.members(c)
            cand = table.candidates(c)
            cand_points = points[cand]
            cand_norms = norms[cand]
            for start in range(0, idx.size, self.block):
                rows = idx[start : start + self.block]
                d2 = (
                    norms[rows, None]
                    + cand_norms[None, :]
                    - 2.0 * points[rows] @ cand_points.T
                )
                _snap_identity_noise(d2, norms[rows], cand_norms)
                within = d2 <= sq_eps
                # Row-major nonzero keeps each row's hits ascending.
                hits = cand[np.nonzero(within)[1]]
                bounds = np.cumsum(within.sum(axis=1)).tolist()
                lo = 0
                for row, hi in zip(rows.tolist(), bounds):
                    neighborhoods[row] = hits[lo:hi]
                    lo = hi
        return neighborhoods  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def fit(self, points: np.ndarray) -> DBSCANResult:
        """Cluster ``points`` (n x d) and return labels."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ClusteringError(
                f"points must be a non-empty 2-D array, got shape {points.shape}"
            )
        with _span(
            "dbscan", n_points=points.shape[0], eps=round(self.eps, 6)
        ) as rec:
            result = self._fit_impl(points)
            if rec is not None and self._last_index_used is not None:
                rec.attrs["index"] = self._last_index_used
        _metric_counter("clustering.clusters_found").inc(result.n_clusters)
        _metric_counter("clustering.noise_points").inc(
            int(np.sum(result.labels == NOISE))
        )
        return result

    def _fit_impl(self, points: np.ndarray) -> DBSCANResult:
        n = points.shape[0]
        neighborhoods = self._neighborhoods(points)
        core = np.array([len(nb) >= self.min_pts for nb in neighborhoods])

        labels = np.full(n, _UNVISITED, dtype=int)
        cluster_id = 0
        for seed in range(n):
            if labels[seed] != _UNVISITED or not core[seed]:
                continue
            # Expand a new cluster from this core point (depth-first —
            # the frontier is a stack).  Noise labels cannot appear here:
            # they are only assigned after all expansions finish.  The
            # per-neighborhood work is vectorized: claiming all unvisited
            # neighbors at once and pushing the core ones in index order
            # visits exactly the same points as a scalar loop would.
            labels[seed] = cluster_id
            frontier = [seed]
            while frontier:
                point = frontier.pop()
                nbs = neighborhoods[point]
                unvisited = nbs[labels[nbs] == _UNVISITED]
                if unvisited.size:
                    labels[unvisited] = cluster_id
                    frontier.extend(unvisited[core[unvisited]].tolist())
            cluster_id += 1
        labels[labels == _UNVISITED] = NOISE

        labels = _renumber_by_size(labels)
        return DBSCANResult(labels=labels, eps=self.eps, min_pts=self.min_pts)


def _renumber_by_size(labels: np.ndarray) -> np.ndarray:
    """Renumber cluster ids by decreasing size (noise untouched)."""
    ids = [c for c in np.unique(labels) if c != NOISE]
    ids.sort(key=lambda c: -int(np.sum(labels == c)))
    mapping = {old: new for new, old in enumerate(ids)}
    out = labels.copy()
    for old, new in mapping.items():
        out[labels == old] = new
    return out


def estimate_eps(
    points: np.ndarray, k: int = 8, quantile: float = 0.95, margin: float = 3.0
) -> float:
    """Heuristic eps: a high quantile of k-th nearest-neighbor distances.

    The classic k-dist elbow heuristic, automated: points inside genuine
    clusters have small k-dist, so a high quantile times a safety
    ``margin`` lands just above the within-cluster density while staying
    far below typical between-cluster separation (which is O(1) after
    feature standardization).  Used by the pipeline when the caller does
    not supply eps.

    At scale the k-dist computation uses the same uniform-grid index as
    :class:`DBSCAN`: a pilot sample fixes a cell size that upper-bounds
    typical k-dists, each point's k-dist is computed from its 3^d
    neighbor cells, and any point whose grid answer is not provably exact
    (k-dist beyond the guaranteed coverage radius) is recomputed against
    the full point set.  High-dimensional or degenerate geometries fall
    back to the blocked O(n^2) scan.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n < 2:
        raise ClusteringError(f"need >= 2 points to estimate eps, got {n}")
    if margin <= 0:
        raise ClusteringError(f"margin must be positive, got {margin}")
    with _span("estimate_eps", n_points=n, k=min(k, n - 1)):
        eps = _estimate_eps_impl(points, n, k, quantile, margin)
    _metric_gauge("clustering.estimated_eps").set(eps)
    return eps


#: Error-bound scale for the norms-identity distance expansion: the
#: computed ``||a||^2 + ||b||^2 - 2 a.b`` differs from the true squared
#: distance by at most a few ulps of the largest intermediate, i.e.
#: O(eps_mach * (||a||^2 + ||b||^2)).  16 covers the accumulated
#: rounding of the dot product with a comfortable margin while staying
#: ~1e5 below any distance the identity can actually resolve.
_IDENTITY_NOISE = 16.0 * float(np.finfo(np.float64).eps)


def _snap_identity_noise(
    d2: np.ndarray, row_norms: np.ndarray, col_norms: np.ndarray
) -> np.ndarray:
    """Snap norms-identity squared distances below their error bound to 0.

    The identity cancels catastrophically when a ~ b: exact duplicates
    come out as ~eps_mach * ||a||^2 instead of 0, which is ~1e-7 after
    the sqrt on O(1) standardized features.  That broke the documented
    degenerate-geometry contract of :func:`estimate_eps` (duplicate-heavy
    clouds never reached the 1e-9 floor) and made the eps-ball test miss
    exact duplicates at tiny radii.  A value at or below the identity's
    own error bound is indistinguishable from a true zero, so it becomes
    exactly zero (negatives included).  Surfaced by the ``eps``
    differential suite (``repro selftest --suite eps --seed 2``).
    """
    np.clip(d2, 0.0, None, out=d2)
    d2[d2 <= _IDENTITY_NOISE * (row_norms[:, None] + col_norms[None, :])] = 0.0
    return d2


def _kdist_rows(
    points: np.ndarray, norms: np.ndarray, k: int, rows: np.ndarray
) -> np.ndarray:
    """Exact k-th NN distance of ``rows`` against the full point set."""
    out = np.empty(rows.size)
    block = 512
    for start in range(0, rows.size, block):
        sub = rows[start : start + block]
        d2 = norms[sub, None] + norms[None, :] - 2.0 * points[sub] @ points.T
        _snap_identity_noise(d2, norms[sub], norms)
        part = np.partition(d2, k, axis=1)[:, k]
        out[start : start + block] = np.sqrt(part)
    return out


def _kdist_grid(
    points: np.ndarray, norms: np.ndarray, k: int
) -> Optional[np.ndarray]:
    """Grid-accelerated k-dists, exact by construction.

    Returns ``None`` when the grid cannot help (degenerate pilot scale or
    too few occupied cells); the caller then uses the blocked scan.
    """
    n = points.shape[0]
    # Pilot: exact k-dists of a deterministic stride sample bound the
    # typical k-dist scale, which becomes the cell size.
    pilot_rows = np.unique(np.linspace(0, n - 1, 256).astype(np.intp))
    pilot = _kdist_rows(points, norms, k, pilot_rows)
    cell = float(np.quantile(pilot, 0.98)) * 1.25
    if cell <= 0 or not np.isfinite(cell):
        return None
    table = _grid_table(points, cell)
    if table is None or table.n_cells < _GRID_MIN_CELLS:
        return None
    kdist = np.full(n, -1.0)
    block = 512
    for c in range(table.n_cells):
        cand = table.candidates(c)
        if cand.size <= k:
            continue  # not enough candidates: exact fallback below
        idx = table.members(c)
        cand_points = points[cand]
        cand_norms = norms[cand]
        for start in range(0, idx.size, block):
            rows = idx[start : start + block]
            d2 = (
                norms[rows, None]
                + cand_norms[None, :]
                - 2.0 * points[rows] @ cand_points.T
            )
            _snap_identity_noise(d2, norms[rows], cand_norms)
            part = np.partition(d2, k, axis=1)[:, k]
            kd = np.sqrt(part)
            # The 3^d neighbor cells are guaranteed to contain every point
            # within distance ``cell``; a k-dist at or below that bound is
            # therefore globally exact.  Anything larger gets the exact
            # full-row treatment below.
            exact = kd <= cell
            kdist[rows[exact]] = kd[exact]
    pending = np.flatnonzero(kdist < 0)
    if pending.size:
        if pending.size > n // 4:
            return None  # grid pruned almost nothing: not worth finishing
        kdist[pending] = _kdist_rows(points, norms, k, pending)
    return kdist


def _estimate_eps_impl(
    points: np.ndarray, n: int, k: int, quantile: float, margin: float
) -> float:
    k = min(k, n - 1)
    d = points.shape[1]
    norms = np.einsum("ij,ij->i", points, points)
    kdist: Optional[np.ndarray] = None
    if n >= 2048 and d <= _GRID_MAX_DIMS:
        kdist = _kdist_grid(points, norms, k)
    if kdist is None:
        kdist = _kdist_rows(points, norms, k, np.arange(n, dtype=np.intp))
    eps = float(np.quantile(kdist, quantile)) * margin
    if eps <= 0:
        # Degenerate geometry (many duplicate points): fall back to a tiny
        # positive radius so DBSCAN still groups exact duplicates.
        eps = 1e-9
    return eps


def estimate_eps_quantile(
    points: np.ndarray,
    quantile: float = 0.05,
    margin: float = 1.5,
    max_points: int = 2048,
) -> float:
    """Fallback eps: a low quantile of the pairwise-distance distribution.

    The degraded-mode alternative when the k-dist heuristic is degenerate
    (too few points, or a geometry where every k-dist collapses to zero).
    Within-cluster pairs dominate the low tail of all pairwise distances,
    so a small quantile times a modest ``margin`` approximates the
    within-cluster scale without depending on a k-th neighbor.  Never
    raises: degenerate inputs (fewer than two points, all points
    coincident) return a small positive radius so DBSCAN can still run.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n < 2:
        return 1.0
    if not 0.0 < quantile < 1.0:
        raise ClusteringError(f"quantile must be in (0, 1), got {quantile}")
    if margin <= 0:
        raise ClusteringError(f"margin must be positive, got {margin}")
    if n > max_points:
        # Deterministic thinning keeps the quantile stable at scale.
        stride = int(np.ceil(n / max_points))
        points = points[::stride]
        n = points.shape[0]
    norms = np.einsum("ij,ij->i", points, points)
    d2 = norms[:, None] + norms[None, :] - 2.0 * points @ points.T
    _snap_identity_noise(d2, norms, norms)
    distances = np.sqrt(d2[np.triu_indices(n, k=1)])
    positive = distances[distances > 0]
    if positive.size == 0:
        return 1e-9
    return float(np.quantile(positive, quantile)) * margin
