"""Online cluster model: frozen-scaler assignment + bounded re-clustering.

The batch pipeline clusters all bursts at once (features → DBSCAN).  The
stream cannot, so it splits the problem in two:

* **Fit** (:meth:`OnlineClusterModel.fit`) — run the batch feature
  construction and clustering
  (:func:`~repro.analysis.pipeline.cluster_features`, including its
  pairwise-quantile eps fallback) over a bounded set of bursts, then
  *freeze* the feature scaling (means/scales) and summarize each
  cluster by its centroid.
* **Assign** (:meth:`OnlineClusterModel.assign`) — project each new
  burst through the frozen scaling and attach it to the nearest centroid
  within ``assign_factor * eps``, or declare it noise.  O(k·d) per
  burst, no global re-clustering.

Drift is detected from the assignment stream itself: a sliding window of
recent assignments whose noise fraction exceeds a threshold trips a
model refresh, which re-fits over the bounded reservoir contents
(:class:`ClusterReservoir`) — so a refresh costs O(reservoir), never
O(trace).

Everything is deterministic and serializable for checkpoint/resume.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.pipeline import AnalyzerConfig, cluster_features
from repro.clustering.bursts import BurstSet, ComputationBurst

# Not called here; e2ebench/spans.py resolves this name on this module.
from repro.clustering.dbscan import estimate_eps  # noqa: F401
from repro.clustering.features import build_features, raw_features
from repro.errors import ClusteringError, StreamError
from repro.resilience.diagnostics import Diagnostics, Severity

__all__ = ["ClusterReservoir", "OnlineClusterModel", "DriftWindow"]

#: DBSCAN's noise label, re-exported for readability.
NOISE = -1


class ClusterReservoir:
    """Bounded uniform sample of one cluster's bursts (Algorithm R).

    Holds at most ``capacity`` bursts; each of the ``n_seen`` bursts ever
    offered has equal probability of being retained.  Bursts carrying
    more than ``max_samples_per_burst`` attached samples are thinned by a
    deterministic stride subsample (first and last kept) on the way in,
    so the documented memory ceiling holds sample-wise too.

    The RNG is owned by the engine and passed per call so one seeded
    sequence drives every reservoir deterministically.
    """

    def __init__(self, capacity: int, max_samples_per_burst: int = 0) -> None:
        if capacity < 1:
            raise StreamError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.max_samples_per_burst = max_samples_per_burst
        self.items: List[ComputationBurst] = []
        self.n_seen = 0

    def add(self, burst: ComputationBurst, rng: np.random.Generator) -> None:
        """Offer one burst; retained with probability capacity/n_seen."""
        burst = self._thin(burst)
        self.n_seen += 1
        if len(self.items) < self.capacity:
            self.items.append(burst)
            return
        j = int(rng.integers(0, self.n_seen))
        if j < self.capacity:
            self.items[j] = burst

    def _thin(self, burst: ComputationBurst) -> ComputationBurst:
        cap = self.max_samples_per_burst
        if cap <= 0 or len(burst.samples) <= cap:
            return burst
        n = len(burst.samples)
        idx = np.unique(np.linspace(0, n - 1, cap).round().astype(int))
        thinned = ComputationBurst(
            rank=burst.rank,
            index=burst.index,
            t_start=burst.t_start,
            t_end=burst.t_end,
            start_counters=dict(burst.start_counters),
            end_counters=dict(burst.end_counters),
        )
        thinned.samples = [burst.samples[i] for i in idx]
        return thinned

    @property
    def n_retained(self) -> int:
        """Bursts currently held (<= capacity)."""
        return len(self.items)


class DriftWindow:
    """Sliding window of assignment outcomes tripping model refreshes."""

    def __init__(self, size: int, noise_threshold: float) -> None:
        if size < 4:
            raise StreamError(f"drift window must be >= 4, got {size}")
        if not 0.0 < noise_threshold <= 1.0:
            raise StreamError(
                f"drift noise threshold must be in (0, 1], got {noise_threshold}"
            )
        self.size = size
        self.noise_threshold = noise_threshold
        self.outcomes: Deque[bool] = deque(maxlen=size)  # True = noise

    def push(self, is_noise: bool) -> bool:
        """Record one assignment; True when the window trips."""
        self.outcomes.append(is_noise)
        if len(self.outcomes) < self.size:
            return False
        return (sum(self.outcomes) / len(self.outcomes)) > self.noise_threshold

    def reset(self) -> None:
        """Clear the window (after a refresh, successful or not)."""
        self.outcomes.clear()

    @property
    def noise_fraction(self) -> float:
        """Current fraction of noise outcomes in the window."""
        if not self.outcomes:
            return 0.0
        return sum(self.outcomes) / len(self.outcomes)


class OnlineClusterModel:
    """Frozen feature scaling + cluster centroids for online assignment."""

    def __init__(
        self,
        feature_names: List[str],
        means: np.ndarray,
        scales: np.ndarray,
        centroids: np.ndarray,
        eps: float,
        min_pts: int,
        assign_factor: float,
    ) -> None:
        self.feature_names = list(feature_names)
        self.means = np.asarray(means, dtype=float)
        self.scales = np.asarray(scales, dtype=float)
        self.centroids = np.asarray(centroids, dtype=float)
        self.eps = float(eps)
        self.min_pts = int(min_pts)
        self.assign_factor = float(assign_factor)
        self.n_fitted = 0  # bursts the fit saw (diagnostics)
        self.used_fallback_eps = False

    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        bursts: List[ComputationBurst],
        config: AnalyzerConfig,
        assign_factor: float,
    ) -> Tuple[Optional["OnlineClusterModel"], Optional[np.ndarray]]:
        """Fit features + the batch clustering over ``bursts``; summarize
        as centroids.

        Clustering goes through
        :func:`~repro.analysis.pipeline.cluster_features` under the
        analyzer ``config``, fallbacks included.  Returns ``(model,
        labels)`` — labels align with ``bursts`` so the caller can seed
        reservoirs from the fit itself — or ``(None, None)`` when the
        bursts cannot support a model yet (too few, no pivot counter,
        zero clusters): the stream keeps warming up.
        """
        min_pts = config.min_pts
        if len(bursts) < max(min_pts, 2):
            return None, None
        diagnostics = Diagnostics()
        try:
            features = build_features(BurstSet(list(bursts)))
            result = cluster_features(features.values, config, diagnostics)
        except ClusteringError:
            return None, None
        if result.n_clusters == 0:
            return None, None
        centroids = np.stack(
            [
                features.values[result.labels == cid].mean(axis=0)
                for cid in range(result.n_clusters)
            ]
        )
        model = cls(
            feature_names=features.feature_names,
            means=features.means,
            scales=features.stds,  # build_features stores floored scales here
            centroids=centroids,
            eps=result.eps,
            min_pts=min_pts,
            assign_factor=assign_factor,
        )
        model.n_fitted = len(bursts)
        model.used_fallback_eps = bool(diagnostics.by_severity(Severity.DEGRADED))
        return model, result.labels

    # ------------------------------------------------------------------
    @property
    def n_clusters(self) -> int:
        """Number of centroids."""
        return int(self.centroids.shape[0])

    def transform(self, burst: ComputationBurst) -> Optional[np.ndarray]:
        """Project one burst through the frozen scaling, or None when the
        burst cannot produce a complete finite feature vector.

        The raw columns come from
        :func:`~repro.clustering.features.raw_features`, so a burst of the
        fitted set projects to exactly its row of the batch features.
        """
        instructions = burst.delta_or_nan("PAPI_TOT_INS")
        if not (math.isfinite(instructions) and instructions > 0):
            return None
        raw = raw_features(BurstSet([burst]), self.feature_names)[0]
        if not np.all(np.isfinite(raw)):
            return None
        return (raw - self.means) / self.scales

    def assign(self, burst: ComputationBurst) -> int:
        """Cluster id of the nearest centroid within the assignment
        radius, or :data:`NOISE`."""
        vector = self.transform(burst)
        if vector is None:
            return NOISE
        distances = np.linalg.norm(self.centroids - vector, axis=1)
        best = int(np.argmin(distances))
        if distances[best] <= self.assign_factor * self.eps:
            return best
        return NOISE

    # ------------------------------------------------------------------
    def state_to_dict(self) -> Dict[str, object]:
        """Serializable snapshot of the model."""
        return {
            "feature_names": list(self.feature_names),
            "means": self.means.tolist(),
            "scales": self.scales.tolist(),
            "centroids": self.centroids.tolist(),
            "eps": self.eps,
            "min_pts": self.min_pts,
            "assign_factor": self.assign_factor,
            "n_fitted": self.n_fitted,
            "used_fallback_eps": self.used_fallback_eps,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "OnlineClusterModel":
        """Rebuild a model from :meth:`state_to_dict` output."""
        model = cls(
            feature_names=list(state["feature_names"]),  # type: ignore[arg-type]
            means=np.asarray(state["means"], dtype=float),
            scales=np.asarray(state["scales"], dtype=float),
            centroids=np.asarray(state["centroids"], dtype=float),
            eps=float(state["eps"]),
            min_pts=int(state["min_pts"]),
            assign_factor=float(state["assign_factor"]),
        )
        model.n_fitted = int(state["n_fitted"])
        model.used_fallback_eps = bool(state["used_fallback_eps"])
        return model
