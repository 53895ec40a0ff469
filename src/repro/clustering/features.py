"""Feature construction for burst clustering.

Follows the structure-detection papers: cluster on the burst's *behaviour*,
not its absolute position — log duration plus per-instruction event ratios
(IPC, misses per instruction), z-scored so no single feature dominates the
Euclidean metric DBSCAN uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ClusteringError
from repro.clustering.bursts import BurstSet
from repro.observability.context import span as _span

__all__ = [
    "FeatureMatrix",
    "build_features",
    "raw_features",
    "DEFAULT_FEATURE_COUNTERS",
]

#: Minimum divisor for the log10-duration feature (log10 units; ~1.4x).
DURATION_SCALE_FLOOR = 0.15

#: Minimum divisor for event-ratio features relative to their mean level.
RATIO_REL_FLOOR = 0.05

#: Absolute minimum divisor for event-ratio features (events/instruction).
RATIO_ABS_FLOOR = 0.02

#: Counters turned into per-instruction ratio features when present.
DEFAULT_FEATURE_COUNTERS: Tuple[str, ...] = (
    "PAPI_TOT_CYC",
    "PAPI_L1_DCM",
    "PAPI_L3_TCM",
    "PAPI_BR_MSP",
    "PAPI_VEC_INS",
)


@dataclass
class FeatureMatrix:
    """Standardized feature matrix plus the scaling used to build it."""

    values: np.ndarray
    feature_names: List[str]
    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ClusteringError(
                f"feature matrix must be 2-D, got shape {self.values.shape}"
            )
        if self.values.shape[1] != len(self.feature_names):
            raise ClusteringError(
                f"{self.values.shape[1]} columns vs {len(self.feature_names)} names"
            )
        if not np.all(np.isfinite(self.values)):
            raise ClusteringError("feature matrix contains non-finite values")

    @property
    def n_points(self) -> int:
        """Number of bursts (rows)."""
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        """Number of features (columns)."""
        return self.values.shape[1]


def build_features(
    bursts: BurstSet,
    counters: Optional[Sequence[str]] = None,
    include_duration: bool = True,
) -> FeatureMatrix:
    """Build the standardized clustering features for ``bursts``.

    Features: ``log10(duration)`` (optional) and, for each requested
    counter present in the trace, ``events / instruction`` over the burst.
    Instructions themselves enter through the duration + ratios, matching
    the published practice of clustering on (duration, IPC, L1/L2 misses).
    """
    with _span("build_features", n_bursts=len(bursts)):
        return _build_features_impl(bursts, counters, include_duration)


def _build_features_impl(
    bursts: BurstSet,
    counters: Optional[Sequence[str]],
    include_duration: bool,
) -> FeatureMatrix:
    # Feature vectors must be complete, so only counters measured in
    # every burst qualify (under multiplexing that is the pivot set).
    available = set(bursts.common_counters())
    if "PAPI_TOT_INS" not in available:
        raise ClusteringError(
            "PAPI_TOT_INS missing from (some bursts of) the trace — "
            "per-instruction features cannot be built"
        )
    wanted = [
        c for c in (counters or DEFAULT_FEATURE_COUNTERS) if c in available
    ]
    instructions = bursts.deltas_or_nan("PAPI_TOT_INS")  # raw_features reuses it
    if np.any(instructions <= 0):
        bad = int(np.count_nonzero(instructions <= 0))
        raise ClusteringError(
            f"{bad} burst(s) retired zero instructions — trace is inconsistent"
        )

    names = ["log10_duration"] if include_duration else []
    names += [f"{counter}_per_ins" for counter in wanted]
    if not names:
        raise ClusteringError("no features selected")

    raw = raw_features(bursts, names)
    means = raw.mean(axis=0)
    stds = raw.std(axis=0)
    # Scale floors: plain z-scoring would amplify physically meaningless
    # variation (e.g. 3% duration jitter within a single true cluster) to
    # unit variance and let DBSCAN shatter it.  Each feature's divisor is
    # at least a floor below which differences are considered noise:
    # 0.15 log10 units (~1.4x) for duration, and for event ratios the
    # larger of 5% of the mean level and 0.02 events/instruction.
    floors = np.empty_like(stds)
    for i, feature_name in enumerate(names):
        if feature_name == "log10_duration":
            floors[i] = DURATION_SCALE_FLOOR
        else:
            floors[i] = max(RATIO_REL_FLOOR * abs(means[i]), RATIO_ABS_FLOOR)
    scales = np.maximum(stds, floors)
    values = (raw - means) / scales
    return FeatureMatrix(values=values, feature_names=names, means=means, stds=scales)


def raw_features(bursts: BurstSet, feature_names: Sequence[str]) -> np.ndarray:
    """Unscaled feature matrix: one row per burst, one column per name.

    ``log10_duration`` is the log10 of the burst duration and
    ``<counter>_per_ins`` the counter's burst total over the burst's
    ``PAPI_TOT_INS`` total; a counter the burst did not measure gives
    NaN.  Batch features and the live model's projection of one burst
    both compute their columns here, so they agree bit for bit.
    """
    instructions = bursts.deltas_or_nan("PAPI_TOT_INS")
    columns: List[np.ndarray] = []
    for name in feature_names:
        if name == "log10_duration":
            columns.append(np.log10(bursts.durations()))
        else:
            columns.append(
                bursts.deltas_or_nan(name[: -len("_per_ins")]) / instructions
            )
    return np.column_stack(columns)
