"""Physical-invariant filters on folded samples.

Two invariants hold for exact data and are only violated by measurement
imperfections (counter quantization, clock skew between the sample and the
probes):

1. **Range** — folded coordinates lie in [0, 1].
2. **Per-instance monotonicity** — within one instance, accumulated
   counters are non-decreasing, so folded ``y`` must be non-decreasing in
   ``x`` among samples of the same instance.

Filtering enforces both, reporting what was dropped — the ablation bench
(TAB-5) shows fit quality with these filters disabled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FoldingError
from repro.folding.fold import FoldedCounter

__all__ = ["FilterReport", "clip_to_unit_range", "enforce_instance_monotonicity"]


@dataclass(frozen=True)
class FilterReport:
    """Outcome of one filter application."""

    filter_name: str
    n_before: int
    n_dropped: int

    @property
    def n_after(self) -> int:
        """Points remaining after the filter."""
        return self.n_before - self.n_dropped

    @property
    def drop_fraction(self) -> float:
        """Fraction of points dropped."""
        return self.n_dropped / self.n_before if self.n_before else 0.0


def clip_to_unit_range(
    folded: FoldedCounter, tolerance: float = 0.02
) -> "tuple[FoldedCounter, FilterReport]":
    """Drop samples outside [0,1] beyond ``tolerance``; clamp the rest.

    Quantization can push a sample a hair outside the unit square; samples
    *far* outside indicate a mismatched instance (e.g. clustering error)
    and are discarded.
    """
    if tolerance < 0:
        raise FoldingError(f"tolerance must be >= 0, got {tolerance}")
    ok = (
        (folded.x >= -tolerance)
        & (folded.x <= 1.0 + tolerance)
        & (folded.y >= -tolerance)
        & (folded.y <= 1.0 + tolerance)
    )
    report = FilterReport(
        filter_name="unit_range",
        n_before=folded.n_points,
        n_dropped=int(np.sum(~ok)),
    )
    kept = folded.replaced(ok)
    np.clip(kept.x, 0.0, 1.0, out=kept.x)
    np.clip(kept.y, 0.0, 1.0, out=kept.y)
    return kept, report


def enforce_instance_monotonicity(
    folded: FoldedCounter, tolerance: float = 1e-9
) -> "tuple[FoldedCounter, FilterReport]":
    """Drop samples breaking within-instance monotonicity.

    For each instance, samples are scanned in ``x`` order keeping a running
    maximum of ``y``; a sample whose ``y`` falls more than ``tolerance``
    below the running maximum is dropped.  A dropped sample lies below
    that maximum, so it never raises it: the maximum over the kept
    samples before a point equals the maximum over *all* samples before
    it, and the whole mask is one segmented running max with no loop.
    A NaN ``y`` is kept and does not raise the maximum.
    """
    if tolerance < 0:
        raise FoldingError(f"tolerance must be >= 0, got {tolerance}")
    running = _running_instance_max(folded.y, folded.instance_ids)
    keep = ~(folded.y < running - tolerance)
    report = FilterReport(
        filter_name="instance_monotonicity",
        n_before=folded.n_points,
        n_dropped=int(np.sum(~keep)),
    )
    return folded.replaced(keep), report


def _running_instance_max(y: np.ndarray, instance_ids: np.ndarray) -> np.ndarray:
    """Per point, the max ``y`` over its instance up to and including it.

    Points are taken in array (``x``) order, NaN ``y`` never counts, and
    a point with no non-NaN ``y`` so far gets ``-inf``.  Including the
    point itself changes no decision: a point that is the max is never
    below it.  The values are ranked once, so the running max runs on
    exact integer keys ``segment * (n + 1) + rank``: every key of an
    earlier instance is below the current instance's base, which makes
    one ``np.maximum.accumulate`` over the instance-sorted keys a
    segmented max.  O(n) memory.
    """
    n = y.size
    by_value = np.argsort(y, kind="stable")  # NaN sorts last
    rank = np.empty(n, dtype=np.int64)
    rank[by_value] = np.arange(1, n + 1)
    rank[np.isnan(y)] = 0
    order = np.argsort(instance_ids, kind="stable")
    ids = instance_ids[order]
    base = np.cumsum(ids != np.r_[ids[:1], ids[:-1]]) * (n + 1)
    best = np.maximum.accumulate(base + rank[order]) - base
    running = np.full(n, -np.inf)
    seen = best > 0
    running[order[seen]] = y[by_value[best[seen] - 1]]
    return running
