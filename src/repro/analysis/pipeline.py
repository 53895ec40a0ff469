"""The folding analysis pipeline.

:class:`FoldingAnalyzer` is the library's main entry point: it consumes a
:class:`~repro.trace.records.Trace` (nothing else — no ground truth) and
produces an :class:`AnalysisResult` with, per detected cluster, the folded
counters, the fitted piece-wise linear models, the phases with their
metrics, and the phase-to-source attributions.

Clusters too small to fold meaningfully are reported as skipped with the
reason, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.clustering.alignment import SPMDReport, spmd_score
from repro.clustering.bursts import BurstSet, extract_bursts
from repro.clustering.dbscan import (
    DBSCAN,
    DBSCANResult,
    estimate_eps,
    estimate_eps_quantile,
)
from repro.clustering.features import FeatureMatrix, build_features
from repro.clustering.refinement import refine_clusters
from repro.errors import (
    AnalysisError,
    ClusteringError,
    FittingError,
    FoldingError,
    PhaseError,
)
from repro.fitting.pwlr import PWLRConfig
from repro.folding.callstack import FoldedCallstacks, fold_callstacks
from repro.folding.filtering import (
    FilterReport,
    clip_to_unit_range,
    enforce_instance_monotonicity,
)
from repro.folding.fold import FoldedCounter, fold_cluster
from repro.folding.instances import ClusterInstances, select_instances
from repro.folding.reconstruct import Reconstruction
from repro.observability.context import DISABLED, current
from repro.observability.context import counter as _metric_counter
from repro.observability.context import span as _span
from repro.observability.logs import progress
from repro.observability.spans import Profile
from repro.phases.detect import PhaseSet, detect_phases
from repro.phases.mapping import PhaseSourceAttribution, map_phases_to_source
from repro.resilience.diagnostics import Diagnostics
from repro.trace.reader import SalvageReport
from repro.trace.records import Trace
from repro.trace.stats import TraceStats, compute_stats

__all__ = [
    "AnalyzerConfig",
    "ClusterAnalysis",
    "AnalysisResult",
    "FoldingAnalyzer",
    "analyze_cluster",
    "cluster_features",
]


@dataclass(frozen=True)
class AnalyzerConfig:
    """Configuration of the full pipeline.

    ``counters=None`` folds every counter present in the trace.  ``eps=None``
    estimates the DBSCAN radius with the k-dist heuristic.  The remaining
    knobs expose the stages' parameters under their own names; ablation
    benches toggle ``prune_outliers``/``monotonicity_filter``/``pwlr``.

    ``degraded_mode`` (default on) arms the per-stage fallback chains:
    degenerate eps estimation falls back to a pairwise-quantile radius, a
    failed PWLR fit falls back to kernel-smoother breakpoints, and a
    counter that fails folding or refitting is dropped with a record
    instead of sinking the cluster.  Every fallback lands in
    :attr:`AnalysisResult.diagnostics`.  Switch it off to restore
    fail-fast semantics (the first stage error aborts the cluster or the
    analysis).

    The observability knobs: ``profile`` (default on) lets the analysis
    record stage spans when an enabled
    :class:`~repro.observability.Observability` is active — set it False
    to force the no-op path even under an enabled context;
    ``progress_every`` emits a ``repro.progress`` log line every N-th
    cluster (1 = every cluster) so long runs stay visibly alive.
    """

    counters: Optional[Tuple[str, ...]] = None
    pivot: str = "PAPI_TOT_INS"
    pwlr: PWLRConfig = field(default_factory=PWLRConfig)
    eps: Optional[float] = None
    min_pts: int = 8
    use_refinement: bool = False
    min_instances: int = 8
    min_cluster_fraction: float = 0.02
    prune_outliers: bool = True
    iqr_factor: float = 1.5
    range_tolerance: float = 0.02
    monotonicity_filter: bool = True
    min_folded_points: int = 16
    min_burst_duration_s: float = 0.0
    check_spmd: bool = False
    degraded_mode: bool = True
    profile: bool = True
    progress_every: int = 1

    def __post_init__(self) -> None:
        if self.min_pts < 1:
            raise AnalysisError(f"min_pts must be >= 1: {self.min_pts}")
        if self.min_instances < 2:
            raise AnalysisError(f"min_instances must be >= 2: {self.min_instances}")
        if not 0.0 <= self.min_cluster_fraction < 1.0:
            raise AnalysisError(
                f"min_cluster_fraction must be in [0, 1): {self.min_cluster_fraction}"
            )
        if self.eps is not None and self.eps <= 0:
            raise AnalysisError(f"eps must be positive when given: {self.eps}")
        if self.iqr_factor <= 0:
            raise AnalysisError(f"iqr_factor must be > 0: {self.iqr_factor}")
        if self.min_folded_points < 2:
            raise AnalysisError(
                f"min_folded_points must be >= 2: {self.min_folded_points}"
            )
        if self.range_tolerance < 0:
            raise AnalysisError(
                f"range_tolerance must be >= 0: {self.range_tolerance}"
            )
        if not isinstance(self.profile, bool):
            raise AnalysisError(f"profile must be a bool: {self.profile!r}")
        if not isinstance(self.progress_every, int) or self.progress_every < 1:
            raise AnalysisError(
                f"progress_every must be an int >= 1: {self.progress_every!r}"
            )


@dataclass
class ClusterAnalysis:
    """Full analysis of one burst cluster."""

    cluster_id: int
    n_members: int
    time_share: float
    instances: ClusterInstances
    folded: Dict[str, FoldedCounter]
    filter_reports: List[FilterReport]
    phase_set: PhaseSet
    attributions: List[PhaseSourceAttribution]
    callstacks: Optional[FoldedCallstacks]
    reconstructions: Dict[str, Reconstruction]

    @property
    def n_phases(self) -> int:
        """Detected phase count."""
        return len(self.phase_set)


@dataclass
class AnalysisResult:
    """Everything the pipeline produced for one trace.

    ``spmd`` is populated when the analyzer was configured with
    ``check_spmd=True``: the sequence-alignment validation that the
    detected structure really is SPMD (a low score flags a clustering
    problem or a genuinely non-SPMD code).

    ``diagnostics`` records every salvage/fallback/skip decision the
    pipeline took — empty means the run was pristine; anything at
    DEGRADED or above means a fallback algorithm contributed to these
    numbers.

    ``profile`` is the stage-span tree of this run (wall/CPU/peak-RSS per
    pipeline stage) when the analysis ran under an enabled
    :class:`~repro.observability.Observability`; ``None`` otherwise.
    """

    app_name: str
    trace_stats: TraceStats
    bursts: BurstSet
    features: FeatureMatrix
    clustering: DBSCANResult
    clusters: List[ClusterAnalysis]
    skipped: Dict[int, str]
    spmd: Optional["SPMDReport"] = None
    diagnostics: Diagnostics = field(default_factory=Diagnostics)
    profile: Optional[Profile] = None

    @property
    def n_clusters_analyzed(self) -> int:
        """Clusters that made it through folding and fitting."""
        return len(self.clusters)

    def to_dict(self) -> Dict[str, object]:
        """Versioned JSON-able view (see :mod:`repro.store.serialize`).

        Everything reports, hints and cross-run diffs consume round-trips
        exactly; raw sample arrays are summarized, not stored.
        """
        from repro.store.serialize import result_to_dict  # avoid import cycle

        return result_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AnalysisResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        from repro.store.serialize import result_from_dict  # avoid import cycle

        return result_from_dict(data)

    def cluster(self, cluster_id: int) -> ClusterAnalysis:
        """Analysis of one cluster by id."""
        for cluster in self.clusters:
            if cluster.cluster_id == cluster_id:
                return cluster
        raise AnalysisError(
            f"cluster {cluster_id} was not analyzed "
            f"(skipped: {self.skipped.get(cluster_id, 'not found')})"
        )

    def dominant_cluster(self) -> ClusterAnalysis:
        """The cluster covering the most compute time."""
        if not self.clusters:
            raise AnalysisError("no clusters were analyzed")
        return max(self.clusters, key=lambda c: c.time_share)


class FoldingAnalyzer:
    """Trace → :class:`AnalysisResult` (the paper's mechanism end to end)."""

    def __init__(self, config: Optional[AnalyzerConfig] = None) -> None:
        self.config = config or AnalyzerConfig()

    # ------------------------------------------------------------------
    def analyze(
        self, trace: Trace, salvage: Optional[SalvageReport] = None
    ) -> AnalysisResult:
        """Run the full pipeline on ``trace``.

        ``salvage`` is the :class:`~repro.trace.reader.SalvageReport` of a
        salvage-mode read, when there was one — its drop counts are folded
        into the result's diagnostics so the analysis carries the full
        damage history of its input.

        When an enabled :class:`~repro.observability.Observability` is
        active (and ``config.profile`` is True), the run records a span
        per stage and attaches the tree as :attr:`AnalysisResult.profile`.
        """
        # config.profile=False silences instrumentation for the whole
        # dynamic extent — activating DISABLED shadows any enabled outer
        # context for every layer below.
        obs = current() if self.config.profile else DISABLED
        with obs.activate():
            with obs.span("analyze", app=trace.app_name or "") as root:
                result = self._analyze_impl(trace, salvage)
        if root is not None:
            result.profile = Profile(roots=[root])
        return result

    def _analyze_impl(
        self, trace: Trace, salvage: Optional[SalvageReport]
    ) -> AnalysisResult:
        cfg = self.config
        diagnostics = Diagnostics()
        if salvage is not None:
            self._record_salvage(diagnostics, salvage)
        with _span("trace_stats"):
            stats = compute_stats(trace)
        progress(
            "%s: %d records / %d ranks, extracting bursts",
            trace.app_name or "trace",
            trace.n_records,
            trace.n_ranks,
        )
        mispaired: Dict[int, int] = {}
        bursts = extract_bursts(
            trace, min_duration=cfg.min_burst_duration_s, mispaired=mispaired
        )
        if mispaired:
            diagnostics.warning(
                "clustering",
                f"{sum(mispaired.values())} mispaired probe(s) skipped "
                f"during burst extraction (lost probe lines)",
                per_rank={int(r): int(n) for r, n in mispaired.items()},
            )
        if cfg.degraded_mode and salvage is not None and not salvage.clean:
            # Known-damaged input: corruption that still parses produces
            # physically absurd bursts — screen them before clustering.
            bursts = self._screen_bursts(bursts, diagnostics)

        counters = list(cfg.counters) if cfg.counters else bursts.counter_names
        if cfg.pivot not in counters:
            raise AnalysisError(
                f"pivot {cfg.pivot!r} not among analyzed counters {counters}"
            )

        bursts, features = self._build_features(bursts, diagnostics)
        progress("clustering %d bursts", len(bursts))
        with _span("clustering", n_bursts=len(bursts)):
            clustering = cluster_features(features.values, cfg, diagnostics)
        progress(
            "found %d cluster(s) (%.1f%% noise), analyzing",
            clustering.n_clusters,
            clustering.noise_fraction * 100.0,
        )

        durations = bursts.durations()
        total_compute = float(durations.sum())

        # In degraded mode a cluster that dies in *any* stage is skipped
        # with a diagnostic; fail-fast mode only tolerates folding
        # failures (the historical contract).
        cluster_errors = (
            (FoldingError, FittingError, PhaseError)
            if cfg.degraded_mode
            else FoldingError
        )
        clusters: List[ClusterAnalysis] = []
        skipped: Dict[int, str] = {}
        pending: List[Tuple[int, np.ndarray, float]] = []
        for cluster_id in range(clustering.n_clusters):
            members = clustering.members(cluster_id)
            share = float(durations[members].sum() / total_compute)
            if share < cfg.min_cluster_fraction:
                skipped[cluster_id] = (
                    f"covers {share:.1%} of compute time "
                    f"(< {cfg.min_cluster_fraction:.1%} threshold)"
                )
                diagnostics.info(
                    "analysis",
                    f"cluster {cluster_id} below time-share threshold",
                    cluster_id=cluster_id,
                    time_share=round(share, 4),
                )
                continue
            pending.append((cluster_id, members, share))

        # Threshold skips are recorded for every cluster before any is
        # analyzed, so the diagnostics read in that order.
        for cluster_id, members, share in pending:
            if cluster_id % cfg.progress_every == 0:
                progress(
                    "cluster %d/%d: %d members, %.1f%% of compute time",
                    cluster_id + 1,
                    clustering.n_clusters,
                    members.size,
                    share * 100.0,
                )
            try:
                with _span(
                    "cluster",
                    cluster_id=cluster_id,
                    n_members=int(members.size),
                ):
                    clusters.append(
                        analyze_cluster(
                            cfg,
                            bursts,
                            clustering.labels,
                            cluster_id,
                            counters,
                            share,
                            diagnostics,
                        )
                    )
            except cluster_errors as exc:
                skipped[cluster_id] = str(exc)
                diagnostics.error(
                    "analysis",
                    f"cluster {cluster_id} skipped: {exc}",
                    cluster_id=cluster_id,
                )
        if not clusters:
            raise AnalysisError(
                f"no cluster could be analyzed; skipped: {skipped}"
            )
        spmd: Optional[SPMDReport] = None
        if cfg.check_spmd:
            with _span("spmd_check"):
                spmd = spmd_score(bursts, clustering.labels)
        _metric_counter("analysis.clusters_analyzed").inc(len(clusters))
        _metric_counter("analysis.clusters_skipped").inc(len(skipped))
        progress(
            "analysis complete: %d cluster(s) analyzed, %d skipped",
            len(clusters),
            len(skipped),
        )
        return AnalysisResult(
            app_name=trace.app_name,
            trace_stats=stats,
            bursts=bursts,
            features=features,
            clustering=clustering,
            clusters=clusters,
            skipped=skipped,
            spmd=spmd,
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _record_salvage(diagnostics: Diagnostics, salvage: SalvageReport) -> None:
        """Fold a salvage-read report into the run diagnostics."""
        if salvage.clean:
            diagnostics.info(
                "read",
                "salvage read was clean",
                records=salvage.n_records_kept,
            )
            return
        for reason in sorted(salvage.reasons):
            diagnostics.warning(
                "read",
                f"salvage dropped {salvage.reasons[reason]} x {reason}",
                reason=reason,
                count=salvage.reasons[reason],
            )
        if salvage.inferred_ranks:
            diagnostics.degraded(
                "read",
                "rank count inferred from records (damaged header)",
            )

    def _screen_bursts(
        self, bursts: BurstSet, diagnostics: Diagnostics
    ) -> BurstSet:
        """Robust pre-screen of bursts from a known-damaged trace.

        A corrupted-but-parseable probe value (one flipped digit of a
        large cumulative counter) makes a burst's delta wrong by orders of
        magnitude.  Screen log-duration and log-pivot-rate with a generous
        MAD-based threshold — the scale divisor is floored so only
        physically absurd bursts are dropped, never mere workload
        variability.  Applied only when the salvage report says the input
        was damaged; a clean read never passes through here.
        """
        n = len(bursts)
        if n < self.config.min_pts:
            return bursts
        durations = bursts.durations()
        deltas = bursts.deltas_or_nan(self.config.pivot)
        keep = (
            np.isfinite(durations)
            & (durations > 0)
            & np.isfinite(deltas)
            & (deltas > 0)
        )
        safe_rate = np.where(keep, deltas, 1.0) / np.where(keep, durations, 1.0)
        for values in (durations, safe_rate):
            logs = np.log10(np.where(keep, values, 1.0))
            kept_logs = logs[keep]
            if kept_logs.size == 0:
                break
            median = float(np.median(kept_logs))
            mad = float(np.median(np.abs(kept_logs - median)))
            scale = max(1.4826 * mad, 0.15)  # >= ~1.4x before z moves
            keep &= np.abs(logs - median) / scale <= 6.0
        n_dropped = int(n - keep.sum())
        if n_dropped == 0:
            return bursts
        if int(keep.sum()) < self.config.min_pts:
            # Screening would leave too few bursts to cluster.  The
            # screen is abandoned and the known-absurd bursts stay in —
            # a decision the analyst must see, not a silent pass-through.
            diagnostics.degraded(
                "clustering",
                f"burst screening abandoned: only {int(keep.sum())} of {n} "
                f"burst(s) would survive (< min_pts={self.config.min_pts}); "
                f"implausible bursts kept",
                n_flagged=n_dropped,
                n_would_survive=int(keep.sum()),
                min_pts=self.config.min_pts,
            )
            return bursts
        _metric_counter("bursts.screened").inc(n_dropped)
        diagnostics.warning(
            "clustering",
            f"{n_dropped} physically implausible burst(s) screened out "
            f"of damaged trace",
            n_dropped=n_dropped,
            n_kept=int(keep.sum()),
        )
        return bursts.subset([int(i) for i in np.flatnonzero(keep)])

    def _build_features(
        self, bursts: BurstSet, diagnostics: Diagnostics
    ) -> Tuple[BurstSet, FeatureMatrix]:
        """Feature construction, with the degraded-mode burst guard.

        A salvaged trace can contain bursts whose probe counters were
        corrupted into parseable-but-wrong values (a bit flip turning an
        instruction count negative).  ``build_features`` rightly rejects
        them; in degraded mode we drop the inconsistent bursts, record the
        drop, and retry on the survivors rather than lose the trace.
        """
        try:
            return bursts, build_features(bursts)
        except ClusteringError:
            if not self.config.degraded_mode:
                raise
            deltas = bursts.deltas_or_nan("PAPI_TOT_INS")
            good = np.flatnonzero(np.isfinite(deltas) & (deltas > 0))
            if good.size == 0 or good.size == len(bursts):
                raise  # nothing to drop, or nothing would remain
            _metric_counter("features.bursts_dropped").inc(len(bursts) - good.size)
            diagnostics.warning(
                "clustering",
                f"{len(bursts) - good.size} inconsistent burst(s) dropped "
                f"before feature construction",
                n_dropped=int(len(bursts) - good.size),
                n_kept=int(good.size),
            )
            bursts = bursts.subset([int(i) for i in good])
            return bursts, build_features(bursts)


def cluster_features(
    values: np.ndarray, cfg: AnalyzerConfig, diagnostics: Diagnostics
) -> DBSCANResult:
    """DBSCAN over standardized burst features, with the eps fallbacks.

    ``cfg.use_refinement`` selects multi-density refinement and a pinned
    ``cfg.eps`` is used as given.  Otherwise the radius is the k-dist
    estimate; in degraded mode, a degenerate estimate or one that yields
    zero clusters falls back to the pairwise-quantile radius, recorded as
    a ``clustering`` entry at DEGRADED in ``diagnostics``.  The batch
    pipeline and the online cluster model both cluster through here.
    """
    if cfg.use_refinement:
        return refine_clusters(values, min_pts=cfg.min_pts)
    if cfg.eps is not None:
        # Caller pinned the radius: no fallback second-guesses it.
        return DBSCAN(eps=cfg.eps, min_pts=cfg.min_pts).fit(values)
    eps: Optional[float] = None
    try:
        eps = estimate_eps(values, k=cfg.min_pts)
        if eps <= 1e-8:
            raise ClusteringError(
                f"k-dist eps estimate degenerate ({eps}); geometry has "
                f"no usable k-th neighbor scale"
            )
    except ClusteringError as exc:
        if not cfg.degraded_mode:
            raise
        diagnostics.degraded(
            "clustering",
            "k-dist eps estimation failed; pairwise-quantile fallback used",
            error=str(exc),
        )
    if eps is not None and eps > 1e-8:
        result = DBSCAN(eps=eps, min_pts=cfg.min_pts).fit(values)
        if result.n_clusters > 0 or not cfg.degraded_mode:
            return result
        diagnostics.degraded(
            "clustering",
            "k-dist eps yielded zero clusters; "
            "retrying with pairwise-quantile fallback",
            eps=eps,
        )
    fallback_eps = estimate_eps_quantile(values)
    return DBSCAN(eps=fallback_eps, min_pts=cfg.min_pts).fit(values)


def analyze_cluster(
    cfg: AnalyzerConfig,
    bursts: BurstSet,
    labels: np.ndarray,
    cluster_id: int,
    counters: Sequence[str],
    time_share: float,
    diagnostics: Diagnostics,
) -> ClusterAnalysis:
    """Select, fold, filter and fit one cluster: the paper's per-cluster step.

    The members of ``cluster_id`` under ``labels`` are pruned to
    instances and folded over ``counters``; each folded counter is
    clipped to the unit range and, with ``cfg.monotonicity_filter``, made
    monotone per instance; then the PWLR phase detection runs, phases
    are mapped to source, and per-counter reconstructions are built.
    Recoverable per-counter failures land in ``diagnostics``.  This is
    the only such path: batch analysis and the live refits of
    :class:`~repro.stream.engine.StreamEngine` both call it.
    """
    instances = select_instances(
        bursts,
        labels,
        cluster_id,
        prune_outliers=cfg.prune_outliers,
        iqr_factor=cfg.iqr_factor,
        min_instances=cfg.min_instances,
    )
    fold_drops: Dict[str, str] = {}
    folded = fold_cluster(
        instances,
        counters,
        min_points=cfg.min_folded_points,
        required=[cfg.pivot],
        drops=fold_drops,
    )
    for counter, reason in fold_drops.items():
        diagnostics.warning(
            "folding",
            f"counter {counter} dropped from cluster {cluster_id}: {reason}",
            cluster_id=cluster_id,
            counter=counter,
        )

    reports: List[FilterReport] = []
    with _span("filter", cluster_id=cluster_id, n_counters=len(folded)):
        for counter in list(folded):
            try:
                fc, r_range = clip_to_unit_range(
                    folded[counter], cfg.range_tolerance
                )
                reports.append(r_range)
                if cfg.monotonicity_filter:
                    fc, r_mono = enforce_instance_monotonicity(fc)
                    reports.append(r_mono)
                folded[counter] = fc
            except FoldingError as exc:
                if not cfg.degraded_mode or counter == cfg.pivot:
                    raise
                del folded[counter]
                diagnostics.warning(
                    "folding",
                    f"physical filters failed for {counter}; counter dropped",
                    cluster_id=cluster_id,
                    counter=counter,
                    error=str(exc),
                )

    phase_set = detect_phases(
        folded,
        cluster_id=cluster_id,
        pivot=cfg.pivot,
        config=cfg.pwlr,
        diagnostics=diagnostics,
        allow_fallback=cfg.degraded_mode,
    )

    try:
        with _span("fold_callstacks", cluster_id=cluster_id):
            callstacks: Optional[FoldedCallstacks] = fold_callstacks(instances)
        attributions = map_phases_to_source(phase_set, callstacks)
    except FoldingError:
        # No stack samples in this cluster: phases stand unattributed.
        callstacks = None
        attributions = []
        diagnostics.info(
            "phases",
            f"cluster {cluster_id}: no stack samples, "
            f"phases stand unattributed",
            cluster_id=cluster_id,
        )

    reconstructions: Dict[str, Reconstruction] = {}
    with _span("reconstruct", cluster_id=cluster_id):
        for counter in folded:
            if counter not in phase_set.counter_models:
                continue  # refit dropped it; already in diagnostics
            try:
                reconstructions[counter] = Reconstruction.from_folded(
                    folded[counter], phase_set.counter_models[counter]
                )
            except (FoldingError, FittingError) as exc:
                if not cfg.degraded_mode:
                    raise
                diagnostics.warning(
                    "phases",
                    f"reconstruction failed for {counter}",
                    cluster_id=cluster_id,
                    counter=counter,
                    error=str(exc),
                )
    return ClusterAnalysis(
        cluster_id=cluster_id,
        n_members=int(np.sum(labels == cluster_id)),
        time_share=time_share,
        instances=instances,
        folded=folded,
        filter_reports=reports,
        phase_set=phase_set,
        attributions=attributions,
        callstacks=callstacks,
        reconstructions=reconstructions,
    )
