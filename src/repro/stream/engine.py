"""The live streaming engine behind ``repro watch``.

:class:`StreamEngine` wires the incremental pieces together:

    bytes → :class:`~repro.trace.reader.TraceParser` (salvage parse)
          → :class:`~repro.clustering.bursts.IncrementalBurstAssembler`
          → :class:`~repro.stream.model.OnlineClusterModel` (assign)
          → per-cluster :class:`~repro.stream.model.ClusterReservoir`
          → periodic fold + PWLR refit → phase-change / drift events

It follows a *lambda architecture*: the online path keeps strictly
bounded state (reservoirs, pending bursts, a drift window) and exists to
power live monitoring — telemetry events on the active
:class:`~repro.observability.events.TelemetryBus`, ``stream.live.*``
gauges for the OpenMetrics endpoint — while :meth:`finalize` re-reads
the completed trace through the exact batch pipeline
(:func:`~repro.trace.reader.read_trace` →
:class:`~repro.analysis.pipeline.FoldingAnalyzer`), so the finalized
:class:`~repro.analysis.pipeline.AnalysisResult` is byte-identical
(through the store codec) to a cold ``repro analyze`` of the same file.
The ``stream`` selftest suite enforces that contract.

Every piece of engine state serializes (:meth:`StreamEngine.state_to_dict`
/ :meth:`StreamEngine.from_state`) for checkpoint/resume; see
:mod:`repro.stream.checkpoint`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.analysis.pipeline import (
    AnalysisResult,
    AnalyzerConfig,
    FoldingAnalyzer,
    analyze_cluster,
)
from repro.clustering.bursts import (
    BurstSet,
    ComputationBurst,
    IncrementalBurstAssembler,
    burst_from_dict,
    burst_to_dict,
)
from repro.errors import FittingError, FoldingError, PhaseError, StreamError

# Not called here: e2ebench/spans.py resolves these three names on this
# module, so they stay importable from it.
from repro.folding.fold import fold_cluster  # noqa: F401
from repro.folding.instances import select_instances  # noqa: F401
from repro.observability.context import DISABLED, gauge, publish, span
from repro.phases.detect import detect_phases  # noqa: F401
from repro.resilience.diagnostics import Diagnostics
from repro.store import config_from_dict, config_to_dict
from repro.stream.model import NOISE, ClusterReservoir, DriftWindow, OnlineClusterModel
from repro.stream.source import TraceTailSource
from repro.trace.reader import (
    ReadPolicy,
    TraceParser,
    read_trace,
    read_trace_salvaged,
)

__all__ = ["StreamConfig", "StreamEngine", "StreamReport"]


#: Attached samples kept per retained burst (stride-thinned beyond it).
MAX_SAMPLES_PER_BURST = 512
#: Assignments in the sliding drift window.
DRIFT_WINDOW = 64
#: Noise fraction of the drift window that trips a re-cluster.
DRIFT_NOISE_THRESHOLD = 0.30
#: Assignment radius, in units of the model's eps.
ASSIGN_FACTOR = 1.5
#: Mean-|slope| ratio between two refits of a cluster that counts as drift.
SLOPE_SHIFT_FACTOR = 1.5
#: Pending bursts per rank before the assembler emits one early.
MAX_PENDING_BURSTS = 256
#: Distinct recent lines the salvage parser remembers to drop duplicates.
DEDUP_WINDOW = 4096
#: Records between two ``stream_progress`` events.
PROGRESS_EVERY_RECORDS = 5000

#: Options earlier releases kept on :class:`StreamConfig`, with the value
#: they are now fixed at; their checkpoints still carry them.
_RETIRED_FIELDS: Dict[str, object] = {
    "max_samples_per_burst": MAX_SAMPLES_PER_BURST,
    "drift_window": DRIFT_WINDOW,
    "drift_noise_threshold": DRIFT_NOISE_THRESHOLD,
    "assign_factor": ASSIGN_FACTOR,
    "slope_shift_factor": SLOPE_SHIFT_FACTOR,
    "max_pending_bursts": MAX_PENDING_BURSTS,
    "dedup_window": DEDUP_WINDOW,
    "progress_every_records": PROGRESS_EVERY_RECORDS,
}


@dataclass(frozen=True)
class StreamConfig:
    """Tuning knobs of the streaming engine.

    ``analyzer`` is the batch configuration used verbatim at
    finalization — the convergence guarantee is *defined* against it.
    The remaining knobs bound the online path: the warmup size before the
    first model fit, the per-cluster reservoir capacity (with
    :data:`MAX_SAMPLES_PER_BURST`, the memory ceiling, see
    ``docs/STREAMING.md``), the refit cadence and the reservoir RNG seed.
    ``salvage`` selects the finalization read policy (and must match the
    batch side being compared against).
    """

    analyzer: AnalyzerConfig = field(default_factory=AnalyzerConfig)
    warmup_bursts: int = 48
    reservoir_capacity: int = 64
    refit_every: int = 32
    seed: int = 0
    salvage: bool = False

    def __post_init__(self) -> None:
        if self.warmup_bursts < 2:
            raise StreamError(f"warmup_bursts must be >= 2, got {self.warmup_bursts}")
        if self.reservoir_capacity < self.analyzer.min_instances:
            raise StreamError(
                f"reservoir_capacity ({self.reservoir_capacity}) must be >= "
                f"analyzer.min_instances ({self.analyzer.min_instances}) or "
                f"refits could never run"
            )
        if self.refit_every < 1:
            raise StreamError(f"refit_every must be >= 1, got {self.refit_every}")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Serializable view (checkpoints embed this for compatibility
        checks at resume time)."""
        out: Dict[str, object] = {"analyzer": config_to_dict(self.analyzer)}
        for name in (
            "warmup_bursts",
            "reservoir_capacity",
            "refit_every",
            "seed",
            "salvage",
        ):
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StreamConfig":
        """Rebuild a config from :meth:`to_dict` output.

        A retired option (see :data:`_RETIRED_FIELDS`) is dropped when it
        holds the value it is now fixed at, so checkpoints of earlier
        releases resume; any other value cannot be honoured and raises
        :class:`~repro.errors.StreamError` naming the option.
        """
        kwargs = dict(data)
        for name, fixed in _RETIRED_FIELDS.items():
            if name in kwargs and kwargs.pop(name) != fixed:
                raise StreamError(
                    f"stream option {name}={data[name]!r} is no longer "
                    f"configurable (fixed at {fixed!r})"
                )
        kwargs["analyzer"] = config_from_dict(kwargs["analyzer"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass
class _ClusterState:
    """Live refit bookkeeping of one assigned cluster."""

    n_assigned: int = 0
    n_since_refit: int = 0
    n_refits: int = 0
    n_refit_failures: int = 0
    #: Last successful refit summary, or None before the first one.
    n_phases: Optional[int] = None
    mean_slope: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_assigned": self.n_assigned,
            "n_since_refit": self.n_since_refit,
            "n_refits": self.n_refits,
            "n_refit_failures": self.n_refit_failures,
            "n_phases": self.n_phases,
            "mean_slope": self.mean_slope,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "_ClusterState":
        return cls(
            n_assigned=int(data["n_assigned"]),
            n_since_refit=int(data["n_since_refit"]),
            n_refits=int(data["n_refits"]),
            n_refit_failures=int(data["n_refit_failures"]),
            n_phases=None if data["n_phases"] is None else int(data["n_phases"]),  # type: ignore[arg-type]
            mean_slope=(
                None if data["mean_slope"] is None else float(data["mean_slope"])  # type: ignore[arg-type]
            ),
        )


@dataclass
class StreamReport:
    """Summary of one streaming run (live view and final footer)."""

    n_records: int
    n_dropped_lines: int
    n_bursts: int
    n_assigned: int
    n_noise: int
    n_clusters: int
    n_model_refreshes: int
    n_refits: int
    n_phase_changes: int
    n_drift_events: int
    n_checkpoints: int
    n_forced_emissions: int
    n_late_samples: int
    n_retained_bursts: int
    model_ready: bool
    finalized: bool

    def to_dict(self) -> Dict[str, object]:
        """JSON-able view (the ``stream`` key of ``watch --json``)."""
        return dict(self.__dict__)

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            "stream summary",
            f"  records            {self.n_records}"
            + (f" ({self.n_dropped_lines} lines dropped)" if self.n_dropped_lines else ""),
            f"  bursts             {self.n_bursts}"
            + (f" ({self.n_forced_emissions} forced)" if self.n_forced_emissions else ""),
            f"  model              "
            + (
                f"{self.n_clusters} clusters, "
                f"{self.n_assigned} assigned / {self.n_noise} noise, "
                f"{self.n_model_refreshes} refresh(es)"
                if self.model_ready
                else "still warming up"
            ),
            f"  refits             {self.n_refits} "
            f"({self.n_phase_changes} phase change(s), "
            f"{self.n_drift_events} drift event(s))",
            f"  retained bursts    {self.n_retained_bursts}"
            + (f" (late samples: {self.n_late_samples})" if self.n_late_samples else ""),
        ]
        if self.n_checkpoints:
            lines.append(f"  checkpoints        {self.n_checkpoints}")
        lines.append(
            f"  finalized          {'yes' if self.finalized else 'no'}"
        )
        return "\n".join(lines)


class StreamEngine:
    """Incremental phase detection over a growing record stream."""

    def __init__(self, config: Optional[StreamConfig] = None) -> None:
        self.config = config or StreamConfig()
        self.parser = TraceParser(ReadPolicy.SALVAGE, dedup_window=DEDUP_WINDOW)
        self.assembler = IncrementalBurstAssembler(
            min_duration=self.config.analyzer.min_burst_duration_s,
            max_pending=MAX_PENDING_BURSTS,
        )
        self.model: Optional[OnlineClusterModel] = None
        self.rng = np.random.default_rng(self.config.seed)
        self.warmup = ClusterReservoir(
            capacity=max(4 * self.config.warmup_bursts, self.config.warmup_bursts),
            max_samples_per_burst=MAX_SAMPLES_PER_BURST,
        )
        self.reservoirs: Dict[int, ClusterReservoir] = {}
        self.drift = DriftWindow(DRIFT_WINDOW, DRIFT_NOISE_THRESHOLD)
        self.clusters: Dict[int, _ClusterState] = {}
        self.n_records = 0
        self.n_bursts = 0
        self.n_assigned = 0
        self.n_noise = 0
        self.n_model_refreshes = 0
        self.n_refits = 0
        self.n_phase_changes = 0
        self.n_drift_events = 0
        self.n_checkpoints = 0
        self.finalized = False
        self._started = False
        self._fit_attempt_at = self.config.warmup_bursts

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def process_text(self, text: str) -> int:
        """Feed a chunk of trace text; returns records consumed."""
        if not self._started:
            publish("stream_started", label="watch")
            self._started = True
        before = self.n_records
        for record in self.parser.feed(text):
            self.n_records += 1
            for burst in self.assembler.feed(record):
                self._ingest_burst(burst)
            if self.n_records % PROGRESS_EVERY_RECORDS == 0:
                self._publish_progress()
        return self.n_records - before

    def _ingest_burst(self, burst: ComputationBurst) -> None:
        self.n_bursts += 1
        if self.model is None:
            self.warmup.add(burst, self.rng)
            if self.warmup.n_seen >= self._fit_attempt_at:
                self._try_initial_fit()
            return
        cid = self.model.assign(burst)
        self._reservoir(cid).add(burst, self.rng)
        if cid == NOISE:
            self.n_noise += 1
            if self.drift.push(True):
                self._drift_refresh()
            return
        self.n_assigned += 1
        self.drift.push(False)
        state = self.clusters.setdefault(cid, _ClusterState())
        state.n_assigned += 1
        state.n_since_refit += 1
        if state.n_since_refit >= self.config.refit_every:
            self._refit_cluster(cid)

    def _reservoir(self, cid: int) -> ClusterReservoir:
        reservoir = self.reservoirs.get(cid)
        if reservoir is None:
            reservoir = self.reservoirs[cid] = ClusterReservoir(
                capacity=self.config.reservoir_capacity,
                max_samples_per_burst=MAX_SAMPLES_PER_BURST,
            )
        return reservoir

    # ------------------------------------------------------------------
    # model lifecycle
    # ------------------------------------------------------------------
    def _try_initial_fit(self) -> None:
        # Re-attempt on a growing schedule so a warmup set that cannot
        # cluster yet (all-identical bursts, missing pivot) does not pay
        # a DBSCAN per burst forever.
        self._fit_attempt_at = self.warmup.n_seen + max(
            8, self.config.warmup_bursts // 4
        )
        model, labels = OnlineClusterModel.fit(
            self.warmup.items,
            self.config.analyzer,
            assign_factor=ASSIGN_FACTOR,
        )
        if model is None:
            return
        self.model = model
        for burst, label in zip(self.warmup.items, labels):
            cid = int(label)
            self._reservoir(cid).add(burst, self.rng)
            if cid == NOISE:
                self.n_noise += 1
            else:
                self.n_assigned += 1
                self.clusters.setdefault(cid, _ClusterState()).n_assigned += 1
        self.warmup.items = []
        self.n_model_refreshes += 1
        self._publish_model_refreshed(reason="warmup")

    def _drift_refresh(self) -> None:
        """Re-cluster over the bounded reservoir contents (O(reservoir))."""
        self.n_drift_events += 1
        publish(
            "stream_drift",
            label="watch",
            noise_fraction=round(self.drift.noise_fraction, 4),
            window=DRIFT_WINDOW,
        )
        self.drift.reset()
        pool: List[ComputationBurst] = []
        for reservoir in self.reservoirs.values():
            pool.extend(reservoir.items)
        model, labels = OnlineClusterModel.fit(
            pool,
            self.config.analyzer,
            assign_factor=ASSIGN_FACTOR,
        )
        if model is None:
            return  # keep the old model; the window restarts from empty
        self.model = model
        # Re-seed reservoirs under the new labeling; per-cluster refit
        # bookkeeping restarts because cluster ids are not stable across
        # refreshes (run totals live on the engine, not the clusters).
        self.reservoirs = {}
        self.clusters = {}
        for burst, label in zip(pool, labels):
            cid = int(label)
            self._reservoir(cid).add(burst, self.rng)
            if cid != NOISE:
                self.clusters.setdefault(cid, _ClusterState()).n_assigned += 1
        self.n_model_refreshes += 1
        self._publish_model_refreshed(reason="drift")

    def _publish_model_refreshed(self, reason: str) -> None:
        assert self.model is not None
        publish(
            "stream_model_refreshed",
            label="watch",
            reason=reason,
            n_clusters=self.model.n_clusters,
            eps=round(self.model.eps, 6),
            n_fitted=self.model.n_fitted,
            used_fallback_eps=self.model.used_fallback_eps,
        )
        gauge("stream.live.clusters").set(self.model.n_clusters)

    # ------------------------------------------------------------------
    # periodic refit
    # ------------------------------------------------------------------
    def _refit_cluster(self, cid: int) -> None:
        # A live refit is the batch per-cluster analysis over the
        # reservoir: the same fold, physical filters and PWLR search.
        with span("stream.refit", cluster=cid):
            state = self.clusters[cid]
            state.n_since_refit = 0
            bursts = BurstSet(list(self.reservoirs[cid].items))
            cfg = self.config.analyzer
            try:
                analysis = analyze_cluster(
                    cfg,
                    bursts,
                    np.full(len(bursts), cid),
                    cid,
                    list(cfg.counters) if cfg.counters else bursts.counter_names,
                    1.0,
                    Diagnostics(),
                )
            except (FoldingError, FittingError, PhaseError):
                # A reservoir without the pivot counter fails in the fold.
                state.n_refit_failures += 1
                return
            phases = analysis.phase_set
            state.n_refits += 1
            self.n_refits += 1
            n_phases = len(phases)
            slopes = phases.pivot_model.slopes
            mean_slope = float(np.mean(np.abs(slopes))) if slopes.size else 0.0
            if state.n_phases is not None and n_phases != state.n_phases:
                self.n_phase_changes += 1
                publish(
                    "stream_phase_change",
                    label=f"cluster-{cid}",
                    cluster=cid,
                    n_phases_before=state.n_phases,
                    n_phases_after=n_phases,
                    n_instances=len(analysis.instances),
                )
            elif state.mean_slope is not None and state.mean_slope > 0 and mean_slope > 0:
                ratio = max(mean_slope / state.mean_slope, state.mean_slope / mean_slope)
                if ratio > SLOPE_SHIFT_FACTOR:
                    self.n_drift_events += 1
                    publish(
                        "stream_drift",
                        label=f"cluster-{cid}",
                        cluster=cid,
                        slope_ratio=round(ratio, 4),
                        threshold=SLOPE_SHIFT_FACTOR,
                    )
            state.n_phases = n_phases
            state.mean_slope = mean_slope
            gauge(f"stream.live.phases.cluster{cid}").set(n_phases)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _publish_progress(self) -> None:
        gauge("stream.live.records").set(self.n_records)
        gauge("stream.live.bursts").set(self.n_bursts)
        gauge("stream.live.noise_fraction").set(
            round(self.drift.noise_fraction, 4)
        )
        gauge("stream.live.retained_bursts").set(self.n_retained_bursts)
        gauge("stream.live.pending_bursts").set(self.assembler.n_pending)
        publish(
            "stream_progress",
            label="watch",
            n_records=self.n_records,
            n_bursts=self.n_bursts,
            n_assigned=self.n_assigned,
            n_noise=self.n_noise,
            n_clusters=0 if self.model is None else self.model.n_clusters,
            n_dropped_lines=self.parser.report.n_lines_dropped,
        )

    @property
    def n_retained_bursts(self) -> int:
        """Bursts currently held across warmup + all reservoirs."""
        return self.warmup.n_retained + sum(
            r.n_retained for r in self.reservoirs.values()
        )

    def report(self) -> StreamReport:
        """Snapshot of the run so far."""
        return StreamReport(
            n_records=self.n_records,
            n_dropped_lines=self.parser.report.n_lines_dropped,
            n_bursts=self.n_bursts,
            n_assigned=self.n_assigned,
            n_noise=self.n_noise,
            n_clusters=0 if self.model is None else self.model.n_clusters,
            n_model_refreshes=self.n_model_refreshes,
            n_refits=self.n_refits,
            n_phase_changes=self.n_phase_changes,
            n_drift_events=self.n_drift_events,
            n_checkpoints=self.n_checkpoints,
            n_forced_emissions=self.assembler.forced_emissions,
            n_late_samples=self.assembler.late_samples,
            n_retained_bursts=self.n_retained_bursts,
            model_ready=self.model is not None,
            finalized=self.finalized,
        )

    # ------------------------------------------------------------------
    # follow loop
    # ------------------------------------------------------------------
    def follow(
        self,
        source: TraceTailSource,
        poll_interval: float = 0.2,
        idle_timeout: Optional[float] = None,
        max_seconds: Optional[float] = None,
        on_checkpoint: Optional[Callable[["StreamEngine", TraceTailSource], None]] = None,
        checkpoint_every: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> str:
        """Follow ``source`` until a stop condition; returns the reason.

        Reasons: ``"eof"`` (a stdin source closed), ``"idle"`` (no new
        bytes for ``idle_timeout`` seconds), ``"max_seconds"``, or
        ``"stopped"`` (``should_stop`` returned True — e.g. SIGINT).
        ``on_checkpoint`` fires every ``checkpoint_every`` seconds of
        wall time, between chunks (never mid-record).
        """
        start = time.monotonic()
        last_data = start
        last_checkpoint = start
        while True:
            got = 0
            for chunk in source.drain():
                got += len(chunk)
                self.process_text(chunk)
                if should_stop is not None and should_stop():
                    return "stopped"
            now = time.monotonic()
            if got:
                last_data = now
                # keep the live gauges fresh for mid-stream scrapes even
                # when the trace is smaller than PROGRESS_EVERY_RECORDS
                self._publish_progress()
            if should_stop is not None and should_stop():
                return "stopped"
            if source.at_eof:
                return "eof"
            if (
                on_checkpoint is not None
                and checkpoint_every is not None
                and now - last_checkpoint >= checkpoint_every
            ):
                on_checkpoint(self, source)
                last_checkpoint = now
            if idle_timeout is not None and now - last_data >= idle_timeout:
                return "idle"
            if max_seconds is not None and now - start >= max_seconds:
                return "max_seconds"
            time.sleep(poll_interval)

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def finalize(self, source: TraceTailSource) -> AnalysisResult:
        """Exact end-of-stream analysis of the completed trace.

        Flushes the online state (so the live counters are complete),
        then re-reads the whole file through the batch pipeline with
        ``config.analyzer`` — strict or salvage per ``config.salvage``.
        This is what makes the convergence guarantee hold: the result is
        the batch result, not an approximation of it.
        """
        for record in self.parser.finish():
            self.n_records += 1
            for burst in self.assembler.feed(record):
                self._ingest_burst(burst)
        for burst in self.assembler.flush():
            self._ingest_burst(burst)
        path = source.final_path()
        # The re-read runs under a *disabled* observability context: a
        # cold `repro analyze` (no sinks) produces a result with no
        # embedded profile, and live-watch span timestamps must not leak
        # into the result the convergence guarantee is defined over.
        with DISABLED.activate():
            if self.config.salvage:
                trace, salvage = read_trace_salvaged(path)
                result = FoldingAnalyzer(self.config.analyzer).analyze(
                    trace, salvage=salvage
                )
            else:
                trace = read_trace(path)
                result = FoldingAnalyzer(self.config.analyzer).analyze(trace)
        self.finalized = True
        publish(
            "stream_finalized",
            label="watch",
            n_records=self.n_records,
            n_bursts=self.n_bursts,
            n_clusters=len(result.clusters),
        )
        return result

    # ------------------------------------------------------------------
    # checkpoint state
    # ------------------------------------------------------------------
    def state_to_dict(self) -> Dict[str, object]:
        """Serializable snapshot of the complete engine state."""
        return {
            "config": self.config.to_dict(),
            "parser": self.parser.state_to_dict(),
            "assembler": self.assembler.state_to_dict(),
            "model": None if self.model is None else self.model.state_to_dict(),
            "rng": self.rng.bit_generator.state,
            "warmup": _reservoir_to_dict(self.warmup),
            "reservoirs": {
                str(cid): _reservoir_to_dict(r)
                for cid, r in self.reservoirs.items()
            },
            "drift": list(self.drift.outcomes),
            "clusters": {
                str(cid): state.to_dict() for cid, state in self.clusters.items()
            },
            "counters": {
                "n_records": self.n_records,
                "n_bursts": self.n_bursts,
                "n_assigned": self.n_assigned,
                "n_noise": self.n_noise,
                "n_model_refreshes": self.n_model_refreshes,
                "n_refits": self.n_refits,
                "n_phase_changes": self.n_phase_changes,
                "n_drift_events": self.n_drift_events,
                "n_checkpoints": self.n_checkpoints,
                "fit_attempt_at": self._fit_attempt_at,
                "started": self._started,
            },
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "StreamEngine":
        """Rebuild an engine from :meth:`state_to_dict` output."""
        engine = cls(StreamConfig.from_dict(state["config"]))  # type: ignore[arg-type]
        engine.parser = TraceParser.from_state(state["parser"])  # type: ignore[arg-type]
        engine.assembler = IncrementalBurstAssembler.from_state(state["assembler"])  # type: ignore[arg-type]
        if state["model"] is not None:
            engine.model = OnlineClusterModel.from_state(state["model"])  # type: ignore[arg-type]
        engine.rng.bit_generator.state = state["rng"]
        engine.warmup = _reservoir_from_dict(state["warmup"])  # type: ignore[arg-type]
        engine.reservoirs = {
            int(cid): _reservoir_from_dict(data)
            for cid, data in state["reservoirs"].items()  # type: ignore[union-attr]
        }
        for outcome in state["drift"]:  # type: ignore[union-attr]
            engine.drift.outcomes.append(bool(outcome))
        engine.clusters = {
            int(cid): _ClusterState.from_dict(data)
            for cid, data in state["clusters"].items()  # type: ignore[union-attr]
        }
        counters = state["counters"]
        engine.n_records = int(counters["n_records"])  # type: ignore[index]
        engine.n_bursts = int(counters["n_bursts"])  # type: ignore[index]
        engine.n_assigned = int(counters["n_assigned"])  # type: ignore[index]
        engine.n_noise = int(counters["n_noise"])  # type: ignore[index]
        engine.n_model_refreshes = int(counters["n_model_refreshes"])  # type: ignore[index]
        engine.n_refits = int(counters["n_refits"])  # type: ignore[index]
        engine.n_phase_changes = int(counters["n_phase_changes"])  # type: ignore[index]
        engine.n_drift_events = int(counters["n_drift_events"])  # type: ignore[index]
        engine.n_checkpoints = int(counters["n_checkpoints"])  # type: ignore[index]
        engine._fit_attempt_at = int(counters["fit_attempt_at"])  # type: ignore[index]
        engine._started = bool(counters["started"])  # type: ignore[index]
        return engine


def _reservoir_to_dict(reservoir: ClusterReservoir) -> Dict[str, object]:
    return {
        "capacity": reservoir.capacity,
        "max_samples_per_burst": reservoir.max_samples_per_burst,
        "n_seen": reservoir.n_seen,
        "items": [burst_to_dict(b) for b in reservoir.items],
    }


def _reservoir_from_dict(data: Dict[str, object]) -> ClusterReservoir:
    reservoir = ClusterReservoir(
        capacity=int(data["capacity"]),
        max_samples_per_burst=int(data["max_samples_per_burst"]),
    )
    reservoir.n_seen = int(data["n_seen"])
    reservoir.items = [burst_from_dict(b) for b in data["items"]]  # type: ignore[union-attr]
    return reservoir
