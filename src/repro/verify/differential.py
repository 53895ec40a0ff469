"""Differential runner: optimized stages vs their scalar oracles.

Each *suite* pits one optimized path against an independent reference —
a scalar oracle from :mod:`repro.verify.oracles`, a forced alternate
backend, or a second execution mode (cached/resumed) — over the seeded
corpora in :mod:`repro.verify.corpus`, and reports every disagreement
beyond the suite's documented tolerance as a structured
:class:`Divergence` carrying the stage, seed, max abs/ulp delta, and
the exact command that replays it.

Bit-exact suites (tolerance zero): fold arrays, DBSCAN labels (both
grid-vs-blocked and vs the scalar oracle on fp-safe corpora), predict/
slope_at, BIC/AIC, boundary matching, cached, and resumed results.
Tolerance suites (different algorithms for the same math): least-squares
coefficients, eps estimation, and the fold's mean
statistics — each tolerance is justified in ``docs/VERIFICATION.md``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FoldingError, VerificationError

__all__ = [
    "Divergence",
    "SuiteResult",
    "SelftestReport",
    "SelftestContext",
    "available_suites",
    "run_selftest",
]


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Divergence:
    """One optimized-vs-reference disagreement."""

    suite: str
    case: str
    seed: int
    detail: str
    max_abs_delta: float = float("nan")
    max_ulp_delta: float = float("nan")

    @property
    def repro(self) -> str:
        """Command that replays exactly this comparison."""
        return (
            f"PYTHONPATH=src python -m repro selftest "
            f"--suite {self.suite} --seed {self.seed}"
        )

    def render(self) -> str:
        deltas = ""
        if np.isfinite(self.max_abs_delta) or np.isfinite(self.max_ulp_delta):
            deltas = (
                f" [max abs {self.max_abs_delta:.3e}, "
                f"max ulp {self.max_ulp_delta:.1f}]"
            )
        return (
            f"DIVERGENCE {self.suite}/{self.case} (seed {self.seed}): "
            f"{self.detail}{deltas}\n    repro: {self.repro}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "case": self.case,
            "seed": self.seed,
            "detail": self.detail,
            "max_abs_delta": self.max_abs_delta,
            "max_ulp_delta": self.max_ulp_delta,
            "repro": self.repro,
        }


@dataclass
class SuiteResult:
    name: str
    n_cases: int
    duration_s: float
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class SelftestReport:
    mode: str
    seed: int
    suites: List[SuiteResult] = field(default_factory=list)

    @property
    def divergences(self) -> List[Divergence]:
        return [d for s in self.suites for d in s.divergences]

    @property
    def ok(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        lines = [f"selftest ({self.mode}, seed {self.seed})"]
        width = max((len(s.name) for s in self.suites), default=8)
        for s in self.suites:
            status = "ok" if s.ok else f"{len(s.divergences)} DIVERGENT"
            lines.append(
                f"  {s.name:<{width}}  {s.n_cases:>4} cases  "
                f"{s.duration_s:>7.2f}s  {status}"
            )
        for d in self.divergences:
            lines.append(d.render())
        verdict = "PASS" if self.ok else f"FAIL ({len(self.divergences)} divergences)"
        lines.append(
            f"{len(self.suites)} suites, "
            f"{sum(s.n_cases for s in self.suites)} cases: {verdict}"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": "repro-selftest/1",
            "mode": self.mode,
            "seed": self.seed,
            "ok": self.ok,
            "suites": [
                {
                    "name": s.name,
                    "n_cases": s.n_cases,
                    "duration_s": s.duration_s,
                    "divergences": [d.to_dict() for d in s.divergences],
                }
                for s in self.suites
            ],
        }


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------
def _ulp_delta(got: np.ndarray, want: np.ndarray) -> float:
    """Largest disagreement in units of the last place (NaN-pairs = 0)."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    both_nan = np.isnan(got) & np.isnan(want)
    diff = np.abs(got - want)
    scale = np.spacing(np.maximum(np.abs(got), np.abs(want)))
    with np.errstate(invalid="ignore", divide="ignore"):
        ulps = np.where(both_nan, 0.0, diff / scale)
    ulps = ulps[np.isfinite(ulps)]
    return float(ulps.max()) if ulps.size else float("inf")


def _compare_arrays(
    suite: str,
    case: str,
    seed: int,
    label: str,
    got,
    want,
    rtol: float = 0.0,
    atol: float = 0.0,
) -> Optional[Divergence]:
    """None when ``got`` matches ``want``; a Divergence otherwise.

    ``rtol == atol == 0`` demands bit-exact equality (NaN == NaN).
    """
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return Divergence(
            suite, case, seed,
            f"{label}: shape {got.shape} != {want.shape}",
        )
    if rtol == 0.0 and atol == 0.0:
        same = np.array_equal(got, want, equal_nan=True)
    else:
        same = np.allclose(got, want, rtol=rtol, atol=atol, equal_nan=True)
    if same:
        return None
    both_nan = np.isnan(got) & np.isnan(want)
    diff = np.abs(np.where(both_nan, 0.0, got - want))
    finite = diff[np.isfinite(diff)]
    max_abs = float(finite.max()) if finite.size else float("inf")
    return Divergence(
        suite, case, seed,
        f"{label}: values differ beyond tolerance "
        f"(rtol={rtol:g}, atol={atol:g})",
        max_abs_delta=max_abs,
        max_ulp_delta=_ulp_delta(got, want),
    )


def _compare_exact(
    suite: str, case: str, seed: int, label: str, got, want
) -> Optional[Divergence]:
    if got != want:
        return Divergence(suite, case, seed, f"{label}: {got!r} != {want!r}")
    return None


# ----------------------------------------------------------------------
# suite registry + shared context
# ----------------------------------------------------------------------
_SUITES: Dict[str, Callable[["SelftestContext"], Tuple[int, List[Divergence]]]] = {}


def _suite(name: str):
    def register(fn):
        _SUITES[name] = fn
        return fn

    return register


def available_suites() -> List[str]:
    return sorted(_SUITES)


class SelftestContext:
    """Per-run state: seed, scale, and lazily-built expensive artifacts.

    The trace files and the serial analysis result are shared across the
    integration suites (cache/resume/roundtrip) so the harness
    pays for them once.
    """

    def __init__(self, seed: int, full: bool, workdir: str) -> None:
        self.seed = seed
        self.full = full
        self.workdir = workdir
        self._trace_paths: Optional[List[str]] = None
        self._serial_json: Optional[str] = None

    def trace_paths(self) -> List[str]:
        if self._trace_paths is None:
            from repro.verify.corpus import write_case_traces

            self._trace_paths = write_case_traces(
                self.seed, os.path.join(self.workdir, "traces"), n=2
            )
        return self._trace_paths

    def serial_result_json(self) -> str:
        """Canonical JSON of the serial analysis of trace 0."""
        if self._serial_json is None:
            from repro.analysis.pipeline import FoldingAnalyzer
            from repro.store.serialize import result_to_json
            from repro.trace.reader import read_trace

            trace = read_trace(self.trace_paths()[0])
            result = FoldingAnalyzer().analyze(trace)
            self._serial_json = result_to_json(result)
        return self._serial_json


# ----------------------------------------------------------------------
# stage suites
# ----------------------------------------------------------------------
@_suite("bursts")
def _suite_bursts(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """Burst extraction vs the whole-rank oracle scan, in three feed
    orders of the one assembler: rank by rank (the batch order, both
    driven here and through ``extract_bursts``), time-interleaved (the
    live order), and time-interleaved with a JSON checkpoint resume
    halfway.  Bursts (bounds, counters, attached samples in order) and
    mispaired counts must be exact, the batch order must come out in
    ``(rank, index)`` order, and the first two orders must emit no burst
    early."""
    from repro.clustering.bursts import IncrementalBurstAssembler, extract_bursts
    from repro.errors import ClusteringError
    from repro.stream.engine import MAX_PENDING_BURSTS
    from repro.verify.corpus import burst_traces
    from repro.verify.oracles import oracle_extract_bursts

    def signature(bursts) -> list:
        return [
            (
                b.rank, b.index, b.t_start, b.t_end,
                sorted(b.start_counters.items()),
                sorted(b.end_counters.items()),
                [(s.rank, s.time, sorted(s.counters.items()), tuple(s.frames))
                 for s in b.samples],
            )
            for b in bursts
        ]

    def feed(assembler, records) -> list:
        out = []
        for record in records:
            out.extend(assembler.feed(record))
        return out

    def by_rank(bursts) -> list:
        # live orders interleave ranks; the batch orders must not
        return sorted(bursts, key=lambda b: (b.rank, b.index))

    out: List[Divergence] = []
    n_cases = 0
    for case in burst_traces(ctx.seed, ctx.trace_paths(), ctx.full):
        trace, cut = case.trace, case.min_duration
        want_mispaired: Dict[int, int] = {}
        want = signature(oracle_extract_bursts(trace, cut, want_mispaired))

        got_mispaired: Dict[int, int] = {}
        try:
            got = signature(extract_bursts(trace, cut, got_mispaired))
        except ClusteringError:
            got = []
        results = [("extract_bursts", got, got_mispaired, 0)]

        batch = IncrementalBurstAssembler(cut, max_pending=len(trace.instrumentation))
        emitted = []
        for rank in range(trace.n_ranks):
            emitted += feed(batch, trace.instrumentation_of(rank))
            emitted += feed(batch, trace.samples_of(rank))
            emitted += batch.flush()
        results.append(
            ("per-rank", signature(emitted), batch.mispaired, batch.forced_emissions)
        )

        records = sorted(
            list(trace.instrumentation) + list(trace.samples), key=lambda r: r.time
        )
        live = IncrementalBurstAssembler(cut, max_pending=MAX_PENDING_BURSTS)
        emitted = feed(live, records) + live.flush()
        results.append(
            ("interleaved", signature(by_rank(emitted)), live.mispaired,
             live.forced_emissions)
        )

        half = len(records) // 2
        first = IncrementalBurstAssembler(cut, max_pending=MAX_PENDING_BURSTS)
        emitted = feed(first, records[:half])
        resumed = IncrementalBurstAssembler.from_state(
            json.loads(json.dumps(first.state_to_dict()))
        )
        emitted += feed(resumed, records[half:]) + resumed.flush()
        # the resumed run forces exactly what the uninterrupted one did
        results.append(
            ("resumed", signature(by_rank(emitted)), resumed.mispaired,
             resumed.forced_emissions - live.forced_emissions)
        )
        if resumed.state_to_dict() != live.state_to_dict():
            out.append(
                Divergence(
                    "bursts", f"{case.name}.resumed", ctx.seed,
                    "final assembler state differs from the uninterrupted run",
                )
            )

        for order, bursts, mispaired, forced in results:
            n_cases += 1
            label = f"{case.name}.{order}"
            d = (
                _compare_exact("bursts", label, ctx.seed, "n bursts", len(bursts), len(want))
                or _compare_exact(
                    "bursts", label, ctx.seed, "mispaired", dict(mispaired), want_mispaired
                )
                or _compare_exact("bursts", label, ctx.seed, "forced emissions", forced, 0)
            )
            if d is None and bursts != want:
                first_bad = next(
                    i for i, (g, w) in enumerate(zip(bursts, want)) if g != w
                )
                d = Divergence(
                    "bursts", label, ctx.seed,
                    f"burst {want[first_bad][:2]} differs from the oracle",
                )
            if d:
                out.append(d)
    return n_cases, out


@_suite("fold")
def _suite_fold(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """Vectorized fold_cluster vs the per-burst scalar oracle.

    Arrays must match bit-for-bit (same elementwise arithmetic, same
    stable ordering); the mean statistics carry a tiny tolerance because
    numpy's pairwise summation and the oracle's running sum associate
    differently.
    """
    from repro.folding.fold import fold_cluster
    from repro.verify.corpus import burst_clusters
    from repro.verify.oracles import oracle_fold_cluster

    out: List[Divergence] = []
    cases = burst_clusters(ctx.seed, ctx.full)
    for case in cases:
        drops: Dict[str, str] = {}
        try:
            folded = fold_cluster(
                case.instances,
                case.counters,
                min_points=case.min_points,
                required=case.required,
                drops=drops,
            )
            raised = False
        except FoldingError:
            raised = True
        try:
            oracle, oracle_drops = oracle_fold_cluster(
                case.instances,
                case.counters,
                min_points=case.min_points,
                required=case.required,
            )
            oracle_raised = False
        except VerificationError:
            oracle_raised = True
        if case.expect_error or raised or oracle_raised:
            if raised != oracle_raised:
                out.append(
                    Divergence(
                        "fold", case.name, ctx.seed,
                        f"raise mismatch: optimized={raised} oracle={oracle_raised}",
                    )
                )
            continue
        d = _compare_exact(
            "fold", case.name, ctx.seed, "folded counters",
            sorted(folded), sorted(oracle),
        ) or _compare_exact(
            "fold", case.name, ctx.seed, "dropped counters",
            sorted(drops), sorted(oracle_drops),
        )
        if d:
            out.append(d)
            continue
        for counter, fc in folded.items():
            ref = oracle[counter]
            for label, got, want, rtol, atol in (
                ("x", fc.x, ref.x, 0.0, 0.0),
                ("y", fc.y, ref.y, 0.0, 0.0),
                ("instance_ids", fc.instance_ids, ref.instance_ids, 0.0, 0.0),
                ("mean_duration", fc.mean_duration, ref.mean_duration, 1e-12, 0.0),
                ("mean_total", fc.mean_total, ref.mean_total, 1e-12, 0.0),
            ):
                d = _compare_arrays(
                    "fold", case.name, ctx.seed, f"{counter}.{label}",
                    got, want, rtol=rtol, atol=atol,
                )
                if d:
                    out.append(d)
            d = _compare_exact(
                "fold", case.name, ctx.seed, f"{counter}.n_instances",
                fc.n_instances, ref.n_instances,
            )
            if d:
                out.append(d)
    return len(cases), out


@_suite("filters")
def _suite_filters(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """enforce_instance_monotonicity's segmented running max vs the
    scalar per-instance scan — keep-masks bit-exact, on the folded burst
    corpora and on adversarial y / instance layouts."""
    from repro.folding.filtering import enforce_instance_monotonicity
    from repro.folding.fold import FoldedCounter, fold_cluster
    from repro.verify.corpus import burst_clusters, monotonicity_cases
    from repro.verify.oracles import oracle_instance_monotonicity

    inputs = [
        (case.name, case.y, case.instance_ids, case.tolerance)
        for case in monotonicity_cases(ctx.seed, ctx.full)
    ]
    for case in burst_clusters(ctx.seed, ctx.full):
        if case.expect_error:
            continue
        folded = fold_cluster(
            case.instances, case.counters,
            min_points=case.min_points, required=case.required,
        )
        for counter, fc in folded.items():
            inputs.append((f"{case.name}.{counter}", fc.y, fc.instance_ids, 1e-9))
    out: List[Divergence] = []
    for name, y, ids, tolerance in inputs:
        # Unique x values make the kept x identify the keep-mask exactly.
        x = np.arange(y.size, dtype=float)
        folded = FoldedCounter(
            "c", x, y, ids, n_instances=1, mean_duration=1.0, mean_total=1.0
        )
        kept, report = enforce_instance_monotonicity(folded, tolerance=tolerance)
        want = np.asarray(
            oracle_instance_monotonicity(y.tolist(), ids.tolist(), tolerance), dtype=bool
        )
        d = _compare_arrays(
            "filters", name, ctx.seed, "kept positions", kept.x, x[want]
        ) or _compare_exact(
            "filters", name, ctx.seed, "n_dropped", report.n_dropped, int(np.sum(~want))
        )
        if d:
            out.append(d)
    return len(inputs), out


@_suite("pwlr_lstsq")
def _suite_pwlr_lstsq(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """fit_fixed_breakpoints (lstsq / scipy nnls) vs normal equations +
    Lawson–Hanson.  Different solvers for the same convex problem:
    coefficients agree to solver tolerance, the optimal SSE tighter."""
    from repro.fitting.pwlr import fit_fixed_breakpoints
    from repro.verify.corpus import pwl_datasets
    from repro.verify.oracles import oracle_fit_fixed_breakpoints

    out: List[Divergence] = []
    cases = pwl_datasets(ctx.seed, ctx.full)
    for case in cases:
        model = fit_fixed_breakpoints(
            case.x, case.y, case.breakpoints,
            anchor=case.anchor, monotone=case.monotone,
        )
        intercept, slopes, sse = oracle_fit_fixed_breakpoints(
            case.x, case.y, case.breakpoints,
            anchor=case.anchor, monotone=case.monotone,
        )
        for label, got, want, rtol, atol in (
            ("intercept", model.intercept, intercept, 1e-5, 1e-7),
            ("slopes", model.slopes, slopes, 1e-5, 1e-6),
            ("sse", model.sse, sse, 1e-6, 1e-9),
        ):
            d = _compare_arrays(
                "pwlr_lstsq", case.name, ctx.seed, label, got, want,
                rtol=rtol, atol=atol,
            )
            if d:
                out.append(d)
    return len(cases), out


@_suite("pwlr_search")
def _suite_pwlr_search(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """Moments SSE ranking vs the dense least-squares oracle, step by step.

    ``fit_pwlr`` ranks every grid insertion on the moments SSE array.  At
    each greedy step of the real search on every corpus case, the scalar
    normal-equations oracle scores the same trials (unconstrained, as the
    search ranks them) and its argmin must be the configuration the search
    picked.  Two picks whose oracle SSEs differ by at most 1e-12 * sum(y^2)
    are a tie below the roundoff of either evaluator and agree.  Trials
    whose normal equations are singular (a segment holding no data) are
    outside the oracle's domain and are left out of its ranking; a step
    whose pick is such a trial cannot be judged and is skipped.
    """
    from unittest import mock

    from repro.errors import VerificationError
    from repro.fitting import pwlr
    from repro.verify.corpus import pwl_datasets
    from repro.verify.oracles import oracle_fit_fixed_breakpoints

    out: List[Divergence] = []
    cases = pwl_datasets(ctx.seed, ctx.full)
    for case in cases:
        steps: List[Tuple[List[float], np.ndarray, float, List[float]]] = []
        search_step = pwlr._best_addition

        def recording_step(evaluator, current, grid, min_sep):
            picked = search_step(evaluator, current, grid, min_sep)
            if picked is not None:
                steps.append((list(current), grid, min_sep, picked[0]))
            return picked

        cfg = pwlr.PWLRConfig(anchor=case.anchor, monotone=case.monotone)
        with mock.patch.object(pwlr, "_best_addition", recording_step):
            pwlr.fit_pwlr(case.x, case.y, config=cfg)
        tie = 1e-12 * float(np.dot(case.y, case.y))
        for current, grid, min_sep, picked in steps:
            trials = pwlr._addition_trials(current, grid, min_sep)
            oracle_sse = np.full(len(trials), np.inf)
            for i, trial in enumerate(trials):
                try:
                    oracle_sse[i] = oracle_fit_fixed_breakpoints(
                        case.x, case.y, trial, anchor=case.anchor, monotone=False
                    )[2]
                except VerificationError:
                    continue
            pick = trials.index(picked)
            if not np.isfinite(oracle_sse[pick]):
                continue
            best = int(np.argmin(oracle_sse))
            if oracle_sse[pick] - oracle_sse[best] > tie:
                out.append(
                    Divergence(
                        "pwlr_search", case.name, ctx.seed,
                        f"step {len(current)}: search picked {picked} "
                        f"(oracle SSE {float(oracle_sse[pick])!r}), oracle "
                        f"argmin {trials[best]} (SSE {float(oracle_sse[best])!r})",
                        max_abs_delta=float(oracle_sse[pick] - oracle_sse[best]),
                    )
                )
    return len(cases), out


@_suite("predict")
def _suite_predict(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """Vectorized predict/slope_at vs the scalar segment walk — bit-exact
    (both accumulate segment areas left to right), probed exactly at the
    breakpoint abscissae and outside [0, 1]."""
    from repro.verify.corpus import random_models
    from repro.verify.oracles import oracle_predict, oracle_slope_at

    rng = np.random.default_rng(ctx.seed + 1)
    out: List[Divergence] = []
    models = random_models(ctx.seed, ctx.full)
    for idx, model in enumerate(models):
        probes = np.concatenate([
            model.breakpoints,
            np.nextafter(model.breakpoints, -np.inf),
            np.nextafter(model.breakpoints, np.inf),
            [0.0, 1.0, -0.5, 1.5, np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0)],
            rng.uniform(-0.2, 1.2, size=40),
        ])
        got_y = model.predict(probes)
        got_s = model.slope_at(probes)
        want_y = [oracle_predict(model, float(p)) for p in probes]
        want_s = [oracle_slope_at(model, float(p)) for p in probes]
        name = f"model{idx}"
        for label, got, want in (("predict", got_y, want_y), ("slope_at", got_s, want_s)):
            d = _compare_arrays("predict", name, ctx.seed, label, got, want)
            if d:
                out.append(d)
        # scalar-call path must agree with the vectorized one
        scalar_y = [model.predict(float(p)) for p in probes]
        d = _compare_arrays("predict", name, ctx.seed, "scalar predict", scalar_y, got_y)
        if d:
            out.append(d)
    return len(models), out


@_suite("bic")
def _suite_bic(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """Model-selection criteria vs the formula written out — bit-exact."""
    from repro.fitting.model_selection import aic, bic
    from repro.verify.oracles import oracle_aic, oracle_bic

    rng = np.random.default_rng(ctx.seed + 2)
    out: List[Divergence] = []
    n_cases = 200 if ctx.full else 60
    for i in range(n_cases):
        sse = float(rng.choice([0.0, 1e-30, rng.uniform(1e-9, 1e4)]))
        n = int(rng.integers(1, 10_000))
        p = int(rng.integers(0, 40))
        for label, got, want in (
            ("bic", bic(sse, n, p), oracle_bic(sse, n, p)),
            ("aic", aic(sse, n, p), oracle_aic(sse, n, p)),
        ):
            d = _compare_arrays("bic", f"case{i}", ctx.seed, label, got, want)
            if d:
                out.append(d)
    return n_cases, out


@_suite("match")
def _suite_match(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """match_boundaries' dynamic program vs exhaustive enumeration."""
    from repro.phases.compare import match_boundaries
    from repro.verify.corpus import boundary_sets
    from repro.verify.oracles import oracle_match_boundaries

    out: List[Divergence] = []
    cases = boundary_sets(ctx.seed, ctx.full)
    for case in cases:
        score = match_boundaries(case.detected, case.truth, case.tolerance)
        n_matched, total = oracle_match_boundaries(
            case.detected, case.truth, case.tolerance
        )
        d = _compare_exact(
            "match", case.name, ctx.seed, "n_matched", score.n_matched, n_matched
        )
        if d:
            out.append(d)
            continue
        if n_matched:
            d = _compare_arrays(
                "match", case.name, ctx.seed, "total_error",
                score.mean_abs_error * score.n_matched, total,
                rtol=1e-12, atol=1e-12,
            )
            if d:
                out.append(d)
        elif not np.isnan(score.mean_abs_error):
            out.append(
                Divergence(
                    "match", case.name, ctx.seed,
                    f"mean_abs_error must be NaN with 0 matches, "
                    f"got {score.mean_abs_error!r}",
                )
            )
    return len(cases), out


@_suite("dbscan_backends")
def _suite_dbscan_backends(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """Grid vs blocked neighborhood backends — byte-identical labels,
    including the cell-edge geometry where distances equal eps exactly."""
    from repro.clustering.dbscan import DBSCAN
    from repro.verify.corpus import (
        grid_edge_cloud,
        grid_table_clouds,
        point_clouds,
        stride_overflow_cloud,
    )

    out: List[Divergence] = []
    overflow = stride_overflow_cloud(ctx.seed)
    cases = (
        point_clouds(ctx.seed, ctx.full)
        + [grid_edge_cloud(ctx.seed)]
        + grid_table_clouds(ctx.seed)
        + [overflow]
    )
    for case in cases:
        # The overflow geometry cannot be gridded: "auto" must fall back.
        index = "auto" if case is overflow else "grid"
        fast = DBSCAN(case.eps, min_pts=case.min_pts, index=index)
        labels = fast.fit(case.points).labels
        blocked = DBSCAN(case.eps, min_pts=case.min_pts, index="blocked").fit(case.points)
        d = _compare_arrays(
            "dbscan_backends", case.name, ctx.seed, "labels",
            labels, blocked.labels,
        ) or _compare_exact(
            "dbscan_backends", case.name, ctx.seed, "backend used",
            fast._last_index_used, "blocked" if case is overflow else "grid",
        )
        if d:
            out.append(d)
    return len(cases), out


@_suite("dbscan_oracle")
def _suite_dbscan_oracle(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """DBSCAN vs the textbook scalar implementation — exact labels on
    corpora whose eps sits mid-gap in the distance distribution (the two
    sides measure distance with different arithmetic; see VERIFICATION)."""
    from repro.clustering.dbscan import DBSCAN
    from repro.verify.corpus import point_clouds
    from repro.verify.oracles import oracle_dbscan

    out: List[Divergence] = []
    cases = point_clouds(ctx.seed, ctx.full)
    for case in cases:
        got = DBSCAN(case.eps, min_pts=case.min_pts, index="blocked").fit(case.points)
        want = oracle_dbscan(case.points, case.eps, case.min_pts)
        d = _compare_arrays(
            "dbscan_oracle", case.name, ctx.seed, "labels", got.labels, want
        )
        if d:
            out.append(d)
    return len(cases), out


@_suite("eps")
def _suite_eps(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """estimate_eps (norms-identity k-dist + np.quantile) vs the naive
    quadratic scan + scalar quantile — tolerance for the fp differences
    between the two distance formulations."""
    from repro.clustering.dbscan import _kdist_grid, _kdist_rows, estimate_eps
    from repro.verify.corpus import (
        grid_table_clouds,
        point_clouds,
        stride_overflow_cloud,
    )
    from repro.verify.oracles import oracle_estimate_eps

    out: List[Divergence] = []
    cases = point_clouds(ctx.seed, ctx.full)
    for case in cases:
        got = estimate_eps(case.points, k=4)
        want = oracle_estimate_eps(case.points, k=4)
        d = _compare_arrays(
            "eps", case.name, ctx.seed, "eps", got, want, rtol=1e-6, atol=1e-9
        )
        if d:
            out.append(d)
    # Grid-table geometries, large enough for the grid k-dist path and too
    # large for the scalar oracle: every point's grid k-dist vs the blocked
    # full-row scan (itself checked against the oracle above).
    overflow = stride_overflow_cloud(ctx.seed)
    grid_cases = grid_table_clouds(ctx.seed) + [overflow]
    for case in grid_cases:
        points = case.points
        norms = np.einsum("ij,ij->i", points, points)
        want = _kdist_rows(points, norms, 4, np.arange(len(points), dtype=np.intp))
        got = _kdist_grid(points, norms, 4)
        if case is overflow:
            d = _compare_exact(
                "eps", case.name, ctx.seed, "grid k-dist refused", got is None, True
            ) or _compare_exact(
                "eps", case.name, ctx.seed, "eps",
                estimate_eps(points, k=4), float(np.quantile(want, 0.95)) * 3.0,
            )
        elif got is None:
            d = Divergence("eps", case.name, ctx.seed, "grid k-dist path not taken")
        else:
            d = _compare_arrays(
                "eps", case.name, ctx.seed, "k-dist", got, want, rtol=1e-6, atol=1e-9
            )
        if d:
            out.append(d)
    return len(cases) + len(grid_cases), out


# ----------------------------------------------------------------------
# integration suites
# ----------------------------------------------------------------------
@_suite("roundtrip")
def _suite_roundtrip(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """to_dict/from_dict idempotence on a real result, on one carrying
    NaN/inf diagnostic context values, and on one with zero slopes."""
    import dataclasses

    from repro.resilience.diagnostics import DiagnosticEvent, Diagnostics, Severity
    from repro.store.serialize import result_from_json, result_to_json

    out: List[Divergence] = []
    base_json = ctx.serial_result_json()

    def check(name: str, text: str) -> None:
        again = result_to_json(result_from_json(text))
        if again != text:
            for i, (a, b) in enumerate(zip(text, again)):
                if a != b:
                    break
            else:
                i = min(len(text), len(again))
            out.append(
                Divergence(
                    "roundtrip", name, ctx.seed,
                    f"re-encoded JSON differs at byte {i}: "
                    f"{text[max(0, i - 30):i + 30]!r} vs "
                    f"{again[max(0, i - 30):i + 30]!r}",
                )
            )

    check("real_result", base_json)

    # NaN/inf diagnostic context values, scalar and inside containers.
    result = result_from_json(base_json)
    hostile = Diagnostics(
        events=list(result.diagnostics)
        + [
            DiagnosticEvent(
                severity=Severity.WARNING,
                stage="verify",
                message="synthetic non-finite context",
                context={
                    "rate": float("nan"),
                    "limit": float("inf"),
                    "window": (float("nan"), 1.0),
                    "nested": {1: (float("-inf"), 0.0)},
                },
            )
        ]
    )
    hostile_result = dataclasses.replace(result, diagnostics=hostile)
    check("nonfinite_diagnostics", result_to_json(hostile_result))

    # Zero-slope segments through the artifact schema.
    data = json.loads(base_json)
    zeroed = 0
    for cluster in data.get("clusters", []):
        model = cluster.get("model")
        if model and model.get("slopes"):
            model["slopes"] = [0.0] * len(model["slopes"])
            zeroed += 1
    if zeroed:
        from repro.store.serialize import result_from_dict

        check("zero_slopes", result_to_json(result_from_dict(data)))
    return 3, out


@_suite("cache")
def _suite_cache(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """Cached store hit vs fresh analysis — same fingerprint, hit flag
    set, byte-identical result JSON."""
    from repro.store import ResultStore
    from repro.store.cache import analyze_cached
    from repro.store.serialize import result_to_json

    store = ResultStore(os.path.join(ctx.workdir, "cache-store"))
    path = ctx.trace_paths()[0]
    cold = analyze_cached(path, store)
    warm = analyze_cached(path, store)
    out: List[Divergence] = []
    if cold.cache_hit:
        out.append(Divergence("cache", "cold", ctx.seed, "first call reported a hit"))
    if not warm.cache_hit:
        out.append(Divergence("cache", "warm", ctx.seed, "second call missed the cache"))
    if cold.fingerprint != warm.fingerprint:
        out.append(
            Divergence(
                "cache", "fingerprint", ctx.seed,
                f"fingerprint changed: {cold.fingerprint[:12]} != {warm.fingerprint[:12]}",
            )
        )
    if result_to_json(warm.result) != result_to_json(cold.result):
        out.append(
            Divergence(
                "cache", "payload", ctx.seed,
                "cached result JSON differs from the fresh analysis",
            )
        )
    return 1, out


@_suite("resume")
def _suite_resume(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """A batch interrupted after its first job and resumed must leave the
    store with exactly the artifacts of an uninterrupted run."""
    from repro.service import BatchConfig, JobSpec, run_batch
    from repro.store import ResultStore
    from repro.store.serialize import result_to_json

    paths = ctx.trace_paths()
    specs = [JobSpec(p) for p in paths]
    config = BatchConfig(ledger=False)

    oneshot_root = os.path.join(ctx.workdir, "resume-oneshot")
    resumed_root = os.path.join(ctx.workdir, "resume-interrupted")
    for root in (oneshot_root, resumed_root):
        shutil.rmtree(root, ignore_errors=True)

    oneshot = ResultStore(oneshot_root)
    run_batch(specs, oneshot, config)

    resumed = ResultStore(resumed_root)
    run_batch(specs[:1], resumed, config)  # "interrupted" after job 1
    run_batch(specs, resumed, BatchConfig(ledger=False, resume=True))

    out: List[Divergence] = []
    a, b = sorted(oneshot.fingerprints()), sorted(resumed.fingerprints())
    if a != b:
        out.append(
            Divergence(
                "resume", "fingerprints", ctx.seed,
                f"store contents differ: {len(a)} vs {len(b)} artifacts",
            )
        )
        return 1, out
    for fingerprint in a:
        got = result_to_json(resumed.get(fingerprint))
        want = result_to_json(oneshot.get(fingerprint))
        if got != want:
            out.append(
                Divergence(
                    "resume", fingerprint[:12], ctx.seed,
                    "resumed artifact differs from the uninterrupted run",
                )
            )
    return 1, out


@_suite("stream")
def _suite_stream(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """Streamed chunk-at-a-time analysis vs cold batch analyze — the
    finalized result JSON must be byte-identical, on clean traces
    (strict) and on adversarially corrupted ones (salvage vs salvage).
    The live parser's salvage report must also equal the batch one,
    field for field."""
    from repro.analysis.pipeline import FoldingAnalyzer
    from repro.resilience.inject import CorruptionSpec, corrupt_trace_text
    from repro.store.serialize import result_to_json
    from repro.stream.engine import StreamConfig, StreamEngine
    from repro.stream.source import TraceTailSource
    from repro.trace.reader import read_trace, read_trace_salvaged

    out: List[Divergence] = []
    n_cases = 0

    def run_stream(path: str, salvage: bool, chunk: int) -> Tuple[str, dict]:
        engine = StreamEngine(StreamConfig(salvage=salvage))
        source = TraceTailSource(path, chunk_size=chunk)
        for text in source.drain():
            engine.process_text(text)
        result = engine.finalize(source)
        return result_to_json(result), asdict(engine.parser.report)

    # clean traces, strict finalization, torn-tail-inducing chunk sizes
    # (quick mode keeps one odd chunk size per trace; full adds a big one)
    chunks = (997, 1 << 16) if ctx.full else (997,)
    for i, path in enumerate(ctx.trace_paths()):
        for chunk in chunks:
            n_cases += 1
            got, _ = run_stream(path, salvage=False, chunk=chunk)
            want = result_to_json(FoldingAnalyzer().analyze(read_trace(path)))
            if got != want:
                out.append(
                    Divergence(
                        "stream", f"clean{i}-chunk{chunk}", ctx.seed,
                        "finalized stream result differs from batch analyze",
                    )
                )

    # adversarial corpus, salvage on both sides
    base = open(ctx.trace_paths()[0], encoding="utf-8").read()
    corruptions = [
        ("torn", [CorruptionSpec("truncate", 0.03)]),
        ("mixed", [
            CorruptionSpec("bitflip_fields", 0.03),
            CorruptionSpec("duplicate_records", 0.05),
            CorruptionSpec("nan_counters", 0.02),
            CorruptionSpec("truncate", 0.01),
        ]),
    ]
    if ctx.full:
        corruptions += [
            ("bitflip", [CorruptionSpec("bitflip_fields", 0.05)]),
            ("dup", [CorruptionSpec("duplicate_records", 0.10)]),
        ]
    for name, specs in corruptions:
        n_cases += 1
        bad = corrupt_trace_text(base, specs, seed=ctx.seed)
        path = os.path.join(ctx.workdir, f"stream-{name}.rpt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(bad)
        got, got_report = run_stream(path, salvage=True, chunk=1013)
        trace, report = read_trace_salvaged(path)
        want = result_to_json(FoldingAnalyzer().analyze(trace, salvage=report))
        if got != want:
            out.append(
                Divergence(
                    "stream", name, ctx.seed,
                    "salvage stream result differs from batch salvage analyze",
                )
            )
        want_report = asdict(report)
        if got_report != want_report:
            fields = sorted(
                key for key in want_report if got_report[key] != want_report[key]
            )
            out.append(
                Divergence(
                    "stream", f"{name}-report", ctx.seed,
                    f"live salvage report differs from batch in {fields}",
                )
            )
    return n_cases, out


@_suite("stream_resume")
def _suite_stream_resume(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    """A stream checkpointed mid-file and resumed in a fresh engine must
    finalize to the byte-identical result AND identical live counters of
    an uninterrupted stream."""
    from repro.store.serialize import result_to_json
    from repro.stream.checkpoint import resume_engine, save_checkpoint
    from repro.stream.engine import StreamConfig, StreamEngine
    from repro.stream.source import TraceTailSource

    path = ctx.trace_paths()[0]
    chunk = 2048

    straight = StreamEngine(StreamConfig())
    source = TraceTailSource(path, chunk_size=chunk)
    for text in source.drain():
        straight.process_text(text)
    want = result_to_json(straight.finalize(source))
    want_report = straight.report().to_dict()

    interrupted = StreamEngine(StreamConfig())
    source = TraceTailSource(path, chunk_size=chunk)
    for _ in range(5):
        interrupted.process_text(source.read_available())
    ckpt = os.path.join(ctx.workdir, "stream-resume.ckpt")
    save_checkpoint(ckpt, interrupted, source)
    del interrupted, source

    resumed, source = resume_engine(ckpt, path)
    for text in source.drain():
        resumed.process_text(text)
    got = result_to_json(resumed.finalize(source))
    got_report = resumed.report().to_dict()

    out: List[Divergence] = []
    if got != want:
        out.append(
            Divergence(
                "stream_resume", "result", ctx.seed,
                "resumed stream result differs from the uninterrupted run",
            )
        )
    if got_report != want_report:
        diffs = {
            key for key in want_report
            if got_report.get(key) != want_report[key]
        }
        out.append(
            Divergence(
                "stream_resume", "counters", ctx.seed,
                f"live counters diverged after resume: {sorted(diffs)}",
            )
        )
    return 1, out


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def run_selftest(
    full: bool = False,
    seed: int = 0,
    suites: Optional[Sequence[str]] = None,
    workdir: Optional[str] = None,
) -> SelftestReport:
    """Execute the requested suites (default: all, including the
    metamorphic ones) and return the structured report.

    A suite that *crashes* is itself reported as a divergence — the
    harness failing is never a pass.
    """
    import repro.verify.metamorphic  # noqa: F401  (registers meta_* suites)

    selected = list(suites) if suites else available_suites()
    unknown = sorted(set(selected) - set(_SUITES))
    if unknown:
        raise VerificationError(
            f"unknown suites: {unknown} (available: {available_suites()})"
        )
    report = SelftestReport(mode="full" if full else "quick", seed=seed)
    own_workdir = workdir is None
    if own_workdir:
        workdir = tempfile.mkdtemp(prefix="repro-selftest-")
    try:
        ctx = SelftestContext(seed=seed, full=full, workdir=workdir)
        for name in selected:
            start = time.perf_counter()
            try:
                n_cases, divergences = _SUITES[name](ctx)
            except Exception:
                n_cases = 0
                tail = traceback.format_exc().strip().splitlines()[-1]
                divergences = [
                    Divergence(name, "<suite>", seed, f"suite crashed: {tail}")
                ]
            report.suites.append(
                SuiteResult(
                    name=name,
                    n_cases=n_cases,
                    duration_s=time.perf_counter() - start,
                    divergences=list(divergences),
                )
            )
    finally:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return report
