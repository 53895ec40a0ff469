"""Seeded corpora for the differential runner.

Every generator takes a seed and a ``full`` flag and returns a list of
named cases.  The ordinary cases come from smooth random draws; the
adversarial ones target the inputs the ISSUE history has shown fast
paths get wrong: duplicate points, NaN/inf counter values, single-burst
clusters, breakpoints pinned to the candidate-grid edges, zero-slope
plateaus, and cell-edge point geometries.

All randomness flows through ``numpy.random.default_rng(seed)`` so a
reported divergence replays exactly from its seed (``repro selftest
--seed N --suite NAME``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.clustering.bursts import ComputationBurst
from repro.fitting.pwlr import PiecewiseLinearModel
from repro.folding.instances import ClusterInstances
from repro.trace.records import SampleRecord, Trace

__all__ = [
    "PWLCase",
    "CloudCase",
    "BurstCase",
    "MonotonicityCase",
    "BoundaryCase",
    "BurstTraceCase",
    "pwl_datasets",
    "point_clouds",
    "grid_edge_cloud",
    "grid_table_clouds",
    "stride_overflow_cloud",
    "burst_clusters",
    "monotonicity_cases",
    "boundary_sets",
    "random_models",
    "write_case_traces",
    "burst_traces",
]


# ----------------------------------------------------------------------
# PWL fitting datasets
# ----------------------------------------------------------------------
@dataclass
class PWLCase:
    name: str
    x: np.ndarray
    y: np.ndarray
    breakpoints: Tuple[float, ...]
    anchor: bool = True
    monotone: bool = True


def _pwl_curve(rng: np.random.Generator, breakpoints: Sequence[float], x: np.ndarray):
    knots = np.concatenate([[0.0], np.asarray(breakpoints), [1.0]])
    slopes = rng.uniform(0.2, 3.0, size=knots.size - 1)
    slopes /= float(np.sum(slopes * np.diff(knots)))
    y = np.interp(x, knots, np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))]))
    return y


def pwl_datasets(seed: int, full: bool = False) -> List[PWLCase]:
    """Well-conditioned fitting problems plus adversarial shapes."""
    rng = np.random.default_rng(seed)
    cases: List[PWLCase] = []
    n_random = 6 if full else 3
    for i in range(n_random):
        n_bp = int(rng.integers(0, 4))
        bp = np.sort(rng.uniform(0.1, 0.9, size=n_bp))
        while bp.size > 1 and np.min(np.diff(bp)) < 0.08:
            bp = np.sort(rng.uniform(0.1, 0.9, size=n_bp))
        x = rng.uniform(0.0, 1.0, size=160)
        y = _pwl_curve(rng, bp, x) + rng.normal(0.0, 0.01, size=x.size)
        cases.append(
            PWLCase(
                name=f"random{i}",
                x=x,
                y=y,
                breakpoints=tuple(float(b) for b in bp),
                monotone=bool(i % 2 == 0),
            )
        )
    # Duplicate abscissae: every x appears several times.
    grid = np.repeat(np.linspace(0.0, 1.0, 40), 4)
    cases.append(
        PWLCase(
            name="duplicate_x",
            x=grid,
            y=_pwl_curve(rng, [0.4], grid) + rng.normal(0.0, 0.01, grid.size),
            breakpoints=(0.4,),
        )
    )
    # Zero-slope plateau in the middle segment.
    x = rng.uniform(0.0, 1.0, size=200)
    y = np.where(x < 0.35, x / 0.35 * 0.5, np.where(x < 0.65, 0.5, 0.5 + (x - 0.65) / 0.35 * 0.5))
    cases.append(
        PWLCase(
            name="plateau",
            x=x,
            y=y + rng.normal(0.0, 0.005, x.size),
            breakpoints=(0.35, 0.65),
        )
    )
    # Breakpoints at the candidate-grid edges (min_separation = 0.01).
    x = rng.uniform(0.0, 1.0, size=240)
    cases.append(
        PWLCase(
            name="edge_breakpoints",
            x=x,
            y=_pwl_curve(rng, [0.01, 0.99], x) + rng.normal(0.0, 0.01, x.size),
            breakpoints=(0.01, 0.99),
        )
    )
    # Constant y: the monotone fit should go all-zero slopes.
    x = rng.uniform(0.0, 1.0, size=80)
    cases.append(
        PWLCase(name="flat", x=x, y=np.full(x.size, 0.3), breakpoints=(0.5,), anchor=False)
    )
    return cases


# ----------------------------------------------------------------------
# point clouds for clustering / eps estimation
# ----------------------------------------------------------------------
@dataclass
class CloudCase:
    name: str
    points: np.ndarray
    eps: float
    min_pts: int


def _safe_eps(points: np.ndarray, target: float) -> float:
    """An eps near ``target`` sitting mid-gap in the pairwise-distance
    distribution, so oracle and optimized membership tests (which use
    different fp arithmetic) cannot disagree on boundary pairs."""
    diff = points[:, None, :] - points[None, :, :]
    dists = np.unique(np.sqrt(np.sum(diff * diff, axis=-1)))
    below = dists[dists <= target]
    above = dists[dists > target]
    lo = float(below[-1]) if below.size else 0.0
    hi = float(above[0]) if above.size else target * 2.0
    return (lo + hi) / 2.0


def point_clouds(seed: int, full: bool = False) -> List[CloudCase]:
    """Blobby geometries with fp-safe eps, plus adversarial layouts."""
    rng = np.random.default_rng(seed)
    cases: List[CloudCase] = []
    n_random = 4 if full else 2
    for i in range(n_random):
        d = int(rng.integers(2, 5))
        centers = rng.uniform(-8.0, 8.0, size=(int(rng.integers(2, 5)), d))
        pts = np.concatenate(
            [c + rng.normal(0.0, 0.3, size=(int(rng.integers(20, 50)), d)) for c in centers]
        )
        pts = np.concatenate([pts, rng.uniform(-10.0, 10.0, size=(6, d))])  # noise
        cases.append(
            CloudCase(f"blobs{i}", pts, _safe_eps(pts, 1.0), min_pts=int(rng.integers(3, 7)))
        )
    # Exact duplicates: each of a handful of sites repeated many times.
    sites = rng.uniform(-3.0, 3.0, size=(5, 3))
    dup = np.repeat(sites, 12, axis=0)
    cases.append(CloudCase("duplicates", dup, _safe_eps(dup, 0.5), min_pts=8))
    # One tight cluster, everything core.
    tight = rng.normal(0.0, 0.05, size=(40, 2))
    cases.append(CloudCase("single_cluster", tight, _safe_eps(tight, 0.5), min_pts=4))
    # Border points reachable from two clusters (chain geometry).
    line = np.linspace(0.0, 6.0, 30)[:, None] * np.array([[1.0, 0.0]])
    chain = np.concatenate([line, line + rng.normal(0.0, 0.01, size=line.shape)])
    cases.append(CloudCase("chain", chain, _safe_eps(chain, 0.3), min_pts=4))
    return cases


def grid_edge_cloud(seed: int, n: int = 400, eps: float = 0.25) -> CloudCase:
    """Points on exact multiples of ``eps`` — cell-edge geometry where
    many pairwise distances equal eps exactly.  Used only for the
    grid-vs-blocked suite (identical arithmetic on both sides), where the
    boundary cases are exactly what must agree."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 12, size=(n, 2)).astype(float) * eps
    return CloudCase("grid_edge", pts, eps, min_pts=6)


def _blobs(
    rng: np.random.Generator, n: int, d: int, n_centers: int, spread: float, scale: float
) -> np.ndarray:
    """``n`` points around ``n_centers`` uniform centers in [0, spread]^d."""
    centers = rng.uniform(0.0, spread, size=(n_centers, d))
    return centers[rng.integers(0, n_centers, size=n)] + rng.normal(0.0, scale, size=(n, d))


def grid_table_clouds(seed: int, n: int = 2048) -> List[CloudCase]:
    """Geometries the grid table must index like any other: a sparse
    cloud (far more occupied cells than n/4), all-negative coordinates,
    and d = 6 (3^6 neighbor offsets).  ``n`` reaches the size at which
    ``estimate_eps`` takes its grid path."""
    rng = np.random.default_rng(seed)
    sparse = np.concatenate(
        [_blobs(rng, n // 4, 3, 6, 4.0, 0.05), rng.uniform(-1.0, 5.0, size=(n - n // 4, 3))]
    )
    negative = _blobs(rng, n, 3, 8, 10.0, 0.2) - 1.0e3
    six = _blobs(rng, n, 6, 10, 8.0, 0.15)
    return [
        CloudCase("grid_sparse", sparse, 0.05, min_pts=4),
        CloudCase("grid_negative", negative, 0.5, min_pts=6),
        CloudCase("grid_d6", six, 0.6, min_pts=6),
    ]


def stride_overflow_cloud(seed: int, n: int = 2048) -> CloudCase:
    """Tight d = 6 blobs spread so far apart that the grid's linear cell
    ids would overflow int64 (2e4-3e4 cells per axis at the DBSCAN eps and
    at the k-dist cell size alike), while every single coordinate stays
    small: the table must refuse it and the blocked path answer."""
    rng = np.random.default_rng(seed)
    points = _blobs(rng, n, 6, 64, 1.0e4, 0.1)
    return CloudCase("grid_stride_overflow", points, 0.5, min_pts=6)


# ----------------------------------------------------------------------
# burst clusters for folding
# ----------------------------------------------------------------------
@dataclass
class BurstCase:
    name: str
    instances: ClusterInstances
    counters: Tuple[str, ...]
    min_points: int = 16
    required: Optional[Tuple[str, ...]] = None
    #: set for cases where fold_cluster must raise for a required counter
    expect_error: bool = False


def _make_burst(
    rng: np.random.Generator,
    rank: int,
    index: int,
    t0: float,
    duration: float,
    counters: Sequence[str],
    n_samples: int,
    start_override: Optional[Dict[str, float]] = None,
    end_override: Optional[Dict[str, float]] = None,
    drop_probe: Sequence[str] = (),
    sample_mutator=None,
) -> ComputationBurst:
    starts = {c: float(rng.uniform(0.0, 1e6)) for c in counters}
    spans = {c: float(rng.uniform(1e4, 1e6)) for c in counters}
    ends = {c: starts[c] + spans[c] for c in counters}
    if start_override:
        starts.update(start_override)
    if end_override:
        ends.update(end_override)
    for c in drop_probe:
        ends.pop(c, None)
    times = np.sort(rng.uniform(t0, t0 + duration, size=n_samples))
    samples = []
    for i, t in enumerate(times):
        frac = (t - t0) / duration
        values = {c: starts.get(c, 0.0) + frac * spans[c] for c in counters}
        if sample_mutator is not None:
            values = sample_mutator(i, values)
            if values is None:
                continue
        samples.append(SampleRecord(rank=rank, time=float(t), counters=values))
    return ComputationBurst(
        rank=rank,
        index=index,
        t_start=t0,
        t_end=t0 + duration,
        start_counters=starts,
        end_counters=ends,
        samples=samples,
    )


def _cluster(bursts: List[ComputationBurst], cluster_id: int = 0) -> ClusterInstances:
    return ClusterInstances(
        cluster_id=cluster_id,
        bursts=bursts,
        n_candidates=len(bursts),
        n_pruned_duration=0,
    )


def burst_clusters(seed: int, full: bool = False) -> List[BurstCase]:
    """Folding inputs: clean clusters plus every probe/sample pathology."""
    rng = np.random.default_rng(seed)
    counters = ("PAPI_TOT_INS", "PAPI_L2_TCM")
    cases: List[BurstCase] = []

    def bursts(n, **kw):
        return [
            _make_burst(
                rng, rank=i % 2, index=i, t0=10.0 * i, duration=float(rng.uniform(0.5, 2.0)),
                counters=counters, n_samples=int(rng.integers(8, 20)), **kw
            )
            for i in range(n)
        ]

    cases.append(BurstCase("dense", _cluster(bursts(8 if not full else 16)), counters))

    # NaN probe value: span NaN, folded y all-NaN for that burst (kept).
    group = bursts(5)
    group[2] = _make_burst(
        rng, 0, 2, 20.0, 1.0, counters, 12,
        start_override={"PAPI_L2_TCM": float("nan")},
    )
    cases.append(BurstCase("nan_probe", _cluster(group), counters))

    # Missing end probe for one counter on one burst: burst skipped there.
    group = bursts(5)
    group[1] = _make_burst(rng, 1, 1, 10.0, 1.0, counters, 12, drop_probe=("PAPI_L2_TCM",))
    cases.append(BurstCase("missing_probe", _cluster(group), counters))

    # Zero span: the counter did not advance in one burst.
    group = bursts(5)
    start = float(rng.uniform(0.0, 1e6))
    group[3] = _make_burst(
        rng, 1, 3, 30.0, 1.0, counters, 12,
        start_override={"PAPI_L2_TCM": start},
        end_override={"PAPI_L2_TCM": start},
    )
    cases.append(BurstCase("zero_span", _cluster(group), counters))

    # Inf end probe: inf span and inf totals (excluded from mean_total).
    group = bursts(5)
    group[0] = _make_burst(
        rng, 0, 0, 0.0, 1.0, counters, 12,
        end_override={"PAPI_L2_TCM": float("inf")},
    )
    cases.append(BurstCase("inf_probe", _cluster(group), counters))

    # Samples missing a counter key / carrying NaN values.
    def drop_every_third(i, values):
        if i % 3 == 0:
            values = dict(values)
            values.pop("PAPI_L2_TCM")
        return values

    def nan_every_fourth(i, values):
        if i % 4 == 0:
            values = dict(values)
            values["PAPI_L2_TCM"] = float("nan")
        return values

    cases.append(
        BurstCase("sparse_samples", _cluster(bursts(6, sample_mutator=drop_every_third)), counters)
    )
    cases.append(
        BurstCase("nan_samples", _cluster(bursts(6, sample_mutator=nan_every_fourth)), counters)
    )

    # Single-burst cluster: folding must work from one instance.
    solo = _make_burst(rng, 0, 0, 5.0, 1.5, counters, 40)
    cases.append(BurstCase("single_burst", _cluster([solo]), counters))

    # Too few points for an *optional* counter: dropped, not fatal.
    few = bursts(2)
    cases.append(
        BurstCase(
            "too_few_optional",
            _cluster(few),
            counters,
            min_points=10_000,
            required=(),
        )
    )
    # Too few points for a *required* counter: both sides must refuse.
    cases.append(
        BurstCase(
            "too_few_required",
            _cluster(bursts(2)),
            counters,
            min_points=10_000,
            expect_error=True,
        )
    )
    return cases


@dataclass
class MonotonicityCase:
    name: str
    y: np.ndarray
    instance_ids: np.ndarray
    tolerance: float = 1e-9


def monotonicity_cases(seed: int, full: bool = False) -> List[MonotonicityCase]:
    """Inputs for the per-instance monotonicity filter: noisy interleaved
    instances plus exact ties, NaN/inf values, one-point instances and
    the empty set."""
    rng = np.random.default_rng(seed)
    n = 400 if full else 200
    cases: List[MonotonicityCase] = []
    # Noisy accumulations, instances interleaved the way an x-sorted fold
    # interleaves them: many dips, some deep enough to shadow later points.
    ids = rng.integers(0, 12, size=n)
    y = np.cumsum(rng.uniform(0.0, 1.0, size=n)) / n + rng.normal(0.0, 0.05, size=n)
    cases.append(MonotonicityCase("interleaved", y, ids))
    # Points exactly ``tolerance`` below the running max are kept, points
    # one step further are dropped (all values exact in binary).
    y = np.array([1.0, 0.75, 0.5, 1.0, 0.875, 0.625, 0.25, 0.5, 0.0, 0.25])
    ids = np.array([0, 0, 0, 1, 0, 1, 2, 2, 2, 1])
    cases.append(MonotonicityCase("ties_at_tolerance", y, ids, tolerance=0.25))
    ties = np.repeat(rng.uniform(0.0, 1.0, size=n // 4), 4)
    ids = rng.integers(0, 3, size=ties.size)
    cases.append(MonotonicityCase("equal_values", ties, ids, tolerance=0.0))
    # NaN never raises the max and is always kept, also as an instance's
    # first point; +/-inf take part like any value.
    y = rng.uniform(0.0, 1.0, size=n)
    y[rng.choice(n, size=n // 8, replace=False)] = np.nan
    y[:3] = np.nan
    y[rng.choice(n, size=4, replace=False)] = np.inf
    y[rng.choice(n, size=4, replace=False)] = -np.inf
    cases.append(MonotonicityCase("non_finite_y", y, rng.integers(0, 8, size=n)))
    one = rng.uniform(0.0, 1.0, size=n // 4)
    cases.append(MonotonicityCase("one_point_instances", one, rng.permutation(one.size)))
    cases.append(MonotonicityCase("single_point", np.array([0.5]), np.array([3])))
    cases.append(MonotonicityCase("empty", np.empty(0), np.empty(0, dtype=np.int64)))
    return cases


# ----------------------------------------------------------------------
# boundary matching
# ----------------------------------------------------------------------
@dataclass
class BoundaryCase:
    name: str
    detected: Tuple[float, ...]
    truth: Tuple[float, ...]
    tolerance: float


def boundary_sets(seed: int, full: bool = False) -> List[BoundaryCase]:
    rng = np.random.default_rng(seed)
    cases: List[BoundaryCase] = []
    n_random = 24 if full else 10
    for i in range(n_random):
        tru = np.sort(rng.uniform(0.05, 0.95, size=int(rng.integers(1, 6))))
        det = tru + rng.normal(0.0, 0.015, size=tru.size)
        if rng.random() < 0.5 and det.size > 1:
            det = det[:-1]  # a miss
        if rng.random() < 0.5:
            det = np.append(det, rng.uniform(0.0, 1.0))  # a spurious one
        cases.append(
            BoundaryCase(f"random{i}", tuple(det.tolist()), tuple(tru.tolist()), 0.02)
        )
    # The greedy-killer: nearest-first matching pairs (0.510, 0.512) and
    # loses the second feasible match; the optimum pairs outward.
    cases.append(BoundaryCase("greedy_trap", (0.510, 0.530), (0.505, 0.512), 0.02))
    # Dense overlapping window where order of consideration matters.
    cases.append(
        BoundaryCase("pileup", (0.50, 0.51, 0.52), (0.495, 0.515, 0.535), 0.02)
    )
    cases.append(BoundaryCase("empty_truth", (0.2, 0.8), (), 0.02))
    cases.append(BoundaryCase("empty_detected", (), (0.3,), 0.02))
    return cases


# ----------------------------------------------------------------------
# fitted models for evaluation-contract checks
# ----------------------------------------------------------------------
def random_models(seed: int, full: bool = False) -> List[PiecewiseLinearModel]:
    rng = np.random.default_rng(seed)
    models: List[PiecewiseLinearModel] = []
    for i in range(12 if full else 6):
        n_bp = int(rng.integers(0, 5))
        bp = np.sort(rng.uniform(0.05, 0.95, size=n_bp))
        while bp.size > 1 and np.min(np.diff(bp)) < 0.03:
            bp = np.sort(rng.uniform(0.05, 0.95, size=n_bp))
        slopes = rng.uniform(0.0, 3.0, size=n_bp + 1)
        if i % 3 == 0 and slopes.size > 1:
            slopes[slopes.size // 2] = 0.0  # zero-slope segment
        models.append(
            PiecewiseLinearModel(
                breakpoints=bp,
                slopes=slopes,
                intercept=float(rng.normal(0.0, 0.05)),
                sse=0.0,
                n_points=100,
            )
        )
    return models


# ----------------------------------------------------------------------
# end-to-end traces
# ----------------------------------------------------------------------
def write_case_traces(seed: int, directory: str, n: int = 2) -> List[str]:
    """Write ``n`` small seeded workload traces under ``directory``.

    Used by the integration suites (cached vs fresh, resumed vs
    uninterrupted) that need real trace files on disk.
    """
    from repro.analysis.experiments import default_core
    from repro.runtime.engine import ExecutionEngine
    from repro.runtime.sampler import SamplerConfig
    from repro.runtime.tracer import Tracer, TracerConfig
    from repro.trace.writer import write_trace
    from repro.workload.generator import random_kernel_app

    os.makedirs(directory, exist_ok=True)
    paths: List[str] = []
    for i in range(n):
        rng = np.random.default_rng(seed + i)
        app = random_kernel_app(
            rng,
            iterations=60,
            ranks=2,
            n_phases=3,
            min_phase_fraction=0.1,
            name=f"verify{i}",
        )
        timeline = ExecutionEngine(default_core(), seed=seed + i).run(app)
        trace = Tracer(
            TracerConfig(sampler=SamplerConfig(period_s=0.02), seed=seed + i)
        ).trace(timeline)
        path = os.path.join(directory, f"case{i}.rpt")
        write_trace(trace, path)
        paths.append(path)
    return paths


@dataclass
class BurstTraceCase:
    """One trace for the burst-extraction suite, with its duration cut."""

    name: str
    trace: Trace
    min_duration: float = 0.0


def _damage_probes(trace: Trace, rng: np.random.Generator, rate: float) -> Trace:
    """``trace`` with each probe dropped, or written twice, at ``rate``."""
    probes = []
    for probe in trace.instrumentation:
        u = rng.random()
        if u < rate:
            continue
        probes.append(probe)
        if u > 1.0 - rate:
            probes.append(probe)
    return Trace(
        n_ranks=trace.n_ranks,
        app_name=trace.app_name,
        states=list(trace.states),
        instrumentation=probes,
        samples=list(trace.samples),
        metadata=dict(trace.metadata),
    )


def burst_traces(
    seed: int, paths: Sequence[str], full: bool = False
) -> List[BurstTraceCase]:
    """Clean and damaged traces for burst extraction.

    From each trace file (quick mode: the first only) come the clean trace;
    a copy with probes dropped and written twice (the salvage reader drops
    a repeated line, so this damage is made on the records); salvage reads
    of the text after :mod:`repro.resilience.inject` bit flips, a torn
    tail, and duplicated records with clock-skewed samples; and the clean
    trace cut at its median burst duration.
    """
    from repro.resilience.inject import CorruptionSpec, corrupt_trace_text
    from repro.trace.reader import load_trace_text, salvage_trace_text
    from repro.verify.oracles import oracle_extract_bursts

    corruptions = [
        ("bitflip", [CorruptionSpec("bitflip_fields", 0.05)]),
        ("torn", [CorruptionSpec("truncate", 0.03)]),
        ("dup-skew", [
            CorruptionSpec("duplicate_records", 0.05),
            CorruptionSpec("clock_skew", 0.2),
        ]),
    ]
    cases: List[BurstTraceCase] = []
    for i, path in enumerate(paths if full else paths[:1]):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        clean = load_trace_text(text)
        cases.append(BurstTraceCase(f"trace{i}", clean))
        rng = np.random.default_rng(seed + i)
        cases.append(
            BurstTraceCase(f"trace{i}-probes", _damage_probes(clean, rng, 0.05))
        )
        for name, specs in corruptions:
            damaged, _report = salvage_trace_text(
                corrupt_trace_text(text, specs, seed=seed + i)
            )
            cases.append(BurstTraceCase(f"trace{i}-{name}", damaged))
        durations = [b.duration for b in oracle_extract_bursts(clean)]
        cases.append(
            BurstTraceCase(
                f"trace{i}-cut", clean, min_duration=float(np.median(durations))
            )
        )
    return cases
