"""TAB-7 — scalability of the master/worker code, before and after the fix.

Claim reproduced (Aguilar et al., the co-authors' Dalton papers): the
master/worker design becomes the bottleneck at larger process counts —
parallel efficiency decays with every doubling — and restructuring the
collection restores scalability, letting the code "run in a much bigger
number of cores".

We run the Dalton-like app at 4..32 ranks in its base and optimized
forms (weak scaling: fixed per-worker batch work) and compare the
efficiency curves.  The benchmark times one scaling point.

Second section — **analysis-pipeline fast path**: the grid-indexed DBSCAN
and the vectorized fold against the pre-optimization implementations
(kept below as the honest baselines), on a synthetic ~20k-burst workload.
Correctness is asserted, not assumed: labels must be byte-identical and
folded arrays bit-for-bit equal.  ``--smoke`` runs a small configuration
with strict identity checks and lenient timing floors, suitable for CI.

Third section — **pwlr-search**: one default-config ``fit_pwlr`` at
227 (a live ``repro watch`` refit), 1k and 5k points, reporting wall time
and candidate evaluations per second of the moments evaluator.  Its
identity gate replays the seed-0 quick ``pwl_datasets`` corpus and
requires every fit to match ``tests/golden/pwlr_search_seed0.json`` bit
for bit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List, Optional

import numpy as np

import common
from repro.analysis.experiments import default_core
from repro.analysis.scaling import render_scaling, run_scaling_study
from repro.clustering.bursts import BurstSet, ComputationBurst
from repro.clustering.dbscan import DBSCAN, _renumber_by_size, estimate_eps
from repro.clustering.features import build_features
from repro.folding.fold import fold_cluster
from repro.folding.instances import select_instances
from repro.trace.records import SampleRecord
from repro.viz.series import FigureSeries
from repro.workload.apps import dalton_app, dalton_optimized

EXP_ID = "TAB-7"
CLAIM = "master/worker efficiency decays with ranks; the fix restores it"

RANKS = (4, 8, 16, 32)
ITERATIONS = 60

FAST_PATH_BURSTS = 20000
SMOKE_BURSTS = 4000
SAMPLES_PER_BURST = 8
COUNTERS = ("PAPI_TOT_INS", "PAPI_L3_TCM")

PWLR_SEARCH_POINTS = (227, 1000, 5000)
PWLR_GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "tests", "golden", "pwlr_search_seed0.json",
)


def _study(optimized: bool):
    def build(ranks: int):
        app = dalton_app(iterations=ITERATIONS, ranks=ranks)
        return dalton_optimized(app) if optimized else app

    key = f"tab7-{'opt' if optimized else 'base'}"
    return common.cached_run(
        key, lambda: run_scaling_study(build, default_core(), RANKS, seed=17)
    )


def test_tab7_scaling(benchmark):
    base = _study(False)
    optimized = _study(True)

    def one_point():
        return run_scaling_study(
            lambda ranks: dalton_app(iterations=10, ranks=ranks),
            default_core(),
            (8,),
            seed=17,
        )

    benchmark.pedantic(one_point, rounds=1, iterations=1)
    # shape claims (the Dalton papers' story): with the serializing
    # master, the communication fraction grows with every doubling and
    # scaling efficiency collapses below the 0.7 bar by 32 ranks; the
    # restructured collection keeps comm bounded and scales well.
    base_comm = [p.comm_fraction for p in base.points]
    assert base_comm[-1] > base_comm[0] + 0.15
    assert not base.scales_well
    assert base.scaling_efficiency()[-1] < 0.7
    assert optimized.scales_well
    assert (
        optimized.points[-1].comm_fraction
        < base.points[-1].comm_fraction - 0.1
    )
    assert optimized.scaling_efficiency()[-1] > base.scaling_efficiency()[-1] + 0.15


# ----------------------------------------------------------------------
# pipeline fast path: grid DBSCAN + vectorized fold vs the pre-
# optimization implementations
# ----------------------------------------------------------------------

def _legacy_cluster(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Pre-optimization DBSCAN: blocked O(n^2) neighborhoods, scalar
    per-neighbor expansion loop.  Kept verbatim as the baseline."""
    n = points.shape[0]
    sq_eps = eps * eps
    norms = np.einsum("ij,ij->i", points, points)
    neighborhoods: List[np.ndarray] = []
    block = 512
    for start in range(0, n, block):
        stop = min(start + block, n)
        chunk = points[start:stop]
        d2 = norms[start:stop, None] + norms[None, :] - 2.0 * chunk @ points.T
        np.clip(d2, 0.0, None, out=d2)
        within = d2 <= sq_eps
        for row in range(stop - start):
            neighborhoods.append(np.flatnonzero(within[row]))
    core = np.array([len(nb) >= min_pts for nb in neighborhoods])
    labels = np.full(n, -2, dtype=int)
    cluster_id = 0
    for seed in range(n):
        if labels[seed] != -2 or not core[seed]:
            continue
        labels[seed] = cluster_id
        frontier = [seed]
        while frontier:
            point = frontier.pop()
            for nb in neighborhoods[point]:
                if labels[nb] == -2:
                    labels[nb] = cluster_id
                    if core[nb]:
                        frontier.append(int(nb))
        cluster_id += 1
    labels[labels == -2] = -1
    return _renumber_by_size(labels)


def _legacy_fold(instances, counters) -> Dict[str, tuple]:
    """Pre-optimization scalar fold loop (x-sorted, like fold_cluster)."""
    per: Dict[str, tuple] = {}
    for counter in counters:
        xs: List[float] = []
        ys: List[float] = []
        ids: List[int] = []
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
        x = np.asarray(xs)
        order = np.argsort(x, kind="stable")
        per[counter] = (
            x[order],
            np.asarray(ys)[order],
            np.asarray(ids, dtype=int)[order],
        )
    return per


def _synthetic_bursts(n_bursts: int, seed: int = 23) -> BurstSet:
    """A large SPMD-like burst population: three kernel archetypes with
    mild per-instance variability, a few samples inside each burst."""
    rng = np.random.default_rng(seed)
    archetypes = (
        # (duration_s, instructions, l3_misses)
        (0.002, 4.0e6, 2.0e3),
        (0.008, 2.0e7, 6.0e4),
        (0.020, 3.5e7, 4.0e5),
    )
    bursts: List[ComputationBurst] = []
    t = 0.0
    for i in range(n_bursts):
        dur0, ins0, l30 = archetypes[i % len(archetypes)]
        scale = float(rng.uniform(0.95, 1.05))
        duration = dur0 * scale
        totals = {"PAPI_TOT_INS": ins0 * scale, "PAPI_L3_TCM": l30 * scale}
        start = {c: float(rng.uniform(0, 1e9)) for c in COUNTERS}
        end = {c: start[c] + totals[c] for c in COUNTERS}
        samples = []
        for s_time in np.sort(rng.uniform(t, t + duration, SAMPLES_PER_BURST)):
            frac = (s_time - t) / duration
            samples.append(
                SampleRecord(
                    rank=0,
                    time=float(s_time),
                    counters={c: start[c] + frac * totals[c] for c in COUNTERS},
                )
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
        t += duration * 1.1
    return BurstSet(bursts)


def fast_path_report(n_bursts: int) -> Dict[str, float]:
    """Time old-vs-new clustering and folding on ``n_bursts`` synthetic
    bursts, asserting the outputs are identical.  Returns the timings."""
    bursts = _synthetic_bursts(n_bursts)
    features = build_features(bursts)
    points = features.values

    t0 = time.perf_counter()
    eps = estimate_eps(points)
    t_eps_new = time.perf_counter() - t0

    clusterer = DBSCAN(eps=eps, min_pts=8, index="grid")
    t0 = time.perf_counter()
    result = clusterer.fit(points)
    t_cluster_new = time.perf_counter() - t0

    t0 = time.perf_counter()
    legacy_labels = _legacy_cluster(points, eps, min_pts=8)
    t_cluster_old = time.perf_counter() - t0
    assert result.labels.tobytes() == legacy_labels.tobytes(), (
        "grid DBSCAN labels differ from the legacy implementation"
    )

    t_fold_new = 0.0
    t_fold_old = 0.0
    for cluster_id in range(result.n_clusters):
        instances = select_instances(bursts, result.labels, cluster_id)
        t0 = time.perf_counter()
        folded = fold_cluster(
            instances, list(COUNTERS), min_points=1, required=[]
        )
        t_fold_new += time.perf_counter() - t0
        t0 = time.perf_counter()
        reference = _legacy_fold(instances, COUNTERS)
        t_fold_old += time.perf_counter() - t0
        for counter, fc in folded.items():
            x, y, ids = reference[counter]
            assert (
                fc.x.tobytes() == x.tobytes()
                and fc.y.tobytes() == y.tobytes()
                and fc.instance_ids.tobytes() == ids.tobytes()
            ), f"vectorized fold differs for {counter}"

    return {
        "n_bursts": float(n_bursts),
        "n_clusters": float(result.n_clusters),
        "eps_s": t_eps_new,
        "cluster_new_s": t_cluster_new,
        "cluster_old_s": t_cluster_old,
        "fold_new_s": t_fold_new,
        "fold_old_s": t_fold_old,
        "cluster_speedup": t_cluster_old / max(t_cluster_new, 1e-12),
        "fold_speedup": t_fold_old / max(t_fold_new, 1e-12),
        "end_to_end_speedup": (t_cluster_old + t_fold_old)
        / max(t_cluster_new + t_fold_new, 1e-12),
    }


def print_fast_path(report: Dict[str, float]) -> None:
    print(
        f"pipeline fast path @ {int(report['n_bursts'])} bursts "
        f"({int(report['n_clusters'])} clusters):"
    )
    print(
        f"  clustering  old {report['cluster_old_s']:.2f}s -> "
        f"new {report['cluster_new_s']:.2f}s "
        f"({report['cluster_speedup']:.1f}x)"
    )
    print(
        f"  folding     old {report['fold_old_s']:.2f}s -> "
        f"new {report['fold_new_s']:.2f}s "
        f"({report['fold_speedup']:.1f}x)"
    )
    print(f"  end-to-end  {report['end_to_end_speedup']:.1f}x")
    print("  labels byte-identical, folds bit-for-bit: verified")


# ----------------------------------------------------------------------
# pwlr-search: the moments evaluator behind fit_pwlr
# ----------------------------------------------------------------------

def _pwlr_series(n_points: int, seed: int = 29):
    """A folded-counter-like series: 4-phase monotone PWL curve through
    (0,0)-(1,1) plus sampling noise."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, n_points))
    knots = np.array([0.0, 0.25, 0.55, 0.8, 1.0])
    slopes = np.array([0.4, 2.2, 0.7, 1.3])
    vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])
    idx = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, slopes.size - 1)
    y = vals[idx] + slopes[idx] * (x - knots[idx])
    y = y / vals[-1] + rng.normal(0.0, 0.01, n_points)
    return x, y


def pwlr_search_report(n_points: int) -> Dict[str, float]:
    """Time one default-config ``fit_pwlr``; returns wall time and the
    candidate-evaluation rate read from the fit's own counters."""
    from repro.fitting.pwlr import fit_pwlr
    from repro.observability import Observability

    x, y = _pwlr_series(n_points)
    obs = Observability(collect_rss=False)
    with obs.activate():
        t0 = time.perf_counter()
        model = fit_pwlr(x, y)
        wall = time.perf_counter() - t0
    snap = obs.metrics.snapshot()
    evals = snap["pwlr.candidate_evaluations"]
    return {
        "n_points": float(n_points),
        "n_breakpoints": float(model.breakpoints.size),
        "wall_s": wall,
        "evals": float(evals),
        "evals_per_s": evals / max(wall, 1e-12),
        "escapes": float(snap.get("pwlr.search_exact_escapes", 0)),
    }


def print_pwlr_search(reports: List[Dict[str, float]]) -> None:
    print("pwlr-search: default PWLRConfig, moments evaluator:")
    print("  n        wall       evals   evals/s     escapes   breakpoints")
    for r in reports:
        print(
            f"  {int(r['n_points']):<7}  {r['wall_s']:>7.3f}s  "
            f"{int(r['evals']):>6}  {r['evals_per_s']:>9.0f}  "
            f"{int(r['escapes']):>7}   {int(r['n_breakpoints']):>5}"
        )


def check_pwlr_golden() -> int:
    """Replay the seed-0 quick corpus and require every ``fit_pwlr``
    result to equal the recorded golden bit for bit; returns the number
    of cases checked."""
    from repro.fitting.pwlr import PWLRConfig, fit_pwlr
    from repro.verify.corpus import pwl_datasets

    with open(PWLR_GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)["cases"]
    cases = pwl_datasets(0, full=False)
    assert sorted(golden) == sorted(c.name for c in cases), "golden corpus drifted"
    for case in cases:
        model = fit_pwlr(
            case.x, case.y, PWLRConfig(anchor=case.anchor, monotone=case.monotone)
        )
        got = {
            "breakpoints": [float(b).hex() for b in model.breakpoints],
            "slopes": [float(v).hex() for v in model.slopes],
            "intercept": float(model.intercept).hex(),
            "sse": float(model.sse).hex(),
        }
        assert got == golden[case.name], f"pwlr golden mismatch on {case.name}"
    return len(cases)


def smoke() -> None:
    """CI entry point: small scale, strict identity, lenient timing floors.

    Identity failures are bugs; the timing floors are far below the
    full-scale targets so shared CI runners don't flake, but a genuine
    fast-path regression (new path slower than the one it replaced at
    4k bursts) still fails loudly.
    """
    report = fast_path_report(SMOKE_BURSTS)
    print_fast_path(report)
    assert report["cluster_speedup"] > 1.5, (
        f"grid clustering speedup collapsed: {report['cluster_speedup']:.2f}x"
    )
    assert report["end_to_end_speedup"] > 1.2, (
        f"fast-path end-to-end speedup collapsed: "
        f"{report['end_to_end_speedup']:.2f}x"
    )
    print_pwlr_search([pwlr_search_report(n) for n in PWLR_SEARCH_POINTS])
    n_cases = check_pwlr_golden()
    print(f"  pwlr golden: {n_cases} corpus fits bit-identical")
    print("TAB-7 smoke: PASS")


def test_tab7_fast_path(benchmark):
    report = benchmark.pedantic(
        lambda: fast_path_report(SMOKE_BURSTS), rounds=1, iterations=1
    )
    # identity is asserted inside; here only sanity on the shape
    assert report["n_clusters"] >= 2
    assert report["cluster_speedup"] > 1.0


def test_tab7_pwlr_search(benchmark):
    report = benchmark.pedantic(
        lambda: pwlr_search_report(1000), rounds=1, iterations=1
    )
    assert report["evals"] > 0
    assert report["n_breakpoints"] >= 2
    assert check_pwlr_golden() > 0


def main() -> None:
    common.print_header(EXP_ID, CLAIM)
    print("--- base (serializing master) ---")
    print(render_scaling(_study(False)))
    print()
    print("--- optimized (restructured collection) ---")
    print(render_scaling(_study(True)))
    base = _study(False)
    optimized = _study(True)
    series = FigureSeries("tab7_scaling")
    series.add_column("ranks", [p.ranks for p in base.points])
    series.add_column(
        "base_parallel_efficiency", [p.parallel_efficiency for p in base.points]
    )
    series.add_column(
        "optimized_parallel_efficiency",
        [p.parallel_efficiency for p in optimized.points],
    )
    series.add_column("base_scaling_eff", base.scaling_efficiency())
    series.add_column("optimized_scaling_eff", optimized.scaling_efficiency())
    print(f"\nseries written to {common.save_series(series)}")
    print()
    print("--- analysis-pipeline fast path ---")
    print_fast_path(fast_path_report(FAST_PATH_BURSTS))
    print()
    print("--- pwlr search ---")
    print_pwlr_search([pwlr_search_report(n) for n in PWLR_SEARCH_POINTS])
    print(f"pwlr golden: {check_pwlr_golden()} corpus fits bit-identical")


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        smoke()
    else:
        main()
