"""Metamorphic invariant suites.

Instead of a second implementation, these suites transform the *input*
in a way whose effect on the output is known, and check the optimized
path honors it:

- ``meta_fold_invariance`` — shifting and scaling the wall-clock axis
  of every burst must leave the normalized fold (and the fitted curve)
  unchanged up to fp tolerance: ``(a + s*t - (a + s*t0)) / (s*dur)`` is
  not literally ``(t - t0) / dur`` in floating point, so the tolerance
  is small but not zero (documented in docs/VERIFICATION.md).
- ``meta_cluster_permutation`` — Euclidean distances do not depend on
  feature-column order, so permuting the counter columns must reproduce
  the *exact* same labels; permuting the point rows must preserve the
  core-point partition and the noise set (border-point membership is
  legitimately visit-order dependent, so it is excluded — that is the
  documented DBSCAN contract, not a bug).
- ``meta_monotone_subsample`` — a monotone-constrained fit must yield
  non-negative slopes on any subsample of the data, exactly (NNLS
  returns non-negative coefficients by construction).

Suites register themselves with the differential runner on import.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.verify.differential import (
    Divergence,
    SelftestContext,
    _compare_arrays,
    _suite,
)

__all__: List[str] = []


def _shifted_burst(burst, shift: float, scale: float):
    from repro.clustering.bursts import ComputationBurst
    from repro.trace.records import SampleRecord

    return ComputationBurst(
        rank=burst.rank,
        index=burst.index,
        t_start=shift + scale * burst.t_start,
        t_end=shift + scale * burst.t_end,
        start_counters=dict(burst.start_counters),
        end_counters=dict(burst.end_counters),
        samples=[
            SampleRecord(
                rank=s.rank,
                time=shift + scale * s.time,
                counters=dict(s.counters),
                frames=s.frames,
            )
            for s in burst.samples
        ],
    )


@_suite("meta_fold_invariance")
def _suite_meta_fold(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    from repro.fitting.pwlr import PWLRConfig, fit_pwlr
    from repro.folding.fold import fold_cluster
    from repro.folding.instances import ClusterInstances
    from repro.verify.corpus import burst_clusters

    out: List[Divergence] = []
    # Pure power-of-two scaling with no shift is *exactly* representable:
    # fl(s*t - s*t0) = s * fl(t - t0) and the final division cancels the
    # scale, so the fold must be bit-identical and the fit byte-stable.
    # A time shift is not ((t+a) - (t0+a) rounds differently), so those
    # transforms compare to fp tolerance — and the downstream fit only
    # loosely, because breakpoint selection is discrete and an ulp-level
    # input change can legitimately flip a candidate choice.  The search
    # scores candidates from prefix-sum moments (repro.fitting.moments),
    # whose accumulated roundoff widens the flat valley around near-tied
    # candidates, so a flipped choice can move predictions by a few 1e-3
    # on adversarial corpora (observed ~3e-3); the pwlr_search suite
    # checks each greedy pick against the dense least-squares oracle.
    transforms = [
        (0.0, 4.0, True),
        (0.0, 0.25, True),
        (1000.0, 1.0, False),
        (-250.0, 3.5, False),
    ]
    cases = [c for c in burst_clusters(ctx.seed, ctx.full) if not c.expect_error]
    grid = np.linspace(0.0, 1.0, 41)
    n_checked = 0
    for case in cases:
        base = fold_cluster(
            case.instances, case.counters,
            min_points=case.min_points, required=case.required,
        )
        if not base:
            continue
        n_checked += 1
        for shift, scale, exact in transforms:
            moved = ClusterInstances(
                cluster_id=case.instances.cluster_id,
                bursts=[
                    _shifted_burst(b, shift, scale) for b in case.instances
                ],
                n_candidates=case.instances.n_candidates,
                n_pruned_duration=case.instances.n_pruned_duration,
            )
            folded = fold_cluster(
                moved, case.counters,
                min_points=case.min_points, required=case.required,
            )
            name = f"{case.name}@({shift},{scale})"
            d = None
            if sorted(folded) != sorted(base):
                d = Divergence(
                    "meta_fold_invariance", name, ctx.seed,
                    f"folded counter set changed: {sorted(folded)} vs {sorted(base)}",
                )
            if d is None:
                fold_tol = 0.0 if exact else 1e-9
                fit_rtol, fit_atol = (0.0, 0.0) if exact else (1e-2, 5e-3)
                for counter, ref in base.items():
                    fc = folded[counter]
                    d = _compare_arrays(
                        "meta_fold_invariance", name, ctx.seed,
                        f"{counter}.x", fc.x, ref.x,
                        rtol=fold_tol, atol=fold_tol,
                    ) or _compare_arrays(
                        "meta_fold_invariance", name, ctx.seed,
                        f"{counter}.y", fc.y, ref.y,
                        rtol=fold_tol, atol=fold_tol,
                    )
                    if d:
                        break
                    # Fit only the finite points — the pipeline's filter
                    # stage removes NaN-y samples (corrupt probes) before
                    # the fitter ever sees them.
                    finite = np.isfinite(ref.y)
                    if int(finite.sum()) >= 8:
                        cfg = PWLRConfig(max_breakpoints=3, n_candidates=24)
                        base_fit = fit_pwlr(ref.x[finite], ref.y[finite], cfg)
                        moved_fit = fit_pwlr(fc.x[finite], fc.y[finite], cfg)
                        d = _compare_arrays(
                            "meta_fold_invariance", name, ctx.seed,
                            f"{counter}.fit", moved_fit.predict(grid),
                            base_fit.predict(grid),
                            rtol=fit_rtol, atol=fit_atol,
                        )
                        if d:
                            break
            if d:
                out.append(d)
    return n_checked * len(transforms), out


@_suite("meta_cluster_permutation")
def _suite_meta_perm(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    from repro.clustering.dbscan import DBSCAN, NOISE
    from repro.verify.corpus import point_clouds

    out: List[Divergence] = []
    cases = point_clouds(ctx.seed, ctx.full)
    rng = np.random.default_rng(ctx.seed + 3)
    for case in cases:
        clusterer = DBSCAN(case.eps, min_pts=case.min_pts, index="blocked")
        base = clusterer.fit(case.points).labels

        # Column permutation: distances untouched -> labels identical.
        col_perm = rng.permutation(case.points.shape[1])
        permuted = clusterer.fit(case.points[:, col_perm]).labels
        d = _compare_arrays(
            "meta_cluster_permutation", f"{case.name}/columns", ctx.seed,
            "labels", permuted, base,
        )
        if d:
            out.append(d)
            continue

        # Row permutation: core-point partition and noise set invariant.
        row_perm = rng.permutation(case.points.shape[0])
        shuffled = clusterer.fit(case.points[row_perm]).labels
        back = np.empty_like(shuffled)
        back[row_perm] = shuffled  # labels back in original point order

        if not np.array_equal(back == NOISE, base == NOISE):
            out.append(
                Divergence(
                    "meta_cluster_permutation", f"{case.name}/rows", ctx.seed,
                    "noise set changed under row permutation",
                )
            )
            continue
        # Core points: same neighborhood counts regardless of order.
        diff = case.points[:, None, :] - case.points[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        core = np.sum(dist <= case.eps, axis=1) >= case.min_pts
        partition_a = {}
        partition_b = {}
        for i in np.flatnonzero(core):
            partition_a.setdefault(int(base[i]), set()).add(int(i))
            partition_b.setdefault(int(back[i]), set()).add(int(i))
        if sorted(map(frozenset, partition_a.values())) != sorted(
            map(frozenset, partition_b.values())
        ):
            out.append(
                Divergence(
                    "meta_cluster_permutation", f"{case.name}/rows", ctx.seed,
                    "core-point partition changed under row permutation",
                )
            )
    return 2 * len(cases), out


@_suite("meta_monotone_subsample")
def _suite_meta_monotone(ctx: SelftestContext) -> Tuple[int, List[Divergence]]:
    from repro.fitting.pwlr import fit_fixed_breakpoints
    from repro.verify.corpus import pwl_datasets

    out: List[Divergence] = []
    cases = pwl_datasets(ctx.seed, ctx.full)
    n_checked = 0
    for case in cases:
        for stride, tag in ((1, "all"), (2, "half"), (3, "third")):
            x, y = case.x[::stride], case.y[::stride]
            if x.size < 4:
                continue
            n_checked += 1
            model = fit_fixed_breakpoints(
                x, y, case.breakpoints, anchor=case.anchor, monotone=True
            )
            if np.any(model.slopes < 0):
                out.append(
                    Divergence(
                        "meta_monotone_subsample", f"{case.name}/{tag}", ctx.seed,
                        f"monotone fit produced a negative slope: "
                        f"{model.slopes.min():.3e}",
                        max_abs_delta=float(-model.slopes.min()),
                    )
                )
    return n_checked, out
