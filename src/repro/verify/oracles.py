"""Deliberately-naive scalar oracles for the optimized pipeline stages.

Every function here re-implements one stage from its *specification* —
plain Python loops, ``math``, and textbook algorithms (Gaussian
elimination, Lawson–Hanson NNLS, exhaustive matching) — sharing no code
with the optimized paths in ``repro.folding``, ``repro.fitting``,
``repro.clustering``, or ``repro.phases``.  The differential runner in
:mod:`repro.verify.differential` executes both sides on generated
corpora and reports any disagreement beyond the documented tolerance
(see ``docs/VERIFICATION.md`` for which comparisons are bit-exact and
which carry a justified tolerance).

Oracles are allowed to be slow (quadratic scans, exponential matching on
tiny inputs) — clarity over speed is the whole point.  Where an oracle
cannot handle an input class at all (e.g. a rank-deficient design, which
the optimized path resolves via ``lstsq`` pseudo-inverse semantics) it
raises :class:`~repro.errors.VerificationError`; the corpus avoids those
inputs and the limitation is documented.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import VerificationError

__all__ = [
    "oracle_extract_bursts",
    "OracleFold",
    "oracle_fold_cluster",
    "oracle_instance_monotonicity",
    "oracle_fit_fixed_breakpoints",
    "oracle_predict",
    "oracle_slope_at",
    "oracle_bic",
    "oracle_aic",
    "oracle_match_boundaries",
    "oracle_kdist",
    "oracle_estimate_eps",
    "oracle_dbscan",
]


# ----------------------------------------------------------------------
# burst extraction
# ----------------------------------------------------------------------
def oracle_extract_bursts(
    trace, min_duration: float = 0.0, mispaired: Optional[Dict[int, int]] = None
) -> list:
    """Bursts of ``trace`` by a whole-rank scan: pair every rank's probes
    first, then cut each rank's sorted samples at the burst bounds.

    The pairing rules are those of
    :class:`repro.clustering.bursts.IncrementalBurstAssembler`: a burst
    from t=0 (zero counters keyed by the first probe) to the first
    ``comm_enter`` and from each ``comm_exit`` to the next
    ``comm_enter``; an enter without an open exit, or an exit replacing
    an open non-initial exit, is skipped and counted in ``mispaired``;
    intervals with ``t_end <= t_start`` or shorter than ``min_duration``
    are dropped; samples strictly inside ``(t_start, t_end)`` attach.
    Returns the :class:`~repro.clustering.bursts.ComputationBurst` list
    in ``(rank, index)`` order (empty when there is none); that record
    type is the only code it shares with the extractor.
    """
    from repro.clustering.bursts import ComputationBurst

    out = []
    for rank in range(trace.n_ranks):
        probes = trace.instrumentation_of(rank)
        if not probes:
            continue
        samples = trace.samples_of(rank)
        sample_times = [s.time for s in samples]

        zero = {name: 0.0 for name in probes[0].counters}
        open_boundary: Optional[tuple] = (0.0, zero)
        pairs: List[tuple] = []
        for probe in probes:
            if probe.marker == "comm_enter":
                if open_boundary is None:
                    if mispaired is not None:
                        mispaired[rank] = mispaired.get(rank, 0) + 1
                    continue
                pairs.append((open_boundary, (probe.time, probe.counters)))
                open_boundary = None
            else:
                if open_boundary is not None and open_boundary[0] != 0.0:
                    if mispaired is not None:
                        mispaired[rank] = mispaired.get(rank, 0) + 1
                open_boundary = (probe.time, probe.counters)
        index = 0
        for (t0, c0), (t1, c1) in pairs:
            if t1 <= t0 or (t1 - t0) < min_duration:
                continue
            burst = ComputationBurst(
                rank=rank,
                index=index,
                t_start=t0,
                t_end=t1,
                start_counters=dict(c0),
                end_counters=dict(c1),
            )
            lo = bisect.bisect_right(sample_times, t0)
            hi = bisect.bisect_left(sample_times, t1)
            burst.samples = samples[lo:hi]
            out.append(burst)
            index += 1
    return out


# ----------------------------------------------------------------------
# folding
# ----------------------------------------------------------------------
@dataclass
class OracleFold:
    """Scalar counterpart of :class:`repro.folding.fold.FoldedCounter`."""

    counter: str
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)
    instance_ids: List[int] = field(default_factory=list)
    n_instances: int = 0
    mean_duration: float = 0.0
    mean_total: float = 0.0


def oracle_fold_cluster(
    instances,
    counters: Sequence[str],
    min_points: int = 16,
    required: Optional[Sequence[str]] = None,
) -> Tuple[Dict[str, OracleFold], Dict[str, str]]:
    """Per-burst scalar fold; returns ``(folded, drops)``.

    Mirrors the *semantics* of ``fold_cluster`` one burst and one sample
    at a time: a burst contributes a counter only when both probes carry
    it and the span is not ``<= 0`` (a NaN span passes through and
    yields NaN ``y``); a sample contributes only when it carries the
    counter.  Points are ordered by a stable sort on ``x`` over the
    (burst, sample) iteration order.  A required counter below
    ``min_points`` raises; an optional one lands in ``drops``.
    """
    required_set = set(counters if required is None else required)
    unknown = required_set - set(counters)
    if unknown:
        raise VerificationError(
            f"required counters not in requested set: {sorted(unknown)}"
        )
    bursts = list(instances)
    folded: Dict[str, OracleFold] = {}
    drops: Dict[str, str] = {}
    for counter in counters:
        xs: List[float] = []
        ys: List[float] = []
        ids: List[int] = []
        for burst_id, burst in enumerate(bursts):
            start = burst.start_counters.get(counter)
            end = burst.end_counters.get(counter)
            if start is None or end is None:
                continue
            span = float(end) - float(start)
            if span <= 0:  # NaN compares False: corrupt probes pass through
                continue
            t0 = float(burst.t_start)
            duration = float(burst.t_end) - t0
            for sample in burst.samples:
                value = sample.counters.get(counter)
                if value is None:
                    continue
                xs.append((float(sample.time) - t0) / duration)
                ys.append((float(value) - float(start)) / span)
                ids.append(burst_id)
        if len(xs) < min_points:
            reason = f"only {len(xs)} folded samples (need >= {min_points})"
            if counter in required_set:
                raise VerificationError(f"counter {counter}: {reason}")
            drops[counter] = reason
            continue
        totals = []
        for burst in bursts:
            start = burst.start_counters.get(counter)
            end = burst.end_counters.get(counter)
            if start is None or end is None:
                continue
            total = float(end) - float(start)
            if math.isfinite(total) and total > 0:
                totals.append(total)
        if not totals:
            reason = "zero events in every instance"
            if counter in required_set:
                raise VerificationError(f"counter {counter}: {reason}")
            drops[counter] = reason
            continue
        order = sorted(range(len(xs)), key=lambda i: xs[i])
        durations = [float(b.t_end) - float(b.t_start) for b in bursts]
        folded[counter] = OracleFold(
            counter=counter,
            x=[xs[i] for i in order],
            y=[ys[i] for i in order],
            instance_ids=[ids[i] for i in order],
            n_instances=len(bursts),
            mean_duration=sum(durations) / len(durations),
            mean_total=sum(totals) / len(totals),
        )
    return folded, drops


def oracle_instance_monotonicity(
    y: Sequence[float], instance_ids: Sequence[int], tolerance: float = 1e-9
) -> List[bool]:
    """Keep-mask of the per-instance monotonicity filter, by scalar scan.

    Each instance's points are visited in array (``x``) order with a
    running maximum of the *kept* ``y``; a point more than ``tolerance``
    below it is dropped.  ``max`` ignores a NaN ``y`` (NaN compares
    false), so a NaN is kept and never raises the maximum.
    """
    keep = [True] * len(y)
    positions: Dict[int, List[int]] = {}
    for pos, instance in enumerate(instance_ids):
        positions.setdefault(int(instance), []).append(pos)
    for members in positions.values():
        running = -math.inf
        for pos in members:
            value = float(y[pos])
            if value < running - tolerance:
                keep[pos] = False
            else:
                running = max(running, value)
    return keep


# ----------------------------------------------------------------------
# linear algebra primitives (textbook, list-of-lists)
# ----------------------------------------------------------------------
def _solve_linear(matrix: List[List[float]], rhs: List[float]) -> List[float]:
    """Gaussian elimination with partial pivoting on a dense system."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-300:
            raise VerificationError(
                f"singular system in oracle solve (pivot column {col})"
            )
        a[col], a[pivot] = a[pivot], a[col]
        for row in range(col + 1, n):
            factor = a[row][col] / a[col][col]
            if factor != 0.0:
                for k in range(col, n + 1):
                    a[row][k] -= factor * a[col][k]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = a[row][n]
        for k in range(row + 1, n):
            acc -= a[row][k] * x[k]
        x[row] = acc / a[row][row]
    return x


def _lstsq_normal(design: List[List[float]], target: List[float]) -> List[float]:
    """Unconstrained least squares via the normal equations."""
    n_cols = len(design[0])
    ata = [[0.0] * n_cols for _ in range(n_cols)]
    atb = [0.0] * n_cols
    for row, t in zip(design, target):
        for i in range(n_cols):
            if row[i] == 0.0:
                continue
            atb[i] += row[i] * t
            for j in range(n_cols):
                ata[i][j] += row[i] * row[j]
    return _solve_linear(ata, atb)


def _nnls(design: List[List[float]], target: List[float]) -> List[float]:
    """Lawson–Hanson active-set NNLS: min ||Ax - b|| subject to x >= 0."""
    n_cols = len(design[0])
    passive = [False] * n_cols
    x = [0.0] * n_cols
    tol = 1e-11 * max(
        1.0, max(abs(v) for row in design for v in row) * max(
            1.0, max(abs(t) for t in target)
        )
    )

    def gradient() -> List[float]:
        residual = [
            t - sum(row[j] * x[j] for j in range(n_cols) if x[j] != 0.0)
            for row, t in zip(design, target)
        ]
        return [
            sum(row[i] * r for row, r in zip(design, residual))
            for i in range(n_cols)
        ]

    def passive_solve() -> List[float]:
        cols = [i for i in range(n_cols) if passive[i]]
        sub = [[row[i] for i in cols] for row in design]
        coeffs = _lstsq_normal(sub, target)
        z = [0.0] * n_cols
        for value, i in zip(coeffs, cols):
            z[i] = value
        return z

    for _ in range(3 * n_cols + 30):
        w = gradient()
        candidates = [i for i in range(n_cols) if not passive[i]]
        if not candidates or max(w[i] for i in candidates) <= tol:
            return x
        passive[max(candidates, key=lambda i: w[i])] = True
        while True:
            z = passive_solve()
            if all(z[i] > tol for i in range(n_cols) if passive[i]):
                x = z
                break
            alpha = min(
                x[i] / (x[i] - z[i])
                for i in range(n_cols)
                if passive[i] and z[i] <= tol and x[i] != z[i]
            )
            x = [xi + alpha * (zi - xi) for xi, zi in zip(x, z)]
            for i in range(n_cols):
                if passive[i] and x[i] <= tol:
                    passive[i] = False
                    x[i] = 0.0
    raise VerificationError("oracle NNLS failed to converge")


# ----------------------------------------------------------------------
# fitting
# ----------------------------------------------------------------------
def _oracle_basis_row(xi: float, knots: List[float]) -> List[float]:
    """Column j = length of segment j intersected with [0, xi]."""
    return [
        min(max(xi, knots[j]), knots[j + 1]) - knots[j]
        for j in range(len(knots) - 1)
    ]


def oracle_fit_fixed_breakpoints(
    x: Sequence[float],
    y: Sequence[float],
    breakpoints: Sequence[float],
    anchor: bool = True,
    anchor_weight: float = 0.25,
    monotone: bool = True,
) -> Tuple[float, List[float], float]:
    """Scalar weighted PWL fit at fixed breakpoints.

    Returns ``(intercept, slopes, data_sse)``.  Same problem statement
    as ``fit_fixed_breakpoints`` — anchor pseudo-points (0,0)/(1,1) each
    weighted ``anchor_weight * n``, slopes-as-coefficients basis, free
    intercept split ``a+ - a-`` under the monotone (non-negative slope)
    constraint — solved by the normal equations / Lawson–Hanson instead
    of ``lstsq`` / ``scipy.optimize.nnls``.  Agreement is to solver
    tolerance, not bit-exact (documented in docs/VERIFICATION.md).
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys) or len(xs) < 2:
        raise VerificationError("need equal-length x/y with >= 2 points")
    bp = sorted(float(b) for b in breakpoints)
    if bp and (bp[0] <= 0.0 or bp[-1] >= 1.0):
        raise VerificationError(f"breakpoints must be interior to (0,1): {bp}")
    knots = [0.0] + bp + [1.0]

    n = len(xs)
    if anchor:
        w_anchor = anchor_weight * n
        x_fit = xs + [0.0, 1.0]
        y_fit = ys + [0.0, 1.0]
        weights = [1.0] * n + [w_anchor, w_anchor]
    else:
        x_fit, y_fit, weights = xs, ys, [1.0] * n

    sqrt_w = [math.sqrt(w) for w in weights]
    if monotone:
        design = [
            [sw * 1.0, sw * -1.0] + [sw * v for v in _oracle_basis_row(xi, knots)]
            for xi, sw in zip(x_fit, sqrt_w)
        ]
        target = [yi * sw for yi, sw in zip(y_fit, sqrt_w)]
        coeffs = _nnls(design, target)
        intercept = coeffs[0] - coeffs[1]
        slopes = coeffs[2:]
    else:
        design = [
            [sw * 1.0] + [sw * v for v in _oracle_basis_row(xi, knots)]
            for xi, sw in zip(x_fit, sqrt_w)
        ]
        target = [yi * sw for yi, sw in zip(y_fit, sqrt_w)]
        coeffs = _lstsq_normal(design, target)
        intercept = coeffs[0]
        slopes = coeffs[1:]

    # Data-only SSE, anchors excluded — like the optimized path.
    sse = 0.0
    for xi, yi in zip(xs, ys):
        pred = intercept + sum(
            s * v for s, v in zip(slopes, _oracle_basis_row(xi, knots))
        )
        sse += (yi - pred) ** 2
    return intercept, slopes, sse


def oracle_predict(model, x: float) -> float:
    """Scalar evaluation of a fitted model at one point.

    Implements the documented contract directly — right-continuous
    segment selection, linear extension outside [0, 1] — with a scalar
    walk instead of ``searchsorted``/``cumsum``-gather.  Comparison
    against ``model.predict`` is bit-exact: both accumulate the segment
    areas left to right and add the within-segment term last.
    """
    knots = [0.0] + [float(b) for b in model.breakpoints] + [1.0]
    slopes = [float(s) for s in model.slopes]
    xv = float(x)
    segment = 0
    for j in range(len(slopes)):
        if xv >= knots[j]:
            segment = j
    cumulative = 0.0
    for j in range(segment):
        cumulative += slopes[j] * (knots[j + 1] - knots[j])
    value = float(model.intercept) + cumulative
    return value + slopes[segment] * (xv - knots[segment])


def oracle_slope_at(model, x: float) -> float:
    """Scalar segment-slope lookup under the same selection contract."""
    knots = [0.0] + [float(b) for b in model.breakpoints] + [1.0]
    slopes = [float(s) for s in model.slopes]
    xv = float(x)
    segment = 0
    for j in range(len(slopes)):
        if xv >= knots[j]:
            segment = j
    return slopes[segment]


def oracle_bic(sse: float, n: int, n_params: int) -> float:
    """Gaussian-likelihood BIC, written out from the formula."""
    return n * math.log(max(sse, 1e-18) / n) + n_params * math.log(n)


def oracle_aic(sse: float, n: int, n_params: int) -> float:
    """Gaussian-likelihood AIC, written out from the formula."""
    return n * math.log(max(sse, 1e-18) / n) + 2.0 * n_params


# ----------------------------------------------------------------------
# boundary matching
# ----------------------------------------------------------------------
def oracle_match_boundaries(
    detected: Sequence[float],
    truth: Sequence[float],
    tolerance: float,
) -> Tuple[int, float]:
    """Exhaustive optimal one-to-one matching (exponential — tiny inputs).

    Enumerates every assignment of detected to true boundaries within
    ``tolerance`` and returns the best ``(n_matched, total_error)``
    under the lexicographic objective (max matches, then min total
    absolute error).  The ground truth for ``match_boundaries``'s
    dynamic program.
    """
    det = sorted(float(v) for v in detected)
    tru = sorted(float(v) for v in truth)
    if len(det) * len(tru) > 64:
        raise VerificationError(
            f"exhaustive matcher limited to tiny inputs, got {len(det)}x{len(tru)}"
        )
    best = (0, 0.0)

    def recurse(i: int, used: frozenset, matched: int, total: float) -> None:
        nonlocal best
        if i == len(det):
            if (matched, -total) > (best[0], -best[1]):
                best = (matched, total)
            return
        recurse(i + 1, used, matched, total)
        for j, t in enumerate(tru):
            if j in used:
                continue
            gap = abs(det[i] - t)
            if gap <= tolerance:
                recurse(i + 1, used | {j}, matched + 1, total + gap)

    recurse(0, frozenset(), 0, 0.0)
    return best


# ----------------------------------------------------------------------
# clustering
# ----------------------------------------------------------------------
def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))


def oracle_kdist(points: Sequence[Sequence[float]], k: int) -> List[float]:
    """k-th nearest-neighbor distance per point, by full sort.

    Self-distance (0.0) is included in the ranking — index ``k`` of the
    sorted row is the k-th neighbor — matching the optimized partition
    semantics.
    """
    rows = [[float(v) for v in p] for p in points]
    out = []
    for p in rows:
        dists = sorted(_distance(p, q) for q in rows)
        out.append(dists[k])
    return out


def _oracle_quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (the numpy default method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def oracle_estimate_eps(
    points: Sequence[Sequence[float]],
    k: int = 8,
    quantile: float = 0.95,
    margin: float = 3.0,
) -> float:
    """Naive k-dist eps heuristic: quadratic scan + scalar quantile."""
    n = len(points)
    if n < 2:
        raise VerificationError(f"need >= 2 points to estimate eps, got {n}")
    kdist = oracle_kdist(points, min(k, n - 1))
    eps = _oracle_quantile(kdist, quantile) * margin
    return eps if eps > 0 else 1e-9


def oracle_dbscan(
    points: Sequence[Sequence[float]], eps: float, min_pts: int
) -> List[int]:
    """Textbook scalar DBSCAN with the pipeline's tie-breaking rules.

    Seeds scan in ascending index order; expansion is depth-first with
    unvisited core neighbors pushed in ascending index order (so the
    highest-index one is explored next); border points go to whichever
    cluster reaches them first; final ids are renumbered by decreasing
    size with ties kept in original-id order.  These rules make labels
    fully deterministic, so the comparison against :class:`DBSCAN` is
    exact — on corpora where no pairwise distance sits within fp noise
    of ``eps`` (the optimized path measures distances via the norms
    identity, the oracle directly; see docs/VERIFICATION.md).
    """
    rows = [[float(v) for v in p] for p in points]
    n = len(rows)
    neighborhoods = [
        [j for j in range(n) if _distance(rows[i], rows[j]) <= eps]
        for i in range(n)
    ]
    core = [len(nb) >= min_pts for nb in neighborhoods]

    unvisited_mark, noise = -2, -1
    labels = [unvisited_mark] * n
    cluster_id = 0
    for seed in range(n):
        if labels[seed] != unvisited_mark or not core[seed]:
            continue
        labels[seed] = cluster_id
        frontier = [seed]
        while frontier:
            point = frontier.pop()
            fresh = [j for j in neighborhoods[point] if labels[j] == unvisited_mark]
            for j in fresh:
                labels[j] = cluster_id
            frontier.extend(j for j in fresh if core[j])
        cluster_id += 1
    labels = [noise if lab == unvisited_mark else lab for lab in labels]

    sizes = {c: labels.count(c) for c in set(labels) if c != noise}
    ranked = sorted(sizes, key=lambda c: (-sizes[c], c))
    mapping = {old: new for new, old in enumerate(ranked)}
    return [noise if lab == noise else mapping[lab] for lab in labels]
