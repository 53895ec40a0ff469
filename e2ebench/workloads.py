"""Workload shapes and the boundary-F1 helpers shared by the benchmark files."""

from __future__ import annotations

import re
from typing import Dict, List

# (app, iterations, ranks) per workload, at the full size the benchmark
# measures and at the tiny size its self-check runs.  watch_multiphase
# rotates over three traces: the cost of a live refit varies with the
# data, and a run's median over three inputs varies less between seeds.
SHAPES = {
    "analyze_cgpop": {"full": [("cgpop", 400, 8)], "tiny": [("cgpop", 40, 2)]},
    "watch_multiphase": {"full": [("multiphase", 40, 4)] * 3,
                         "tiny": [("multiphase", 20, 2)] * 2},
    "batch_mixed": {
        "full": [(app, 150, 4) for app in
                 ("cgpop", "dalton", "mrgenesis", "multiphase", "pmemd")],
        "tiny": [(app, 20, 2) for app in ("cgpop", "multiphase")],
    },
}

# Boundary-F1 tolerance in normalized instance time (the value the
# repository's own phase-detection experiments use).
F1_TOLERANCE = 0.02

_CLUSTER = re.compile(r"^Cluster (\d+):")
_PHASE_ROW = re.compile(r"^\d+\s+([0-9.]+)-([0-9.]+)\s")


def report_boundaries(report: str) -> Dict[str, List[float]]:
    """Inner phase boundaries per cluster, read off a rendered report."""
    out: Dict[str, List[float]] = {}
    cluster = None
    for line in report.splitlines():
        match = _CLUSTER.match(line)
        if match:
            cluster = match.group(1)
            out[cluster] = []
            continue
        match = _PHASE_ROW.match(line)
        if match and cluster is not None:
            out[cluster].append(float(match.group(2)))
        elif not line.strip():
            cluster = None
    return {cid: ends[:-1] for cid, ends in out.items()}


def f1_score(detected: Dict[str, List[float]], planted: Dict[str, List[float]]) -> float:
    """Pooled boundary F1 over the clusters that carry planted boundaries."""
    from repro.phases.compare import match_boundaries

    n_true = n_detected = n_matched = 0
    for cid, truth in planted.items():
        score = match_boundaries(detected.get(cid, []), truth, tolerance=F1_TOLERANCE)
        n_true += score.n_true
        n_detected += score.n_detected
        n_matched += score.n_matched
    if n_true + n_detected == 0:
        return 1.0
    return 2.0 * n_matched / (n_true + n_detected)
