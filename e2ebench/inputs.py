"""Seeded input generation for the benchmark, run in its own process::

    python3 e2ebench/inputs.py WORKLOAD --seed N --size full|tiny --src SRC --out DIR

Every trace is simulated through the program's public simulator
(``ExecutionEngine`` -> ``Tracer`` -> ``write_trace``); the watch trace is
written in time order with ``TraceTailWriter``, the way a live producer
appends it.  The references the correctness gates compare against (the
analyze report, the batch result JSON, the planted phase boundaries of
each analyzed cluster and the boundary F1 they give) are computed here,
outside every timed interval.  A workload with several shapes gets one
trace per shape, simulated with seeds ``seed * n + i``, and its samples
rotate over them.  ``DIR/inputs.json`` is written last, so its presence
marks a complete input set.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import SHAPES, f1_score, report_boundaries  # noqa: E402


def _simulate(app_name: str, iterations: int, ranks: int, seed: int):
    from repro.cli import APP_BUILDERS
    from repro.machine.cpu import CoreModel
    from repro.machine.spec import MachineSpec
    from repro.runtime.engine import ExecutionEngine
    from repro.runtime.sampler import SamplerConfig
    from repro.runtime.tracer import Tracer, TracerConfig

    app = APP_BUILDERS[app_name](iterations=iterations, ranks=ranks)
    core = CoreModel(MachineSpec())
    timeline = ExecutionEngine(core, seed=seed).run(app)
    tracer = Tracer(TracerConfig(sampler=SamplerConfig(period_s=0.02), seed=seed))
    return app, core, timeline, tracer.trace(timeline)


def _planted_boundaries(app, core, timeline, result) -> Dict[str, List[float]]:
    """Planted boundaries for each analyzed cluster that dominates a kernel.

    Each burst is matched to the simulator's ground-truth burst that
    contains its midpoint; a cluster takes its majority kernel, and when
    several clusters share a kernel the one covering more time keeps it
    (the same rule as ``repro.analysis.experiments.detection_scores``).
    """
    truths: Dict[int, list] = {}
    for truth in timeline.all_bursts():
        truths.setdefault(truth.rank, []).append(truth)
    starts = {rank: [t.t_start for t in ts] for rank, ts in truths.items()}
    for rank in truths:
        order = sorted(range(len(starts[rank])), key=starts[rank].__getitem__)
        truths[rank] = [truths[rank][i] for i in order]
        starts[rank] = [starts[rank][i] for i in order]
    kernel_of = []
    for burst in result.bursts:
        mid = 0.5 * (burst.t_start + burst.t_end)
        i = bisect.bisect_right(starts[burst.rank], mid + 1e-12) - 1
        truth = truths[burst.rank][i] if i >= 0 else None
        if truth is None or not truth.t_start - 1e-12 <= mid <= truth.t_end + 1e-12:
            raise RuntimeError(f"burst at t={mid:.6f} matches no planted burst")
        kernel_of.append(truth.kernel_name)
    labels = result.clustering.labels
    kernels = {k.name: k for k in app.kernels()}
    best: Dict[str, object] = {}
    for cluster in result.clusters:
        names = [kernel_of[i] for i in range(len(kernel_of))
                 if labels[i] == cluster.cluster_id]
        name = max(sorted(set(names)), key=names.count)
        if name not in best or cluster.time_share > best[name].time_share:
            best[name] = cluster
    return {str(cluster.cluster_id): [float(b) for b in kernels[name].truth_boundaries(core)]
            for name, cluster in best.items()}


def _describe(path: str, out: str, app: str, iterations: int, ranks: int,
              seed: int, trace) -> dict:
    return {"file": os.path.relpath(path, out), "app": app, "iterations": iterations,
            "ranks": ranks, "seed": seed, "records": trace.n_records,
            "bytes": os.path.getsize(path)}


def generate(workload: str, seed: int, size: str, out: str) -> dict:
    from repro.analysis.hints import generate_hints
    from repro.analysis.pipeline import FoldingAnalyzer
    from repro.analysis.report import render_report
    from repro.store.serialize import result_to_json
    from repro.trace.reader import read_trace
    from repro.trace.writer import TraceTailWriter, write_trace

    shapes = SHAPES[workload][size]
    meta: dict = {"workload": workload, "seed": seed, "size": size, "inputs": []}
    if workload == "batch_mixed":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        for app_name, iterations, ranks in shapes:
            _app, _core, _timeline, trace = _simulate(app_name, iterations, ranks, seed)
            path = os.path.join(traces, f"{app_name}.rpt")
            write_trace(trace, path)
            meta["inputs"].append(
                _describe(path, out, app_name, iterations, ranks, seed, trace))
        meta["input"] = "traces"
        return meta

    # One trace per shape; the samples of a run rotate over them.
    for index, (app_name, iterations, ranks) in enumerate(shapes):
        sim_seed = seed * len(shapes) + index
        app, core, timeline, trace = _simulate(app_name, iterations, ranks, sim_seed)
        path = os.path.join(out, f"trace-{index}.rpt")
        if workload == "watch_multiphase":
            records = (list(trace.states) + list(trace.instrumentation)
                       + list(trace.samples))
            records.sort(key=lambda r: r.time if hasattr(r, "time") else r.t_start)
            with TraceTailWriter.create(path, trace.app_name, trace.n_ranks,
                                        counters=list(trace.counter_names()),
                                        metadata=trace.metadata) as writer:
                for record in records:
                    writer.append(record)
        else:
            write_trace(trace, path)
        item = _describe(path, out, app_name, iterations, ranks, sim_seed, trace)

        # The reference: the batch analysis of the file as written.
        result = FoldingAnalyzer().analyze(read_trace(path))
        item["planted"] = _planted_boundaries(app, core, timeline, result)
        if workload == "analyze_cgpop":
            reference = render_report(result, generate_hints(result)) + "\n"
            item["f1"] = f1_score(report_boundaries(reference), item["planted"])
            item["reference"] = f"reference-{index}.txt"
        else:
            reference = result_to_json(result)
            detected = {str(c.cluster_id): [float(b) for b in c.phase_set.boundaries]
                        for c in result.clusters}
            item["f1"] = f1_score(detected, item["planted"])
            item["reference"] = f"reference-{index}.json"
        with open(os.path.join(out, item["reference"]), "w", encoding="utf-8") as fh:
            fh.write(reference)
        meta["inputs"].append(item)
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    os.makedirs(args.out, exist_ok=True)
    meta = generate(args.workload, args.seed, args.size, args.out)
    tmp = os.path.join(args.out, "inputs.json.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(args.out, "inputs.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
