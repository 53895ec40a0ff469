"""End-to-end benchmark of the repro toolchain.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload analyze_cgpop --seed 1 --seconds 10 --trace 0

Workloads (see ``README.md`` in this directory for why each exists):

* ``analyze_cgpop``    -- ``repro analyze`` of cgpop, 400 iterations x 8 ranks
* ``watch_multiphase`` -- ``StreamEngine`` fed a time-ordered multiphase trace
* ``batch_mixed``      -- ``repro batch --workers 1 --deadline 120`` over five
  traces, one cold pass on an empty store then warm (all-hit) passes

Every sample runs in a fresh process with the native thread pools pinned
to one thread, one busy process at a time.  Samples and set-up probes
alternate until ``--seconds`` have been measured; every metric is the
median over its samples.  ``--trace 1`` alternates untraced and traced
samples instead and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every
correctness gate passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import f1_score, report_boundaries  # noqa: E402

# The native thread pools every measured child runs with.  The program
# never caps its BLAS pool itself; this pin works around that defect
# (see README.md for the measurements behind it).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# Hard limit for one benchmark invocation; the loop stops starting new
# samples well before it.
TOTAL_LIMIT_S = 170.0
MIN_SAMPLES = 3
MIN_PROBES = 4
WARM_PASSES = 4  # batch_mixed: all-hit passes after each cold pass
CACHE = ".bench_cache"
SRC = "src"  # the program, relative to the checkout root
# Boundary-F1 floors recorded by floors.py; the F1 gates check against them.
FLOORS_PATH = os.path.join(HERE, "f1_floors.json")

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"),
              ("records_per_s", "records/s")]

PER_LAYER = [
    ("setup.import_repro_s", "s"), ("setup.import_scipy_s", "s"),
    ("setup.import_numpy_s", "s"),
    ("trace.read_trace.self_s", "s"), ("trace.read_trace.calls", "count"),
    ("trace.records", "count"),
    ("stream.process_text.self_s", "s"), ("stream.records", "count"),
    ("stream.refits", "count"), ("stream.refit_failures", "count"),
    ("stream.refit.p50_s", "s"), ("stream.finalize.self_s", "s"),
    ("clustering.extract_bursts.self_s", "s"),
    ("clustering.build_features.self_s", "s"),
    ("clustering.estimate_eps.self_s", "s"), ("clustering.dbscan_fit.self_s", "s"),
    ("clustering.bursts", "count"), ("clustering.clusters", "count"),
    ("folding.select_instances.self_s", "s"), ("folding.fold_cluster.self_s", "s"),
    ("folding.clip_to_unit_range.self_s", "s"),
    ("folding.enforce_instance_monotonicity.self_s", "s"),
    ("folding.fold_callstacks.self_s", "s"), ("folding.folded_points", "count"),
    ("fitting.fit_pwlr.self_s", "s"), ("fitting.fit_pwlr.calls", "count"),
    ("fitting.refit_slopes_many.self_s", "s"),
    ("fitting.candidate_evaluations", "count"),
    ("phases.detect_phases.self_s", "s"), ("phases.map_phases_to_source.self_s", "s"),
    ("phases.phases", "count"),
    ("analysis.analyze.self_s", "s"), ("analysis.generate_hints.self_s", "s"),
    ("analysis.render_report.self_s", "s"),
    ("store.fingerprint_trace_file.self_s", "s"), ("store.get.self_s", "s"),
    ("store.put.self_s", "s"), ("store.hits", "count"), ("store.misses", "count"),
    ("store.bytes_written", "bytes"),
    ("service.run_batch.self_s", "s"), ("service.run_job_isolated.self_s", "s"),
    ("service.jobs", "count"), ("service.attempts", "count"),
    ("service.failed", "count"), ("service.hit_p50_s", "s"),
    ("observability.ledger_append.self_s", "s"),
    ("bench.span_coverage", "share"), ("bench.trace_overhead_s", "s"),
]

# Counts read from the program's own metrics registry in the traced run.
REGISTRY_COUNTS = {"fitting.candidate_evaluations": "pwlr.candidate_evaluations",
                   "store.hits": "store.hits", "store.misses": "store.misses"}


class BenchError(Exception):
    """The benchmark itself cannot run (not a failed correctness gate)."""


class Gates:
    """Every correctness check made, and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# ----------------------------------------------------------------------
# host record
# ----------------------------------------------------------------------
def _cpu_times() -> List[int]:
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return [int(v) for v in fields[1:9]]  # user .. steal


def _loadavg() -> float:
    with open("/proc/loadavg", encoding="ascii") as handle:
        return float(handle.read().split()[0])


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
class Runner:
    """Spawns one child at a time and times it with the monotonic clock."""

    def __init__(self, work: str, hard_deadline: float) -> None:
        self.src = os.path.abspath(SRC)
        self.work = work
        self.hard_deadline = hard_deadline
        # Children keep their temporary files inside the checkout too.
        self.env = dict(os.environ, TMPDIR=work, **PINNED_ENV)
        self.n = 0

    def spawn(self, argv: List[str], stdout_path: Optional[str] = None,
              env: Optional[Dict[str, str]] = None) -> Dict[str, object]:
        """Run ``argv`` to completion; returns spawn/exit times and rusage."""
        self.n += 1
        err_path = os.path.join(self.work, f"stderr-{self.n}.txt")
        remaining = self.hard_deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before spawning a child")
        stdout = open(stdout_path, "w") if stdout_path else subprocess.DEVNULL
        try:
            with open(err_path, "w") as stderr:
                t_spawn = time.monotonic()
                argv = [a.replace("{SPAWN_T}", repr(t_spawn)) for a in argv]
                proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr,
                                        env=env or self.env, start_new_session=True)
                status, usage, t_exit = _wait(proc, remaining)
        finally:
            if stdout is not subprocess.DEVNULL:
                stdout.close()
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            stderr_text = handle.read()
        os.unlink(err_path)
        return {"t_spawn": t_spawn, "t_exit": t_exit, "status": status,
                "peak_rss_mb": usage.ru_maxrss / 1024.0, "stderr": stderr_text}

    def child(self, mode: str, extra: List[str], stdout_path: Optional[str] = None):
        """Run ``child.py MODE``; returns (process record, child's JSON)."""
        out_path = os.path.join(self.work, f"out-{self.n + 1}.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"), mode, "--src", self.src,
                "--spawn-t", "{SPAWN_T}", "--out", out_path] + extra
        proc = self.spawn(argv, stdout_path)
        data: Dict[str, object] = {}
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as handle:
                data = json.load(handle)
            os.unlink(out_path)
        return proc, data


def _wait(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` (killing its session on timeout); returns the
    exit code, its rusage (which covers the children it waited for, so
    forked job workers count toward peak RSS) and the exit time."""
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
        t_exit = time.monotonic()
        if not ready:
            os.killpg(proc.pid, signal.SIGKILL)
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not ready:
        raise BenchError(f"child {proc.args[2:3]} overran the run's time limit")
    return proc.returncode, usage, t_exit


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _inputs_digest() -> str:
    """Digest of the code that makes the inputs: the program and inputs.py."""
    paths = [os.path.join(HERE, "inputs.py"), os.path.join(HERE, "workloads.py")]
    for root, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        paths += [os.path.join(root, name) for name in sorted(files)
                  if name.endswith(".py")]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def prepare_inputs(runner: Runner, workload: str, seed: int, size: str) -> str:
    """Generate (or reuse) the seeded inputs in a process of their own."""
    key = f"{workload}-{size}-seed{seed}-{_inputs_digest()}"
    out = os.path.join(CACHE, "inputs", key)
    if not os.path.exists(os.path.join(out, "inputs.json")):
        shutil.rmtree(out, ignore_errors=True)
        proc = runner.spawn([sys.executable, os.path.join(HERE, "inputs.py"), workload,
                             "--seed", str(seed), "--size", size, "--src", runner.src,
                             "--out", out])
        if proc["status"] != 0:
            raise BenchError(f"input generation failed:\n{proc['stderr'][-2000:]}")
    return out


def f1_floors(workload: str, size: str, seed: int, n_inputs: int) -> List[float]:
    """The committed boundary-F1 floor of each input of a seed: the value
    recorded for a seed of the table, else the workload's fixed floor."""
    with open(FLOORS_PATH, encoding="utf-8") as handle:
        doc = json.load(handle)
    try:
        recorded = doc["table"][workload][size].get(str(seed))
        fixed = doc["other_seeds"][workload][size]
    except KeyError:
        raise BenchError(f"{FLOORS_PATH} has no F1 floors for {workload} {size}") from None
    floors = recorded if recorded is not None else [fixed] * n_inputs
    if len(floors) != n_inputs:
        raise BenchError(f"{FLOORS_PATH}: {len(floors)} floors for {n_inputs} inputs")
    return floors


# ----------------------------------------------------------------------
# one sample per workload
# ----------------------------------------------------------------------
# Each sampler runs one sample on ``target``: one entry of inputs.json
# (analyze, watch) or the batch's directory of traces.
def sample_analyze(runner: Runner, inputs: str, target: dict, trace_dir: Optional[str]):
    report_path = os.path.join(runner.work, "report.txt")
    extra = ["--input", os.path.join(inputs, target["file"])]
    if trace_dir:
        extra += ["--trace", trace_dir]
    proc, out = runner.child("analyze", extra, stdout_path=report_path)
    with open(report_path, encoding="utf-8") as handle:
        report = handle.read()
    sample = {"proc": proc, "out": out, "report": report,
              "wall_s": proc["t_exit"] - proc["t_spawn"],
              "peak_rss_mb": proc["peak_rss_mb"]}
    if "t_import" in out:
        sample["records_per_s"] = target["records"] / (proc["t_exit"] - out["t_import"])
    sample["t_end"] = proc["t_exit"]
    return sample


def sample_watch(runner: Runner, inputs: str, target: dict, trace_dir: Optional[str]):
    extra = ["--input", os.path.join(inputs, target["file"]), "--work", runner.work]
    if trace_dir:
        extra += ["--trace", trace_dir]
    proc, out = runner.child("watch", extra)
    sample = {"proc": proc, "out": out, "peak_rss_mb": proc["peak_rss_mb"]}
    result_path = os.path.join(runner.work, "result.json")
    if "t_end" in out:
        sample["wall_s"] = out["t_end"] - proc["t_spawn"]
        sample["t_end"] = out["t_end"]
        sample["records_per_s"] = out["records"] / out["ingest_s"]
        sample["finalize_s"] = out["t_end"] - out["t_stream_end"]
        with open(result_path, encoding="utf-8") as handle:
            sample["result_json"] = handle.read()
    if os.path.exists(result_path):
        os.unlink(result_path)
    return sample


def sample_batch(runner: Runner, inputs: str, target: dict, trace_dir: Optional[str]):
    store = os.path.join(runner.work, "store")
    shutil.rmtree(store, ignore_errors=True)
    extra = ["--input", os.path.join(inputs, target["file"]), "--work", runner.work,
             "--warm-passes", str(WARM_PASSES)]
    if trace_dir:
        extra += ["--trace", trace_dir]
    proc, out = runner.child("batch", extra)
    shutil.rmtree(store, ignore_errors=True)
    sample = {"proc": proc, "out": out, "peak_rss_mb": proc["peak_rss_mb"]}
    if "t_end" in out:
        sample["wall_s"] = out["t_end"] - proc["t_spawn"]
        sample["t_end"] = out["t_end"]
        sample["records_per_s"] = target["records"] / (out["t_end"] - out["t_import"])
        sample["hits"] = [s for p in out["passes"][1:] for s in p["job_seconds"]]
    return sample


SAMPLERS = {"analyze_cgpop": sample_analyze, "watch_multiphase": sample_watch,
            "batch_mixed": sample_batch}


# ----------------------------------------------------------------------
# correctness gates
# ----------------------------------------------------------------------
def check_sample(workload: str, sample: dict, inputs: str, target: dict, gates: Gates,
                 label: str) -> None:
    proc, out = sample["proc"], sample["out"]
    if not gates.check(proc["status"] == 0 and "t_import" in out,
                       f"{label}: exit {proc['status']}: {proc['stderr'][-600:]}"):
        if workload == "batch_mixed":  # its jobs never ran: count them failed
            for _ in range(target["jobs"] * (1 + WARM_PASSES)):
                gates.check(False, f"{label}: job not run")
        return
    if workload != "batch_mixed":
        with open(os.path.join(inputs, target["reference"]), encoding="utf-8") as handle:
            reference = handle.read()
        if workload == "analyze_cgpop":
            gates.check(sample["report"] == reference,
                        f"{label}: report differs from the reference")
            detected = report_boundaries(sample["report"])
        else:
            gates.check(sample.get("result_json") == reference,
                        f"{label}: finalize() result differs from the batch analysis")
            detected = out.get("boundaries", {})
        f1 = f1_score(detected, target["planted"])
        gates.check(f1 >= target["floor"] - 1e-9,
                    f"{label}: boundary F1 {f1:.3f} < committed floor {target['floor']:.3f}")
    else:
        passes = out["passes"]
        cold = passes[0]
        cold_jobs = {job["label"]: job for job in cold["report"]["jobs"]}
        for index, done in enumerate(passes):
            gates.check(len(done["report"]["jobs"]) == target["jobs"],
                        f"{label}: pass {index} ran {len(done['report']['jobs'])} jobs, "
                        f"not one per input trace ({target['jobs']})")
        for job in cold["report"]["jobs"]:
            gates.check(job["state"] == "done",
                        f"{label}: cold job {job['label']} ended {job['state']}")
        payload = ("fingerprint", "n_clusters", "n_phases", "worst_diagnostic")
        for index, warm in enumerate(passes[1:], 1):
            for job in warm["report"]["jobs"]:
                ref = cold_jobs.get(job["label"], {})
                gates.check(job["state"] == "cached"
                            and all(job[k] == ref.get(k) for k in payload),
                            f"{label}: warm pass {index} job {job['label']} ended "
                            f"{job['state']} or its payload differs from the cold pass")
            gates.check(warm["artifacts"] == cold["artifacts"] and cold["artifacts"],
                        f"{label}: stored artifacts changed in warm pass {index}")


# ----------------------------------------------------------------------
# traced-run reduction
# ----------------------------------------------------------------------
def _importtime(runner: Runner) -> Dict[str, float]:
    """Outermost cumulative import time (s) of repro, scipy and numpy."""
    code = f"import sys; sys.path.insert(0, {runner.src!r}); import repro.cli"
    proc = runner.spawn([sys.executable, "-X", "importtime", "-c", code])
    if proc["status"] != 0:
        raise BenchError(f"import probe failed:\n{proc['stderr'][-2000:]}")
    found: Dict[str, float] = {}
    for line in proc["stderr"].splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if match and match.group(2) in ("repro", "scipy", "numpy"):
            found.setdefault(match.group(2), int(match.group(1)) / 1e6)
    if set(found) != {"repro", "scipy", "numpy"}:
        raise BenchError(f"import probe did not import {{repro, scipy, numpy}}: {found}")
    return found


def reduce_trace(sample: dict, trace_dir: str) -> Dict[str, float]:
    """Per-layer metrics of one traced sample."""
    from spans import coverage, self_times

    with open(os.path.join(trace_dir, "main.json"), encoding="utf-8") as handle:
        main = json.load(handle)
    docs = [main]
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("worker-"):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as handle:
                docs.append(json.load(handle))
    spans = [s for doc in docs for s in doc["spans"]]
    counts: Dict[str, float] = {}
    for doc in docs:
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for metric, key in REGISTRY_COUNTS.items():
            counts[metric] = counts.get(metric, 0) + doc["registry"].get(key, 0)
    selfs = self_times(spans)
    metrics: Dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name.endswith(".self_s"):
            metrics[name] = selfs.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            base = name[: -len(".calls")]
            metrics[name] = sum(1 for s in spans if s["name"] == base)
        elif name in counts:
            metrics[name] = counts[name]
    refits = [s["end"] - s["start"] for s in spans if s["name"] == "stream.refit"]
    metrics["stream.refit.p50_s"] = statistics.median(refits) if refits else 0.0
    out = sample["out"]
    metrics["stream.refits"] = out.get("refits", 0)
    metrics["stream.refit_failures"] = out.get("refit_failures", 0)
    jobs = [job for p in out.get("passes", []) for job in p["report"]["jobs"]]
    metrics["service.jobs"] = len(jobs)
    metrics["service.attempts"] = sum(job["attempts"] for job in jobs)
    metrics["service.failed"] = sum(1 for job in jobs if job["state"] not in ("done", "cached"))
    main_spans = [s for s in spans if s["pid"] == out["pid"]]
    wall = sample["t_end"] - sample["proc"]["t_spawn"]
    metrics["bench.span_coverage"] = coverage(main_spans, sample["proc"]["t_spawn"],
                                              sample["t_end"])
    # Inclusive share of traced wall per span name (outermost spans of a
    # name only, so recursion does not count twice); printed, not gated.
    by_id = {s["id"]: s for s in main_spans}
    for span in main_spans:
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != span["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            key = "share." + span["name"]
            metrics[key] = metrics.get(key, 0.0) + (span["end"] - span["start"]) / wall
    return metrics


# ----------------------------------------------------------------------
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _tail(values: List[float]):
    """(percentile, value) of the highest sample with ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SAMPLERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input size; tiny is for the self-check only")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"e2ebench: no program at {SRC}/repro; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(SRC))  # for the F1 gate's matcher
    default_env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    os.environ.update(PINNED_ENV)  # this process imports numpy for the gates too

    t_start = time.monotonic()
    cpu_start, load_start = _cpu_times(), _loadavg()
    work = os.path.abspath(os.path.join(CACHE, "work", str(os.getpid())))
    os.makedirs(work, exist_ok=True)
    runner = Runner(work, t_start + TOTAL_LIMIT_S)
    try:
        return _run(args, runner, default_env, t_start, cpu_start, load_start)
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, runner: Runner, default_env: Dict[str, str], t_start: float,
         cpu_start, load_start) -> int:
    workload = args.workload
    inputs = prepare_inputs(runner, workload, args.seed, args.size)
    with open(os.path.join(inputs, "inputs.json"), encoding="utf-8") as handle:
        meta = json.load(handle)
    for item in meta["inputs"]:  # page the inputs in before timing
        with open(os.path.join(inputs, item["file"]), "rb") as handle:
            while handle.read(1 << 20):
                pass
    runner.child("probe", [])  # discarded warm-up: .pyc and page cache
    default_out = os.path.join(runner.work, "pool-default.json")
    runner.spawn([sys.executable, os.path.join(HERE, "child.py"), "pool", "--src",
                  runner.src, "--spawn-t", "0", "--out", default_out],
                 env=dict(default_env, TMPDIR=runner.work))
    with open(default_out, encoding="utf-8") as handle:
        default_pool = json.load(handle).get("blas_threads")

    sampler = SAMPLERS[workload]
    if "input" in meta:  # batch: every sample runs the whole directory
        targets = [{"file": meta["input"], "jobs": len(meta["inputs"]),
                    "records": sum(i["records"] for i in meta["inputs"])}]
    else:
        targets = meta["inputs"]
        floors = f1_floors(workload, args.size, args.seed, len(targets))
        for target, floor in zip(targets, floors):
            target["floor"] = floor
    gates = Gates()
    samples: List[dict] = []
    traced: List[dict] = []
    probes: List[float] = []
    layer_runs: List[Dict[str, float]] = []
    imports: List[Dict[str, float]] = []
    t_measure = time.monotonic()
    deadline = t_measure + args.seconds
    last = 0.0
    while True:
        now = time.monotonic()
        enough = bool(traced) if args.trace else len(samples) >= MIN_SAMPLES
        if (now >= deadline and enough) or (
                samples and now + 2 * last > runner.hard_deadline - 5):
            break
        begin = time.monotonic()
        target = targets[len(samples) % len(targets)]
        samples.append(sampler(runner, inputs, target, None))
        check_sample(workload, samples[-1], inputs, target, gates,
                     f"sample {len(samples)}")
        if args.trace:
            trace_dir = os.path.join(runner.work, f"trace-{len(traced)}")
            os.makedirs(trace_dir)
            traced.append(sampler(runner, inputs, target, trace_dir))
            check_sample(workload, traced[-1], inputs, target, gates,
                         f"traced sample {len(traced)}")
            if "t_end" in traced[-1] and os.path.exists(os.path.join(trace_dir, "main.json")):
                layer_runs.append(reduce_trace(traced[-1], trace_dir))
            shutil.rmtree(trace_dir)
            imports.append(_importtime(runner))
        else:
            probe_proc, probe = runner.child("probe", [])
            if probe_proc["status"] == 0:
                probes.append(probe["t_import"] - probe_proc["t_spawn"])
        last = time.monotonic() - begin
    while not args.trace and len(probes) < MIN_PROBES:
        probe_proc, probe = runner.child("probe", [])
        if probe_proc["status"] == 0:
            probes.append(probe["t_import"] - probe_proc["t_spawn"])
    t_measured = time.monotonic() - t_measure

    cpu_end, load_end = _cpu_times(), _loadavg()
    delta = [b - a for a, b in zip(cpu_start, cpu_end)]
    pinned_pool = sorted({s["out"].get("blas_threads") for s in samples})
    host = {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads_pinned": pinned_pool, "blas_threads_default": default_pool,
        "pin_env": PINNED_ENV,
        "pin_note": ("known program defect: repro never caps its BLAS pool; on a "
                     "2-vCPU VM at the default pool analyze_cgpop took 0.65 s longer "
                     "and burned 4.85 s CPU for 3.50 s wall, so every measured child "
                     "runs pinned to one thread and this benchmark cannot show the "
                     "gain of fixing that"),
        "steal_share": round(delta[7] / max(1, sum(delta)), 4),
        "loadavg_1m_start": load_start, "loadavg_1m_end": load_end,
        "run_s": round(time.monotonic() - t_start, 2), "measured_s": round(t_measured, 2),
        "busy_children_at_once": 1,
    }

    ok_samples = [s for s in samples if "wall_s" in s]
    metrics: Dict[str, Dict[str, object]] = {}
    if args.trace:
        for name, unit in PER_LAYER:
            values = [run[name] for run in layer_runs if name in run]
            metrics[name] = {"value": _median(values), "unit": unit}
        for key in ("repro", "scipy", "numpy"):
            metrics[f"setup.import_{key}_s"]["value"] = _median([i[key] for i in imports])
        ok_traced = [s for s in traced if "wall_s" in s]
        if ok_traced and ok_samples:
            metrics["bench.trace_overhead_s"]["value"] = (
                _median([s["wall_s"] for s in ok_traced])
                - _median([s["wall_s"] for s in ok_samples]))
        hits = [h for s in ok_samples for h in s.get("hits", [])]
        metrics["service.hit_p50_s"]["value"] = _median(hits)
    else:
        metrics["setup_s"] = {"value": _median(probes), "unit": "s"}
        for name, unit in END_TO_END[1:]:
            metrics[name] = {"value": _median([s[name] for s in ok_samples if name in s]),
                             "unit": unit}

    # human-readable lines
    print(f"e2ebench {workload} seed={args.seed} size={args.size} trace={args.trace}")
    for item in meta["inputs"]:
        f1 = (f", reference boundary F1 {item['f1']:.3f} (floor {item['floor']:.3f})"
              if "floor" in item else "")
        print(f"input: {item['app']} {item['iterations']} iterations x {item['ranks']} "
              f"ranks, seed {item['seed']}: {item['records']} records, "
              f"{item['bytes']} bytes{f1}")
    print("host: " + json.dumps(host, sort_keys=True))
    for index, s in enumerate(samples, 1):
        cells = [f"{k}={s[k]:.4f}" for k in ("wall_s", "peak_rss_mb", "records_per_s",
                                            "finalize_s") if k in s]
        print(f"sample {index}: " + " ".join(cells))
    if probes:
        print(f"setup probes (n={len(probes)}): " + " ".join(f"{p:.3f}" for p in probes))
    finals = [s["finalize_s"] for s in ok_samples if "finalize_s" in s]
    if finals:
        print(f"finalize_s: {_median(finals):.4f} s (median of {len(finals)})")
    hits = [h for s in ok_samples for h in s.get("hits", [])]
    if hits:
        tail = _tail(hits)
        tail_text = f", p{tail[0]} {tail[1]:.4f} s" if tail else ""
        print(f"hit_p50_s: {_median(hits):.4f} s{tail_text} (n={len(hits)} warm jobs)")
    shares = sorted({k for run in layer_runs for k in run if k.startswith("share.")})
    if shares:
        print("inclusive share of traced wall (median): " + " ".join(
            f"{k[6:]}={_median([run.get(k, 0.0) for run in layer_runs]):.3f}"
            for k in shares))
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    for failure in gates.failures:
        print(f"GATE FAILED: {failure}")
    correct = not gates.failures and bool(ok_samples)
    print(json.dumps({"correct": correct, "attempted": max(1, gates.attempted),
                      "failed": len(gates.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
