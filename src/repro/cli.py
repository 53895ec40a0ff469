"""Command-line interface.

Mirrors the real toolchain's workflow split::

    python -m repro apps                          # list built-in applications
    python -m repro trace --app cgpop -o run.rpt  # "run" + trace to a file
    python -m repro stats run.rpt                 # trace health summary
    python -m repro check run.rpt                 # validate a trace file
    python -m repro check run.rpt --salvage       # ...salvaging what it can
    python -m repro analyze run.rpt               # folding analysis + report
    python -m repro analyze - < run.rpt           # any input may be stdin (-)
    python -m repro analyze run.rpt --profile p.json --log-jsonl ev.jsonl
    python -m repro analyze run.rpt --store st/   # read-through result cache
    python -m repro watch run.rpt --json          # follow a growing trace
    python -m repro watch run.rpt --checkpoint c.json --metrics-port 9461
    python -m repro report p.json                 # where-did-the-time-go
    python -m repro demo --app pmemd --optimize   # full methodology + case study
    python -m repro batch traces/ --store st/     # analyze a whole directory
    python -m repro batch traces/ --store st/ --deadline 60 --resume
    python -m repro batch traces/ --store st/ --live --metrics-port 9461
    python -m repro batch traces/ --store st/ --json > report.json
    python -m repro perf history st/              # recorded run history
    python -m repro perf check st/ --gate         # PWLR self-regression gate
    python -m repro store fsck st/ --repair       # integrity scan + repair
    python -m repro query st/                     # list stored results
    python -m repro query st/ 617f477ff543        # re-render one stored report
    python -m repro diff st/ FP_A FP_B            # per-phase rate regressions

Global flags (before the subcommand) control logging: ``-q`` silences the
stage-progress lines long analyses emit by default, ``-v`` shows all
``repro.*`` INFO records, ``-vv`` turns on DEBUG with timestamps.

All commands are deterministic given ``--seed``.  ``check`` exits 0 when
the trace is usable under the selected policy, 1 on a strict-mode format
violation (or a failed ``--deep`` analysis), and 2 when even salvage
recovers nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import signal
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional

from repro.analysis.hints import generate_hints
from repro.analysis.methodology import describe_application, run_case_study
from repro.analysis.pipeline import AnalyzerConfig, FoldingAnalyzer
from repro.analysis.report import (
    format_table,
    render_report,
    render_store_listing,
)
from repro.errors import (
    AnalysisError,
    ReproError,
    SalvageError,
    StoreLockError,
    StreamError,
    TraceFormatError,
)
from repro.machine.cpu import CoreModel
from repro.machine.spec import MachineSpec
from repro.observability import (
    PROGRESS_LOGGER,
    JobStateTracker,
    Observability,
    RunLedger,
    TelemetryServer,
    configure_cli_logging,
    read_profile_json,
    render_hotspots,
    render_metrics,
    render_profile_tree,
    stage_table,
    write_chrome_trace,
    write_jsonl_events,
    write_profile_json,
)
from repro.resilience import Severity
from repro.runtime.engine import ExecutionEngine
from repro.runtime.sampler import SamplerConfig
from repro.runtime.tracer import Tracer, TracerConfig
from repro.service import (
    BatchConfig,
    LiveDashboard,
    check_history,
    diff_stored,
    load_manifest,
    run_batch,
    stage_series,
)
from repro.store import (
    ResultStore,
    analyze_cached,
    fingerprint_config,
    fingerprint_trace_file,
    fsck_store,
    result_to_dict,
)
from repro.stream import (
    StreamConfig,
    StreamEngine,
    TraceTailSource,
    resume_engine,
    save_checkpoint,
)
from repro.trace.reader import read_trace, read_trace_salvaged
from repro.trace.stats import compute_stats
from repro.trace.writer import write_trace
from repro.workload.apps import (
    cgpop_app,
    cgpop_optimized,
    dalton_app,
    dalton_optimized,
    mrgenesis_app,
    mrgenesis_optimized,
    multiphase_app,
    pmemd_app,
    pmemd_optimized,
)

__all__ = ["main", "APP_BUILDERS"]

APP_BUILDERS: Dict[str, Callable] = {
    "multiphase": multiphase_app,
    "cgpop": cgpop_app,
    "pmemd": pmemd_app,
    "mrgenesis": mrgenesis_app,
    "dalton": dalton_app,
}

OPTIMIZERS: Dict[str, tuple] = {
    "cgpop": (cgpop_optimized, "cache blocking of the stencil"),
    "pmemd": (pmemd_optimized, "vectorization of the force loop"),
    "mrgenesis": (mrgenesis_optimized, "if-conversion of the Riemann solver"),
    "dalton": (dalton_optimized, "master/worker collection restructuring"),
}


def _build_app(args: argparse.Namespace):
    try:
        builder = APP_BUILDERS[args.app]
    except KeyError:
        raise SystemExit(
            f"unknown app {args.app!r}; choose from {sorted(APP_BUILDERS)}"
        )
    return builder(iterations=args.iterations, ranks=args.ranks)


def _core() -> CoreModel:
    return CoreModel(MachineSpec())


def _add_app_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--app", default="cgpop", help=f"application ({sorted(APP_BUILDERS)})"
    )
    parser.add_argument("--iterations", type=int, default=150)
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--period-ms", type=float, default=20.0, help="sampling period (ms)"
    )


def _cmd_apps(_args: argparse.Namespace) -> int:
    for name, builder in sorted(APP_BUILDERS.items()):
        doc = (builder.__doc__ or "").strip().splitlines()[0]
        print(f"{name:<12} {doc}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    app = _build_app(args)
    timeline = ExecutionEngine(_core(), seed=args.seed).run(app)
    config = TracerConfig(
        sampler=SamplerConfig(period_s=args.period_ms / 1e3), seed=args.seed
    )
    trace = Tracer(config).trace(timeline)
    write_trace(trace, args.output)
    print(
        f"wrote {args.output}: {trace.n_records} records, "
        f"{trace.n_ranks} ranks, {trace.duration:.3f}s simulated"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    stats = compute_stats(trace)
    print(f"application:        {trace.app_name or '(unnamed)'}")
    print(f"ranks:              {stats.n_ranks}")
    print(f"duration:           {stats.duration:.3f} s")
    print(f"states/probes/samples: {stats.n_states}/{stats.n_probes}/{stats.n_samples}")
    print(f"compute fraction:   {stats.compute_fraction:.1%}")
    print(f"parallel efficiency:{stats.parallel_efficiency:>7.2f}")
    print(f"mean sample period: {stats.mean_sample_period * 1e3:.2f} ms")
    print(f"samples inside MPI: {stats.samples_in_mpi_fraction:.1%}")
    return 0


@contextlib.contextmanager
def _input_path(path: str, suffix: str = ".rpt"):
    """Yield a real filesystem path for ``path``; ``-`` spools stdin.

    Every command that names an input file accepts ``-`` through this:
    stdin is copied to a temp file (removed on exit from the block), so
    downstream code — including byte-hashing store fingerprints — only
    ever sees ordinary paths.
    """
    if path != "-":
        yield path
        return
    fd, tmp = tempfile.mkstemp(prefix="repro-stdin-", suffix=suffix)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for chunk in iter(lambda: sys.stdin.read(1 << 16), ""):
                handle.write(chunk)
        yield tmp
    finally:
        os.unlink(tmp)


def _cmd_check(args: argparse.Namespace) -> int:
    with _input_path(args.trace) as trace_path:
        args.trace = trace_path
        return _cmd_check_impl(args)


def _cmd_check_impl(args: argparse.Namespace) -> int:
    if not os.path.exists(args.trace):
        print(f"check FAILED: no such file: {args.trace}")
        return 2
    if args.salvage:
        try:
            trace, report = read_trace_salvaged(args.trace)
        except SalvageError as exc:
            print(f"check FAILED (nothing salvageable): {exc}")
            return 2
        print(report.summary())
    else:
        try:
            trace = read_trace(args.trace)
        except TraceFormatError as exc:
            print(f"check FAILED (strict): {exc}")
            print("hint: re-run with --salvage to recover what is readable")
            return 1
        report = None
        print(f"strict read OK: {trace.n_records} records, {trace.n_ranks} ranks")

    stats = compute_stats(trace)
    print(
        f"trace summary: {trace.app_name or '(unnamed)'}, "
        f"{stats.duration:.3f}s, "
        f"{stats.n_states}/{stats.n_probes}/{stats.n_samples} "
        f"states/probes/samples"
    )
    if args.deep:
        try:
            result = FoldingAnalyzer().analyze(trace, salvage=report)
        except AnalysisError as exc:
            print(f"deep check FAILED: {exc}")
            return 1
        print(
            f"deep check OK: {result.n_clusters_analyzed} cluster(s) analyzed, "
            f"{len(result.skipped)} skipped"
        )
        print(result.diagnostics.summary())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    with _input_path(args.trace) as trace_path:
        args.trace = trace_path
        return _cmd_analyze_impl(args)


def _cmd_analyze_impl(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    config = AnalyzerConfig(n_jobs=args.jobs)

    def produce():
        if args.store:
            cached = analyze_cached(args.trace, ResultStore(args.store), config=config)
            note = "cache hit" if cached.cache_hit else "analyzed and stored"
            print(
                f"store: {note} ({cached.fingerprint[:12]}) in {args.store}",
                file=sys.stderr,
            )
            return cached.result
        trace = read_trace(args.trace)
        return FoldingAnalyzer(config).analyze(trace)

    sinks_requested = bool(args.profile or args.log_jsonl or args.chrome_trace)
    if sinks_requested or args.store:
        # Activate a fresh collector around the whole command so the
        # read_trace span lands in the same profile as the analysis —
        # and, with --store, in the store's telemetry ledger.
        obs = Observability()
        start = time.perf_counter()
        with obs.activate():
            result = produce()
        wall_s = time.perf_counter() - start
        profile = obs.profile()
        metrics = obs.metrics.snapshot()
        if args.store:
            _record_ledger_run(
                args.store, "analyze", wall_s, profile, metrics, config
            )
        if args.profile:
            write_profile_json(args.profile, profile, metrics)
            print(f"profile written to {args.profile}", file=sys.stderr)
        if args.log_jsonl:
            with open(args.log_jsonl, "w") as fh:
                n = write_jsonl_events(fh, profile, metrics, result.diagnostics)
            print(
                f"{n} events written to {args.log_jsonl}", file=sys.stderr
            )
        if args.chrome_trace:
            write_chrome_trace(args.chrome_trace, profile)
            print(
                f"chrome trace written to {args.chrome_trace} "
                "(load in chrome://tracing or ui.perfetto.dev)",
                file=sys.stderr,
            )
    else:
        result = produce()
    hints = generate_hints(result)
    print(render_report(result, hints))
    worst = result.diagnostics.worst
    if args.strict and worst is not None and worst >= Severity.DEGRADED:
        print(
            f"strict: diagnostics reached {worst} "
            f"(degraded-mode fallbacks were taken); failing",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from_stdin = args.trace == "-"
    if from_stdin and (args.checkpoint or args.resume):
        print("watch: --checkpoint/--resume need a real file, not stdin",
              file=sys.stderr)
        return 1
    if args.resume and not args.checkpoint:
        print("watch: --resume needs --checkpoint PATH", file=sys.stderr)
        return 1
    try:
        config = StreamConfig(
            warmup_bursts=args.warmup,
            reservoir_capacity=args.reservoir,
            refit_every=args.refit_every,
            seed=args.seed,
            salvage=args.salvage,
        )
    except StreamError as exc:
        print(f"watch: {exc}", file=sys.stderr)
        return 1

    try:
        if args.resume:
            engine, source = resume_engine(args.checkpoint, args.trace, config)
            print(
                f"watch: resumed from {args.checkpoint} at byte "
                f"{source.offset} ({engine.n_records} records in)",
                file=sys.stderr,
            )
        elif from_stdin:
            engine = StreamEngine(config)
            source = TraceTailSource.from_stream(sys.stdin)
        else:
            if not os.path.exists(args.trace):
                print(f"watch: no such file: {args.trace}", file=sys.stderr)
                return 1
            engine = StreamEngine(config)
            source = TraceTailSource(args.trace)
    except StreamError as exc:
        print(f"watch: {exc}", file=sys.stderr)
        return 1

    # File mode needs a stop condition; without one, "the trace stopped
    # growing" is the only sane default.
    idle_timeout = args.until_idle
    if not from_stdin and idle_timeout is None and args.max_seconds is None:
        idle_timeout = 5.0

    interrupted = {"flag": False}

    def _on_sigint(_signum, _frame):
        interrupted["flag"] = True

    def _checkpoint(eng: StreamEngine, src: TraceTailSource) -> None:
        digest = save_checkpoint(args.checkpoint, eng, src)
        eng.n_checkpoints += 1
        eng_obs.publish(
            "stream_checkpoint",
            label="watch",
            path=args.checkpoint,
            offset=src.offset,
            digest=digest[:12],
        )

    eng_obs = Observability()
    server = None
    previous_handler = signal.signal(signal.SIGINT, _on_sigint)
    start = time.perf_counter()
    try:
        if args.metrics_port is not None:
            server = TelemetryServer(eng_obs.metrics, port=args.metrics_port)
            try:
                port = server.start()
            except ReproError as exc:
                print(f"watch: {exc}", file=sys.stderr)
                return 1
            print(
                f"telemetry: serving /metrics on http://127.0.0.1:{port}",
                file=sys.stderr,
            )
        with eng_obs.activate():
            try:
                reason = engine.follow(
                    source,
                    poll_interval=args.poll,
                    idle_timeout=idle_timeout,
                    max_seconds=args.max_seconds,
                    on_checkpoint=_checkpoint if args.checkpoint else None,
                    checkpoint_every=(
                        args.checkpoint_every if args.checkpoint else None
                    ),
                    should_stop=lambda: interrupted["flag"],
                )
            except StreamError as exc:
                print(f"watch: {exc}", file=sys.stderr)
                return 1
            if reason == "stopped":
                if args.checkpoint:
                    _checkpoint(engine, source)
                    print(
                        f"watch: interrupted; checkpoint saved to "
                        f"{args.checkpoint} (resume with --resume)",
                        file=sys.stderr,
                    )
                else:
                    print("watch: interrupted before finalization",
                          file=sys.stderr)
                print(engine.report().render(), file=sys.stderr)
                return 130
            result = engine.finalize(source)
        wall_s = time.perf_counter() - start
    finally:
        signal.signal(signal.SIGINT, previous_handler)
        if server is not None:
            server.close()
        source.close()
        if from_stdin:
            # The stdin spool outlives the source only until finalize has
            # re-read it; it is ours to remove.
            with contextlib.suppress(OSError):
                os.unlink(source.final_path())

    if args.store:
        if from_stdin:
            print("watch: --store skipped for stdin input (no stable "
                  "trace file to fingerprint)", file=sys.stderr)
        else:
            store = ResultStore(args.store)
            fingerprint = fingerprint_trace_file(
                args.trace, config.analyzer, salvage=config.salvage
            )
            store.put(fingerprint, result, meta={"source": "watch"})
            print(
                f"store: finalized result stored ({fingerprint[:12]}) "
                f"in {args.store}",
                file=sys.stderr,
            )
            _record_ledger_run(
                args.store, "watch", wall_s, eng_obs.profile(),
                eng_obs.metrics.snapshot(), config.analyzer,
            )

    report = engine.report()
    if args.json:
        document = {
            "format": "repro-watch/1",
            "reason": reason,
            "stream": report.to_dict(),
            "result": result_to_dict(result),
        }
        print(json.dumps(document, indent=1, sort_keys=True))
        print(report.render(), file=sys.stderr)
    else:
        hints = generate_hints(result)
        print(render_report(result, hints))
        print(report.render(), file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    with _input_path(args.profile, suffix=".json") as profile_path:
        args.profile = profile_path
        return _cmd_report_impl(args)


def _cmd_report_impl(args: argparse.Namespace) -> int:
    try:
        profile, metrics = read_profile_json(args.profile)
    except (OSError, ReproError) as exc:
        print(f"cannot read profile: {exc}", file=sys.stderr)
        return 1
    print(render_hotspots(profile))
    print()
    print(render_profile_tree(profile))
    if metrics:
        print()
        print(render_metrics(metrics))
    if args.chrome:
        write_chrome_trace(args.chrome, profile)
        # Status goes to stderr like `analyze --chrome-trace`, keeping
        # stdout clean for the report itself.
        print(
            f"chrome trace written to {args.chrome} "
            "(load in chrome://tracing or ui.perfetto.dev)",
            file=sys.stderr,
        )
    return 0


def _record_ledger_run(store_root, kind, wall_s, profile, metrics, config) -> None:
    """Append one run record to the store's telemetry ledger (best effort)."""
    ledger = RunLedger(store_root)
    try:
        ledger.append(
            ledger.build_record(
                kind=kind,
                wall_s=wall_s,
                stages=stage_table(profile),
                metrics=dict(metrics),
                config_fingerprint=fingerprint_config(config),
            )
        )
    except OSError as exc:
        print(f"telemetry: ledger write failed: {exc}", file=sys.stderr)


def _cmd_batch(args: argparse.Namespace) -> int:
    try:
        specs = load_manifest(args.manifest)
    except ReproError as exc:
        print(f"batch: {exc}", file=sys.stderr)
        return 1
    try:
        config = BatchConfig(
            n_workers=args.workers,
            max_attempts=args.attempts,
            backoff_base_s=args.backoff,
            salvage=args.salvage,
            deadline_s=args.deadline,
            resume=args.resume,
        )
    except ReproError as exc:
        print(f"batch: {exc}", file=sys.stderr)
        return 1
    store = ResultStore(args.store)
    obs = Observability()
    dashboard = None
    server = None
    progress_logger = logging.getLogger(PROGRESS_LOGGER)
    progress_was_disabled = progress_logger.disabled
    try:
        if args.live and sys.stderr.isatty():
            # The in-place redraws and the per-job progress lines share
            # stderr; silence the latter while the dashboard owns it.
            dashboard = LiveDashboard()
            obs.events.subscribe(dashboard)
            progress_logger.disabled = True
        if args.metrics_port is not None:
            tracker = JobStateTracker(registry=obs.metrics)
            obs.events.subscribe(tracker)
            server = TelemetryServer(
                obs.metrics, tracker=tracker, port=args.metrics_port
            )
            try:
                port = server.start()
            except ReproError as exc:
                print(f"batch: {exc}", file=sys.stderr)
                return 1
            print(
                f"telemetry: serving /metrics and /healthz on "
                f"http://127.0.0.1:{port}",
                file=sys.stderr,
            )
        try:
            with obs.activate():
                report = run_batch(specs, store, config)
        except StoreLockError as exc:
            print(f"batch: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            # Belt and braces: run_batch drains SIGINT cooperatively on
            # the main thread, so reaching here means the interrupt
            # landed outside the scheduler's window.  Never exit 0 on a
            # Ctrl-C.
            print("batch: interrupted before completion", file=sys.stderr)
            sys.stderr.flush()
            return 130
    finally:
        if dashboard is not None:
            obs.events.unsubscribe(dashboard)
            dashboard.close()
            progress_logger.disabled = progress_was_disabled
        if server is not None:
            server.close()
    if args.json:
        # Machine-readable report owns stdout; the human table moves to
        # stderr so `repro batch --json | jq` stays clean.
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
        print(report.render_status(), file=sys.stderr)
    else:
        print(report.render_status())
    sys.stdout.flush()
    latency = obs.metrics.histogram("service.job_seconds")
    if latency.count:
        print(
            f"job latency: p50 {latency.quantile(0.5):.3f}s, "
            f"p95 {latency.quantile(0.95):.3f}s, "
            f"max {latency.max:.3f}s",
            file=sys.stderr,
        )
    if report.diagnostics:
        print(report.diagnostics.summary(), file=sys.stderr)
    if report.interrupted:
        # Partial run: the status table above is the flushed partial
        # report; 130 is the conventional "died on SIGINT" exit code.
        return 130
    return 0 if report.ok else 1


def _cmd_query(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    if args.fingerprint:
        try:
            fingerprint = store.resolve(args.fingerprint)
            result = store.get(fingerprint)
            meta = store.get_meta(fingerprint)
        except ReproError as exc:
            print(f"query: {exc}", file=sys.stderr)
            return 1
        print(
            f"stored result {fingerprint[:12]} "
            f"(trace: {meta.get('trace_path', '?')})\n"
        )
        print(render_report(result, generate_hints(result)))
        return 0
    entries = list(store.entries())
    if not entries:
        print(f"store {args.store} is empty")
        return 0
    print(render_store_listing(entries))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    try:
        report = diff_stored(
            store, args.baseline, args.candidate, threshold=args.threshold
        )
    except ReproError as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    return 1 if report.has_regressions else 0


def _cmd_store_fsck(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    obs = Observability()
    with obs.activate():
        report = fsck_store(store, repair=args.repair)
    print(report.render())
    quarantined = store.quarantined()
    if quarantined:
        print(
            f"quarantine holds {len(quarantined)} artifact(s) "
            f"(see {store.quarantine_dir})",
            file=sys.stderr,
        )
    return 0 if report.healthy else 1


def _cmd_perf_history(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.store)
    records = ledger.records()
    if not records:
        print(f"perf: no telemetry records at {ledger.path}")
        return 0
    kinds: Dict[str, int] = {}
    for record in records:
        kind = str(record.get("kind", "?"))
        kinds[kind] = kinds.get(kind, 0) + 1
    by_kind = ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items()))
    print(f"{len(records)} run(s) recorded ({by_kind}) in {ledger.path}")
    rows = []
    for stage, durations in sorted(stage_series(records).items()):
        if args.stage and stage != args.stage:
            continue
        rows.append(
            [
                stage,
                str(len(durations)),
                f"{sum(durations) / len(durations):.4f}",
                f"{min(durations):.4f}",
                f"{max(durations):.4f}",
                f"{durations[-1]:.4f}",
            ]
        )
    if not rows:
        print(f"perf: no stage named {args.stage!r} in the ledger",
              file=sys.stderr)
        return 1
    print(format_table(
        ["stage", "runs", "mean s", "min s", "max s", "latest s"], rows
    ))
    return 0


def _cmd_perf_check(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.store)
    records = ledger.records()
    if not records:
        # A fresh store has no history to regress against; the gate must
        # pass so CI can run the check from day one.
        print(f"perf: no telemetry records at {ledger.path}; nothing to check")
        return 0
    try:
        report = check_history(
            records, threshold=args.threshold, min_runs=args.min_runs
        )
    except ReproError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    if report.regressions and not args.gate:
        print(
            "perf: regressions detected (informational; use --gate to fail)",
            file=sys.stderr,
        )
    return 1 if args.gate and not report.ok else 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from repro.verify import available_suites, run_selftest

    if args.list_suites:
        for name in available_suites():
            print(name)
        return 0
    report = run_selftest(full=args.full, seed=args.seed, suites=args.suite)
    print(report.render())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.report}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    app = _build_app(args)
    core = _core()
    if args.optimize:
        if args.app not in OPTIMIZERS:
            raise SystemExit(
                f"no built-in optimization for {args.app!r}; "
                f"available: {sorted(OPTIMIZERS)}"
            )
        optimizer, name = OPTIMIZERS[args.app]
        result, before, after = run_case_study(
            app, optimizer, core, name, seed=args.seed
        )
        print(before.report)
        print(f"transformation: {name}")
        print(
            f"wall time {result.base_wall_s:.3f}s -> {result.optimized_wall_s:.3f}s  "
            f"({result.speedup:.3f}x, {result.improvement_percent:.1f}% faster)"
        )
        print("\ncluster movement (before -> after):")
        from repro.analysis.tracking import render_comparison

        print(render_comparison(before.result, after.result))
    else:
        description = describe_application(app, core, seed=args.seed)
        print(description.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Folding + piece-wise linear regression phase detection",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="-v shows repro.* INFO logs, -vv adds DEBUG with timestamps",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="silence stage-progress lines (warnings still shown)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list built-in applications").set_defaults(
        func=_cmd_apps
    )

    p_trace = sub.add_parser("trace", help="run an app and write its trace")
    _add_app_options(p_trace)
    p_trace.add_argument("-o", "--output", required=True, help="trace file path")
    p_trace.set_defaults(func=_cmd_trace)

    p_stats = sub.add_parser("stats", help="summarize a trace file")
    p_stats.add_argument("trace", help="trace file path")
    p_stats.set_defaults(func=_cmd_stats)

    p_check = sub.add_parser(
        "check", help="validate a trace file (exit 0 = usable)"
    )
    p_check.add_argument("trace", help="trace file path, or - for stdin")
    p_check.add_argument(
        "--salvage",
        action="store_true",
        help="skip damaged lines and report them instead of failing",
    )
    p_check.add_argument(
        "--deep",
        action="store_true",
        help="also run the folding analysis and print its diagnostics",
    )
    p_check.set_defaults(func=_cmd_check)

    p_analyze = sub.add_parser("analyze", help="folding analysis of a trace file")
    p_analyze.add_argument("trace", help="trace file path, or - for stdin")
    p_analyze.add_argument(
        "--profile",
        metavar="PATH",
        help="write a structured per-stage timing profile (JSON)",
    )
    p_analyze.add_argument(
        "--log-jsonl",
        metavar="PATH",
        help="write span/metric/diagnostic events as JSON lines",
    )
    p_analyze.add_argument(
        "--chrome-trace",
        metavar="PATH",
        help="write a Chrome trace_event file for chrome://tracing / Perfetto",
    )
    p_analyze.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="analyze clusters on N worker processes (1 = serial; "
        "results are identical to a serial run)",
    )
    p_analyze.add_argument(
        "--store",
        metavar="DIR",
        help="read-through result store: reuse a stored result when the "
        "trace+config fingerprint matches, store the result otherwise",
    )
    p_analyze.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when diagnostics record degraded-mode "
        "fallbacks (severity >= degraded)",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_watch = sub.add_parser(
        "watch",
        help="follow a growing trace, keep a live phase model, and emit "
        "the exact batch result once it stops",
    )
    p_watch.add_argument(
        "trace", help="trace file to follow (may still be growing), or - for stdin"
    )
    p_watch.add_argument(
        "--until-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help="finalize once the file has not grown for this long "
        "(default 5s in file mode when no other stop condition is given)",
    )
    p_watch.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="finalize after at most this much wall time",
    )
    p_watch.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="poll interval while waiting for new bytes (default 0.2)",
    )
    p_watch.add_argument(
        "--json",
        action="store_true",
        help="print {format, reason, stream, result} as JSON on stdout "
        "(the human summary moves to stderr)",
    )
    p_watch.add_argument(
        "--store",
        metavar="DIR",
        help="store the finalized result under the analyze-compatible "
        "trace+config fingerprint (a later `analyze --store` cache-hits it)",
    )
    p_watch.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="periodically save resumable engine state to PATH "
        "(also saved on Ctrl-C)",
    )
    p_watch.add_argument(
        "--checkpoint-every",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="checkpoint cadence (default 30; needs --checkpoint)",
    )
    p_watch.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint PATH instead of starting fresh",
    )
    p_watch.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve OpenMetrics stream.live.* gauges on localhost:PORT "
        "(0 = ephemeral)",
    )
    p_watch.add_argument(
        "--salvage",
        action="store_true",
        help="finalize with the salvage read policy (matches "
        "`check --salvage` + a salvage analysis)",
    )
    p_watch.add_argument(
        "--warmup",
        type=int,
        default=48,
        metavar="N",
        help="bursts collected before the first online model fit (default 48)",
    )
    p_watch.add_argument(
        "--reservoir",
        type=int,
        default=64,
        metavar="N",
        help="per-cluster reservoir capacity bounding live memory (default 64)",
    )
    p_watch.add_argument(
        "--refit-every",
        type=int,
        default=32,
        metavar="N",
        help="refold + refit a cluster every N assigned bursts (default 32)",
    )
    p_watch.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="reservoir-sampling seed (default 0)",
    )
    p_watch.set_defaults(func=_cmd_watch)

    p_report = sub.add_parser(
        "report", help="render a profile written by `analyze --profile`"
    )
    p_report.add_argument("profile", help="profile JSON path, or - for stdin")
    p_report.add_argument(
        "--chrome",
        metavar="PATH",
        help="also export the profile as a Chrome trace_event file",
    )
    p_report.set_defaults(func=_cmd_report)

    p_batch = sub.add_parser(
        "batch", help="analyze a directory/manifest of traces through a store"
    )
    p_batch.add_argument(
        "manifest",
        help="directory of *.rpt traces, or a file listing one trace per line",
    )
    p_batch.add_argument(
        "--store", required=True, metavar="DIR", help="result store directory"
    )
    p_batch.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="concurrent analysis jobs (1 = inline, no threads)",
    )
    p_batch.add_argument(
        "--attempts",
        type=int,
        default=1,
        metavar="N",
        help="tries per job before it is recorded as failed",
    )
    p_batch.add_argument(
        "--backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="base retry backoff (doubles per attempt; 0 = immediate)",
    )
    p_batch.add_argument(
        "--salvage",
        action="store_true",
        help="read damaged traces with the salvage policy",
    )
    p_batch.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job deadline; each attempt runs in a killable worker "
        "process and a hung job is killed and recorded as timeout",
    )
    p_batch.add_argument(
        "--resume",
        action="store_true",
        help="skip jobs the store journal records as already complete "
        "(after a crash, kill, or Ctrl-C)",
    )
    p_batch.add_argument(
        "--live",
        action="store_true",
        help="in-place TTY status dashboard (states, rate, ETA, slowest "
        "running jobs); falls back to progress lines when not a TTY",
    )
    p_batch.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics (OpenMetrics) and /healthz (live job states) "
        "on 127.0.0.1:PORT for the duration of the batch (0 = ephemeral)",
    )
    p_batch.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable report as JSON on stdout "
        "(the human table moves to stderr)",
    )
    p_batch.set_defaults(func=_cmd_batch)

    p_query = sub.add_parser(
        "query", help="list a result store, or re-render one stored report"
    )
    p_query.add_argument("store", help="result store directory")
    p_query.add_argument(
        "fingerprint",
        nargs="?",
        help="fingerprint (or unique prefix) of the stored result to render",
    )
    p_query.set_defaults(func=_cmd_query)

    p_diff = sub.add_parser(
        "diff", help="compare two stored results (exit 1 on regressions)"
    )
    p_diff.add_argument("store", help="result store directory")
    p_diff.add_argument("baseline", help="baseline fingerprint (or prefix)")
    p_diff.add_argument("candidate", help="candidate fingerprint (or prefix)")
    p_diff.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        metavar="FRACTION",
        help="minimum relative change reported (default 0.10 = 10%%)",
    )
    p_diff.set_defaults(func=_cmd_diff)

    p_store = sub.add_parser("store", help="result-store maintenance")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_fsck = store_sub.add_parser(
        "fsck", help="scan a store for corrupt artifacts (exit 1 if unhealthy)"
    )
    p_fsck.add_argument("store", help="result store directory")
    p_fsck.add_argument(
        "--repair",
        action="store_true",
        help="upgrade legacy artifacts, quarantine + re-derive corrupt "
        "ones, evict what cannot be recovered, drop stale temp files",
    )
    p_fsck.set_defaults(func=_cmd_store_fsck)

    p_perf = sub.add_parser(
        "perf",
        help="self-regression checks over a store's telemetry ledger",
    )
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)
    p_perf_history = perf_sub.add_parser(
        "history", help="summarize recorded runs and per-stage durations"
    )
    p_perf_history.add_argument("store", help="result store directory")
    p_perf_history.add_argument(
        "--stage", metavar="NAME", help="show only this stage"
    )
    p_perf_history.set_defaults(func=_cmd_perf_history)
    p_perf_check = perf_sub.add_parser(
        "check",
        help="fit the PWLR model to each stage's duration history and "
        "report level shifts as regressions",
    )
    p_perf_check.add_argument("store", help="result store directory")
    p_perf_check.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 when any stage's latest level exceeds the previous "
        "segment by more than --threshold",
    )
    p_perf_check.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        metavar="FACTOR",
        help="level-shift factor that counts as a regression (default 1.5)",
    )
    p_perf_check.add_argument(
        "--min-runs",
        type=int,
        default=8,
        metavar="N",
        help="stages with fewer recorded runs are reported as "
        "insufficient, never failed (default 8, the fitter's floor)",
    )
    p_perf_check.set_defaults(func=_cmd_perf_check)

    p_selftest = sub.add_parser(
        "selftest",
        help="differential self-verification: optimized stages vs scalar "
        "oracles on seeded corpora (exit 1 on any divergence)",
    )
    scale = p_selftest.add_mutually_exclusive_group()
    scale.add_argument(
        "--quick",
        action="store_true",
        help="small corpora sized for CI (the default)",
    )
    scale.add_argument(
        "--full",
        action="store_true",
        help="larger corpora and more random draws per suite",
    )
    p_selftest.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="corpus seed (a divergence report names the seed that "
        "reproduces it; default 0)",
    )
    p_selftest.add_argument(
        "--suite",
        action="append",
        metavar="NAME",
        help="run only this suite (repeatable; see --list)",
    )
    p_selftest.add_argument(
        "--list",
        action="store_true",
        dest="list_suites",
        help="list available suites and exit",
    )
    p_selftest.add_argument(
        "--report",
        metavar="PATH",
        help="also write the structured JSON divergence report to PATH",
    )
    p_selftest.set_defaults(func=_cmd_selftest)

    p_demo = sub.add_parser("demo", help="full methodology on a built-in app")
    _add_app_options(p_demo)
    p_demo.add_argument(
        "--optimize",
        action="store_true",
        help="also apply the app's case-study transformation and compare",
    )
    p_demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_cli_logging(-1 if args.quiet else args.verbose)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
