"""One measured benchmark process.

Run by ``run.py`` in a fresh interpreter for every sample::

    python3 e2ebench/child.py MODE --src SRC --spawn-t T --out OUT.json [...]

MODE is ``probe`` (import ``repro.cli`` and exit), ``pool`` (report the
BLAS pool size numpy gets), ``analyze``, ``watch`` or ``batch``.
``--spawn-t`` is the parent's ``time.monotonic()`` just before the spawn
(CLOCK_MONOTONIC is system-wide on Linux, so the two clocks agree); it
starts the ``setup`` span.  With ``--trace DIR`` the layer entry points
are wrapped (see ``spans.py``) and the spans go to ``DIR``.

Every timestamp the parent turns into a metric is a ``time.monotonic()``
reading written to OUT.json.  Gate data (outputs to compare) is written
after the timed interval ends.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def blas_pool_size():
    """Threads in numpy's OpenBLAS pool, or None if it cannot be asked."""
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..",
                                  "numpy.libs", "*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _artifact_digests(store: str) -> dict:
    """sha256 of every stored result artifact, keyed by relative path."""
    out = {}
    objects = os.path.join(store, "objects")
    for root, _dirs, files in os.walk(objects):
        for name in files:
            if name.endswith(".json") and not name.startswith(".tmp-"):
                path = os.path.join(root, name)
                with open(path, "rb") as handle:
                    out[os.path.relpath(path, store)] = hashlib.sha256(
                        handle.read()).hexdigest()
    return out


def run_analyze(args, out: dict) -> int:
    import repro.cli

    # The report goes to this process's stdout, which the parent captured.
    return repro.cli.main(["-q", "analyze", args.input])


def run_watch(args, out: dict) -> int:
    from repro.store.serialize import result_to_json
    from repro.stream import StreamConfig, StreamEngine, TraceTailSource

    engine = StreamEngine(StreamConfig())  # the `repro watch` defaults
    source = TraceTailSource(args.input)  # reads 64 KiB chunks
    ingest_s = 0.0
    records = 0
    for chunk in source.drain():
        start = time.monotonic()
        records += engine.process_text(chunk)
        ingest_s += time.monotonic() - start
    out["t_stream_end"] = time.monotonic()
    result = engine.finalize(source)
    out["t_end"] = time.monotonic()
    source.close()
    out["ingest_s"] = ingest_s
    out["records"] = records
    out["refits"] = engine.n_refits
    out["refit_failures"] = sum(s.n_refit_failures for s in engine.clusters.values())
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as fh:
        fh.write(result_to_json(result))
    out["boundaries"] = {str(c.cluster_id): [float(b) for b in c.phase_set.boundaries]
                         for c in result.clusters}
    return 0


def run_batch(args, out: dict) -> int:
    import repro.cli
    import repro.service.scheduler as scheduler

    # The per-job clock: wrap the service layer's job call where the
    # scheduler looks it up (the traced run's span wrapper, if any, is
    # already installed and ends up inside this one).
    job_seconds = []
    inner = scheduler.run_job_isolated

    def timed_job(*a, **kw):
        start = time.monotonic()
        try:
            return inner(*a, **kw)
        finally:
            job_seconds.append(time.monotonic() - start)

    scheduler.run_job_isolated = timed_job
    store = os.path.join(args.work, "store")
    argv = ["-q", "batch", args.input, "--store", store, "--workers", "1",
            "--deadline", "120", "--json"]
    passes = []
    rc = 0
    for index in range(1 + args.warm_passes):
        del job_seconds[:]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = repro.cli.main(argv)
        if index == 0:
            out["t_end"] = time.monotonic()
        rc = rc or code
        passes.append({"exit": code, "job_seconds": list(job_seconds),
                       "report": json.loads(buffer.getvalue()),
                       "artifacts": _artifact_digests(store)})
    out["passes"] = passes
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["probe", "pool", "analyze", "watch", "batch"])
    parser.add_argument("--src", required=True)
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--input")
    parser.add_argument("--work")
    parser.add_argument("--warm-passes", type=int, default=0)
    parser.add_argument("--trace", metavar="DIR")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    out: dict = {"pid": os.getpid()}
    if args.mode == "pool":
        out["blas_threads"] = blas_pool_size()
        _write(args.out, out)
        return 0
    import repro.cli  # noqa: F401  (the set-up interval ends here)

    out["t_import"] = time.monotonic()
    if args.mode == "probe":
        _write(args.out, out)
        return 0
    out["blas_threads"] = blas_pool_size()

    recorder = None
    obs = None
    if args.trace:
        sys.path.insert(0, HERE)
        from spans import SpanRecorder

        from repro.observability import Observability

        recorder = SpanRecorder(args.trace)
        recorder.install()
        recorder.add("setup", args.spawn_t, out["t_import"])
        obs = Observability()
    runner = {"analyze": run_analyze, "watch": run_watch, "batch": run_batch}[args.mode]
    with (obs.activate() if obs is not None else contextlib.nullcontext()):
        code = runner(args, out)
    if recorder is not None:
        with open(os.path.join(args.trace, "main.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "counts": recorder.counts,
                       "registry": obs.metrics.snapshot()}, fh)
    _write(args.out, out)
    sys.stdout.flush()
    return code


def _write(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


if __name__ == "__main__":
    sys.exit(main())
