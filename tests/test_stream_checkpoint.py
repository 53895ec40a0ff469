"""repro.stream checkpoints: resume determinism, tamper refusal, and
crash-recovery through the watch CLI."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis.pipeline import FoldingAnalyzer
from repro.errors import StreamError
from repro.store import result_to_json
from repro.stream import (
    StreamConfig,
    StreamEngine,
    TraceTailSource,
    load_checkpoint,
    resume_engine,
    save_checkpoint,
)
from repro.trace.reader import read_trace
from repro.trace.writer import TraceTailWriter


def _run_partial(trace_path, checkpoint_path, n_chunks=5, chunk=2048):
    engine = StreamEngine(StreamConfig())
    source = TraceTailSource(trace_path, chunk_size=chunk)
    for _ in range(n_chunks):
        text = source.read_available()
        if not text:
            break
        engine.process_text(text)
    save_checkpoint(checkpoint_path, engine, source)
    source.close()
    return engine


class TestCheckpointResume:
    def test_resume_is_deterministic(self, multiphase_trace_file, tmp_path):
        checkpoint = str(tmp_path / "mid.ckpt")

        straight = StreamEngine(StreamConfig())
        source = TraceTailSource(multiphase_trace_file, chunk_size=2048)
        for text in source.drain():
            straight.process_text(text)
        want = result_to_json(straight.finalize(source))
        source.close()

        _run_partial(multiphase_trace_file, checkpoint)
        engine, source = resume_engine(checkpoint, multiphase_trace_file)
        for text in source.drain():
            engine.process_text(text)
        got = result_to_json(engine.finalize(source))
        source.close()

        assert got == want
        assert engine.report().to_dict() == straight.report().to_dict()

    def test_checkpoint_digest_roundtrip(self, multiphase_trace_file, tmp_path):
        checkpoint = str(tmp_path / "mid.ckpt")
        _run_partial(multiphase_trace_file, checkpoint)
        payload = load_checkpoint(checkpoint)
        assert payload["source_path"] == multiphase_trace_file
        assert payload["offset"] > 0

    def test_tampered_checkpoint_refused(self, multiphase_trace_file, tmp_path):
        checkpoint = str(tmp_path / "mid.ckpt")
        _run_partial(multiphase_trace_file, checkpoint)
        document = json.loads(open(checkpoint, encoding="utf-8").read())
        document["payload"]["offset"] += 1
        with open(checkpoint, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(StreamError, match="digest"):
            resume_engine(checkpoint, multiphase_trace_file)

    def test_truncated_checkpoint_refused(self, multiphase_trace_file, tmp_path):
        checkpoint = str(tmp_path / "mid.ckpt")
        _run_partial(multiphase_trace_file, checkpoint)
        raw = open(checkpoint, encoding="utf-8").read()
        with open(checkpoint, "w", encoding="utf-8") as handle:
            handle.write(raw[: len(raw) // 2])
        with pytest.raises(StreamError):
            load_checkpoint(checkpoint)

    def test_rewritten_trace_prefix_refused(
        self, multiphase_trace_file, tmp_path
    ):
        checkpoint = str(tmp_path / "mid.ckpt")
        copy = str(tmp_path / "copy.rpt")
        raw = open(multiphase_trace_file, "rb").read()
        with open(copy, "wb") as handle:
            handle.write(raw)
        _run_partial(copy, checkpoint)
        # flip a byte inside the consumed prefix: not the same stream anymore
        mutated = bytearray(raw)
        mutated[128] = ord("#") if mutated[128] != ord("#") else ord("@")
        with open(copy, "wb") as handle:
            handle.write(mutated)
        with pytest.raises(StreamError, match="prefix"):
            resume_engine(checkpoint, copy)

    def _with_pwlr_field(self, checkpoint, name, value):
        """Add a field to the checkpoint's stored PWLR config and re-seal
        it, as a checkpoint written by an older release would carry."""
        from repro.stream.checkpoint import _canonical

        document = json.loads(open(checkpoint, encoding="utf-8").read())
        payload = document["payload"]
        payload["engine"]["config"]["analyzer"]["pwlr"][name] = value
        document["digest"] = hashlib.sha256(
            _canonical(payload).encode("utf-8")
        ).hexdigest()
        with open(checkpoint, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

    def test_checkpoint_with_retired_search_kernel_resumes(
        self, multiphase_trace_file, tmp_path
    ):
        checkpoint = str(tmp_path / "mid.ckpt")
        straight = StreamEngine(StreamConfig())
        source = TraceTailSource(multiphase_trace_file, chunk_size=2048)
        for text in source.drain():
            straight.process_text(text)
        want = result_to_json(straight.finalize(source))
        source.close()

        _run_partial(multiphase_trace_file, checkpoint)
        self._with_pwlr_field(checkpoint, "search_kernel", "exact")
        engine, source = resume_engine(
            checkpoint, multiphase_trace_file, StreamConfig()
        )
        for text in source.drain():
            engine.process_text(text)
        assert result_to_json(engine.finalize(source)) == want
        source.close()

    def test_checkpoint_with_unknown_pwlr_field_refused(
        self, multiphase_trace_file, tmp_path
    ):
        from repro.errors import ConfigurationError

        checkpoint = str(tmp_path / "mid.ckpt")
        _run_partial(multiphase_trace_file, checkpoint)
        self._with_pwlr_field(checkpoint, "search_budget", 3)
        with pytest.raises(ConfigurationError, match="search_budget"):
            resume_engine(checkpoint, multiphase_trace_file)

    def test_config_mismatch_refused(self, multiphase_trace_file, tmp_path):
        checkpoint = str(tmp_path / "mid.ckpt")
        _run_partial(multiphase_trace_file, checkpoint)
        other = StreamConfig(warmup_bursts=12, reservoir_capacity=24)
        with pytest.raises(StreamError, match="config"):
            resume_engine(checkpoint, multiphase_trace_file, other)


class TestCrashRecoveryCli:
    def _produce_slowly(self, trace, path, done, pause=0.01, batch=25):
        records = list(trace.instrumentation) + list(trace.samples)
        records.sort(key=lambda r: r.time)
        records = list(trace.states) + records
        with TraceTailWriter.create(
            path, trace.app_name, trace.n_ranks,
            counters=list(trace.counter_names()), metadata=trace.metadata,
        ) as writer:
            for i, record in enumerate(records):
                writer.append(record)
                if i % batch == 0:
                    time.sleep(pause)
        done.set()

    def _spawn_watch(self, args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "watch", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )

    @pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGINT])
    def test_kill_mid_watch_then_resume_matches_batch(
        self, multiphase_trace, tmp_path, sig, capsys
    ):
        from repro.cli import main

        path = str(tmp_path / "grow.rpt")
        checkpoint = str(tmp_path / "watch.ckpt")
        done = threading.Event()
        producer = threading.Thread(
            target=self._produce_slowly, args=(multiphase_trace, path, done)
        )
        producer.start()
        try:
            while not os.path.exists(path):
                time.sleep(0.01)
            process = self._spawn_watch(
                [path, "--checkpoint", checkpoint, "--checkpoint-every", "0.1",
                 "--poll", "0.05", "--max-seconds", "120", "--json"]
            )
            try:
                deadline = time.monotonic() + 60
                while not os.path.exists(checkpoint):
                    if time.monotonic() > deadline:
                        pytest.fail("no checkpoint appeared within 60s")
                    if process.poll() is not None:
                        pytest.fail(
                            "watch exited early: "
                            + process.stderr.read().decode()
                        )
                    time.sleep(0.02)
                process.send_signal(sig)
                process.wait(timeout=30)
                if sig == signal.SIGINT:
                    assert process.returncode == 130
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait()
        finally:
            producer.join()
        assert done.is_set()

        rc = main(["watch", path, "--checkpoint", checkpoint, "--resume",
                   "--until-idle", "0.3", "--poll", "0.05", "--json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        batch = FoldingAnalyzer().analyze(read_trace(path))
        assert json.dumps(document["result"], sort_keys=True) == json.dumps(
            json.loads(result_to_json(batch)), sort_keys=True
        )

    def test_resume_without_checkpoint_flag_is_an_error(
        self, multiphase_trace_file, capsys
    ):
        from repro.cli import main

        rc = main(["watch", multiphase_trace_file, "--resume"])
        assert rc == 1

    def test_stdin_checkpoint_is_an_error(self, capsys):
        from repro.cli import main

        rc = main(["watch", "-", "--checkpoint", "/tmp/nope.ckpt"])
        assert rc == 1
