"""repro.stream: live parsing, tail writing, incremental assembly, and
the streaming engine's convergence guarantee."""

from __future__ import annotations

import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis.pipeline import FoldingAnalyzer
from repro.clustering.bursts import extract_bursts
from repro.clustering.features import build_features
from repro.errors import SalvageError, StreamError, TraceFormatError
from repro.observability.context import Observability
from repro.resilience.inject import CorruptionSpec, corrupt_trace_text
from repro.store import result_to_dict, result_to_json
from repro.stream import (
    IncrementalBurstAssembler,
    OnlineClusterModel,
    StreamConfig,
    StreamEngine,
    StreamParser,
    TraceTailSource,
)
from repro.trace.reader import (
    load_trace_text,
    read_trace,
    read_trace_salvaged,
    salvage_trace_text,
)
from repro.trace.records import (
    InstrumentationRecord,
    SampleRecord,
    StateKind,
    StateRecord,
)
from repro.trace.writer import TraceTailWriter, dump_trace_text, write_trace
from repro.verify.oracles import oracle_extract_bursts


def _records_of(trace):
    return (
        [(s.rank, s.t_start, s.t_end, s.kind, s.label) for s in trace.states],
        [(i.rank, i.time, i.marker, i.mpi_call, dict(i.counters))
         for i in trace.instrumentation],
        [(p.rank, p.time, dict(p.counters), p.frames) for p in trace.samples],
    )


def _feed_chunked(parser, text, chunk):
    records = []
    for start in range(0, len(text), chunk):
        records.extend(parser.feed(text[start:start + chunk]))
    records.extend(parser.finish())
    return records


def _damaged_text(text, case):
    """``text`` with one kind of damage that live and batch must agree on."""
    if case == "corrupted":
        return corrupt_trace_text(
            text,
            [
                CorruptionSpec("bitflip_fields", 0.05),
                CorruptionSpec("duplicate_records", 0.05),
                CorruptionSpec("truncate", 0.02),
            ],
            seed=11,
        )
    if case == "leading-blank":
        return "\n" + text
    if case == "u2028-in-record":
        # A line separator only str.splitlines() honours; the writer
        # percent-quotes it, so here it damages exactly one record line.
        at = text.index("\nP ") + 8
        return text[:at] + "\u2028" + text[at:]
    if case in ("dict-shared-id", "dict-two-ids"):
        # A counter line that conflicts with an earlier one: a taken id
        # under a second name, or PAPI_TOT_INS under a new id.
        at = text.index("[states]\n")
        if case == "dict-shared-id":
            return text[:at] + "42000010 PAPI_EXTRA\n" + text[at:]
        return text[:at] + "42000099 PAPI_TOT_INS\n" + text[at:]
    assert case == "no-ranks"
    lines = text.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("ranks "))


def _salvage_outcome(read):
    """(kind, report fields, n records) of a salvage read, or its error."""
    try:
        records, report = read()
    except SalvageError as exc:
        return ("error", str(exc))
    n_records = records.n_records if hasattr(records, "n_records") else len(records)
    return ("ok", dataclasses.asdict(report), n_records)


class TestStreamParser:
    @pytest.mark.parametrize("chunk", [1, 37, 4096])
    def test_chunked_parse_matches_batch_salvage(self, multiphase_trace, chunk):
        text = dump_trace_text(multiphase_trace)
        trace, report = salvage_trace_text(text)
        parser = StreamParser()
        records = _feed_chunked(parser, text, chunk)
        # Batch keeps records in per-type lists; the stream interleaves.
        n_states = sum(1 for r in records if isinstance(r, StateRecord))
        n_probes = sum(1 for r in records if isinstance(r, InstrumentationRecord))
        n_samples = sum(1 for r in records if isinstance(r, SampleRecord))
        assert n_states == len(trace.states)
        assert n_probes == len(trace.instrumentation)
        assert n_samples == len(trace.samples)
        assert parser.report.n_lines_dropped == report.n_lines_dropped
        assert parser.effective_ranks == trace.n_ranks
        assert parser.app_name == trace.app_name

    def test_drop_parity_on_corrupted_text(self, multiphase_trace):
        text = dump_trace_text(multiphase_trace)
        cases = (
            "corrupted",
            "leading-blank",
            "u2028-in-record",
            "no-ranks",
            "dict-shared-id",
            "dict-two-ids",
        )
        for case in cases:
            bad = _damaged_text(text, case)
            batch = _salvage_outcome(lambda: salvage_trace_text(bad))
            if case == "leading-blank":
                assert batch[0] == "error" and "missing trace header" in batch[1]
            elif case == "u2028-in-record":
                assert batch[1]["reasons"] == {"malformed-record": 1}
            elif case == "no-ranks":
                assert batch[1]["inferred_ranks"]
            elif case.startswith("dict-"):
                # The later line is dropped; every record still parses.
                assert batch[1]["reasons"] == {"dictionary": 1}
                assert batch[2] == multiphase_trace.n_records
                with pytest.raises(TraceFormatError, match=r"^line \d+: "):
                    load_trace_text(bad)
            else:
                assert batch[1]["n_lines_dropped"] > 0
            for chunk in (1, 211, 4096):
                parser = StreamParser()
                live = _salvage_outcome(
                    lambda: (_feed_chunked(parser, bad, chunk), parser.report)
                )
                # Every SalvageReport field, the kept-record count, or the error.
                assert live == batch, (case, chunk)

    def test_resumes_state_recorded_by_earlier_release(self):
        """A parser state saved mid-line by an earlier release (committed
        as JSON) still loads; feeding the rest of the trace gives the
        records and report of an uninterrupted parse."""
        golden = os.path.join(
            os.path.dirname(__file__), "golden", "stream_parser_state.json"
        )
        with open(golden, encoding="utf-8") as handle:
            fixture = json.load(handle)
        text, split, state = fixture["text"], fixture["split"], fixture["state"]
        window = state["dedup_window"]

        fresh = StreamParser(dedup_window=window)
        head = fresh.feed(text[:split])
        # Same keys and values, once through JSON as a checkpoint stores it.
        assert json.loads(json.dumps(fresh.state_to_dict())) == state

        resumed = StreamParser.from_state(state)
        rest = resumed.feed(text[split:]) + resumed.finish()
        straight = StreamParser(dedup_window=window)
        every = _feed_chunked(straight, text, len(text))
        assert head + rest == every
        assert dataclasses.asdict(resumed.report) == dataclasses.asdict(
            straight.report
        )
        assert resumed.report.n_lines_dropped > 0

    def test_torn_tail_held_back_until_complete(self, multiphase_trace):
        text = dump_trace_text(multiphase_trace)
        head, tail = text[: len(text) // 2], text[len(text) // 2:]
        parser = StreamParser()
        n_first = len(parser.feed(head))
        n_second = len(parser.feed(tail)) + len(parser.finish())
        # nothing lost, nothing double-counted
        trace, _ = salvage_trace_text(text)
        assert n_first + n_second == trace.n_records

    def test_non_trace_input_raises(self):
        parser = StreamParser()
        with pytest.raises(Exception):
            parser.feed("this is not a trace\n")


class TestTraceTailWriter:
    def test_appended_file_is_byte_identical_to_batch_writer(
        self, multiphase_trace, tmp_path
    ):
        path = str(tmp_path / "tail.rpt")
        trace = multiphase_trace
        with TraceTailWriter.create(
            path,
            trace.app_name,
            trace.n_ranks,
            counters=list(trace.counter_names()),
            metadata=trace.metadata,
        ) as writer:
            # Batch groups by tag (all S, then I, then P) — mirror it.
            for record in trace.states:
                writer.append(record)
            for record in trace.instrumentation:
                writer.append(record)
            for record in trace.samples:
                writer.append(record)
        assert open(path, encoding="utf-8").read() == dump_trace_text(trace)

    def test_open_resumes_with_same_dictionary(self, multiphase_trace, tmp_path):
        path = str(tmp_path / "resume.rpt")
        trace = multiphase_trace
        counters = list(trace.counter_names())
        with TraceTailWriter.create(
            path, trace.app_name, trace.n_ranks, counters=counters,
            metadata=trace.metadata,
        ) as writer:
            for record in trace.states:
                writer.append(record)
            for record in trace.instrumentation:
                writer.append(record)
        with TraceTailWriter.open(path) as writer:
            for record in trace.samples:
                writer.append(record)
        assert open(path, encoding="utf-8").read() == dump_trace_text(trace)

    def test_unregistered_counter_refused(self, tmp_path):
        path = str(tmp_path / "frozen.rpt")
        with TraceTailWriter.create(path, "app", 1, counters=["A"]) as writer:
            writer.append(
                InstrumentationRecord(0, 0.5, "comm_exit", "MPI_Send", {"A": 1.0})
            )
            with pytest.raises(TraceFormatError, match="not registered"):
                writer.append(
                    InstrumentationRecord(0, 0.6, "comm_enter", "MPI_Send", {"B": 1.0})
                )

    def test_out_of_range_rank_refused(self, tmp_path):
        path = str(tmp_path / "rank.rpt")
        with TraceTailWriter.create(path, "app", 2, counters=["A"]) as writer:
            with pytest.raises(TraceFormatError, match="out of range"):
                writer.append(SampleRecord(2, 0.1, {"A": 1.0}))

    def test_open_refuses_headerless_file(self, tmp_path):
        path = str(tmp_path / "junk.rpt")
        path_obj = tmp_path / "junk.rpt"
        path_obj.write_text("not a trace\n")
        with pytest.raises(TraceFormatError):
            TraceTailWriter.open(path)

    def test_every_record_visible_after_append(self, tmp_path):
        # flush-per-record is the contract a follower depends on
        path = str(tmp_path / "live.rpt")
        with TraceTailWriter.create(path, "app", 1, counters=["A"]) as writer:
            writer.append(SampleRecord(0, 0.1, {"A": 1.0}))
            text = open(path, encoding="utf-8").read()
            assert text.endswith("P 0 0.1 42000000=1.0 -\n")


class TestIncrementalAssembler:
    def _stream_records(self, trace):
        # time-ordered interleaving, the live-producer discipline
        records = list(trace.instrumentation) + list(trace.samples)
        records.sort(key=lambda r: r.time)
        return records

    def test_parity_with_batch_extractor(self, multiphase_trace):
        mispaired = {}
        want = oracle_extract_bursts(multiphase_trace, mispaired=mispaired)
        assembler = IncrementalBurstAssembler()
        got = []
        for record in self._stream_records(multiphase_trace):
            got.extend(assembler.feed(record))
        got.extend(assembler.flush())
        got.sort(key=lambda b: (b.rank, b.index))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.rank, g.index) == (w.rank, w.index)
            assert (g.t_start, g.t_end) == (w.t_start, w.t_end)
            assert dict(g.start_counters) == dict(w.start_counters)
            assert dict(g.end_counters) == dict(w.end_counters)
            assert [s.time for s in g.samples] == [s.time for s in w.samples]
        assert assembler.mispaired == mispaired
        assert assembler.forced_emissions == 0

    def test_section_ordered_input_stays_bounded(self, multiphase_trace):
        # A batch-written file (all probes before all samples) must not
        # grow the pending queue without limit.
        assembler = IncrementalBurstAssembler(max_pending=8)
        n_ranks = multiphase_trace.n_ranks
        for record in multiphase_trace.instrumentation:
            assembler.feed(record)
            assert assembler.n_pending <= (8 + 1) * n_ranks
        for record in multiphase_trace.samples:
            assembler.feed(record)
        assembler.flush()
        assert assembler.forced_emissions > 0
        assert assembler.late_samples > 0  # the price of forced emission

    def test_checkpoint_roundtrip_mid_stream(self, multiphase_trace):
        records = self._stream_records(multiphase_trace)
        cut = len(records) // 2

        straight = IncrementalBurstAssembler()
        for record in records:
            straight.feed(record)
        straight.flush()

        first = IncrementalBurstAssembler()
        for record in records[:cut]:
            first.feed(record)
        resumed = IncrementalBurstAssembler.from_state(
            json.loads(json.dumps(first.state_to_dict()))
        )
        for record in records[cut:]:
            resumed.feed(record)
        resumed.flush()
        assert resumed.n_bursts == straight.n_bursts
        assert resumed.mispaired == straight.mispaired


class TestOnlineModel:
    def test_transform_matches_batch_features_bitwise(self, multiphase_trace):
        # A burst of the fitted set projects to exactly its batch row.
        bursts = extract_bursts(multiphase_trace)
        features = build_features(bursts)
        model = OnlineClusterModel(
            features.feature_names, features.means, features.stds,
            centroids=features.values[:1], eps=1.0, min_pts=4,
            assign_factor=1.5,
        )
        for i, burst in enumerate(bursts):
            assert model.transform(burst).tobytes() == features.values[i].tobytes()


class TestStreamEngine:
    def test_finalize_matches_batch_analyze(self, multiphase_trace_file):
        engine = StreamEngine(StreamConfig())
        source = TraceTailSource(multiphase_trace_file, chunk_size=3001)
        for chunk in source.drain():
            engine.process_text(chunk)
        result = engine.finalize(source)
        batch = FoldingAnalyzer().analyze(read_trace(multiphase_trace_file))
        assert result_to_json(result) == result_to_json(batch)
        report = engine.report()
        assert report.finalized
        assert report.n_bursts > 0
        assert report.model_ready

    def test_finalize_matches_batch_under_observability(
        self, multiphase_trace_file
    ):
        # live telemetry must not leak span profiles into the result
        batch = FoldingAnalyzer().analyze(read_trace(multiphase_trace_file))
        obs = Observability()
        with obs.activate():
            engine = StreamEngine(StreamConfig())
            source = TraceTailSource(multiphase_trace_file)
            for chunk in source.drain():
                engine.process_text(chunk)
            result = engine.finalize(source)
        assert result_to_json(result) == result_to_json(batch)
        # each live refit is one span, with its fits nested inside
        refits = obs.profile().find_all("stream.refit")
        assert engine.n_refits > 0
        assert len(refits) == engine.n_refits + sum(
            state.n_refit_failures for state in engine.clusters.values()
        )
        # every refit filters the fold before it fits, as batch does
        for refit in refits:
            names = {rec.name for _, rec in refit.walk()}
            assert {"filter", "fit_pwlr"} <= names

    def test_refit_of_batch_cluster_matches_batch(
        self, multiphase_trace, monkeypatch
    ):
        # A live refit over exactly a batch cluster's bursts is the batch
        # per-cluster analysis: the same phases, bit for bit.
        import repro.stream.engine as engine_module
        from repro.stream.engine import _ClusterState
        from repro.stream.model import ClusterReservoir

        batch = FoldingAnalyzer().analyze(multiphase_trace)
        cluster = batch.dominant_cluster()
        cid = cluster.cluster_id
        members = batch.clustering.members(cid)
        engine = StreamEngine(StreamConfig())
        reservoir = engine.reservoirs[cid] = ClusterReservoir(members.size)
        reservoir.items = [batch.bursts.bursts[i] for i in members]
        engine.clusters[cid] = _ClusterState()
        analyses = []
        analyze_cluster = engine_module.analyze_cluster

        def spy(*args, **kwargs):
            analyses.append(analyze_cluster(*args, **kwargs))
            return analyses[-1]

        monkeypatch.setattr(engine_module, "analyze_cluster", spy)
        engine._refit_cluster(cid)
        assert engine.n_refits == 1 and len(analyses) == 1
        live, want = analyses[0].phase_set, cluster.phase_set
        assert len(live) == len(want) == engine.clusters[cid].n_phases
        assert live.boundaries.tobytes() == want.boundaries.tobytes()
        assert (
            live.pivot_model.slopes.tobytes() == want.pivot_model.slopes.tobytes()
        )

    def test_salvage_convergence_on_corrupted_stdin(self, multiphase_trace):
        text = dump_trace_text(multiphase_trace)
        bad = corrupt_trace_text(
            text,
            [CorruptionSpec("bitflip_fields", 0.04),
             CorruptionSpec("truncate", 0.02)],
            seed=3,
        )
        engine = StreamEngine(StreamConfig(salvage=True))
        source = TraceTailSource.from_stream(io.StringIO(bad), chunk_size=777)
        while not source.at_eof:
            for chunk in source.drain():
                engine.process_text(chunk)
        result = engine.finalize(source)
        spool = source.final_path()
        source.close()
        try:
            trace, report = read_trace_salvaged(spool)
            batch = FoldingAnalyzer().analyze(trace, salvage=report)
            assert result_to_json(result) == result_to_json(batch)
        finally:
            os.unlink(spool)

    def test_telemetry_events_and_gauges(self, multiphase_trace_file, monkeypatch):
        import repro.stream.engine as engine_module

        monkeypatch.setattr(engine_module, "PROGRESS_EVERY_RECORDS", 100)
        obs = Observability()
        kinds = []
        with obs.activate():
            obs.events.subscribe(lambda e: kinds.append(e.kind))
            engine = StreamEngine(StreamConfig())
            source = TraceTailSource(multiphase_trace_file)
            for chunk in source.drain():
                engine.process_text(chunk)
            engine.finalize(source)
        assert "stream_started" in kinds
        assert "stream_progress" in kinds
        assert "stream_model_refreshed" in kinds
        assert "stream_finalized" in kinds
        snapshot = obs.metrics.snapshot()
        assert any(name.startswith("stream.live.") for name in snapshot)

    def test_live_follow_of_growing_file(self, multiphase_trace, tmp_path):
        path = str(tmp_path / "live.rpt")
        trace = multiphase_trace
        records = list(trace.states) + list(trace.instrumentation) + list(trace.samples)
        records.sort(
            key=lambda r: r.time if hasattr(r, "time") else r.t_start
        )

        def produce():
            with TraceTailWriter.create(
                path, trace.app_name, trace.n_ranks,
                counters=list(trace.counter_names()), metadata=trace.metadata,
            ) as writer:
                for i, record in enumerate(records):
                    writer.append(record)
                    if i % 200 == 0:
                        time.sleep(0.02)

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            # wait for the preamble so the source never sees a missing file
            while not os.path.exists(path):
                time.sleep(0.01)
            engine = StreamEngine(StreamConfig())
            source = TraceTailSource(path, chunk_size=8192)
            reason = engine.follow(source, poll_interval=0.05, idle_timeout=1.0)
        finally:
            producer.join()
        assert reason == "idle"
        result = engine.finalize(source)
        batch = FoldingAnalyzer().analyze(read_trace(path))
        assert result_to_json(result) == result_to_json(batch)
        assert engine.report().n_records == trace.n_records

    def test_memory_ceiling_respected(self, multiphase_trace_file):
        config = StreamConfig(reservoir_capacity=16, warmup_bursts=16)
        engine = StreamEngine(config)
        source = TraceTailSource(multiphase_trace_file)
        for chunk in source.drain():
            engine.process_text(chunk)
        # warmup (4x warmup) + one reservoir per cluster + noise reservoir
        n_pools = 1 + (engine.model.n_clusters if engine.model else 0)
        ceiling = 4 * config.warmup_bursts + n_pools * config.reservoir_capacity
        assert engine.n_retained_bursts <= ceiling

    def test_config_validation(self):
        with pytest.raises(StreamError):
            StreamConfig(warmup_bursts=1)
        with pytest.raises(StreamError):
            StreamConfig(reservoir_capacity=2)  # < analyzer.min_instances


class TestWatchCli:
    def test_watch_json_matches_batch(self, multiphase_trace_file, capsys):
        from repro.cli import main

        rc = main(["watch", multiphase_trace_file, "--until-idle", "0.3",
                   "--poll", "0.05", "--json"])
        assert rc == 0
        out = capsys.readouterr().out
        document = json.loads(out)
        assert document["format"] == "repro-watch/1"
        assert document["reason"] == "idle"
        assert document["stream"]["finalized"] is True
        batch = FoldingAnalyzer().analyze(read_trace(multiphase_trace_file))
        assert document["result"] == json.loads(
            json.dumps(result_to_dict(batch))
        )

    def test_watch_store_is_analyze_compatible(
        self, multiphase_trace_file, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.store import ResultStore, analyze_cached

        store_dir = str(tmp_path / "store")
        rc = main(["watch", multiphase_trace_file, "--until-idle", "0.3",
                   "--poll", "0.05", "--store", store_dir])
        assert rc == 0
        capsys.readouterr()
        cached = analyze_cached(multiphase_trace_file, ResultStore(store_dir))
        assert cached.cache_hit  # watch stored under the analyze fingerprint

    def test_watch_missing_file(self, capsys):
        from repro.cli import main

        rc = main(["watch", "/nonexistent/trace.rpt"])
        assert rc == 1

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("junk-tail", "unknown record tag"),
            ("leading-blank", "missing trace header"),
        ],
    )
    def test_watch_damaged_file_fails_without_traceback(
        self, multiphase_trace, tmp_path, damage, message
    ):
        text = dump_trace_text(multiphase_trace)
        if damage == "junk-tail":
            text += "Z junk line\n"
        else:
            text = "\n" + text
        path = tmp_path / "damaged.rpt"
        path.write_text(text, encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "-q", "watch", str(path),
             "--until-idle", "0.2", "--poll", "0.05"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "watch: " in proc.stderr and message in proc.stderr
        if damage == "junk-tail":
            assert "--salvage" in proc.stderr  # a strict read failed

    def test_analyze_stdin(self, multiphase_trace_file, capsys, monkeypatch):
        from repro.cli import main

        with open(multiphase_trace_file, encoding="utf-8") as handle:
            monkeypatch.setattr("sys.stdin", handle)
            rc = main(["analyze", "-"])
        assert rc == 0
        assert "Folding analysis" in capsys.readouterr().out

    def test_check_stdin(self, multiphase_trace_file, capsys, monkeypatch):
        from repro.cli import main

        with open(multiphase_trace_file, encoding="utf-8") as handle:
            monkeypatch.setattr("sys.stdin", handle)
            rc = main(["check", "-", "--salvage"])
        assert rc == 0
        assert "salvage: clean" in capsys.readouterr().out
