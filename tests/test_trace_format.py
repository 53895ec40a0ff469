"""Tests for repro.trace — records, writer/reader round trips, merge, stats."""

import io

import pytest

from repro.errors import TraceFormatError
from repro.trace.merge import merge_traces
from repro.trace.pcf import EventDictionary
from repro.trace.reader import load_trace_text, read_trace
from repro.trace.records import (
    InstrumentationRecord,
    SampleRecord,
    StateKind,
    StateRecord,
    Trace,
)
from repro.trace.stats import compute_stats
from repro.trace.writer import dump_trace_text, write_trace


def tiny_trace() -> Trace:
    trace = Trace(n_ranks=2, app_name="tiny app", metadata={"k": "v with space"})
    trace.add_state(StateRecord(0, 0.0, 1.0, StateKind.COMPUTE))
    trace.add_state(StateRecord(0, 1.0, 1.5, StateKind.COMM, label="MPI_Allreduce"))
    trace.add_instrumentation(
        InstrumentationRecord(0, 1.0, "comm_enter", "MPI_Allreduce", {"PAPI_TOT_INS": 123.0})
    )
    trace.add_instrumentation(
        InstrumentationRecord(0, 1.5, "comm_exit", "MPI_Allreduce", {"PAPI_TOT_INS": 130.0})
    )
    trace.add_sample(
        SampleRecord(
            1,
            0.25,
            {"PAPI_TOT_INS": 55.5},
            frames=(("main", "a.f90", 10), ("kern", "a.f90", 120)),
        )
    )
    trace.add_sample(SampleRecord(1, 1.25, {"PAPI_TOT_INS": 60.0}, frames=()))
    return trace


class TestRecords:
    def test_state_duration(self):
        assert StateRecord(0, 1.0, 3.0, StateKind.COMPUTE).duration == 2.0

    def test_state_inverted(self):
        with pytest.raises(TraceFormatError):
            StateRecord(0, 3.0, 1.0, StateKind.COMPUTE)

    def test_bad_marker(self):
        with pytest.raises(TraceFormatError):
            InstrumentationRecord(0, 0.0, "probe", "MPI_Send", {})

    def test_negative_counter(self):
        with pytest.raises(TraceFormatError):
            SampleRecord(0, 0.0, {"PAPI_TOT_INS": -1.0})

    def test_sample_leaf_and_in_mpi(self):
        sample = SampleRecord(0, 0.0, {}, frames=(("m", "f", 1),))
        assert sample.leaf_frame == ("m", "f", 1)
        assert not sample.in_mpi
        assert SampleRecord(0, 0.0, {}).in_mpi

    def test_trace_rank_range_enforced(self):
        trace = Trace(n_ranks=1)
        with pytest.raises(TraceFormatError):
            trace.add_state(StateRecord(5, 0.0, 1.0, StateKind.COMPUTE))

    def test_counter_names_order(self):
        trace = tiny_trace()
        assert trace.counter_names() == ["PAPI_TOT_INS"]

    def test_duration(self):
        assert tiny_trace().duration == pytest.approx(1.5)

    def test_sort(self):
        trace = tiny_trace()
        trace.sort()
        times = [s.time for s in trace.samples]
        assert times == sorted(times)


class TestEventDictionary:
    def test_allocation_stable(self):
        d = EventDictionary()
        a = d.counter_id("PAPI_TOT_INS")
        b = d.counter_id("PAPI_TOT_CYC")
        assert d.counter_id("PAPI_TOT_INS") == a
        assert b == a + 1

    def test_reverse_lookup(self):
        d = EventDictionary()
        cid = d.counter_id("PAPI_X")
        sid = d.state_id("compute")
        assert d.counter_name(cid) == "PAPI_X"
        assert d.state_name(sid) == "compute"
        assert d.counter_names_by_text == {str(cid): "PAPI_X"}
        with pytest.raises(TraceFormatError):
            d.counter_name(999)
        with pytest.raises(TraceFormatError):
            d.state_name(999)
        # Loaded maps: a line repeated verbatim is harmless, and counters
        # and states keep separate id spaces.
        loaded = EventDictionary.from_lines(
            ["[counters]", "7 A", "7 A", "9 C", "[states]", "7 compute"]
        )
        assert loaded.counter_name(7) == "A"
        assert loaded.counter_names_by_text == {"7": "A", "9": "C"}
        assert loaded.state_name(7) == "compute"

    def test_lines_round_trip(self):
        d = EventDictionary()
        d.counter_id("PAPI_A")
        d.state_id("compute")
        d2 = EventDictionary.from_lines(d.to_lines())
        assert d2.counter_ids == d.counter_ids
        assert d2.state_ids == d.state_ids

    def test_malformed_lines(self):
        with pytest.raises(TraceFormatError):
            EventDictionary.from_lines(["[counters]", "notanint name"])
        with pytest.raises(TraceFormatError):
            EventDictionary.from_lines(["5 orphan"])
        # one id under two names, or one name under two ids, either section
        for section in ("[counters]", "[states]"):
            with pytest.raises(TraceFormatError, match="id 7 listed"):
                EventDictionary.from_lines([section, "7 A", "7 B"])
            with pytest.raises(TraceFormatError, match="name 'C' listed"):
                EventDictionary.from_lines([section, "8 C", "9 C"])


class TestRoundTrip:
    def test_exact_round_trip(self):
        trace = tiny_trace()
        text = dump_trace_text(trace)
        back = load_trace_text(text)
        assert back.app_name == trace.app_name
        assert back.n_ranks == trace.n_ranks
        assert back.metadata == trace.metadata
        assert back.states == trace.states
        assert back.instrumentation == trace.instrumentation
        assert back.samples == trace.samples

    def test_file_round_trip(self, tmp_path):
        trace = tiny_trace()
        path = str(tmp_path / "trace.rpt")
        write_trace(trace, path)
        back = read_trace(path)
        assert back.samples == trace.samples

    def test_stream_round_trip(self):
        trace = tiny_trace()
        buffer = io.StringIO()
        write_trace(trace, buffer)
        buffer.seek(0)
        assert read_trace(buffer).states == trace.states

    def test_real_trace_round_trip(self, multiphase_trace):
        text = dump_trace_text(multiphase_trace)
        back = load_trace_text(text)
        assert back.states == multiphase_trace.states
        assert back.instrumentation == multiphase_trace.instrumentation
        assert back.samples == multiphase_trace.samples

    def test_missing_header(self):
        with pytest.raises(TraceFormatError, match="header"):
            load_trace_text("not a trace\n")

    def test_empty_file(self):
        with pytest.raises(TraceFormatError):
            load_trace_text("")

    def test_missing_ranks(self):
        with pytest.raises(TraceFormatError, match="ranks"):
            load_trace_text("#REPRO-TRACE v1\napp x\n[dict]\n[records]\n")

    def test_unknown_record_tag(self):
        text = "#REPRO-TRACE v1\nranks 1\n[dict]\n[records]\nZ 0 1 2\n"
        with pytest.raises(TraceFormatError):
            load_trace_text(text)

    def test_malformed_counter_item(self):
        text = (
            "#REPRO-TRACE v1\nranks 1\n[dict]\n[counters]\n42000000 PAPI_X\n"
            "[records]\nP 0 0.5 brokenitem -\n"
        )
        with pytest.raises(TraceFormatError):
            load_trace_text(text)

    def test_unknown_counter_id(self):
        text = (
            "#REPRO-TRACE v1\nranks 1\n[dict]\n[records]\nP 0 0.5 99=1.0 -\n"
        )
        with pytest.raises(TraceFormatError):
            load_trace_text(text)
        # An id spelled other than its canonical text still resolves.
        text = (
            "#REPRO-TRACE v1\nranks 1\n[dict]\n[counters]\n42000010 PAPI_X\n"
            "[records]\nP 0 0.5 042000010=1.0 -\nP 0 0.6 +42000010=2.0 -\n"
        )
        samples = load_trace_text(text).samples
        assert [s.counters for s in samples] == [{"PAPI_X": 1.0}, {"PAPI_X": 2.0}]
        with pytest.raises(TraceFormatError, match="counter id 42000011 not in"):
            load_trace_text(text.replace("+42000010", "042000011"))


class TestMerge:
    def test_merge_rebases_ranks(self):
        a, b = tiny_trace(), tiny_trace()
        merged = merge_traces([a, b])
        assert merged.n_ranks == 4
        ranks = {s.rank for s in merged.samples}
        assert ranks == {1, 3}

    def test_merge_vocabulary_mismatch(self):
        a = tiny_trace()
        b = Trace(n_ranks=1)
        b.add_sample(SampleRecord(0, 0.0, {"PAPI_OTHER": 1.0}))
        with pytest.raises(TraceFormatError, match="vocabulary"):
            merge_traces([a, b])

    def test_merge_empty_list(self):
        with pytest.raises(TraceFormatError):
            merge_traces([])

    def test_merge_sorted(self):
        merged = merge_traces([tiny_trace(), tiny_trace()])
        times = [s.time for s in merged.samples]
        assert times == sorted(times)


class TestStats:
    def test_stats_of_real_trace(self, multiphase_trace):
        stats = compute_stats(multiphase_trace)
        assert stats.n_ranks == multiphase_trace.n_ranks
        assert 0.5 < stats.compute_fraction < 1.0
        assert stats.mean_sample_period == pytest.approx(0.02, rel=0.15)
        assert 0.9 < stats.parallel_efficiency <= 1.0
        assert 0 <= stats.samples_in_mpi_fraction < 0.2

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceFormatError):
            compute_stats(Trace(n_ranks=1))

    def test_compute_fraction_zero_when_no_states(self):
        trace = Trace(n_ranks=1)
        trace.add_sample(SampleRecord(0, 0.0, {"PAPI_TOT_INS": 1.0}))
        stats = compute_stats(trace)
        assert stats.compute_fraction == 0.0
