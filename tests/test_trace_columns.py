"""Columnar trace buffers: equivalence with traces built from records,
and the one storage form every trace is held in."""

import pytest

from repro.sim import Environment
from repro.trace import (
    ContextSwitchRecord,
    CpuUsagePreciseTable,
    CswitchColumns,
    EtlTrace,
    FramePresentRecord,
    GpuPacketColumns,
    GpuPacketRecord,
    GpuUtilizationTable,
    MarkRecord,
    NameTable,
    TraceSession,
)
from repro.validate.faults import inject_fault


def _emit_sample_events(session):
    session.emit_cswitch("app.exe", 4, 7, "worker", 0, 10, 20, 50)
    session.emit_cswitch("app.exe", 4, 8, "render", 1, 15, 25, 60)
    session.emit_cswitch("other.exe", 9, 11, "main", 0, 55, 60, 90)
    session.emit_gpu_packet("app.exe", 4, "3D", "dma", 5, 30, 70)
    session.emit_frame("app.exe", 4, 40, 60, reprojected=True)
    session.emit_mark("app.exe", 4, "phase:load")


def _run_session():
    env = Environment()
    session = TraceSession(env)
    session.start()
    env.timeout(100)
    _emit_sample_events(session)
    env.run()
    return session.stop()


def _record_trace():
    """The capture of :func:`_run_session`, built by hand from
    dataclass records."""
    return EtlTrace(
        0, 100,
        cswitches=[
            ContextSwitchRecord("app.exe", 4, 7, "worker", 0, 10, 20, 50),
            ContextSwitchRecord("app.exe", 4, 8, "render", 1, 15, 25, 60),
            ContextSwitchRecord("other.exe", 9, 11, "main", 0, 55, 60, 90),
        ],
        gpu_packets=[GpuPacketRecord("app.exe", 4, "3D", "dma", 5, 30, 70)],
        frames=[FramePresentRecord("app.exe", 4, 40, 60, True)],
        marks=[MarkRecord("app.exe", 4, 0, "phase:load")],
    )


class TestNameTable:
    def test_interning_is_stable(self):
        table = NameTable()
        a = table.intern("app.exe")
        b = table.intern("other.exe")
        assert table.intern("app.exe") == a
        assert table.intern("other.exe") == b
        assert table.names == ["app.exe", "other.exe"]
        assert len(table) == 2


class TestColumnarEquivalence:
    def test_materialized_records_match_legacy(self):
        columnar = _run_session()
        legacy = _record_trace()
        assert (columnar.start_time, columnar.stop_time) == \
            (legacy.start_time, legacy.stop_time)
        assert columnar.cswitches == legacy.cswitches
        assert columnar.gpu_packets == legacy.gpu_packets
        assert columnar.frames == legacy.frames
        assert columnar.marks == legacy.marks
        assert columnar.processes == legacy.processes

    def test_rows_match_materialized_records(self):
        store = CswitchColumns()
        store.append("app.exe", 4, 7, "worker", 0, 10, 20, 50)
        store.append("other.exe", 9, 11, "main", 1, 12, 14, 40)
        rows = store.rows()
        records = store.records()
        fields = ("process", "pid", "tid", "thread_name", "cpu",
                  "ready_time", "switch_in_time", "switch_out_time")
        assert [tuple(getattr(r, f) for f in fields)
                for r in records] == rows
        assert all(isinstance(r, ContextSwitchRecord) for r in records)

    def test_materialization_revalidates(self):
        store = CswitchColumns()
        # Appends skip validation (emitters are consistent by
        # construction)...
        store.append("app.exe", 4, 7, "worker", 0, 99, 20, 50)
        # ...materialization re-runs the dataclass checks.
        with pytest.raises(ValueError):
            store.records()

    def test_wpa_tables_identical_across_backends(self):
        columnar = _run_session()
        legacy = _record_trace()
        for table_cls in (CpuUsagePreciseTable, GpuUtilizationTable):
            assert (table_cls.from_trace(columnar).rows
                    == table_cls.from_trace(legacy).rows)

    def test_processes_without_materialization(self):
        trace = _run_session()
        assert trace.processes == ["app.exe", "other.exe"]
        # The name query must not have materialized the record lists.
        assert trace._materialized == {}

    def test_save_load_round_trip(self, tmp_path):
        trace = _run_session()
        path = tmp_path / "trace.etl.jsonl"
        trace.save(path)
        loaded = EtlTrace.load(path)
        assert loaded.cswitches == trace.cswitches
        assert loaded.gpu_packets == trace.gpu_packets
        assert loaded.frames == trace.frames
        assert loaded.marks == trace.marks


class TestOneStorageForm:
    def test_every_trace_holds_column_stores(self, tmp_path):
        built = _record_trace()
        path = tmp_path / "trace.etl.jsonl"
        built.save(path)
        traces = {
            "records": built,
            "load": EtlTrace.load(path),
            "inject_fault": inject_fault(built, "duplicated-gpu-packet"),
        }
        for name, trace in traces.items():
            assert isinstance(trace.cswitch_store(), CswitchColumns), name
            assert isinstance(trace.gpu_store(), GpuPacketColumns), name


class TestSessionBufferDetachment:
    def test_restart_does_not_clobber_returned_trace(self):
        """The satellite bugfix: start() must not clear buffers shared
        with a previously returned lazy trace."""
        env = Environment()
        session = TraceSession(env)
        session.start()
        _emit_sample_events(session)
        first = session.stop()

        session.start()
        session.emit_cswitch("late.exe", 1, 2, "t", 0, 0, 0, 5)
        second = session.stop()

        # `first` was materialized *after* the second window recorded.
        assert len(first.cswitches) == 3
        assert {r.process for r in first.cswitches} == {"app.exe",
                                                        "other.exe"}
        assert len(second.cswitches) == 1
        assert second.cswitches[0].process == "late.exe"

    def test_zero_length_window_yields_empty_trace(self):
        env = Environment()
        session = TraceSession(env)
        session.start()
        trace = session.stop()
        assert trace.duration == 0
        assert trace.cswitches == []
        # Downstream metrics refuse the degenerate window explicitly
        # instead of dividing by zero.
        from repro.metrics import measure_tlp

        table = CpuUsagePreciseTable.from_trace(trace)
        with pytest.raises(ValueError):
            measure_tlp(table, 4)

    def test_streaming_session_retains_nothing(self):
        env = Environment()
        session = TraceSession(env, retain_records=False)
        session.start()
        _emit_sample_events(session)
        trace = session.stop()
        assert trace.cswitches == []
        assert trace.gpu_packets == []
        assert trace.frames == []
        assert trace.marks == []
