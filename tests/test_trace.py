"""Unit tests for the tracing substrate (records, ETL, session, WPA)."""

import pytest

from repro.sim import Environment
from repro.trace import (
    ContextSwitchRecord,
    CpuUsagePreciseTable,
    EtlTrace,
    GpuPacketRecord,
    GpuUtilizationTable,
    TraceSession,
    export_csv,
    load_cpu_csv,
    load_gpu_csv,
)
from tests.test_kernels import each_backend


def make_trace():
    cswitches = [
        ContextSwitchRecord("app.exe", 8, 8001, "main", 0, 0, 10, 50),
        ContextSwitchRecord("app.exe", 8, 8002, "worker", 1, 5, 12, 40),
        ContextSwitchRecord("System", 4, 4001, "tick", 2, 0, 0, 5),
    ]
    packets = [
        GpuPacketRecord("app.exe", 8, "3D", "frame", 0, 2, 30),
        GpuPacketRecord("other.exe", 12, "compute", "kernel", 5, 30, 60),
    ]
    return EtlTrace(0, 100, cswitches=cswitches, gpu_packets=packets,
                    machine_name="testbox")


class TestRecords:
    def test_cswitch_duration_and_wait(self):
        record = ContextSwitchRecord("p", 1, 2, "t", 0, 10, 15, 40)
        assert record.duration == 25
        assert record.wait_time == 5

    def test_cswitch_time_ordering_enforced(self):
        with pytest.raises(ValueError):
            ContextSwitchRecord("p", 1, 2, "t", 0, 10, 5, 40)

    def test_packet_running_and_queue_time(self):
        packet = GpuPacketRecord("p", 1, "3D", "frame", 0, 4, 24)
        assert packet.running_time == 20
        assert packet.queue_time == 4

    def test_packet_time_ordering_enforced(self):
        with pytest.raises(ValueError):
            GpuPacketRecord("p", 1, "3D", "frame", 10, 5, 24)


class TestEtlTrace:
    def test_duration(self):
        assert make_trace().duration == 100

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            EtlTrace(10, 5)

    def test_processes_lists_all_sources(self):
        assert make_trace().processes == ["System", "app.exe", "other.exe"]

    def test_save_load_round_trip(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "capture.etl.jsonl"
        trace.save(path)
        loaded = EtlTrace.load(path)
        assert loaded.start_time == trace.start_time
        assert loaded.stop_time == trace.stop_time
        assert loaded.cswitches == trace.cswitches
        assert loaded.gpu_packets == trace.gpu_packets
        assert loaded.machine_name == "testbox"

    def test_load_without_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mark", "process": "p", "pid": 1, '
                        '"time": 0, "label": "x"}\n')
        with pytest.raises(ValueError):
            EtlTrace.load(path)


HEADER = '{"kind": "header", "start_time": 0, "stop_time": 100}\n'
CPU_CSV = "#trace,0,100\n" + ",".join(CpuUsagePreciseTable.COLUMNS) + "\n"
GPU_CSV = "#trace,0,100\n" + ",".join(GpuUtilizationTable.COLUMNS) + "\n"


@pytest.mark.parametrize("load, name, text, line", [
    (EtlTrace.load, "t.etl", HEADER + '{"kind": "bogus"}\n', 2),
    (EtlTrace.load, "t.etl", HEADER + '{"process": "p"}\n', 2),
    (EtlTrace.load, "t.etl", HEADER + '{"kind": "mark", "pid": 1}\n', 2),
    (EtlTrace.load, "t.etl", HEADER + "[1, 2]\n", 2),
    (EtlTrace.load, "t.etl", HEADER + '{"kind": "cswitch", "process": "p", '
     '"pid": 1, "tid": 2, "thread_name": "t", "cpu": 0, "ready_time": 10, '
     '"switch_in_time": 5, "switch_out_time": 20}\n', 2),
    (EtlTrace.load, "t.etl", '{"kind": "header", "stop_time": 100}\n', None),
    (load_cpu_csv, "cpu.csv", "", None),
    (load_cpu_csv, "cpu.csv", "#trace,0,100\n", None),
    (load_gpu_csv, "gpu.csv", "", None),
    (load_gpu_csv, "gpu.csv", "#trace,0,100\n", None),
    (load_cpu_csv, "cpu.csv", CPU_CSV + "a,b\n", 3),
    (load_gpu_csv, "gpu.csv", GPU_CSV + "p,1,3D,frame,0,1,2,3\n", 3),
    (load_cpu_csv, "cpu.csv", CPU_CSV + "p,1,2,t,0,0,1,5\np,x,2,t,0,0,1,5\n",
     4),
    (load_cpu_csv, "cpu.csv",
     CPU_CSV.replace("#trace,0,", "#trace,zero,"), 1),
    (load_cpu_csv, "cpu.csv",
     CPU_CSV + "p,1,2,t,0,0,1,99999999999999999999999\n", 3),
    (load_gpu_csv, "gpu.csv", GPU_CSV + "p" * 200_000 + ",1,3D,f,0,1,2\n", 3),
], ids=["unknown-kind", "no-kind", "missing-fields", "not-an-object",
        "switch-in-before-ready", "header-without-start", "empty-cpu-csv",
        "cpu-csv-meta-only", "empty-gpu-csv", "gpu-csv-meta-only",
        "short-cpu-row", "long-gpu-row", "non-integer-pid",
        "non-integer-trace-bound", "switch-out-beyond-int64",
        "field-over-csv-limit"])
def test_malformed_file_raises_value_error_naming_it(tmp_path, load, name,
                                                     text, line):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError) as caught:
        load(path)
    where = str(path) if line is None else f"{path}:{line}:"
    assert where in str(caught.value)


class TestTraceSession:
    def test_records_only_while_recording(self):
        env = Environment()
        session = TraceSession(env)
        session.emit_cswitch("p", 1, 2, "t", 0, 0, 0, 5)  # before start
        session.start()
        session.emit_cswitch("p", 1, 2, "t", 0, 0, 0, 5)
        trace = session.stop()
        session.emit_cswitch("p", 1, 2, "t", 0, 0, 0, 5)  # after stop
        assert len(trace.cswitches) == 1

    def test_double_start_rejected(self):
        session = TraceSession(Environment())
        session.start()
        with pytest.raises(RuntimeError):
            session.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            TraceSession(Environment()).stop()

    def test_trace_window_tracks_clock(self):
        env = Environment()
        session = TraceSession(env)
        env.timeout(10)
        env.run()
        session.start()
        env.timeout(40)
        env.run()
        trace = session.stop()
        assert trace.start_time == 10
        assert trace.stop_time == 50


class TestWpaTables:
    def test_cpu_table_extraction_sorted_by_switch_in(self):
        table = CpuUsagePreciseTable.from_trace(make_trace())
        switch_ins = [row[6] for row in table.rows]
        assert switch_ins == sorted(switch_ins)

    def test_tables_from_row_tuples_come_back_sorted(self):
        cpu = CpuUsagePreciseTable.from_trace(make_trace())
        assert CpuUsagePreciseTable(
            cpu.rows[::-1], 0, 100).rows == cpu.rows
        gpu = GpuUtilizationTable.from_trace(make_trace())
        assert GpuUtilizationTable(gpu.rows[::-1], 0, 100).rows == gpu.rows

    def test_cpu_table_process_filtering(self):
        table = CpuUsagePreciseTable.from_trace(make_trace())
        intervals = list(table.busy_intervals(processes={"app.exe"}))
        assert len(intervals) == 2
        assert all(isinstance(cpu, int) for cpu, _s, _e in intervals)

    def test_gpu_table_extraction(self):
        table = GpuUtilizationTable.from_trace(make_trace())
        assert table.process_names() == ["app.exe", "other.exe"]
        intervals = list(table.packet_intervals(processes={"app.exe"}))
        assert intervals == [("3D", 2, 30)]

    def test_cpu_csv_round_trip(self, tmp_path):
        table = CpuUsagePreciseTable.from_trace(make_trace())
        path = tmp_path / "cpu.csv"
        export_csv(table, path)
        loaded = load_cpu_csv(path)
        assert loaded.rows == table.rows
        assert loaded.trace_start == table.trace_start
        assert loaded.trace_stop == table.trace_stop

    def test_gpu_csv_round_trip(self, tmp_path):
        table = GpuUtilizationTable.from_trace(make_trace())
        path = tmp_path / "gpu.csv"
        export_csv(table, path)
        loaded = load_gpu_csv(path)
        assert loaded.rows == table.rows

    def test_csv_wrong_schema_rejected(self, tmp_path):
        cpu_table = CpuUsagePreciseTable.from_trace(make_trace())
        path = tmp_path / "cpu.csv"
        export_csv(cpu_table, path)
        with pytest.raises(ValueError):
            load_gpu_csv(path)


class TestMemoizedExtractions:
    """Each test runs on both kernel backends, so the event buffers are
    built through both ``interned_mask`` paths."""

    def test_busy_events_sorted_and_cached(self):
        for name, context in each_backend():
            with context:
                table = CpuUsagePreciseTable.from_trace(make_trace())
                arrays = table.busy_event_arrays(processes={"app.exe"})
                times, deltas = arrays
                assert list(times) == sorted(times), name
                assert sum(deltas) == 0, name
                # Same process set (any set form) returns the same
                # cached buffers.
                assert table.busy_event_arrays(
                    processes=frozenset({"app.exe"})) is arrays, name
                assert (table.busy_event_arrays()
                        is table.busy_event_arrays()), name

    def test_busy_events_match_busy_intervals(self):
        for name, context in each_backend():
            with context:
                table = CpuUsagePreciseTable.from_trace(make_trace())
                for processes in (None, {"app.exe", "absent.exe"}):
                    expected = []
                    for _cpu, start, stop in table.busy_intervals(processes):
                        expected += [(start, 1), (stop, -1)]
                    assert list(zip(*table.busy_event_arrays(processes))) \
                        == sorted(expected), name

    def test_packet_event_arrays_cached(self):
        for name, context in each_backend():
            with context:
                table = GpuUtilizationTable.from_trace(make_trace())
                assert list(zip(*table.packet_event_arrays(
                    processes={"app.exe"}))) == [(2, 1), (30, -1)], name
                arrays = table.packet_event_arrays()
                assert list(zip(*arrays)) == \
                    [(2, 1), (30, -1), (30, 1), (60, -1)], name
                assert table.packet_event_arrays() is arrays, name

    def test_etl_processes_memoized(self):
        trace = make_trace()
        first = trace.processes
        assert first == ["System", "app.exe", "other.exe"]
        first.append("mutated.exe")          # caller copies are independent
        assert trace.processes == ["System", "app.exe", "other.exe"]
