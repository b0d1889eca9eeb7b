"""Structural tests of application-model mechanics, per category.

These go below the Table II numbers: queue/pipeline behaviour, process
topology, fallback paths, throttling — the mechanisms the category
docstrings promise.
"""

import pytest

from repro.apps import create_app
from repro.apps.browsing import SITE_PROFILES, TESTS
from repro.apps.transcoding import HandBrake, WinXVideoConverter
from repro.harness import run_app_once
from repro.hardware import GTX_285, paper_machine
from repro.sim import SECOND

SHORT = 15 * SECOND


class TestTranscodingPipeline:
    def test_total_frames_limits_the_run(self):
        run = run_app_once(HandBrake(total_frames=120), duration_us=30 * SECOND,
                           seed=1)
        assert run.outputs["frames"] == 120
        assert run.outputs["completed_at_us"] < 30 * SECOND

    def test_unbounded_run_never_sets_completion(self):
        run = run_app_once(HandBrake(), duration_us=SHORT, seed=1)
        assert "completed_at_us" not in run.outputs

    def test_worker_override_caps_width(self):
        run = run_app_once(HandBrake(workers=4), duration_us=SHORT, seed=1)
        assert run.tlp.max_instantaneous <= 6  # 4 workers + coordinator

    def test_winx_without_nvenc_falls_back_to_cpu(self):
        # The GTX 285 has no NVENC: the CUDA path must quietly fall
        # back to software encode.
        machine = paper_machine().with_gpu(GTX_285)
        run = run_app_once(WinXVideoConverter(use_gpu=True),
                           machine=machine, duration_us=SHORT, seed=1)
        assert run.outputs["gpu_path"] is False

    def test_nvenc_packets_emitted_on_gpu_path(self):
        run = run_app_once(WinXVideoConverter(), duration_us=SHORT,
                           seed=1, keep_trace=True)
        types = {p.packet_type for p in run.trace.gpu_packets}
        assert "nvenc" in types and "cuda-filter" in types


class TestBrowserTopology:
    def test_all_test_names_valid(self):
        for test in TESTS:
            create_app("chrome", test=test)

    def test_unknown_test_rejected(self):
        with pytest.raises(ValueError):
            create_app("chrome", test="incognito")

    def test_site_profiles_complete(self):
        required = {"load_us", "helpers", "tick_duty", "gpu_factor",
                    "iframes", "video", "game"}
        for profile in SITE_PROFILES.values():
            assert required <= set(profile)

    def test_gpu_process_exists(self):
        run = run_app_once(create_app("chrome"), duration_us=SHORT, seed=1)
        assert any(name.endswith("-gpu.exe") for name in run.process_names)

    def test_chrome_isolates_espn_iframes(self):
        run = run_app_once(create_app("chrome", test="espn"),
                           duration_us=SHORT, seed=1)
        renderers = [n for n in run.process_names if "renderer" in n]
        assert len(renderers) == SITE_PROFILES["espn"]["iframes"]

    def test_edge_keeps_one_content_process_on_espn(self):
        run = run_app_once(create_app("edge", test="espn"),
                           duration_us=SHORT, seed=1)
        contents = [n for n in run.process_names if "content" in n]
        assert len(contents) == 1

    def test_youtube_tab_decodes_video_on_gpu(self):
        run = run_app_once(create_app("firefox", test="multi-tab"),
                           duration_us=SHORT, seed=1, keep_trace=True)
        assert any(p.packet_type == "nvdec" for p in run.trace.gpu_packets)


class TestMediaPlayerPipeline:
    def test_no_frames_before_open_input(self):
        run = run_app_once(create_app("vlc"), duration_us=SHORT, seed=1,
                           keep_trace=True)
        first_decode = min(p.submit_time for p in run.trace.gpu_packets
                           if p.packet_type == "nvdec")
        # The scripted open-file click lands around 0.4-0.6 s.
        assert first_decode > 300_000

    def test_quality_switch_doubles_decode_cost(self):
        run = run_app_once(create_app("wmp"), duration_us=30 * SECOND,
                           seed=1, keep_trace=True)
        halfway = 15 * SECOND
        early = [p.running_time for p in run.trace.gpu_packets
                 if p.packet_type == "nvdec" and p.finished < halfway]
        late = [p.running_time for p in run.trace.gpu_packets
                if p.packet_type == "nvdec"
                and p.start_execution > halfway + 2 * SECOND]
        assert sum(late) / len(late) > 1.6 * sum(early) / len(early)


class TestMiningStructure:
    def test_easyminer_threads_follow_core_count(self):
        four = run_app_once(create_app("easyminer"),
                            machine=paper_machine().with_logical_cpus(4),
                            duration_us=SHORT, seed=1)
        assert four.tlp.tlp == pytest.approx(4.0, abs=0.5)

    def test_mining_stats_exposed(self):
        run = run_app_once(create_app("bitcoin-miner"), duration_us=SHORT,
                           seed=1)
        stats = run.outputs["mining_stats"]
        assert stats.batches > 0
        assert stats.cpu_hashes > 0  # hybrid miner

    def test_gpu_only_miners_have_no_cpu_hashes(self):
        run = run_app_once(create_app("wineth"), duration_us=SHORT, seed=1)
        assert run.outputs["mining_stats"].cpu_hashes == 0

    def test_phoenix_uses_two_engines(self):
        run = run_app_once(create_app("phoenixminer"), duration_us=SHORT,
                           seed=1, keep_trace=True)
        engines = {p.engine for p in run.trace.gpu_packets}
        assert len(engines) == 2


class TestAssistantStructure:
    def test_cloud_wait_keeps_cpu_idle(self):
        run = run_app_once(create_app("braina"), duration_us=30 * SECOND,
                           seed=1)
        assert run.tlp.idle_fraction > 0.7

    def test_voice_inputs_counted(self):
        run = run_app_once(create_app("cortana"), duration_us=30 * SECOND,
                           seed=1)
        assert run.outputs["queries_answered"] >= 6


class TestVrStructure:
    def test_all_engine_threads_present(self):
        run = run_app_once(create_app("fallout4"), duration_us=10 * SECOND,
                           seed=1, keep_trace=True)
        names = {r.thread_name for r in run.trace.cswitches
                 if r.process == "Fallout4VR.exe"}
        assert {"game-main", "render", "audio", "sensor-input"} <= names
        assert any(n.startswith("job-") for n in names)

    def test_frame_packets_on_3d_engine(self):
        run = run_app_once(create_app("raw-data"), duration_us=10 * SECOND,
                           seed=1, keep_trace=True)
        frames = [p for p in run.trace.gpu_packets
                  if p.packet_type == "vr-frame"]
        assert frames and all(p.engine == "3D" for p in frames)


class TestImageAuthoringStructure:
    def test_photoshop_counts_filters(self):
        run = run_app_once(create_app("photoshop"), duration_us=60 * SECOND,
                           seed=1)
        assert run.outputs["filters_rendered"] == 5

    def test_photoshop_tiles_use_all_cores(self):
        run = run_app_once(create_app("photoshop"), duration_us=30 * SECOND,
                           seed=1, keep_trace=True)
        tiles = {r.thread_name for r in run.trace.cswitches
                 if r.thread_name.startswith("tile-")}
        assert len(tiles) >= 12

    def test_autocad_regen_helpers(self):
        run = run_app_once(create_app("autocad"), duration_us=SHORT,
                           seed=1, keep_trace=True)
        assert any(r.thread_name.startswith("regen")
                   for r in run.trace.cswitches)
