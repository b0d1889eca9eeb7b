"""The VR compositor: vsync pacing, ASW, asynchronous reprojection.

The compositor runs in its own process (the SteamVR / Oculus runtime)
and ticks at the headset refresh rate.  Each tick it either presents a
freshly rendered frame or applies the headset's miss policy:

* **Reprojection (Vive / Vive Pro)** — insert an adjusted frame
  (``reprojected=True``) and keep requesting full-rate rendering; the
  real frame rate oscillates between 90 and 45 (Fig. 13).
* **ASW (Rift)** — after a burst of misses, clamp the application to
  half rate for a hold-off window: the game renders every other vsync
  and synthesized frames fill in.  Frame delivery becomes *stable*
  at 45 (or stays stable at 90 when the system keeps up) — the Fig. 13
  contrast, and the 4-logical-core clamp of Fig. 7.
"""

from repro.gpu.device import ENGINE_3D
from repro.os.scheduler import PRIORITY_HIGH
from repro.os.work import WorkClass
from repro.sim import MS, SECOND
from repro.vr.headsets import ASW

#: Misses within the detection window that trigger ASW half-rate.
_ASW_MISS_THRESHOLD = 6
_ASW_WINDOW_TICKS = 18
#: Ticks ASW stays in half-rate before probing full rate again.
_ASW_HOLDOFF_TICKS = 270


class Compositor:
    """Paces one VR application at the headset's refresh rate."""

    def __init__(self, rt, headset, process_name="vrcompositor.exe"):
        self.rt = rt
        self.headset = headset
        self.process = rt.spawn_process(process_name)
        self.frame_period_us = SECOND // headset.target_fps
        #: Set by the game's render thread when a frame finishes on GPU.
        self._frames_ready = 0
        #: The game waits on this gate; released once per (active) tick.
        self._tick_gates = []
        self.half_rate = False
        self.real_frames = 0
        self.reprojected_frames = 0
        self._recent_misses = []
        self._holdoff = 0
        self._tick_index = 0
        self._runtime_gates = []
        # The compositor is latency-critical: it runs at high priority
        # on the CPU and its timewarp packets use the GPU's preemption
        # queue, as real VR runtimes do.
        self.process.spawn_thread(self._compositor_body, name="compositor",
                                  priority=PRIORITY_HIGH)
        for index in range(headset.runtime_threads):
            self.process.spawn_thread(self._runtime_body(),
                                      name=f"runtime-{index}")

    def register_game(self, gate):
        """The game's frame loop waits on ``gate`` (a Semaphore)."""
        self._tick_gates.append(gate)

    def frame_done(self):
        """Called (via completion callback) when a GPU frame finishes."""
        self._frames_ready += 1

    def _runtime_body(self):
        """A vendor-runtime worker (tracking, timewarp prep) that runs
        its share of work every vsync, synchronized with the tick —
        Rift's heavier client runtime is what lifts its TLP in
        Fig. 12a."""
        from repro.os.sync import Semaphore

        rt, headset = self.rt, self.headset
        rng = rt.fork_rng()
        gate = Semaphore(rt.kernel, 0)
        self._runtime_gates.append(gate)
        period = self.frame_period_us

        def body(ctx):
            while ctx.now < rt.end_time:
                yield ctx.wait(gate.acquire())
                if ctx.now >= rt.end_time:
                    return
                busy = max(1, int(period * headset.runtime_duty
                                  * rng.uniform(0.7, 1.3)))
                yield ctx.cpu(busy, WorkClass.UI)

        return body

    def _compositor_body(self, ctx):
        rt = self.rt
        period = self.frame_period_us
        while ctx.now < rt.end_time:
            tick_start = ctx.now
            self._tick_index += 1
            yield ctx.cpu(int(0.5 * MS), WorkClass.UI)
            if self._frames_ready > 0:
                self._frames_ready -= 1
                self.real_frames += 1
                self._recent_misses.append(0)
                rt.kernel.session.emit_frame(
                    self.process.name, self.process.pid, ctx.now,
                    self.headset.target_fps, reprojected=False)
            else:
                self.reprojected_frames += 1
                self._recent_misses.append(1)
                # Synthesize the adjusted frame: a small timewarp pass
                # through the GPU's high-priority queue.
                rt.gpu.submit(self.process, ENGINE_3D, "timewarp",
                              int(1.2 * MS), priority=1)
                rt.kernel.session.emit_frame(
                    self.process.name, self.process.pid, ctx.now,
                    self.headset.target_fps, reprojected=True)
            del self._recent_misses[:-_ASW_WINDOW_TICKS]
            if self.headset.policy == ASW:
                self._update_asw()
            # Release the game for the next frame; in ASW half-rate
            # mode only every other tick renders.
            if not (self.half_rate and self._tick_index % 2):
                for gate in self._tick_gates:
                    gate.release()
            for gate in self._runtime_gates:
                gate.release()
            rt.outputs["real_frames"] = self.real_frames
            rt.outputs["reprojected_frames"] = self.reprojected_frames
            elapsed = ctx.now - tick_start
            if elapsed < period and ctx.now < rt.end_time:
                yield ctx.sleep(min(period - elapsed,
                                    max(1, rt.end_time - ctx.now)))
        for gate in self._tick_gates + self._runtime_gates:
            gate.release()

    def _update_asw(self):
        if self.half_rate:
            self._holdoff -= 1
            if self._holdoff <= 0:
                self.half_rate = False
                self._recent_misses.clear()
        elif sum(self._recent_misses) >= _ASW_MISS_THRESHOLD:
            self.half_rate = True
            self._holdoff = _ASW_HOLDOFF_TICKS
            self.rt.outputs["asw_engaged"] = (
                self.rt.outputs.get("asw_engaged", 0) + 1)
