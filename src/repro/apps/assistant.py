"""Personal assistant models: Cortana and Braina (§IV-H).

The testbench issues a fixed sequence of spoken queries — daily news,
weather, alarms, general knowledge, definitions, simple math — with
strict timing, in the same voice (the paper's manual-testing protocol,
§III-E).  Assistants offload the heavy lifting to the datacenter, so
the local profile is: audio capture while the user speaks, a short
burst of local feature extraction / wake-word work, an idle wait for
the cloud, then response rendering with a little GPU animation — the
lowest-TLP category of the suite (average 1.3).
"""

from repro.apps.base import AppModel, Category
from repro.apps.blocks import (compute, duty_cycle_thread,
                               housekeeping_thread, ui_pump)
from repro.automation import InputScript
from repro.gpu.device import ENGINE_3D
from repro.os.work import WorkClass
from repro.sim import MS, SECOND

#: The tested query mix (paper §IV-H).
QUERIES = ("daily-news", "weather-forecast", "set-alarm", "set-reminder",
           "general-knowledge", "word-definition", "simple-math")


class _Assistant(AppModel):
    """Shared listen -> local process -> cloud wait -> render loop."""

    category = Category.ASSISTANT
    process_name = "assistant.exe"
    #: Local speech feature extraction per query.
    local_nlp_us = 500 * MS
    #: Threads participating in local processing.
    nlp_threads = 2
    #: Simulated datacenter round-trip (idle locally).
    cloud_wait_us = 1500 * MS
    #: Response rendering CPU + GPU animation.
    render_us = 400 * MS
    gpu_anim_us = 0
    #: Continuous wake-word listener duty.
    listener_duty = 0.02

    def build(self, rt):
        process = rt.spawn_process(self.process_name)
        rng = rt.fork_rng()
        script = InputScript()
        gap = max(1, (rt.duration_us - 25 * SECOND) // len(QUERIES))
        for query in QUERIES:
            script.wait(gap)
            script.speak(query, int(2.4 * SECOND))
        rt.outputs["queries_answered"] = 0

        from repro.apps.blocks import fan_out

        def handle(ctx, action):
            # Audio capture ran while the user spoke; now extract
            # features locally (a short multi-threaded burst)...
            yield from compute(ctx, int(120 * MS), WorkClass.UI)
            done = fan_out(rt, process,
                           int(self.local_nlp_us * rng.uniform(0.8, 1.2)),
                           self.nlp_threads, WorkClass.MEMORY_BOUND,
                           chunk_us=10 * MS, name="nlp")
            yield ctx.wait(done)
            # ...wait for the datacenter...
            yield ctx.sleep(int(self.cloud_wait_us * rng.uniform(0.7, 1.3)))
            # ...and render the response (card UI, TTS, animation).
            if self.gpu_anim_us:
                frames = max(4, 10 * rt.duration_us // (60 * SECOND))
                for _ in range(frames):
                    rt.gpu.submit(process, ENGINE_3D, "anim-frame",
                                  self.gpu_anim_us)
                    yield ctx.cpu(max(1, int(self.render_us) // frames), WorkClass.UI)
                    yield ctx.sleep(30 * MS)
            else:
                yield from compute(ctx, self.render_us, WorkClass.UI)
            rt.outputs["queries_answered"] += 1

        ui_pump(rt, process, script, handle)
        duty_cycle_thread(rt, process, self.listener_duty,
                          period_us=100 * MS, work_class=WorkClass.UI,
                          name="wake-word-listener")
        housekeeping_thread(rt, process, period_us=24_000_000,
                            burst_us=5_000)


class Cortana(_Assistant):
    """Microsoft Cortana — Windows' built-in assistant."""

    name = "cortana"
    display_name = "Cortana"
    version = "Windows 10 1803"
    process_name = "Cortana.exe"
    local_nlp_us = 700 * MS
    nlp_threads = 3
    render_us = 500 * MS
    gpu_anim_us = int(24 * MS)
    listener_duty = 0.03


class Braina(_Assistant):
    """Braina 1.43 — a multi-functional interactive AI assistant.

    Does more NLP locally than Cortana but single-threaded, and draws
    a plain text UI: zero measured GPU utilization in Table II.
    """

    name = "braina"
    display_name = "Braina"
    version = "1.43"
    process_name = "Braina.exe"
    local_nlp_us = 900 * MS
    nlp_threads = 1
    render_us = 350 * MS
    gpu_anim_us = 0
    listener_duty = 0.02
