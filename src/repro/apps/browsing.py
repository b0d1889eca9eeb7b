"""Web-browser models: Chrome, Firefox, Edge.

Modern browsers are multi-process (§V-E): a browser process, a GPU
process, and renderer/content processes that isolate sites from each
other.  Chrome creates a renderer per site (roughly 10x the process
count of Firefox, which runs a small pool of content processes);
inactive tabs are throttled rather than stopped, which is why the
paper finds *multi-tab browsing now has higher TLP than single-tab* —
the reverse of Blake et al.'s 2010 result.

Four testbenches, as in the paper:

* ``multi-tab``  — YouTube video, ESPN, CNN, BestBuy, then a flash
  game, each in its own tab (backgrounded tabs keep ticking, throttled)
* ``single-tab`` — the same walk in one tab (old site torn down)
* ``espn``       — a content-heavy site with many active iframes
* ``wiki``       — a static site with little active content
"""

from repro.apps.base import AppModel, Category
from repro.apps.blocks import compute, fan_out
from repro.gpu.device import ENGINE_3D, ENGINE_VIDEO_DECODE
from repro.os.work import WorkClass
from repro.sim import MS, SECOND

TESTS = ("multi-tab", "single-tab", "espn", "wiki")

#: Site behaviour profiles: load burst, helper threads during load,
#: active-content duty per tick thread, GPU weight relative to the
#: engine's base compositing load, ad/video iframes, special content.
SITE_PROFILES = {
    "youtube": dict(load_us=700 * MS, helpers=2, tick_duty=0.08,
                    gpu_factor=1.5, iframes=1, video=True, game=False),
    "espn": dict(load_us=900 * MS, helpers=3, tick_duty=0.30,
                 gpu_factor=1.35, iframes=4, video=False, game=False),
    "cnn": dict(load_us=800 * MS, helpers=2, tick_duty=0.18,
                gpu_factor=1.0, iframes=2, video=False, game=False),
    "bestbuy": dict(load_us=700 * MS, helpers=2, tick_duty=0.10,
                    gpu_factor=0.8, iframes=1, video=False, game=False),
    "flash-game": dict(load_us=400 * MS, helpers=1, tick_duty=0.05,
                       gpu_factor=1.2, iframes=1, video=False, game=True),
    "wikipedia": dict(load_us=500 * MS, helpers=2, tick_duty=0.02,
                      gpu_factor=0.25, iframes=1, video=False, game=False),
}

_TEST_WALKS = {
    "multi-tab": ("youtube", "espn", "cnn", "bestbuy", "flash-game"),
    "single-tab": ("youtube", "espn", "cnn", "bestbuy", "flash-game"),
    "espn": ("espn",),
    "wiki": ("wikipedia",),
}

#: Default background-tab throttling factor (timers in inactive tabs
#: are heavily rate-limited; Chrome 57 pioneered aggressive throttling
#: so its engine profile overrides this with a lower value).
_THROTTLE = 0.18


class _SiteSession:
    """Mutable state shared between a site's tick threads."""

    def __init__(self, profile):
        self.profile = profile
        self.focused = True
        self.alive = True


class _Browser(AppModel):
    """Shared multi-process browser skeleton."""

    category = Category.WEB_BROWSING
    exe = "browser.exe"
    #: One renderer process per site (Chrome) vs shared content pool.
    process_per_site = True
    #: Heavy iframes get their own site processes (Chrome site isolation).
    iframe_processes = True
    #: Base GPU compositing load (fraction of the reference GPU).
    gpu_weight = 0.05
    #: Global scale on renderer CPU activity (Edge is the lightest).
    cpu_scale = 1.0
    #: Extra worker threads a renderer wakes during content ticks.
    renderer_tick_threads = 2
    #: Background-tab activity as a fraction of foreground activity.
    bg_throttle = _THROTTLE

    def __init__(self, test="multi-tab"):
        if test not in TESTS:
            raise ValueError(f"unknown browser test {test!r}; one of {TESTS}")
        self.test = test

    # -- site machinery -------------------------------------------------

    def _renderer_threads(self, rt, process, session, rng):
        """Spawn load + tick threads for one site in ``process``."""
        from repro.os.sync import Semaphore

        profile = session.profile
        duty = profile["tick_duty"] * self.cpu_scale
        gates = [Semaphore(rt.kernel, 0)
                 for _ in range(self.renderer_tick_threads)]

        def tick_worker(gate):
            def body(ctx):
                while True:
                    yield ctx.wait(gate.acquire())
                    if not session.alive or ctx.now >= rt.end_time:
                        return
                    scale = 1.0 if session.focused else self.bg_throttle
                    busy = max(1, int(250 * MS * duty * 0.8 * scale
                                      * rng.uniform(0.6, 1.4)))
                    yield ctx.cpu(busy, WorkClass.BALANCED)

            return body

        def main_thread(ctx):
            yield from compute(
                ctx, int(profile["load_us"] * self.cpu_scale
                         * rng.uniform(0.85, 1.15)),
                WorkClass.MEMORY_BOUND, chunk_us=15 * MS)
            if profile["helpers"]:
                done = fan_out(rt, process,
                               int(400 * MS * self.cpu_scale),
                               profile["helpers"], WorkClass.BALANCED,
                               name="style-layout")
                yield ctx.wait(done)
            while session.alive and ctx.now < rt.end_time:
                period = 250 * MS if session.focused else SECOND
                scale = 1.0 if session.focused else self.bg_throttle
                # JS timers fire: the main thread and its workers
                # (DOM, style, compositing) run the tick together.
                for gate in gates:
                    gate.release()
                busy = max(1, int(period * duty * scale
                                  * rng.uniform(0.6, 1.4)))
                yield ctx.cpu(busy, WorkClass.BALANCED)
                if session.focused:
                    pause = period - busy
                else:
                    # Throttled background timers are coalesced to whole
                    # -second boundaries (the Chrome 57 throttling the
                    # paper cites), so every background tab ticks at the
                    # same instant — the overlap that makes multi-tab
                    # TLP exceed single-tab in 2018.
                    pause = ((ctx.now // period) + 1) * period - ctx.now
                yield ctx.sleep(max(1, min(pause, rt.end_time - ctx.now)))
            for gate in gates:
                gate.release()

        def game_thread(ctx):
            while session.alive and session.focused and ctx.now < rt.end_time:
                yield ctx.cpu(int(8 * MS * self.cpu_scale), WorkClass.UI)
                rt.gpu.submit(process, ENGINE_3D, "canvas-frame",
                              int(1.2 * MS))
                yield ctx.sleep(25 * MS)

        def video_thread(ctx):
            while session.alive and session.focused and ctx.now < rt.end_time:
                yield ctx.cpu(int(1 * MS), WorkClass.UI)
                done = rt.gpu.submit(process, ENGINE_VIDEO_DECODE, "nvdec",
                                     int(2.2 * MS))
                yield ctx.wait(done)
                yield ctx.sleep(29 * MS)

        for index, gate in enumerate(gates):
            process.spawn_thread(tick_worker(gate), name=f"tick-worker-{index}")
        process.spawn_thread(main_thread, name="renderer-main")
        if profile["game"]:
            process.spawn_thread(game_thread, name="game-loop")
        if profile["video"]:
            process.spawn_thread(video_thread, name="media")

    # -- build ----------------------------------------------------------

    def build(self, rt):
        rng = rt.fork_rng()
        browser = rt.spawn_process(self.exe)
        gpu_process = rt.spawn_process(self.exe.replace(".exe", "-gpu.exe"))
        walk = _TEST_WALKS[self.test]
        focus_span = rt.duration_us // len(walk)
        gpu_factor = {"value": 1.0}
        content_pool = []
        renderer_count = 0
        sessions = []
        rt.outputs["renderer_processes"] = 0
        # Firefox/Edge keep a small shared content-process pool; with a
        # single tab one content process suffices.
        pool_size = 1 if self.test in ("single-tab", "espn", "wiki") else 4

        def make_renderer(site):
            nonlocal renderer_count
            if self.process_per_site:
                renderer_count += 1
                return rt.spawn_process(
                    f"{self.exe.replace('.exe', '')}-renderer-{renderer_count}.exe")
            if len(content_pool) < pool_size:
                renderer_count += 1
                content_pool.append(rt.spawn_process(
                    f"{self.exe.replace('.exe', '')}-content-{renderer_count}.exe"))
            return content_pool[(renderer_count - 1) % len(content_pool)]

        def controller(ctx):
            for site in walk:
                profile = SITE_PROFILES[site]
                # Network fetch burst in the browser process.
                yield ctx.cpu(int(120 * MS * self.cpu_scale),
                              WorkClass.MEMORY_BOUND)
                if self.test == "single-tab":
                    for session in sessions:
                        session.alive = False
                for session in sessions:
                    session.focused = False
                gpu_factor["value"] = profile["gpu_factor"]
                frames = profile["iframes"] if self.iframe_processes else 1
                for index in range(frames):
                    session = _SiteSession(dict(
                        profile,
                        tick_duty=profile["tick_duty"] / max(1, frames - 1)
                        if index > 0 else profile["tick_duty"],
                        video=profile["video"] and index == 0,
                        game=profile["game"] and index == 0,
                    ))
                    sessions.append(session)
                    renderer = make_renderer(site)
                    self._renderer_threads(rt, renderer, session, rng)
                rt.outputs["renderer_processes"] = renderer_count
                yield ctx.sleep(max(1, min(focus_span,
                                           rt.end_time - ctx.now)))
                if ctx.now >= rt.end_time:
                    break

        def ui_thread(ctx):
            while ctx.now < rt.end_time:
                yield ctx.cpu(int(4 * MS * self.cpu_scale), WorkClass.UI)
                yield ctx.sleep(120 * MS)

        def compositor(ctx):
            # The GPU process composites the visible tab continuously.
            packet = 4 * MS
            while ctx.now < rt.end_time:
                load = self.gpu_weight * gpu_factor["value"]
                yield ctx.cpu(int(0.4 * MS), WorkClass.UI)
                rt.gpu.submit(gpu_process, ENGINE_3D, "composite",
                              max(1, int(packet * rng.uniform(0.8, 1.2))))
                yield ctx.sleep(max(1, int(packet / max(0.005, load))
                                    - int(0.4 * MS)))

        browser.spawn_thread(controller, name="tab-controller")
        browser.spawn_thread(ui_thread, name="ui")
        gpu_process.spawn_thread(compositor, name="compositor")


class Chrome(_Browser):
    """Google Chrome v66: a renderer process per site, site isolation."""

    name = "chrome"
    display_name = "Chrome"
    version = "v66"
    exe = "chrome.exe"
    category = Category.WEB_BROWSING
    process_per_site = True
    iframe_processes = True
    gpu_weight = 0.027
    cpu_scale = 1.0
    bg_throttle = 0.05
    renderer_tick_threads = 2


class Firefox(_Browser):
    """Mozilla Firefox v60: small content-process pool, GPU-heavy."""

    name = "firefox"
    display_name = "Firefox"
    version = "v60"
    exe = "firefox.exe"
    process_per_site = False
    iframe_processes = False
    gpu_weight = 0.058
    cpu_scale = 1.35
    bg_throttle = 0.30


class Edge(_Browser):
    """Microsoft Edge 42: built-in, tuned for power efficiency."""

    name = "edge"
    display_name = "Edge"
    version = "42.17134"
    exe = "MicrosoftEdge.exe"
    process_per_site = False
    iframe_processes = False
    gpu_weight = 0.017
    cpu_scale = 0.95
    bg_throttle = 0.25
