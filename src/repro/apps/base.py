"""Application model framework.

An :class:`AppModel` is a behavioural description of one benchmark
application: which processes and threads it runs, how they compute,
block, synchronize and talk to the GPU.  Models are *structural* — a
media player really has a demux thread feeding a decode pipeline, a
browser really spawns renderer processes — and the TLP / GPU numbers
fall out of the simulated schedule rather than being baked in.

The harness creates an :class:`AppRuntime` (kernel + GPU + input
driver + RNG + duration) and calls :meth:`AppModel.build`.
"""

import random
from enum import Enum


class Category(str, Enum):
    """The paper's nine benchmark categories (Table II)."""

    IMAGE_AUTHORING = "Image Authoring"
    OFFICE = "Office"
    MULTIMEDIA = "Multimedia Playback"
    VIDEO_AUTHORING = "Video Authoring"
    VIDEO_TRANSCODING = "Video Transcoding"
    WEB_BROWSING = "Web Browsing"
    VR_GAMING = "VR Gaming"
    MINING = "Cryptocurrency Mining"
    ASSISTANT = "Personal Assistant"


class AppRuntime:
    """Everything an application model needs to run once.

    Created by the harness; passed to :meth:`AppModel.build`.
    """

    def __init__(self, kernel, gpu, driver, duration_us, seed=0):
        if duration_us <= 0:
            raise ValueError("duration must be positive")
        self.kernel = kernel
        self.gpu = gpu
        self.driver = driver
        self.duration_us = int(duration_us)
        self.start_time = kernel.env.now
        #: Simulation time at which the testbench window closes.
        self.end_time = self.start_time + self.duration_us
        self.rng = random.Random(seed)
        #: Process names owned by the application (for TLP filtering).
        self.process_names = set()
        #: Application-specific outputs (frames transcoded, hash rate...).
        self.outputs = {}

    @property
    def env(self):
        return self.kernel.env

    @property
    def machine(self):
        return self.kernel.machine

    def spawn_process(self, name, image=None):
        """Create an application-owned OS process (tracked for TLP)."""
        process = self.kernel.spawn_process(name, image=image)
        self.process_names.add(name)
        return process

    def fork_rng(self):
        """An independent deterministic RNG derived from the run seed."""
        return random.Random(self.rng.getrandbits(48))


class AppModel:
    """Base class for the 30 benchmark application models."""

    #: Registry key, e.g. ``"handbrake"``.
    name = "app"
    #: Human-readable name with version, as listed in Table II.
    display_name = "Application"
    version = ""
    category = Category.OFFICE
    #: Paper-reported Table II values (used for validation/reporting),
    #: set on every suite model from ``PAPER_TABLE2`` by registry key;
    #: None for models outside the suite.
    paper_tlp = None
    paper_gpu_util = None

    def build(self, rt):
        """Spawn the application's processes and threads into ``rt``."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"
