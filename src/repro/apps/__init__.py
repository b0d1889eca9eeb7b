"""The 30-application benchmark suite of Table II.

``REGISTRY`` maps registry keys to model classes; :func:`create_app`
instantiates a fresh, optionally configured model.  ``SUITE`` lists
the keys in Table II order (by category).
"""

from repro.apps.assistant import Braina, Cortana
from repro.apps.base import AppModel, AppRuntime, Category
from repro.apps.browsing import Chrome, Edge, Firefox
from repro.apps.image_authoring import AutoCad, Maya3D, Photoshop
from repro.apps.mining import (
    BitcoinMiner,
    EasyMiner,
    PhoenixMiner,
    WindowsEthereumMiner,
)
from repro.apps.multimedia import QuickTime, VlcMediaPlayer, WindowsMediaPlayer
from repro.apps.office import AcrobatPro, Excel, Outlook, PowerPoint, Word
from repro.apps.transcoding import HandBrake, WinXVideoConverter
from repro.apps.video_authoring import PowerDirector, PremierePro
from repro.apps.vr_gaming import (
    ArizonaSunshine,
    Fallout4VR,
    ProjectCars2,
    RawData,
    SeriousSamVR,
    SpacePirateTrainer,
)
from repro.data.historical import PAPER_TABLE2

_ALL_MODELS = (
    # Image authoring
    Photoshop, Maya3D, AutoCad,
    # Office
    AcrobatPro, Excel, PowerPoint, Word, Outlook,
    # Multimedia playback
    QuickTime, WindowsMediaPlayer, VlcMediaPlayer,
    # Video authoring
    PowerDirector, PremierePro,
    # Video transcoding
    HandBrake, WinXVideoConverter,
    # Web browsing
    Firefox, Chrome, Edge,
    # VR gaming
    ArizonaSunshine, Fallout4VR, RawData, SeriousSamVR,
    SpacePirateTrainer, ProjectCars2,
    # Cryptocurrency mining
    BitcoinMiner, EasyMiner, PhoenixMiner, WindowsEthereumMiner,
    # Personal assistants
    Cortana, Braina,
)

REGISTRY = {cls.name: cls for cls in _ALL_MODELS}

# Table II's paper values live once, in repro.data.historical.
for _cls in _ALL_MODELS:
    _cls.paper_tlp, _cls.paper_gpu_util = PAPER_TABLE2[_cls.name]

#: Table II row order.
SUITE = tuple(cls.name for cls in _ALL_MODELS)

#: Category -> app keys, in Table II order.
CATEGORIES = {}
for _cls in _ALL_MODELS:
    CATEGORIES.setdefault(_cls.category, []).append(_cls.name)


def create_app(name, **config):
    """Instantiate a fresh application model by registry key."""
    try:
        cls = REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown application {name!r}; known: {sorted(REGISTRY)}"
        ) from None
    return cls(**config)


__all__ = [
    "AppModel",
    "AppRuntime",
    "CATEGORIES",
    "Category",
    "REGISTRY",
    "SUITE",
    "create_app",
]
