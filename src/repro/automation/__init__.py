"""Testing automation: input scripts and drivers (AutoIt substitute)."""

from repro.automation.driver import AUTOIT, MANUAL, InputDriver
from repro.automation.script import (
    CLICK,
    DRAG,
    KEY,
    VOICE,
    InputAction,
    InputScript,
)

__all__ = [
    "AUTOIT",
    "CLICK",
    "DRAG",
    "InputAction",
    "InputDriver",
    "InputScript",
    "KEY",
    "MANUAL",
    "VOICE",
]
