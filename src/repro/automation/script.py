"""Input scripts — the AutoIt substitute.

The paper automates every application that accepts mouse/keyboard input
with AutoIt scripts that "initiate the application and perform a
carefully designed sequence of mouse and keyboard activities" at
user-specified times (§III-D), and falls back to manual testing (voice,
VR motion) with fixed request sequences (§III-E).

An :class:`InputScript` is a timed list of :class:`InputAction`; the
:mod:`repro.automation.driver` replays it into the application's UI
queue, either with AutoIt-like precision or with seeded human jitter.
"""

from dataclasses import dataclass

from repro.sim import MS

CLICK = "click"
KEY = "key"
TEXT = "text"
VOICE = "voice"
DRAG = "drag"


@dataclass(frozen=True)
class InputAction:
    """One scripted user input.

    ``at_us`` is the nominal offset from script start; ``duration_us``
    is how long the input itself takes (typing a sentence, speaking a
    query); ``label`` names the action for the application's handler.
    """

    at_us: int
    kind: str
    label: str
    duration_us: int = 0

    def __post_init__(self):
        if self.at_us < 0:
            raise ValueError("action time must be >= 0")
        if self.duration_us < 0:
            raise ValueError("action duration must be >= 0")


class InputScript:
    """A builder for timed input sequences.

    The cursor starts at zero and advances with every action or
    :meth:`wait`; actions are stamped at the cursor position::

        script = (InputScript()
                  .wait(2_000_000)
                  .click("menu:filter-blur")
                  .wait(500_000)
                  .key("enter"))
    """

    def __init__(self):
        self.actions = []
        self._cursor = 0

    def wait(self, duration_us):
        """Advance the script cursor (user think time)."""
        if duration_us < 0:
            raise ValueError("wait must be >= 0")
        self._cursor += int(duration_us)
        return self

    def _add(self, kind, label, duration_us=0):
        self.actions.append(InputAction(self._cursor, kind, label,
                                        int(duration_us)))
        self._cursor += int(duration_us)
        return self

    def click(self, label):
        """A mouse click on the named control."""
        return self._add(CLICK, label, 80 * MS)

    def drag(self, label, duration_us=400 * MS):
        """A click-drag gesture (pan, rotate, move object)."""
        return self._add(DRAG, label, duration_us)

    def key(self, label):
        """A keystroke or shortcut chord."""
        return self._add(KEY, label, 40 * MS)

    def speak(self, label, duration_us):
        """A spoken query (manual-testing input, §III-E)."""
        return self._add(VOICE, label, duration_us)

    @property
    def length_us(self):
        """Nominal end time of the script."""
        return self._cursor

    def stretched_to(self, duration_us):
        """A copy rescaled so the script spans ``duration_us``.

        Used to fit an application's canonical testbench into the
        configured trace duration.
        """
        if not self.actions or self.length_us == 0:
            return self
        scale = duration_us / self.length_us
        copy = InputScript()
        copy._cursor = int(self._cursor * scale)
        copy.actions = [
            InputAction(int(a.at_us * scale), a.kind, a.label, a.duration_us)
            for a in self.actions
        ]
        return copy

    def repeated(self, times, gap_us=0):
        """A copy with the whole sequence repeated ``times`` times."""
        if times < 1:
            raise ValueError("times must be >= 1")
        copy = InputScript()
        offset = 0
        for _ in range(times):
            for action in self.actions:
                copy.actions.append(InputAction(
                    offset + action.at_us, action.kind, action.label,
                    action.duration_us))
            offset += self.length_us + gap_us
        copy._cursor = offset
        return copy

    def __len__(self):
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)
