"""Content-addressed on-disk cache for simulation results.

A grid point is fully determined by (application + config, machine
spec, seed, duration, scheduler knobs, code version), so its
:class:`~repro.harness.runner.SingleRun` can be reused across
processes and across benchmark campaigns.  The cache maps a canonical
SHA-256 of that tuple to a pickled result file:

    <root>/<key[:2]>/<key>.pkl

Design points:

* **Canonical keys.**  ``key_for`` folds the spec into a canonical
  JSON document (sorted dict items, dataclasses by field, enums by
  value) before hashing, so dict ordering or spec spelling never
  splits the key space.  Objects without a stable canonical form
  (e.g. an application instance carrying a lambda) make the spec
  *uncacheable* — ``key_for`` returns ``None`` and the grid point is
  simply recomputed, never mis-keyed.
* **Code version.**  Every key includes ``repro.__version__``;
  bumping the package version invalidates the whole cache rather
  than risking stale physics.
* **Framed entries.**  Each file is ``[magic][payload length][CRC-32]
  [pickled result]``.  The frame is checked *before* any byte reaches
  the unpickler: a truncated write, a disk flip or a foreign file
  fails the cheap integrity check up front instead of relying on the
  pickle stream to happen to break — a truncated pickle can unpickle
  "successfully" to a wrong object, and a hostile one executes code.
* **Corruption fallback.**  An entry failing the frame check (or the
  unpickling after it) counts as a miss; the bad file is removed and
  the result recomputed, surfacing as a ``cache-corrupt`` incident
  on the executor.
* **Atomic writes.**  Entries are written to a temp file and
  ``os.replace``d so concurrent writers (parallel executors of two
  campaigns) never expose half-written results.
"""

import enum
import hashlib
import json
import os
import pickle
import struct
import tempfile
import zlib
from dataclasses import fields, is_dataclass
from pathlib import Path

import repro

#: Entry frame: magic, pickled-payload length, CRC-32 of the payload.
#: The magic's trailing digit is the frame version — bump it when the
#: layout changes so older readers reject newer files cleanly.
CACHE_MAGIC = b"RPROCHE1"
_FRAME = struct.Struct("<8sQI")


class UncacheableSpec(Exception):
    """The spec has no stable canonical form; skip the cache."""


def _canonical(value):
    """Reduce ``value`` to a JSON-serializable canonical structure."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        items = [[_canonical(k), _canonical(v)] for k, v in value.items()]
        items.sort(key=repr)
        return ["dict", items]
    if isinstance(value, (list, tuple)):
        return ["seq", [_canonical(v) for v in value]]
    if isinstance(value, (set, frozenset)):
        return ["set", sorted((_canonical(v) for v in value), key=repr)]
    if isinstance(value, enum.Enum):
        return ["enum", type(value).__qualname__, _canonical(value.value)]
    if is_dataclass(value) and not isinstance(value, type):
        return ["dc", f"{type(value).__module__}.{type(value).__qualname__}",
                [[f.name, _canonical(getattr(value, f.name))]
                 for f in fields(value)]]
    raise UncacheableSpec(f"no canonical form for {type(value)!r}")


def _canonical_app(app, config):
    if isinstance(app, str):
        return ["name", app, _canonical(config)]
    return ["model", f"{type(app).__module__}.{type(app).__qualname__}",
            _canonical(vars(app))]


#: Run knobs that do not affect simulation results and therefore must
#: not split the key space (``validate`` only *observes* a run).
_NON_PHYSICAL_KNOBS = frozenset({"validate"})


def machine_digest(machine):
    """SHA-256 hex digest of a machine spec's full canonical form.

    The digest covers the concrete dataclass type and *every* field —
    for a :class:`~repro.hardware.specs.ParametricMachine` that
    includes the tech node, DVFS point and the attached energy
    coefficients, none of which exist on a plain catalog spec.  Keyed
    separately in :func:`spec_key` so a generated DSE config can never
    collide with a catalog machine (or with another grid point) even
    if their scheduler-visible fields coincide.
    """
    blob = json.dumps(_canonical(machine), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def spec_key(spec, code_version=None):
    """Canonical SHA-256 hex key of a :class:`RunSpec`, or ``None``."""
    try:
        machine = spec.kwargs.get("machine")
        payload = {
            "code": code_version or repro.__version__,
            "app": _canonical_app(spec.app, spec.config),
            "machine": (machine_digest(machine)
                        if machine is not None else None),
            "kwargs": _canonical({k: v for k, v in spec.kwargs.items()
                                  if k not in _NON_PHYSICAL_KNOBS}),
        }
    except UncacheableSpec:
        return None
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Pickled :class:`SingleRun` results keyed by canonical spec hash."""

    def __init__(self, root, code_version=None):
        self.root = Path(root)
        self.code_version = code_version or repro.__version__
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def key_for(self, spec):
        """Cache key for ``spec`` (``None`` when uncacheable)."""
        return spec_key(spec, code_version=self.code_version)

    def _path(self, key):
        return self.root / key[:2] / f"{key}.pkl"

    def load_classified(self, key):
        """Load one entry and say *why* there was no payload.

        Returns ``("hit", (result,))``, ``("miss", None)``, or
        ``("corrupt", None)`` when the entry existed but could not be
        unpickled.  The one-tuple wrapper keeps a legitimately-``None``
        payload distinguishable from a miss.  A corrupt file is
        deleted, and the executor records it as a ``cache-corrupt``
        incident instead of treating it as an ordinary cold miss.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            self.misses += 1
            return ("miss", None)
        except Exception:
            return self._corrupt(path)
        # Integrity gate: no byte reaches the unpickler until the
        # frame (magic, exact length, checksum) vouches for it.
        if len(blob) < _FRAME.size:
            return self._corrupt(path)
        magic, length, crc = _FRAME.unpack_from(blob)
        payload = blob[_FRAME.size:]
        if (magic != CACHE_MAGIC or len(payload) != length
                or zlib.crc32(payload) != crc):
            return self._corrupt(path)
        try:
            result = pickle.loads(payload)
        except Exception:
            return self._corrupt(path)
        self.hits += 1
        return ("hit", (result,))

    def _corrupt(self, path):
        """Drop a failed entry and classify the load as corrupt."""
        try:
            path.unlink()
        except OSError:
            pass
        self.misses += 1
        self.corrupt += 1
        return ("corrupt", None)

    def invalidate(self, key):
        """Drop the entry for ``key`` (reuse-time validation failed)."""
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def store(self, key, result):
        """Atomically persist ``result`` under ``key``.

        Unpicklable results are skipped (the run still returns its
        live value); the cache only ever fails open.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                payload = pickle.dumps(result,
                                       protocol=pickle.HIGHEST_PROTOCOL)
                fh.write(_FRAME.pack(CACHE_MAGIC, len(payload),
                                     zlib.crc32(payload)))
                fh.write(payload)
            os.replace(tmp, path)
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self.stores += 1
