"""Precomputed read endpoints: golden tables and DSE frontiers.

The committed artifacts under ``tests/golden/`` already hold what the
read path serves — metric fingerprints per app x machine config and
per-app Pareto frontiers — so ``GET /tables/...`` and
``GET /frontiers/...`` are pure file reads re-encoded canonically,
with a strong ``ETag`` (SHA-256 of the body) for conditional reuse.

The only mutation the service supports is re-recording goldens (the
HTTP face of ``repro validate --update-golden``); it is guarded by a
non-blocking lock so concurrent updates answer ``409 Conflict``
instead of interleaving writes.
"""

import hashlib
import json
import threading
from pathlib import Path

from repro.reporting.payloads import canonical_json_bytes


def default_dse_path():
    """The committed frontier file: ``tests/golden/golden_dse.json``."""
    from repro.validate.golden import default_golden_path

    return default_golden_path().parent / "golden_dse.json"


class TableStore:
    """Canonical bodies + ETags over the committed golden artifacts."""

    def __init__(self, golden_path=None, dse_path=None):
        from repro.validate.golden import default_golden_path

        self.golden_path = (Path(golden_path) if golden_path is not None
                            else default_golden_path())
        self.dse_path = (Path(dse_path) if dse_path is not None
                         else default_dse_path())
        #: Held (non-blocking) around goldens updates; a busy lock is
        #: the service's 409.
        self.mutation_lock = threading.Lock()
        self._lock = threading.Lock()
        self._bodies = {}       # (kind, name) -> (etag, bytes)

    # -- read path -----------------------------------------------------

    def goldens_body(self, app=None):
        """``(etag, bytes)`` of the golden fingerprints (optionally one
        app's), or ``None`` when the app/file is unknown."""
        return self._body("goldens", app)

    def frontiers_body(self, app=None):
        """``(etag, bytes)`` of the DSE frontiers (optionally one
        app's), or ``None`` when the app/file is unknown."""
        return self._body("frontiers", app)

    def _body(self, kind, name):
        with self._lock:
            cached = self._bodies.get((kind, name))
            if cached is not None:
                return cached
        payload = self._load(kind, name)
        if payload is None:
            return None
        body = canonical_json_bytes(payload)
        etag = f'"{hashlib.sha256(body).hexdigest()}"'
        with self._lock:
            self._bodies[(kind, name)] = (etag, body)
        return etag, body

    def _load(self, kind, name):
        if kind == "goldens":
            from repro.validate.golden import load_goldens

            try:
                apps = load_goldens(self.golden_path)
            except FileNotFoundError:
                return None
            if name is None:
                return apps
            return apps.get(name)
        try:
            with open(self.dse_path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except FileNotFoundError:
            return None
        frontiers = document.get("frontiers", {})
        if name is None:
            return frontiers
        return frontiers.get(name)

    def invalidate(self):
        """Drop every cached body (called after a mutation)."""
        with self._lock:
            self._bodies.clear()

    # -- mutation path -------------------------------------------------

    def update_goldens(self, apps):
        """Re-record golden fingerprints for ``apps`` and merge them
        into the golden file — the caller holds :attr:`mutation_lock`.
        """
        from repro.validate.golden import (
            compute_fingerprints,
            load_goldens,
            save_goldens,
        )

        fingerprints = compute_fingerprints(apps)
        try:
            merged = load_goldens(self.golden_path)
        except FileNotFoundError:
            merged = {}
        merged.update(fingerprints)
        save_goldens(merged, self.golden_path)
        self.invalidate()
        return {
            "updated": sorted(fingerprints),
            "configs": len(next(iter(fingerprints.values()))),
            "path": str(self.golden_path),
        }
