"""Golden trace fingerprints — the bit-identity regression suite.

A *fingerprint* condenses one simulated run into the numbers the paper
reports — Eq.-1 TLP, the ``c_i`` concurrency histogram, GPU
utilization, frame statistics — hashed over their exact bit patterns
(``float.hex``), so the committed goldens under ``tests/golden/`` pin
the entire pipeline: scheduler, trace buffers, WPA extraction and the
fused-sweep metrics.  Any change that perturbs a single bit of any
metric for any app at any machine configuration flips a digest.

The golden grid mirrors the paper's machine sweeps: 4/8/12 logical
CPUs with SMT on, plus 4/6 with SMT off (the i7-8700K exposes six
physical cores, so 8- and 12-CPU configurations only exist with SMT).

Fingerprints deliberately cover only *metric digests* — never raw
records — so the streaming (:mod:`repro.metrics.online`) backend can
be diffed against the same goldens as the post-hoc trace pipeline.

Workflow: ``python -m repro validate`` checks apps against the
goldens; ``python -m repro validate --update-golden`` re-records them
after an intentional behaviour change.
"""

import hashlib
import json
from pathlib import Path

from repro.harness.executor import SerialExecutor, make_spec
from repro.hardware import paper_machine
from repro.sim import SECOND

#: ``(logical_cpus, smt_enabled)`` grid points of the golden suite.
GOLDEN_CONFIGS = ((4, True), (8, True), (12, True), (4, False), (6, False))
#: One simulated second keeps every app's behavioural phases while the
#: whole 30-app x 5-config grid replays in a few seconds of wall time.
GOLDEN_DURATION_US = 1 * SECOND
GOLDEN_SEED = 2019
#: Bump when the fingerprint payload shape changes.
GOLDEN_FORMAT = 1


def config_id(cores, smt):
    """Stable key of one grid point, e.g. ``c08-smt`` / ``c04-nosmt``."""
    return f"c{cores:02d}-{'smt' if smt else 'nosmt'}"


def golden_machine(cores, smt):
    """The paper machine restricted to one golden grid point."""
    machine = paper_machine()
    if not smt:
        machine = machine.with_smt(False)
    return machine.with_logical_cpus(cores)


def golden_spec(app_name, cores, smt, streaming=False):
    """The :class:`~repro.harness.executor.RunSpec` of one grid point."""
    return make_spec(app_name, machine=golden_machine(cores, smt),
                     duration_us=GOLDEN_DURATION_US, seed=GOLDEN_SEED,
                     streaming=streaming)


def _hex(value):
    """Exact, portable text form of a float (or pass-through int)."""
    return value.hex() if isinstance(value, float) else value


def fingerprint_run(run):
    """Condense a :class:`~repro.harness.runner.SingleRun` into a
    digest-bearing fingerprint dict.

    Every float is serialized via ``float.hex`` so equality means
    bit-identity, not approximate agreement.
    """
    tlp = run.tlp
    gpu = run.gpu_util
    frames = run.frame_stats
    payload = {
        "tlp": _hex(tlp.tlp),
        "fractions": [_hex(f) for f in tlp.fractions],
        "max_instantaneous": tlp.max_instantaneous,
        "window_us": tlp.window_us,
        "gpu_pct": _hex(gpu.utilization_pct),
        "gpu_peak_packets": gpu.max_concurrent_packets,
        "gpu_capped": gpu.capped,
        "frames": [frames.count, frames.reprojected,
                   frames.first_present, frames.last_present],
        "processes": sorted(run.process_names),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["digest"] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return payload


def compute_fingerprints(apps, configs=GOLDEN_CONFIGS, executor=None,
                         streaming=False):
    """Fingerprint every ``app x config`` grid point.

    Returns ``{app: {config_id: fingerprint}}``.  The grid is one flat
    batch of independent specs, so it fans out over any ``executor``
    (a fresh :class:`~repro.harness.executor.SerialExecutor` when none
    is given) with bit-identical results — that equivalence is exactly
    what the golden tests assert.
    """
    grid = [(app, cores, smt)
            for app in apps for cores, smt in configs]
    specs = [golden_spec(app, cores, smt, streaming=streaming)
             for app, cores, smt in grid]
    runs = (executor or SerialExecutor()).map(specs)
    fingerprints = {}
    for (app, cores, smt), run in zip(grid, runs):
        fingerprints.setdefault(app, {})[config_id(cores, smt)] = \
            fingerprint_run(run)
    return fingerprints


def default_golden_path():
    """The committed golden file: ``tests/golden/golden_traces.json``."""
    return (Path(__file__).resolve().parents[3]
            / "tests" / "golden" / "golden_traces.json")


def save_goldens(fingerprints, path=None):
    """Write the golden file (sorted keys, stable diffs)."""
    path = Path(path) if path is not None else default_golden_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "_meta": {
            "format": GOLDEN_FORMAT,
            "duration_us": GOLDEN_DURATION_US,
            "seed": GOLDEN_SEED,
            "configs": [config_id(c, s) for c, s in GOLDEN_CONFIGS],
        },
        "apps": fingerprints,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def load_goldens(path=None):
    """Read a golden file; returns ``{app: {config_id: fingerprint}}``."""
    path = Path(path) if path is not None else default_golden_path()
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    meta = document.get("_meta", {})
    if meta.get("format") != GOLDEN_FORMAT:
        raise ValueError(
            f"golden file {path} has format {meta.get('format')!r}, "
            f"expected {GOLDEN_FORMAT}")
    return document["apps"]


def compare_fingerprints(expected, actual):
    """Human-readable mismatches between two fingerprint dicts.

    Compares digests first (bit-identity), then names the fields that
    diverge so a regression report says *what* moved, not just that
    something did.
    """
    if expected["digest"] == actual["digest"]:
        return []
    problems = []
    for key in ("tlp", "fractions", "max_instantaneous", "window_us",
                "gpu_pct", "gpu_peak_packets", "gpu_capped", "frames",
                "processes"):
        if expected.get(key) != actual.get(key):
            problems.append(
                f"{key}: expected {expected.get(key)!r}, "
                f"got {actual.get(key)!r}")
    if not problems:
        problems.append(
            f"digest mismatch ({expected['digest'][:12]} != "
            f"{actual['digest'][:12]}) with no field-level difference "
            f"— fingerprint payload shape changed?")
    return problems
