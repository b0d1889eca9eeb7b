"""Correctness gate run once per invocation, outside every timed pass.

* the 150-point golden grid reproduces ``tests/golden/golden_traces.json``
  digest for digest;
* the DSE slice, computed exactly as ``tests/test_dse_golden.py``
  computes it, equals ``tests/golden/golden_dse.json``.

The golden grid's 12-LCPU SMT column is the paper machine, so the gate
also yields a seed-independent distance from Table II.
"""

import json

#: Golden-grid column that is the paper's machine (6 cores, SMT on).
PAPER_CONFIG = "c12-smt"


def fidelity(rows):
    """Mean ``|TLP - paper|`` and ``|GPU% - paper|`` over
    ``{app: (tlp, gpu_pct)}``."""
    from repro.apps import REGISTRY

    tlp = [abs(t - REGISTRY[app].paper_tlp) for app, (t, _) in rows.items()]
    gpu = [abs(g - REGISTRY[app].paper_gpu_util)
           for app, (_, g) in rows.items()]
    return sum(tlp) / len(tlp), sum(gpu) / len(gpu)


def run_gate():
    """``(problems, golden_fidelity)``; ``problems`` is empty on success."""
    from repro.apps import SUITE
    from repro.validate import compute_fingerprints, load_goldens
    from tests.test_dse_golden import GOLDEN_PATH, compute_slice

    problems = []
    goldens = load_goldens()
    fingerprints = compute_fingerprints(SUITE)
    checked = 0
    for app, configs in fingerprints.items():
        for config, fingerprint in configs.items():
            checked += 1
            expected = goldens.get(app, {}).get(config, {}).get("digest")
            if expected != fingerprint["digest"]:
                problems.append(f"golden grid: {app} [{config}] digest "
                                f"differs from tests/golden")
    if checked != 150:
        problems.append(f"golden grid: {checked} points, expected 150")
    with open(GOLDEN_PATH) as handle:
        if compute_slice() != json.load(handle):
            problems.append("DSE slice differs from tests/golden")
    paper = {app: (float.fromhex(configs[PAPER_CONFIG]["tlp"]),
                   float.fromhex(configs[PAPER_CONFIG]["gpu_pct"]))
             for app, configs in fingerprints.items()}
    return problems, fidelity(paper)
