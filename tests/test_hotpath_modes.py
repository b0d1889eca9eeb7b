"""Sweep-kernel platform paths replay the goldens bit for bit.

The metric folds sweep event buffers with numpy when it imports and
with the pure-Python loop otherwise (:mod:`repro.metrics.kernels`);
which one runs is decided by the platform, not by a switch.  Both
must reproduce the committed golden fingerprints exactly, so each is
replayed here on a cross-section of apps — the pure-Python one by
hiding numpy from the kernels.
"""

import pytest

import repro.metrics.kernels as kernels
from repro.validate import (
    GOLDEN_CONFIGS,
    compare_fingerprints,
    compute_fingerprints,
    config_id,
    load_goldens,
)

#: Same cross-section the golden suite uses for backend equivalence:
#: a GPU-heavy VR title, a browser, an office app.
CROSS_CHECK_APPS = ("word", "chrome", "arizona-sunshine")


@pytest.fixture(scope="module")
def goldens():
    return load_goldens()


def assert_matches_goldens(fingerprints, goldens, label):
    for app in CROSS_CHECK_APPS:
        for cores, smt in GOLDEN_CONFIGS:
            cid = config_id(cores, smt)
            mismatches = compare_fingerprints(
                goldens[app][cid], fingerprints[app][cid])
            assert not mismatches, f"{label}: {app}/{cid}: {mismatches}"


class TestModeEquivalence:
    def test_scalar_kernel_matches_goldens(self, goldens, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        assert_matches_goldens(compute_fingerprints(CROSS_CHECK_APPS),
                               goldens, "pure-Python kernels")

    def test_vector_kernel_matches_goldens(self, goldens):
        if not kernels.numpy_available():
            pytest.skip("numpy not installed")
        assert_matches_goldens(compute_fingerprints(CROSS_CHECK_APPS),
                               goldens, "numpy kernels")
