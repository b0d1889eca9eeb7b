"""The ``repro validate`` CLI verb and the cache-reuse validation path."""

import json

import pytest

from repro.cli import main
from repro.harness.cache import ResultCache
from repro.harness.executor import SerialExecutor, make_spec
from repro.validate import (
    GOLDEN_CONFIGS,
    config_id,
    default_golden_path,
    load_goldens,
)
from repro.validate.golden import GOLDEN_DURATION_US, GOLDEN_SEED


def run_cli(argv):
    lines = []
    status = main(argv, out=lines.append)
    return status, "\n".join(lines)


class TestValidateVerb:
    def test_clean_run_against_committed_goldens(self):
        status, output = run_cli(["validate", "--apps", "word"])
        assert status == 0
        assert "checks ok" in output
        assert f"1 apps x {len(GOLDEN_CONFIGS)} configs" in output

    def test_streaming_cross_check(self):
        status, output = run_cli(
            ["validate", "--apps", "word", "--streaming"])
        assert status == 0
        assert "streaming cross-checked" in output

    def test_unknown_app_is_an_error(self):
        status, output = run_cli(["validate", "--apps", "not-an-app"])
        assert status == 2
        assert "unknown applications" in output

    def test_corrupted_golden_fails_with_named_field(self, tmp_path):
        goldens_path = tmp_path / "golden.json"
        with open(default_golden_path(), "r", encoding="utf-8") as fh:
            document = json.load(fh)
        entry = document["apps"]["word"][config_id(4, True)]
        entry["tlp"] = "0x1.5p+1"  # not what the pipeline produces
        entry["digest"] = "0" * 64
        with open(goldens_path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        status, output = run_cli(
            ["validate", "--apps", "word", "--golden", str(goldens_path)])
        assert status == 1
        assert "FAIL word" in output
        assert "tlp:" in output  # the diverging field is named

    def test_missing_golden_file_degrades_to_invariants(self, tmp_path):
        status, output = run_cli(
            ["validate", "--apps", "word",
             "--golden", str(tmp_path / "absent.json")])
        assert status == 0
        assert "no golden file found" in output

    def test_update_golden_roundtrip(self, tmp_path):
        goldens_path = tmp_path / "golden.json"
        status, output = run_cli(
            ["validate", "--apps", "word", "--update-golden",
             "--golden", str(goldens_path)])
        assert status == 0
        assert "recorded" in output
        recorded = load_goldens(goldens_path)
        committed = load_goldens()
        assert recorded["word"] == committed["word"]
        # A subsequent check against the fresh file is clean.
        status, _ = run_cli(
            ["validate", "--apps", "word", "--golden", str(goldens_path)])
        assert status == 0

    def test_golden_format_mismatch_is_loud(self, tmp_path):
        bad = tmp_path / "golden.json"
        bad.write_text(json.dumps({"_meta": {"format": 999}, "apps": {}}))
        with pytest.raises(ValueError, match="format"):
            load_goldens(bad)


    def test_a_quarantined_grid_point_fails_by_kind(self, monkeypatch):
        # Word crashes on the 4-LCPU SMT point, post-hoc and streaming:
        # one FAIL line names the kind, and the streaming cross-check
        # skips the point it has no post-hoc fingerprint for.
        from repro.apps import REGISTRY

        cls = REGISTRY["word"]
        build = cls.build

        def crash_on_c04_smt(self, rt):
            machine = rt.kernel.machine
            if machine.logical_cpus == 4 and machine.smt_enabled:
                raise RuntimeError("injected build failure")
            return build(self, rt)

        monkeypatch.setattr(cls, "build", crash_on_c04_smt)
        status, output = run_cli(
            ["validate", "--apps", "word", "--streaming", "--no-static"])
        assert status == 1
        assert [line for line in output.splitlines()
                if line.startswith("FAIL")] == \
            [f"FAIL word [{config_id(4, True)}] quarantined as crash: "
             f"RuntimeError: injected build failure"]
        assert f"1 of {2 * len(GOLDEN_CONFIGS)} checks FAILED" in output


class TestRunValidateFlag:
    def test_run_with_validate_flag(self):
        status, output = run_cli(
            ["run", "word", "--duration", "1", "--iterations", "1",
             "--validate"])
        assert status == 0
        assert "TLP" in output

    def test_run_with_validate_streaming(self):
        status, _ = run_cli(
            ["run", "word", "--duration", "1", "--iterations", "1",
             "--validate", "--streaming"])
        assert status == 0


class TestCacheReuseValidation:
    def spec(self):
        return make_spec("word", duration_us=GOLDEN_DURATION_US,
                         seed=GOLDEN_SEED)

    def test_good_entries_are_reused(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        warm = SerialExecutor(cache=cache)
        warm.map([self.spec()])
        assert warm.executed == 1
        reuse = SerialExecutor(cache=cache)
        (run,) = reuse.map([self.spec()])
        assert reuse.executed == 0
        assert reuse.rejected == 0
        assert run.tlp.window_us == GOLDEN_DURATION_US

    def test_implausible_entries_are_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        warm = SerialExecutor(cache=cache)
        (run,) = warm.map([self.spec()])
        # Corrupt the cached entry in place: break Eq.-1's c_i sum.
        key = cache.key_for(self.spec())
        run.tlp.fractions = [0.5] * len(run.tlp.fractions)
        cache.store(key, run)
        reuse = SerialExecutor(cache=cache)
        (fresh,) = reuse.map([self.spec()])
        assert reuse.rejected == 1
        assert reuse.executed == 1  # recomputed, not trusted
        assert abs(sum(fresh.tlp.fractions) - 1.0) < 1e-9
        # The bad entry was invalidated and replaced by the fresh run.
        again = SerialExecutor(cache=cache)
        again.map([self.spec()])
        assert again.rejected == 0
        assert again.executed == 0

    def test_validate_knob_does_not_split_the_cache_key(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        plain = cache.key_for(self.spec())
        validated = cache.key_for(
            make_spec("word", duration_us=GOLDEN_DURATION_US,
                      seed=GOLDEN_SEED, validate=True))
        assert plain == validated
