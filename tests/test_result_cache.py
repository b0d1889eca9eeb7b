"""Tests for the content-addressed simulation result cache."""

import pickle

import pytest

from repro.apps.transcoding import HandBrake
from repro.harness import (
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    make_spec,
    run_app,
    run_suite,
)
from repro.harness.cache import _FRAME, CACHE_MAGIC, spec_key
from repro.hardware import GTX_680, paper_machine
from repro.sim import MS, SECOND
from repro.validate import InjectedCrash

SHORT = 3 * SECOND


class TestSpecKeys:
    def test_equivalent_specs_share_a_key(self):
        assert spec_key(make_spec("excel", seed=1)) == \
            spec_key(make_spec("excel", machine=paper_machine(), seed=1))

    def test_key_sensitive_to_seed(self):
        assert spec_key(make_spec("excel", seed=1)) != \
            spec_key(make_spec("excel", seed=2))

    def test_key_sensitive_to_machine(self):
        base = paper_machine()
        assert spec_key(make_spec("excel", machine=base)) != \
            spec_key(make_spec("excel", machine=base.with_logical_cpus(4)))
        assert spec_key(make_spec("excel", machine=base)) != \
            spec_key(make_spec("excel", machine=base.with_gpu(GTX_680)))

    def test_key_sensitive_to_quantum(self):
        assert spec_key(make_spec("excel", quantum=15 * MS)) != \
            spec_key(make_spec("excel", quantum=30 * MS))

    def test_key_sensitive_to_app_config(self):
        assert spec_key(make_spec("winx", config={"use_gpu": True})) != \
            spec_key(make_spec("winx", config={"use_gpu": False}))

    def test_key_sensitive_to_code_version(self):
        spec = make_spec("excel")
        assert spec_key(spec, code_version="1") != \
            spec_key(spec, code_version="2")

    def test_model_instances_are_cacheable(self):
        assert spec_key(make_spec(HandBrake())) is not None
        assert spec_key(make_spec(HandBrake(workers=2))) != \
            spec_key(make_spec(HandBrake(workers=4)))

    def test_unpicklable_state_is_uncacheable(self):
        app = HandBrake()
        app.on_done = lambda: None
        assert spec_key(make_spec(app)) is None


class TestResultCache:
    def test_hit_returns_identical_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_app("excel", duration_us=SHORT, iterations=2, cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (0, 2, 2)

        executor = SerialExecutor(cache=ResultCache(tmp_path))
        warm = run_app("excel", duration_us=SHORT, iterations=2,
                       executor=executor)
        assert executor.executed == 0
        assert executor.cache.hits == 2
        assert warm.fractions == cold.fractions
        assert warm.tlp == cold.tlp
        assert warm.gpu_util == cold.gpu_util

    def test_warm_suite_runs_zero_simulations(self, tmp_path):
        names = ("excel", "vlc")
        cold = run_suite(names=names, duration_us=SHORT, iterations=2,
                         cache=ResultCache(tmp_path))
        executor = SerialExecutor(cache=ResultCache(tmp_path))
        warm = run_suite(names=names, duration_us=SHORT, iterations=2,
                         executor=executor)
        assert executor.executed == 0
        assert executor.cache.hits == 4
        for name in names:
            assert warm.results[name].fractions == cold.results[name].fractions

    def test_keep_trace_bypasses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_app("excel", duration_us=SHORT, iterations=1, keep_trace=True,
                cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (0, 0, 0)
        # And a keep_trace re-run is never served a stale cached result.
        result = run_app("excel", duration_us=SHORT, iterations=1,
                         keep_trace=True, cache=cache)
        assert result.runs[0].trace is not None

    def test_corrupt_entry_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_app("excel", duration_us=SHORT, iterations=1, cache=cache)
        (entry,) = list(tmp_path.rglob("*.pkl"))
        entry.write_bytes(b"not a pickle")

        executor = SerialExecutor(cache=ResultCache(tmp_path))
        again = run_app("excel", duration_us=SHORT, iterations=1,
                        executor=executor)
        assert executor.executed == 1          # corrupt entry = miss
        assert executor.cache.misses == 1
        assert again.fractions == cold.fractions
        # The recomputed result replaced the corrupt file, framed with
        # the integrity header that gates every load.
        blob = entry.read_bytes()
        magic, length, _crc = _FRAME.unpack_from(blob)
        payload = blob[_FRAME.size:]
        assert magic == CACHE_MAGIC and len(payload) == length
        assert pickle.loads(payload).tlp.fractions == \
            cold.runs[0].tlp.fractions

    def test_uncacheable_app_still_runs(self, tmp_path):
        app = HandBrake()
        app.on_done = lambda: None
        cache = ResultCache(tmp_path)
        result = run_app(app, duration_us=SHORT, iterations=1, cache=cache)
        assert result.tlp.mean > 0
        assert (cache.hits, cache.misses, cache.stores) == (0, 0, 0)

    def test_cross_app_isolation(self, tmp_path):
        cache = ResultCache(tmp_path)
        excel = run_app("excel", duration_us=SHORT, iterations=1, cache=cache)
        vlc = run_app("vlc", duration_us=SHORT, iterations=1, cache=cache)
        assert cache.hits == 0 and cache.misses == 2
        assert excel.fractions != vlc.fractions


class TestCacheIsTheCheckpoint:
    """A plain executor stores each run as it lands, so a sweep that
    dies keeps every run it finished, and a re-run over the same cache
    simulates only the rest."""

    @pytest.mark.parametrize("make", [
        lambda cache: SerialExecutor(cache=cache),
        lambda cache: ParallelExecutor(jobs=2, cache=cache),
    ], ids=["serial", "parallel"])
    def test_a_sweep_that_raises_keeps_every_finished_run(self, tmp_path,
                                                          make):
        specs = [make_spec("chrome", duration_us=SECOND // 2, seed=seed)
                 for seed in (0, 1)]
        specs.append(make_spec("chrome", duration_us=SECOND // 2, seed=2,
                               fault="worker-crash"))
        with pytest.raises(InjectedCrash):
            make(ResultCache(tmp_path)).map(specs)
        assert len(list(tmp_path.glob("*/*.pkl"))) == 2

        executor = make(ResultCache(tmp_path))
        executor.map(specs[:2])
        assert executor.executed == 0
        assert executor.cache.hits == 2


class TestEntryFraming:
    """The integrity frame is checked before any unpickling."""

    def _seed_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_app("excel", duration_us=SHORT, iterations=1, cache=cache)
        (entry,) = list(tmp_path.rglob("*.pkl"))
        return entry

    def _load(self, tmp_path, entry):
        cache = ResultCache(tmp_path)
        key = entry.stem
        return cache.load_classified(key), cache

    def test_valid_frame_round_trips(self, tmp_path):
        entry = self._seed_entry(tmp_path)
        (kind, payload), cache = self._load(tmp_path, entry)
        assert kind == "hit" and payload is not None
        assert cache.corrupt == 0

    def test_bad_crc_is_corrupt(self, tmp_path):
        # Flip one payload byte: still a frame, CRC no longer vouches.
        entry = self._seed_entry(tmp_path)
        blob = bytearray(entry.read_bytes())
        blob[-1] ^= 0xFF
        entry.write_bytes(bytes(blob))
        (kind, payload), cache = self._load(tmp_path, entry)
        assert (kind, payload) == ("corrupt", None)
        assert cache.corrupt == 1
        assert not entry.exists()

    def test_bad_magic_is_corrupt(self, tmp_path):
        entry = self._seed_entry(tmp_path)
        blob = bytearray(entry.read_bytes())
        blob[:8] = b"XXXXXXXX"
        entry.write_bytes(bytes(blob))
        (kind, payload), _ = self._load(tmp_path, entry)
        assert (kind, payload) == ("corrupt", None)

    def test_truncated_entry_is_corrupt(self, tmp_path):
        # A truncated write is caught by the length field even though
        # the prefix might still be a loadable pickle stream.
        entry = self._seed_entry(tmp_path)
        blob = entry.read_bytes()
        entry.write_bytes(blob[:len(blob) - 16])
        (kind, payload), _ = self._load(tmp_path, entry)
        assert (kind, payload) == ("corrupt", None)

    def test_unframed_pickle_is_corrupt(self, tmp_path):
        # A bare pickle (the pre-frame format, or a foreign file) never
        # reaches the unpickler at all.
        entry = self._seed_entry(tmp_path)
        entry.write_bytes(pickle.dumps({"not": "a run"}))
        (kind, payload), _ = self._load(tmp_path, entry)
        assert (kind, payload) == ("corrupt", None)

    def test_short_file_is_corrupt(self, tmp_path):
        entry = self._seed_entry(tmp_path)
        entry.write_bytes(b"tiny")
        (kind, payload), _ = self._load(tmp_path, entry)
        assert (kind, payload) == ("corrupt", None)
