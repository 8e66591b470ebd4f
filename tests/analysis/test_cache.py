"""Tests for the persistent content-addressed result cache."""

import os
import pickle

import numpy as np
import pytest

import repro.analysis.measure as measure_mod
import repro.analysis.regions as regions_mod
from repro.analysis.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    cached_coefficients,
    cached_figure,
    cached_region_map,
    canonical_json,
    engine_fingerprint,
    task_digest,
)
from repro.analysis.regions import region_map
from repro.analysis.sweep import sweep
from repro.cli import main
from repro.errors import ModelError
from repro.service.jobs import evaluate, make_spec
from repro.sim.machine import PortModel

ONE = PortModel.ONE_PORT


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        a = canonical_json({"b": 1, "a": [1, 2]})
        b = canonical_json({"a": (1, 2), "b": 1})
        assert a == b == '{"a":[1,2],"b":1}'

    def test_port_model_serializes_as_value(self):
        assert canonical_json({"port": ONE}) == canonical_json(
            {"port": ONE.value}
        )

    def test_non_finite_floats_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ModelError):
                canonical_json({"x": bad})

    def test_non_string_keys_rejected(self):
        with pytest.raises(ModelError):
            canonical_json({1: "x"})

    def test_unsupported_values_rejected(self):
        with pytest.raises(ModelError):
            canonical_json({"x": object()})

    def test_digest_is_sha256_hex(self):
        d = task_digest({"kind": "t", "v": CACHE_SCHEMA_VERSION})
        assert len(d) == 64
        assert set(d) <= set("0123456789abcdef")
        assert d == task_digest({"v": CACHE_SCHEMA_VERSION, "kind": "t"})


class TestEngineFingerprint:
    def test_stable_and_memoized(self):
        fp = engine_fingerprint()
        assert len(fp) == 64
        assert engine_fingerprint() == fp

    def test_sources_are_every_model_and_sim_module(self):
        """Derived, not listed: the closed-form path and the helpers the
        models import cannot be edited without orphaning cached maps."""
        from repro.analysis import cache as cache_mod

        sources = cache_mod._fingerprint_sources()
        assert sources == sorted(sources)
        assert {"sim/superstep.py", "sim/ports.py", "sim/engine.py",
                "models/params.py", "models/table2.py"} <= set(sources)

    def test_computed_once_per_process(self, monkeypatch):
        """It sits in every benchmark run's ``setup_s``."""
        from repro.analysis import cache as cache_mod

        monkeypatch.setattr(cache_mod, "_FINGERPRINT", None)
        calls = []
        real = cache_mod._fingerprint_sources
        monkeypatch.setattr(
            cache_mod, "_fingerprint_sources",
            lambda: calls.append(1) or real(),
        )
        assert engine_fingerprint() == engine_fingerprint()
        assert len(calls) == 1


class TestResultCache:
    def test_round_trip_is_bit_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {
            "grid": np.array([[1.5, float("nan")], [0.1, 2.0]]),
            "keys": ("cannon", "3dd"),
        }
        cache.put("test", {"x": 1}, payload)
        back = cache.get("test", {"x": 1})
        assert back["keys"] == payload["keys"]
        assert np.array_equal(back["grid"], payload["grid"], equal_nan=True)
        assert back["grid"].dtype == payload["grid"].dtype

    def test_miss_returns_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("test", {"x": 1}) is None
        assert cache.get("test", {"x": 1}, default=-1) == -1

    def test_fetch_computes_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"answer": 42}

        first = cache.fetch("test", {"q": "life"}, compute)
        second = cache.fetch("test", {"q": "life"}, compute)
        assert first == second == {"answer": 42}
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_descriptor_change_is_a_different_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("test", {"t_s": 150.0}, "a")
        assert cache.get("test", {"t_s": 151.0}) is None
        assert cache.get("test", {"t_s": 150.0}) == "a"

    def test_kind_namespaces_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("region_map", {"x": 1}, "map")
        assert cache.get("sweep", {"x": 1}) is None

    def test_engine_fingerprint_is_in_the_key(self, tmp_path, monkeypatch):
        """A changed fingerprint orphans every existing entry."""
        cache = ResultCache(tmp_path)
        cache.put("test", {"x": 1}, "old-engine")
        monkeypatch.setattr(
            "repro.analysis.cache.engine_fingerprint", lambda: "0" * 64
        )
        assert cache.get("test", {"x": 1}) is None

    def test_disabled_cache_is_transparent(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        assert cache.put("test", {"x": 1}, "v") is None
        assert cache.get("test", {"x": 1}) is None
        calls = []
        cache.fetch("test", {"x": 1}, lambda: calls.append(1) or "v")
        cache.fetch("test", {"x": 1}, lambda: calls.append(1) or "v")
        assert len(calls) == 2
        assert not list(tmp_path.rglob("*.pkl"))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("test", {"x": 1}, "good")
        path.write_bytes(b"not a pickle")
        assert cache.get("test", {"x": 1}) is None
        # and the next put repairs it
        cache.put("test", {"x": 1}, "good")
        assert cache.get("test", {"x": 1}) == "good"

    def test_entry_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("test", {"x": 1}, "v")
        assert path.parent.parent.name == "objects"
        assert path.name.startswith(path.parent.name)  # <aa>/<aa...>.pkl
        with open(path, "rb") as fh:
            entry = pickle.load(fh)
        assert entry["kind"] == "test"
        assert entry["descriptor"] == {"x": 1}
        assert entry["payload"] == "v"

    def test_stats_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("region_map", {"x": 1}, "a")
        cache.put("sweep", {"x": 1}, "b")
        cache.put("sweep", {"x": 2}, "c")
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["by_kind"] == {"region_map": 1, "sweep": 2}
        assert stats["bytes"] > 0
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0

    def test_stats_counts_truncated_entries_as_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("sweep", {"x": 1}, "good")
        bad = cache.put("sweep", {"x": 2}, "soon-truncated")
        bad.write_bytes(bad.read_bytes()[:7])  # cut mid-pickle
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["corrupt"] == 1
        assert stats["by_kind"] == {"(corrupt)": 1, "sweep": 1}

    def test_prune_deletes_corrupt_entries(self, tmp_path):
        """A truncated object file can never serve a hit; prune (with no
        age or byte budget at all) must still remove it and leave the
        healthy entries alone."""
        cache = ResultCache(tmp_path)
        cache.put("sweep", {"x": 1}, "good")
        bad = cache.put("sweep", {"x": 2}, "soon-truncated")
        bad.write_bytes(bad.read_bytes()[:7])
        assert cache.prune() == 1
        assert not bad.exists()
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["corrupt"] == 0
        assert cache.get("sweep", {"x": 1}) == "good"

    def test_prune_by_age(self, tmp_path):
        cache = ResultCache(tmp_path)
        old = cache.put("test", {"x": 1}, "old")
        cache.put("test", {"x": 2}, "new")
        stale = os.path.getmtime(old) - 10 * 86400
        os.utime(old, (stale, stale))
        assert cache.prune(max_age_days=1) == 1
        assert cache.get("test", {"x": 1}) is None
        assert cache.get("test", {"x": 2}) == "new"

    def test_prune_to_byte_budget_drops_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        old = cache.put("test", {"x": 1}, "old")
        new = cache.put("test", {"x": 2}, "new")
        stale = os.path.getmtime(new) - 100
        os.utime(old, (stale, stale))
        budget = os.path.getsize(new)
        assert cache.prune(max_bytes=budget) == 1
        assert cache.get("test", {"x": 2}) == "new"
        assert cache.get("test", {"x": 1}) is None

    def test_default_root_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-root"))
        cache = ResultCache()
        assert cache.root == tmp_path / "env-root"


class TestCachedWrappers:
    def test_cached_region_map_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        kwargs = dict(log2_n_max=6, log2_p_max=8)
        cold = cached_region_map(cache, ONE, 150.0, 3.0, **kwargs)
        warm = cached_region_map(cache, ONE, 150.0, 3.0, **kwargs)
        direct = region_map(ONE, 150.0, 3.0, **kwargs)
        assert cache.hits == 1
        assert np.array_equal(warm.winner_idx, direct.winner_idx)
        assert np.array_equal(warm.times, direct.times, equal_nan=True)
        assert np.array_equal(cold.times, warm.times, equal_nan=True)

    def test_cached_region_map_none_cache_computes(self):
        rm = cached_region_map(None, ONE, 150.0, 3.0, log2_n_max=4, log2_p_max=4)
        assert rm.winners

    def test_warm_hit_skips_recompute(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        kwargs = dict(log2_n_max=5, log2_p_max=6)
        cached_region_map(cache, ONE, 150.0, 3.0, **kwargs)

        def boom(*a, **k):
            raise AssertionError("warm path recomputed")

        monkeypatch.setattr(regions_mod, "region_map", boom)
        warm = cached_region_map(cache, ONE, 150.0, 3.0, **kwargs)
        assert warm.winners

    def test_cached_figure_one_entry_for_all_panels(self, tmp_path):
        cache = ResultCache(tmp_path)
        kwargs = dict(log2_n_max=5, log2_p_max=6)
        cold = cached_figure(cache, 13, **kwargs)
        assert cache.stats()["entries"] == 1
        warm = cached_figure(cache, 13, **kwargs)
        direct = cached_figure(None, 13, **kwargs)
        assert cache.hits == 1
        assert sorted(cold) == sorted(warm) == sorted(direct) == [
            "a", "b", "c", "d"
        ]
        for panel in direct:
            for got in (cold[panel], warm[panel]):
                assert np.array_equal(
                    got.winner_idx, direct[panel].winner_idx
                )
                assert np.array_equal(
                    got.times, direct[panel].times, equal_nan=True
                )

    def test_cached_coefficients_cold_warm_uncached_identical(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        cold = cached_coefficients(cache, "cannon", 16, 16, ONE)
        direct = cached_coefficients(None, "cannon", 16, 16, ONE)

        def boom(*a, **k):
            raise AssertionError("warm hit re-simulated")

        monkeypatch.setattr(measure_mod, "extract_coefficients", boom)
        warm = cached_coefficients(cache, "cannon", 16, 16, ONE)
        assert cache.hits == 1 and cache.misses == 1
        assert cold == warm == direct

    def test_cached_figure_rejects_unknown_figure(self, tmp_path):
        with pytest.raises(ModelError):
            cached_figure(ResultCache(tmp_path), 15)

    def test_cached_sweep_round_trip(self, tmp_path):
        """A sweep job's report is cached under its normalized params:
        the warm report is the cold one, and both hold the library's
        ``sweep`` points."""
        cache = ResultCache(tmp_path)
        keys = ("cannon", "3dd")
        values = [16.0, 64.0, 256.0]
        spec = make_spec("sweep", {"algorithms": list(keys), "variable": "p",
                                   "values": values, "n": 256})
        cold = evaluate(spec, cache)
        warm = evaluate(make_spec("sweep", dict(spec.params)), cache)
        direct = sweep(keys, "p", values, n=256)
        assert cache.hits == 1 and cache.misses == 1
        assert warm == cold == evaluate(spec)
        for got, want in zip(warm["points"], direct):
            assert got["value"] == want.value
            assert got["times"] == want.times


class TestCacheCLI:
    def _figure_args(self, tmp_path, *extra):
        return [
            "figure", "13", "a", "--log2n", "5", "--log2p", "6",
            "--cache", "--cache-dir", str(tmp_path), *extra,
        ]

    def test_figure_cold_warm_identical_output(self, tmp_path, capsys):
        assert main(self._figure_args(tmp_path)) == 0
        cold = capsys.readouterr().out
        assert main(self._figure_args(tmp_path)) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert list(tmp_path.rglob("*.pkl"))

    def test_no_cache_writes_nothing(self, tmp_path, capsys):
        args = self._figure_args(tmp_path)
        args[args.index("--cache")] = "--no-cache"
        assert main(args) == 0
        assert not list(tmp_path.rglob("*.pkl"))

    def test_repro_cache_env_enables_by_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main([
            "figure", "13", "a", "--log2n", "4", "--log2p", "5",
        ]) == 0
        capsys.readouterr()
        assert list(tmp_path.rglob("*.pkl"))

    def test_cache_subcommand_stats_clear_prune(self, tmp_path, capsys):
        assert main(self._figure_args(tmp_path)) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries    : 1" in out
        assert "region_map" in out
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--max-age-days", "0.5",
        ]) == 0
        assert "pruned 0" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not list(tmp_path.rglob("*.pkl"))


class TestCacheVerify:
    """`verify` audits crash debris: orphaned tmp files and corrupt entries."""

    def test_clean_cache_is_clean(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"x": 1}, [1, 2, 3])
        audit = cache.verify()
        assert audit == {
            "checked": 1, "corrupt": 0, "tmp_found": 0, "tmp_removed": 0,
            "orphan_partials": 0,
        }

    def test_old_orphaned_tmp_is_pruned(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"x": 1}, [1])
        debris = tmp_path / "objects" / "zz" / ("f" * 64 + ".tmp.4242")
        debris.parent.mkdir(parents=True)
        debris.write_bytes(b"half a pickle")
        os.utime(debris, (1.0, 1.0))  # ancient — no writer can own it
        audit = cache.verify()
        assert audit["tmp_found"] == 1 and audit["tmp_removed"] == 1
        assert not debris.exists()
        # The real entry is untouched.
        assert cache.get("k", {"x": 1}) == [1]

    def test_fresh_tmp_is_left_for_its_writer(self, tmp_path):
        cache = ResultCache(tmp_path)
        debris = tmp_path / "objects" / "zz" / ("f" * 64 + ".tmp.4242")
        debris.parent.mkdir(parents=True)
        debris.write_bytes(b"in-flight write")  # mtime = now
        audit = cache.verify()
        assert audit["tmp_found"] == 1 and audit["tmp_removed"] == 0
        assert debris.exists()
        # Forcing the age threshold to zero reclaims it.
        audit = cache.verify(tmp_max_age_s=0.0)
        assert audit["tmp_removed"] == 1

    def test_corrupt_entries_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"x": 1}, [1])
        (entry,) = cache._entries()
        entry.write_bytes(b"not a pickle")
        assert cache.verify()["corrupt"] == 1

    def test_cli_verify(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.put("k", {"x": 1}, [1])
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "checked    : 1" in out
        assert "corrupt    : 0" in out

    def test_cli_verify_nonzero_on_corrupt(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.put("k", {"x": 1}, [1])
        (entry,) = cache._entries()
        entry.write_bytes(b"garbage")
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
