"""The profiling memoization layer (repro.profiling.cache).

The contract under test: cached profiles are *bit-identical* to a fresh
trace + Paramedir computation — through the in-memory LRU, through the
on-disk profile artifact behind it (float-exact round trip), and all the
way up to the pipeline results built from them.
"""

from dataclasses import FrozenInstanceError

import pytest

from repro.experiments.harness import profile_workload, run_ecohmem
from repro.memsim.subsystem import pmem6_system
from repro.pipeline import ArtifactStore, profile_stage
from repro.profiling.cache import (
    ProfileKey,
    ProfileStore,
    resolve_store,
    workload_fingerprint,
)
from repro.units import MiB

from tests.conftest import make_toy_workload


def _key(**overrides):
    base = dict(workload="toy", fingerprint="f" * 16, seed=11,
                stack_format="bom", pebs_hz=100.0, profile_ranks=1,
                rank_jitter=0.0)
    base.update(overrides)
    return ProfileKey(**base)


class TestWorkloadFingerprint:
    def test_stable_across_equal_builds(self):
        assert workload_fingerprint(make_toy_workload()) == \
            workload_fingerprint(make_toy_workload())

    def test_distinguishes_scaled_content(self):
        """Same-named workloads with different rates must not collide."""
        from repro.experiments.ablations import scale_workload
        wl = make_toy_workload()
        scaled = scale_workload(wl, rate_scale=1.5)
        assert scaled.name == wl.name
        assert workload_fingerprint(scaled) != workload_fingerprint(wl)

    def test_distinguishes_scalar_fields(self):
        assert workload_fingerprint(make_toy_workload(ranks=2)) != \
            workload_fingerprint(make_toy_workload(ranks=4))


class TestProfileStoreMemory:
    def test_cached_equals_fresh(self):
        wl = make_toy_workload()
        store = ProfileStore()
        fresh = profile_workload(wl, profile_store=store)
        assert store.misses == 1
        cached = profile_workload(make_toy_workload(), profile_store=store)
        assert store.hits == 1
        assert cached == fresh

    def test_hands_out_the_stored_profiles(self):
        """No copies: ``get`` returns the very profile objects ``put``
        received (in a new dict), and they are read-only."""
        store = ProfileStore()
        first = profile_workload(make_toy_workload(), profile_store=store)
        again = profile_workload(make_toy_workload(), profile_store=store)
        assert store.hits == 1
        assert again is not first
        assert all(again[key] is prof for key, prof in first.items())
        prof = next(iter(again.values()))
        with pytest.raises(FrozenInstanceError):
            prof.load_misses = -1.0
        with pytest.raises(AttributeError):
            prof.spans.append((0.0, 1.0))
        # a caller's dict is its own: dropping a key leaves the entry whole
        again.clear()
        third = profile_workload(make_toy_workload(), profile_store=store)
        assert third.keys() == first.keys()

    def test_lru_eviction(self):
        store = ProfileStore(capacity=1)
        store.put(_key(seed=1), {})
        store.put(_key(seed=2), {})
        assert len(store) == 1
        assert store.get(_key(seed=1)) is None
        assert store.get(_key(seed=2)) is not None

    def test_key_covers_knobs(self):
        """Different profiling knobs must produce different cache entries."""
        wl = make_toy_workload()
        store = ProfileStore()
        a = profile_workload(wl, profile_store=store, pebs_hz=100.0)
        b = profile_workload(wl, profile_store=store, pebs_hz=500.0)
        assert store.hits == 0 and store.misses == 2
        assert a != b


def _staged(root, profile_store=None):
    """Profile the toy workload through memory LRU -> artifact -> compute."""
    memory = ProfileStore() if profile_store is None else profile_store
    store = ArtifactStore(root)
    profiles, key, _ = profile_stage(make_toy_workload(),
                                     profile_store=memory,
                                     artifact_store=store)
    return profiles, key, memory, store


def _payload_path(root, key):
    return root / key[:2] / key / "payload.json"


class TestProfileStoreDisk:
    """The store's disk layer is the profile artifact behind the LRU."""

    def test_disk_roundtrip_exact(self, tmp_path):
        """A fresh process (fresh stores) reloads bit-identical profiles."""
        fresh, _, _, _ = _staged(tmp_path)
        reloaded, _, memory, store = _staged(tmp_path)
        assert store.hits == 1 and memory.misses == 0
        assert reloaded == fresh
        for key, prof in fresh.items():
            got = reloaded[key]
            # float-exact, not approx: JSON uses shortest-roundtrip reprs
            assert got.load_misses == prof.load_misses
            assert got.store_misses == prof.store_misses
            assert got.first_alloc == prof.first_alloc
            assert got.spans == prof.spans

    def test_corrupt_file_falls_back_to_compute(self, tmp_path):
        """A torn payload recomputes bit-identically and is republished."""
        fresh, key, _, _ = _staged(tmp_path)
        _payload_path(tmp_path, key).write_text("{ not json")
        recomputed, _, memory, store = _staged(tmp_path)
        assert memory.misses == 1 and store.puts == 1
        assert recomputed == fresh
        reloaded, _, memory, store = _staged(tmp_path)
        assert store.hits == 1 and memory.misses == 0
        assert reloaded == fresh

    def test_artifact_hit_fills_memory(self, tmp_path):
        """Memory -> artifact -> compute: a second call stays in memory."""
        _staged(tmp_path)
        memory = ProfileStore()
        first, _, _, store = _staged(tmp_path, memory)
        second, _, cached = profile_stage(make_toy_workload(),
                                          profile_store=memory,
                                          artifact_store=store)
        assert cached
        assert store.hits == 1  # unchanged by the second call
        assert (memory.hits, memory.misses) == (1, 0)
        assert second == first


    def test_memory_hit_publishes_missing_artifact(self, tmp_path):
        """A profile already in memory still lands on disk for others."""
        memory = ProfileStore()
        fresh = profile_workload(make_toy_workload(), profile_store=memory)
        served, _, _, store = _staged(tmp_path, memory)
        assert store.puts == 1 and memory.misses == 1  # no second compute
        reloaded, _, other, _ = _staged(tmp_path)
        assert other.misses == 0
        assert served == reloaded == fresh


class TestCrashSafety:
    """The disk layer publishes atomically and never trusts what it reads.

    A sweep worker can be killed at any instruction; the artifact
    directory must end up in one of exactly two states — old content or
    complete new content — with no temp litter and no torn payload.
    """

    def test_crash_before_replace_leaves_no_final_file(
        self, tmp_path, monkeypatch
    ):
        """Die between writing the temp payload and publishing it."""
        import repro.pipeline.artifacts as artifacts_mod

        def crashing_rename(src, dst):
            raise OSError("simulated crash at publish")

        monkeypatch.setattr(artifacts_mod.os, "rename", crashing_rename)
        fresh, _, _, store = _staged(tmp_path)
        monkeypatch.undo()
        # nothing published, nothing leaked
        assert store.puts == 0
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        # a fresh process recomputes identically
        recomputed, _, memory, store = _staged(tmp_path)
        assert recomputed == fresh
        assert memory.misses == 1 and store.hits == 0

    def test_encode_failure_cleans_temp_file(self, tmp_path):
        """A payload that cannot be encoded raises before touching disk."""
        from repro.errors import ConfigError

        store = ArtifactStore(tmp_path)
        with pytest.raises(ConfigError):
            store.put("ab" * 16, {"profiles": [object()]})
        assert list(tmp_path.iterdir()) == []

    def test_valid_json_wrong_schema_is_a_miss(self, tmp_path):
        """A readable artifact with a foreign payload recomputes, not raises."""
        import shutil

        fresh, key, _, store = _staged(tmp_path)
        shutil.rmtree(_payload_path(tmp_path, key).parent)
        store.put(key, {"profiles": [{"bogus": 1}]})
        recomputed, _, memory, store = _staged(tmp_path)
        assert recomputed == fresh
        assert memory.misses == 1

    def test_concurrent_writers_last_publish_intact(self, tmp_path):
        """Two processes racing on one key leave one complete entry."""
        fresh, _, _, _ = _staged(tmp_path)
        again, _, memory, store = _staged(tmp_path)  # hits the first entry
        assert store.hits == 1 and memory.misses == 0
        assert len(list(tmp_path.glob("*/*/payload.json"))) == 1
        assert again == fresh


class TestCrossProcessDeterminism:
    def test_site_keys_stable_across_hash_seeds(self):
        """BOM site keys must not depend on PYTHONHASHSEED.

        The on-disk cache layer is only sound if a profile computed in
        one interpreter matches the registry built in another; builtin
        ``hash()`` is salted per process, so symbol layout must not use
        it (regression test for the sites.py size derivation).
        """
        import os
        import subprocess
        import sys

        code = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.apps import get_workload\n"
            "from repro.apps.sites import SiteRegistry\n"
            "wl = get_workload('minife')\n"
            "proc = SiteRegistry(wl).make_process(rank=0, aslr_seed=7)\n"
            "from repro.binary.callstack import StackFormat\n"
            "print(sorted(repr(proc.site_key(s, StackFormat.BOM))\n"
            "             for s in wl.sites()))\n"
        )
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            outs.append(subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True,
                text=True, check=True, cwd=os.path.dirname(
                    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
            ).stdout)
        assert outs[0] == outs[1]


class TestResolveStore:
    def test_explicit_store_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_CACHE", "off")
        store = ProfileStore()
        assert resolve_store(store) is store

    @pytest.mark.parametrize("value", ["0", "off", "false", "no"])
    def test_env_disables_default(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_CACHE", value)
        assert resolve_store(None) is None


class TestPipelineEquivalence:
    def test_cached_pipeline_identical_to_uncached(self, monkeypatch):
        wl = make_toy_workload()
        system = pmem6_system()
        store = ProfileStore()
        warmup = run_ecohmem(wl, system, dram_limit=64 * MiB,
                             profile_store=store)
        cached = run_ecohmem(make_toy_workload(), system, dram_limit=64 * MiB,
                             profile_store=store)
        monkeypatch.setenv("REPRO_PROFILE_CACHE", "off")
        uncached = run_ecohmem(make_toy_workload(), system,
                               dram_limit=64 * MiB)
        assert store.hits == 1
        assert cached.run.total_time == uncached.run.total_time
        assert cached.site_placement == uncached.site_placement
        assert warmup.run.total_time == uncached.run.total_time

    def test_custom_registry_bypasses_cache(self):
        from repro.apps.sites import SiteRegistry
        wl = make_toy_workload()
        store = ProfileStore()
        profile_workload(wl, profile_store=store,
                         registry=SiteRegistry(wl))
        assert len(store) == 0 and store.misses == 0
