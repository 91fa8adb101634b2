"""Staged pipeline identity (repro.pipeline.stages).

The artifact layer is a cache, never a semantic: ``run_ecohmem`` and
``run_profdp_best`` must produce bit-identical results with the layer
off, cold, and warm — including the bandwidth-aware algorithm.  The
profile is the only artifact they publish.
"""

import dataclasses

import pytest

from repro.advisor.config import config_for_system
from repro.apps import get_workload
from repro.binary.callstack import StackFormat
from repro.experiments import profile_workload, run_ecohmem, run_profdp_best
from repro.memsim.subsystem import pmem6_system
from repro.pipeline import (
    ArtifactStore,
    artifact_key,
    placement_stage,
    profile_stage,
)
from repro.profiling.cache import ProfileKey, ProfileStore
from repro.profiling.paramedir import SiteProfile
from repro.runtime.stats import run_results_identical
from repro.units import GiB


@pytest.fixture(autouse=True)
def no_env_stores(monkeypatch):
    monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)


def published(store):
    """The keys of every artifact in ``store``."""
    return {p.parent.name for p in store.root.glob("*/*/payload.json")}


def profile_key(wl, seed=11):
    """The artifact key of ``wl``'s default profile."""
    return artifact_key("profile", ProfileKey.for_workload(
        wl, seed=seed, stack_format=StackFormat.BOM, pebs_hz=100.0,
        profile_ranks=1, rank_jitter=0.0))


def assert_results_identical(a, b):
    assert run_results_identical(a.run, b.run) == []
    assert list(a.placement.items()) == list(b.placement.items())
    assert a.report.dumps() == b.report.dumps()
    assert a.site_placement == b.site_placement
    if a.base_placement is None:
        assert b.base_placement is None
    else:
        assert list(a.base_placement.items()) == list(b.base_placement.items())
    assert a.categories == b.categories
    assert a.swaps == b.swaps


class TestHarnessIdentity:
    @pytest.mark.parametrize("algorithm", ["density", "bw-aware"])
    def test_run_ecohmem_identical_off_cold_warm(self, tmp_path, algorithm):
        wl = get_workload("minife")
        system = pmem6_system()
        store = ArtifactStore(tmp_path / "artifacts")
        kw = dict(dram_limit=12 * GiB, algorithm=algorithm, seed=11)
        off = run_ecohmem(wl, system, profile_store=ProfileStore(), **kw)
        cold = run_ecohmem(wl, system, profile_store=ProfileStore(),
                           artifact_store=store, **kw)
        # the profile is the only artifact: no placement or run entries
        assert published(store) == {profile_key(wl)}
        warm = run_ecohmem(wl, system, profile_store=ProfileStore(),
                           artifact_store=store, **kw)
        assert store.hits > 0
        assert_results_identical(off, cold)
        assert_results_identical(off, warm)

    def test_warm_profile_skips_tracer(self, tmp_path):
        wl = get_workload("minife")
        system = pmem6_system()
        store = ArtifactStore(tmp_path / "artifacts")
        kw = dict(dram_limit=12 * GiB, seed=11, artifact_store=store)
        run_ecohmem(wl, system, profile_store=ProfileStore(), **kw)
        # a warm run's fresh ProfileStore misses in memory, then hits the
        # profile artifact, so it never computes (never records a miss)
        pstore = ProfileStore()
        run_ecohmem(wl, system, profile_store=pstore, **kw)
        assert pstore.misses == 0

    def test_profdp_identical_and_shares_profile_artifact(self, tmp_path):
        wl = get_workload("lulesh")
        system = pmem6_system()
        store = ArtifactStore(tmp_path / "artifacts")
        kw = dict(dram_limit=8 * GiB, seed=11)
        v_off, r_off = run_profdp_best(wl, system,
                                       profile_store=ProfileStore(), **kw)
        v_cold, r_cold = run_profdp_best(wl, system, artifact_store=store,
                                         profile_store=ProfileStore(), **kw)
        assert published(store) == {profile_key(wl)}
        v_warm, r_warm = run_profdp_best(wl, system, artifact_store=store,
                                         profile_store=ProfileStore(), **kw)
        assert v_off == v_cold == v_warm
        assert run_results_identical(r_off, r_cold) == []
        assert run_results_identical(r_off, r_warm) == []

    def test_custom_registry_bypasses_artifacts(self, tmp_path):
        from repro.apps.sites import SiteRegistry
        wl = get_workload("minife")
        system = pmem6_system()
        store = ArtifactStore(tmp_path / "artifacts")
        reg = SiteRegistry(wl)
        off = run_ecohmem(wl, system, dram_limit=12 * GiB, registry=reg,
                          profile_store=ProfileStore())
        via = run_ecohmem(wl, system, dram_limit=12 * GiB, registry=reg,
                          profile_store=ProfileStore(), artifact_store=store)
        # nothing keyed: a custom registry changes the address spaces
        assert store.puts == 0
        assert_results_identical(off, via)

    def test_env_var_engages_artifact_layer(self, tmp_path, monkeypatch):
        from repro.pipeline import reset_default_artifact_store
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "env-store"))
        reset_default_artifact_store()
        try:
            wl = get_workload("minife")
            system = pmem6_system()
            off_env = run_ecohmem(wl, system, dram_limit=12 * GiB,
                                  profile_store=ProfileStore())
            assert (tmp_path / "env-store").exists()
            monkeypatch.delenv("REPRO_ARTIFACT_DIR")
            reset_default_artifact_store()
            off = run_ecohmem(wl, system, dram_limit=12 * GiB,
                              profile_store=ProfileStore())
            assert_results_identical(off, off_env)
        finally:
            reset_default_artifact_store()


class TestStageFunctions:
    def test_profile_stage_roundtrip_bit_exact(self, tmp_path):
        wl = get_workload("minife")
        store = ArtifactStore(tmp_path / "artifacts")
        fresh = profile_workload(wl, seed=11, profile_store=ProfileStore())
        cold, key1, cold_cached = profile_stage(
            wl, seed=11, artifact_store=store, profile_store=ProfileStore())
        warm, key2, warm_cached = profile_stage(
            wl, seed=11, artifact_store=store, profile_store=ProfileStore())
        assert key1 == key2 == profile_key(wl)
        assert not cold_cached and warm_cached
        assert list(fresh) == list(cold) == list(warm)
        for site in fresh:
            for f in dataclasses.fields(SiteProfile):
                assert (getattr(warm[site], f.name)
                        == getattr(cold[site], f.name)
                        == getattr(fresh[site], f.name)), f.name

    def test_placement_stage_unknown_algorithm(self):
        wl = get_workload("minife")
        from repro.errors import SimulationError
        profiles = profile_workload(wl, seed=11, profile_store=ProfileStore())
        system = pmem6_system()
        cfg = config_for_system(system, 12 * GiB, ranks=wl.ranks)
        with pytest.raises(SimulationError):
            placement_stage(profiles, system, cfg, algorithm="nope")
