"""Tests for site wiring and the seven application models."""

import gc
import sys
import threading
import weakref

import pytest

from repro.apps import get_workload, list_workloads
from repro.apps.sites import SiteRegistry
from repro.apps.registry import register_workload
from repro.binary.callstack import StackFormat
from repro.errors import WorkloadError
from repro.units import MiB

from tests.conftest import make_toy_workload

#: Table V per-rank high-water marks (MB)
TABLE_V_HWM = {
    "minife": 1989, "minimd": 2196, "lulesh": 10658, "hpcg": 6414,
    "cloverleaf3d": 1467, "lammps": 4240, "openfoam": 3360,
}

#: Table V rank/thread configuration
TABLE_V_PROCS = {
    "minife": (12, 2), "minimd": (12, 2), "lulesh": (8, 3), "hpcg": (6, 4),
    "cloverleaf3d": (24, 1), "lammps": (12, 2), "openfoam": (16, 1),
}


class TestSiteRegistry:
    def test_all_sites_have_callstacks(self, toy_workload):
        reg = SiteRegistry(toy_workload)
        proc = reg.make_process(rank=0, aslr_seed=1)
        for obj in toy_workload.objects:
            stack = proc.callstack(obj.site)
            assert len(stack) == len(obj.site.stack)

    def test_distinct_sites_distinct_keys(self, toy_workload):
        reg = SiteRegistry(toy_workload)
        proc = reg.make_process(rank=0, aslr_seed=1)
        keys = {proc.site_key(o.site, StackFormat.BOM) for o in toy_workload.objects}
        assert len(keys) == len(toy_workload.objects)

    def test_bom_keys_stable_across_processes(self, toy_workload):
        reg = SiteRegistry(toy_workload)
        p1 = reg.make_process(rank=0, aslr_seed=1)
        p2 = reg.make_process(rank=1, aslr_seed=99)
        for obj in toy_workload.objects:
            assert (p1.site_key(obj.site, StackFormat.BOM)
                    == p2.site_key(obj.site, StackFormat.BOM))

    def test_raw_addresses_differ_across_processes(self, toy_workload):
        reg = SiteRegistry(toy_workload)
        p1 = reg.make_process(rank=0, aslr_seed=1)
        p2 = reg.make_process(rank=1, aslr_seed=99)
        site = toy_workload.objects[0].site
        assert p1.callstack(site) != p2.callstack(site)

    def test_callstacks_cached(self, toy_workload):
        reg = SiteRegistry(toy_workload)
        proc = reg.make_process(rank=0, aslr_seed=1)
        site = toy_workload.objects[0].site
        assert proc.callstack(site) is proc.callstack(site)

    @pytest.mark.parametrize("fmt", list(StackFormat))
    def test_site_keys_translated_once_per_site(self, toy_workload, fmt,
                                                monkeypatch):
        reg = SiteRegistry(toy_workload)
        proc = reg.make_process(rank=0, aslr_seed=1)
        resolved = []
        real = proc.space.resolve
        monkeypatch.setattr(proc.space, "resolve", lambda addr: (
            resolved.append(addr) or real(addr)))
        site = toy_workload.objects[0].site
        key = proc.site_key(site, fmt)
        translated = len(resolved)
        assert proc.site_key(site, fmt) is key
        assert len(resolved) == translated
        # a fresh process translates it to an equal key
        assert reg.make_process(rank=0, aslr_seed=1).site_key(site, fmt) == key

    def test_debug_scale_knobs(self, toy_workload):
        light = SiteRegistry(toy_workload)
        heavy = SiteRegistry(toy_workload, debug_line_interval=16,
                             debug_bytes_per_entry=512)
        assert heavy.total_debug_info_bytes() > 10 * light.total_debug_info_bytes()

    def test_unknown_function_rejected(self, toy_workload):
        reg = SiteRegistry(toy_workload)
        with pytest.raises(WorkloadError):
            reg.call_offset("toy.x", "no_such_function")


class TestDefaultRegistry:
    """One registry per workload, kept on the workload and freed with it."""

    def test_built_once(self, toy_workload):
        reg = toy_workload.site_registry
        assert isinstance(reg, SiteRegistry)
        assert toy_workload.site_registry is reg
        assert reg.workload is toy_workload

    def test_tracer_uses_it(self, toy_workload):
        from repro.profiling.tracer import ExtraeTracer
        assert ExtraeTracer(toy_workload).registry is toy_workload.site_registry

    def test_freed_with_the_workload(self):
        wl = make_toy_workload()
        reg = wl.site_registry
        reg.make_process(rank=0, aslr_seed=1).site_key(
            wl.objects[0].site, StackFormat.BOM)
        refs = (weakref.ref(wl), weakref.ref(reg))
        del wl, reg
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_call_offsets_match_symbols(self, toy_workload):
        reg = toy_workload.site_registry
        for obj in toy_workload.objects:
            img = reg.images[obj.site.image]
            for fn in obj.site.stack:
                off = reg.call_offset(obj.site.image, fn)
                sym = img.symbol_at(off)
                assert sym.name == fn
                assert off == sym.offset + int(sym.size * 0.4)

    def test_cached_stable_keys_equal_fresh_translation(self):
        wl = get_workload("lulesh")
        reg = wl.site_registry
        p1 = reg.make_process(rank=0, aslr_seed=11)
        p2 = reg.make_process(rank=1, aslr_seed=12)
        image = wl.images()[0]
        assert (p1.space.mapping_of(image).base
                != p2.space.mapping_of(image).base)
        for obj in wl.objects:
            site = obj.site
            for proc in (p1, p2):
                for fmt in (StackFormat.BOM, StackFormat.HUMAN):
                    assert proc.site_key(site, fmt) == proc.callstack(
                        site).key(proc.space, fmt)
            assert (p1.site_key(site, StackFormat.RAW)
                    != p2.site_key(site, StackFormat.RAW))


    def test_shared_key_cache_under_threads(self):
        """Server threads share one registry: every thread's processes
        read keys equal to their own fresh translation."""
        wl = get_workload("openfoam")
        reg = wl.site_registry
        errors = []

        def worker(seed):
            proc = reg.make_process(rank=0, aslr_seed=seed)
            for obj in wl.objects:
                for fmt in (StackFormat.BOM, StackFormat.HUMAN):
                    if proc.site_key(obj.site, fmt) != proc.callstack(
                            obj.site).key(proc.space, fmt):
                        errors.append((seed, obj.site.name, fmt))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,))
                       for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors


class TestRegistry:
    def test_seven_paper_apps_registered(self):
        assert set(TABLE_V_HWM).issubset(set(list_workloads()))

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            get_workload("nonsense")

    def test_factories_return_fresh_instances(self):
        assert get_workload("minife") is not get_workload("minife")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(WorkloadError):
            register_workload("minife", make_toy_workload)


@pytest.mark.parametrize("app", sorted(TABLE_V_HWM))
class TestPaperModels:
    def test_rank_thread_config(self, app):
        wl = get_workload(app)
        assert (wl.ranks, wl.threads) == TABLE_V_PROCS[app]

    def test_high_water_within_15pct_of_table5(self, app):
        wl = get_workload(app)
        hwm_mb = wl.heap_high_water() / MiB
        assert hwm_mb == pytest.approx(TABLE_V_HWM[app], rel=0.15)

    def test_every_object_has_some_access(self, app):
        wl = get_workload(app)
        for obj in wl.objects:
            assert obj.access, f"{obj.site.name} never accessed"

    def test_site_names_unique(self, app):
        wl = get_workload(app)
        names = [o.site.name for o in wl.objects]
        assert len(set(names)) == len(names)

    def test_timeline_instantiable(self, app):
        wl = get_workload(app)
        instances = wl.instances()
        assert instances
        assert all(0 <= i.start < i.end <= wl.nominal_duration + 1e-9
                   for i in instances)
