"""Tests for the FlexMalloc allocation replay."""

from repro.alloc import FlexMalloc, build_heaps, BOMMatcher
from repro.alloc.report import PlacementEntry, PlacementReport
from repro.apps.sites import SiteRegistry
from repro.binary.callstack import StackFormat
from repro.memsim.subsystem import pmem6_system
from repro.runtime.replay import replay_allocations
from repro.units import GiB, MiB

from tests.conftest import make_toy_workload


def build_env(dram_limit, dram_sites=("toy::hot",)):
    wl = make_toy_workload()
    registry = SiteRegistry(wl)
    profiling = registry.make_process(rank=0, aslr_seed=500)
    report = PlacementReport(StackFormat.BOM)
    for name in dram_sites:
        site = wl.object_by_site(name).site
        report.add(PlacementEntry(
            site=profiling.site_key(site, StackFormat.BOM), subsystem="dram"))
    production = registry.make_process(rank=0, aslr_seed=777)
    heaps = build_heaps(pmem6_system(), dram_limit=dram_limit)
    flex = FlexMalloc(heaps, BOMMatcher(report, production.space))
    return wl, production, flex


class TestReplay:
    def test_matched_site_lands_in_dram(self):
        wl, proc, flex = build_env(dram_limit=1 * GiB)
        result = replay_allocations(wl, proc, flex)
        assert result.site_placement["toy::hot"] == "dram"
        assert result.site_placement["toy::cold"] == "pmem"

    def test_every_instance_placed(self):
        wl, proc, flex = build_env(dram_limit=1 * GiB)
        result = replay_allocations(wl, proc, flex)
        assert len(result.instance_placement) == len(wl.instances())

    def test_all_freed_at_end(self):
        wl, proc, flex = build_env(dram_limit=1 * GiB)
        replay_allocations(wl, proc, flex)
        assert flex.stats.frees == flex.stats.calls
        assert all(h.used == 0 for h in flex.heaps)

    def test_capacity_fallback_mid_run(self):
        """A DRAM limit below the matched site's node footprint forces
        the replay's capacity fallback to PMem."""
        wl, proc, flex = build_env(dram_limit=8 * MiB)  # hot is 8MiB x 2 ranks
        result = replay_allocations(wl, proc, flex)
        assert result.instance_placement[("toy::hot", 0)] == "pmem"
        assert flex.stats.fallback_capacity >= 1

    def test_temporal_reuse(self):
        """Sequential temp instances reuse the same DRAM space: a limit
        fitting ONE instance is enough when lifetimes do not overlap."""
        wl, proc, flex = build_env(
            dram_limit=9 * MiB, dram_sites=("toy::temp",)
        )  # temp = 4MiB x 2 ranks = 8MiB per instance, 4 sequential instances
        result = replay_allocations(wl, proc, flex)
        placements = {
            v for (name, _), v in result.instance_placement.items()
            if name == "toy::temp"
        }
        assert placements == {"dram"}

    def test_overhead_positive(self):
        wl, proc, flex = build_env(dram_limit=1 * GiB)
        result = replay_allocations(wl, proc, flex)
        assert result.overhead_s > 0


class TestSubsystemDerivation:
    def test_recorded_placement_agrees_with_address_probe(self):
        """The interposer's recorded landing subsystem agrees with the
        address-range probe for every live allocation — including ones
        the capacity fallback bounced to a different subsystem than the
        matcher designated."""
        wl, proc, flex = build_env(dram_limit=8 * MiB)  # forces fallback
        instances = wl.instances()
        live = []
        for inst in instances:
            stack = proc.callstack(inst.spec.site)
            live.append(flex.malloc(inst.spec.size * wl.ranks, stack))
        assert flex.stats.fallback_capacity >= 1
        for alloc in live:
            assert (
                flex.heaps.heap_of_address(alloc.address).name
                == alloc.heap_name
            )
            assert flex.subsystem_of(alloc.address) == flex.placement_of(
                alloc.address)
