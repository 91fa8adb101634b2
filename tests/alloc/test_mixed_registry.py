"""Heap registry over three-tier systems."""

from repro.alloc import FlexMalloc, build_heaps
from repro.binary.callstack import CallStack
from repro.memsim.subsystem import hbm_dram_pmem_system
from repro.units import GiB

STACK = CallStack.from_addresses([0xCAFE])


class TestThreeTierHeaps:
    def test_build_creates_three_heaps(self):
        reg = build_heaps(hbm_dram_pmem_system(), dram_limit=4 * GiB)
        assert set(reg.subsystems) == {"hbm", "dram", "pmem"}

    def test_fallback_routing(self):
        reg = build_heaps(hbm_dram_pmem_system())
        fm = FlexMalloc(reg, matcher=None, fallback="pmem")
        a = fm.malloc(1024, STACK)
        assert fm.subsystem_of(a.address) == "pmem"

    def test_ranges_disjoint_across_three(self):
        reg = build_heaps(hbm_dram_pmem_system())
        allocs = [reg.get(s).allocate(64) for s in ("hbm", "dram", "pmem")]
        owners = [reg.heap_of_address(a.address).subsystem for a in allocs]
        assert owners == ["hbm", "dram", "pmem"]
