"""Tests for the heap kinds and the per-subsystem registry."""

import pytest

from repro.errors import ConfigError
from repro.alloc.memkind import (
    HeapRegistry, MemkindPmemHeap, PosixHeap, build_heaps,
)
from repro.memsim.subsystem import pmem6_system
from repro.units import GiB, MiB


class TestHeapKinds:
    def test_posix_cheap_memkind_costly(self):
        p = PosixHeap(base=0, capacity=1 * MiB)
        m = MemkindPmemHeap(base=1 * MiB, capacity=1 * MiB)
        assert p.alloc_cost_ns < m.alloc_cost_ns


class TestRegistry:
    def test_build_from_system(self):
        reg = build_heaps(pmem6_system())
        assert set(reg.subsystems) == {"dram", "pmem"}
        assert isinstance(reg.get("dram"), PosixHeap)
        assert isinstance(reg.get("pmem"), MemkindPmemHeap)

    def test_dram_limit_applied(self):
        reg = build_heaps(pmem6_system(), dram_limit=4 * GiB)
        assert reg.get("dram").capacity == 4 * GiB

    def test_dram_limit_validated(self):
        with pytest.raises(ConfigError):
            build_heaps(pmem6_system(), dram_limit=0)

    def test_address_ownership_unambiguous(self):
        reg = build_heaps(pmem6_system(), dram_limit=1 * GiB)
        d = reg.get("dram").allocate(64)
        p = reg.get("pmem").allocate(64)
        assert reg.heap_of_address(d.address).subsystem == "dram"
        assert reg.heap_of_address(p.address).subsystem == "pmem"
        assert reg.heap_of_address(0x1) is None

    def test_unknown_subsystem(self):
        reg = build_heaps(pmem6_system())
        with pytest.raises(KeyError):
            reg.get("hbm")

    def test_duplicate_subsystem_rejected(self):
        h1 = PosixHeap(base=0, capacity=1 * MiB, subsystem="dram")
        h2 = PosixHeap(base=2 * MiB, capacity=1 * MiB, subsystem="dram")
        with pytest.raises(ConfigError):
            HeapRegistry([h1, h2])

    def test_empty_registry_rejected(self):
        with pytest.raises(ConfigError):
            HeapRegistry([])
