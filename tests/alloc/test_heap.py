"""Tests for the free-list heap allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AddressError, AllocationError, ConfigError
from repro.alloc.heap import ALIGNMENT, FreeListHeap


def heap(capacity=1 << 16, base=0x1000):
    return FreeListHeap("test", base=base, capacity=capacity)


class TestBasicAllocation:
    def test_addresses_within_range(self):
        h = heap()
        a = h.allocate(100)
        assert h.base <= a.address < h.base + h.capacity

    def test_alignment(self):
        h = heap()
        for size in (1, 17, 100, 255):
            assert h.allocate(size).address % ALIGNMENT == 0

    def test_padded_size(self):
        h = heap()
        a = h.allocate(17)
        assert a.padded_size == 32 and a.size == 17

    def test_distinct_addresses(self):
        h = heap()
        addrs = {h.allocate(64).address for _ in range(50)}
        assert len(addrs) == 50

    def test_zero_size_rejected(self):
        with pytest.raises(AllocationError):
            heap().allocate(0)

    def test_exhaustion(self):
        h = heap(capacity=1024)
        h.allocate(1024)
        with pytest.raises(AllocationError):
            h.allocate(1)

    def test_exact_fit(self):
        h = heap(capacity=1024)
        a = h.allocate(1024)
        assert a.padded_size == 1024
        assert h.used == h.capacity


class TestFree:
    def test_free_returns_size(self):
        h = heap()
        a = h.allocate(100)
        assert h.free(a.address) == 100

    def test_double_free_detected(self):
        h = heap()
        a = h.allocate(100)
        h.free(a.address)
        with pytest.raises(AddressError):
            h.free(a.address)

    def test_unknown_address(self):
        with pytest.raises(AddressError):
            heap().free(0xDEAD)

    def test_space_reusable_after_free(self):
        h = heap(capacity=1024)
        a = h.allocate(1024)
        h.free(a.address)
        assert h.allocate(1024).address == a.address

    def test_coalescing_forward_and_backward(self):
        h = heap(capacity=3 * 256)
        a = h.allocate(256)
        b = h.allocate(256)
        c = h.allocate(256)
        h.free(a.address)
        h.free(c.address)
        h.free(b.address)  # should merge with both neighbours
        assert h.allocate(3 * 256)  # whole heap again allocatable


class TestStats:
    def test_high_water_mark(self):
        h = heap()
        a = h.allocate(1000)
        h.free(a.address)
        h.allocate(100)
        assert h.stats.high_water >= 1000

    def test_live_allocations(self):
        h = heap()
        a = h.allocate(10)
        h.allocate(10)
        h.free(a.address)
        assert h.stats.live_allocations == 1
        assert len(h.live_allocations()) == 1

    def test_failed_counter(self):
        h = heap(capacity=64)
        with pytest.raises(AllocationError):
            h.allocate(128)
        assert h.stats.failed == 1


class TestOwnership:
    def test_owns(self):
        h = heap(base=0x1000, capacity=0x100)
        assert h.owns(0x1000) and h.owns(0x10FF)
        assert not h.owns(0xFFF) and not h.owns(0x1100)

    def test_lookup(self):
        h = heap()
        a = h.allocate(64)
        assert h.lookup(a.address) is a
        assert h.lookup(a.address + 1) is None


class TestValidation:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigError):
            FreeListHeap("x", base=0, capacity=0)

    def test_rejects_negative_base(self):
        with pytest.raises(ConfigError):
            FreeListHeap("x", base=-1, capacity=10)

    def test_rejects_range_past_64_bits(self):
        # the free list holds int64 addresses
        with pytest.raises(ConfigError):
            FreeListHeap("x", base=1 << 62, capacity=1 << 62)
        h = FreeListHeap("x", base=(1 << 63) - 4097, capacity=4096)
        assert h.allocate(4096).address == (1 << 63) - 4097


class TestPropertyBased:
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=2048)),
            st.tuples(st.just("free"), st.integers(min_value=0, max_value=30)),
        ),
        max_size=120,
    ))
    @settings(max_examples=60, deadline=None)
    def test_allocator_invariants(self, ops):
        """Random alloc/free interleavings keep the heap consistent:

        - live blocks never overlap,
        - used bytes == sum of live padded sizes,
        - freeing everything restores a fully coalesced heap.
        """
        h = heap(capacity=1 << 15)
        live = []
        for op, arg in ops:
            if op == "alloc":
                try:
                    live.append(h.allocate(arg))
                except AllocationError:
                    pass
            elif live:
                idx = arg % len(live)
                h.free(live.pop(idx).address)
            # invariant: no overlap among live blocks
            spans = sorted((a.address, a.address + a.padded_size) for a in live)
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2
            assert h.used == sum(a.padded_size for a in live)
        for a in live:
            h.free(a.address)
        assert h.used == 0
