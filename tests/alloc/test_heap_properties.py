"""Property-based invariants for the free-list heap (both fit paths).

Hypothesis drives random allocate/free traffic and, after every step,
asserts the structural invariants a first-fit coalescing allocator must
hold — for the vectorized ``allocate`` and the scalar ``allocate_scalar``
alike.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc import FreeListHeap
from repro.alloc.heap import ALIGNMENT
from repro.errors import AllocationError

CAPACITY = 1 << 16
BASE = 1 << 20

# an op is either an allocation size (positive) or a free of the i-th
# oldest live block (encoded negative; modulo the live count at play time)
ops_strategy = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=CAPACITY // 8),
        st.integers(min_value=-64, max_value=-1),
    ),
    min_size=1,
    max_size=120,
)


def run_traffic(heap, allocate, ops):
    live = []
    for op in ops:
        if op < 0:
            if not live:
                continue
            heap.free(live.pop(-op % len(live)))
        else:
            try:
                live.append(allocate(op).address)
            except AllocationError:
                pass
        check_invariants(heap)
    return live


def check_invariants(heap):
    blocks = heap.free_blocks()
    starts = [s for s, _ in blocks]
    sizes = [z for _, z in blocks]

    # address-sorted, disjoint, and no two adjacent blocks left uncoalesced
    assert starts == sorted(starts)
    for (s0, z0), (s1, _) in zip(blocks, blocks[1:]):
        assert s0 + z0 < s1, "overlapping or uncoalesced adjacent blocks"

    # every byte is either used or free
    assert heap.used + sum(sizes) == heap.capacity
    assert all(z > 0 for z in sizes)
    assert all(heap.base <= s < heap.base + heap.capacity for s in starts)

    assert heap.largest_free_block() == max(sizes, default=0)


@pytest.mark.parametrize("path", ["allocate", "allocate_scalar"])
@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_traffic_invariants(path, ops):
    heap = FreeListHeap("prop", base=BASE, capacity=CAPACITY)
    run_traffic(heap, getattr(heap, path), ops)


@pytest.mark.parametrize("path", ["allocate", "allocate_scalar"])
@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy, probe=st.integers(min_value=1, max_value=CAPACITY))
def test_first_fit_returns_lowest_address_fit(path, ops, probe):
    """After arbitrary traffic, an allocation lands at the lowest-address
    free block that fits it (first-fit semantics, both paths)."""
    heap = FreeListHeap("prop", base=BASE, capacity=CAPACITY)
    run_traffic(heap, getattr(heap, path), ops)

    padded = (probe + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT
    expected = next(
        (s for s, z in heap.free_blocks() if z >= padded), None
    )
    if expected is None:
        with pytest.raises(AllocationError):
            getattr(heap, path)(probe)
    else:
        assert getattr(heap, path)(probe).address == expected
        check_invariants(heap)


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_both_paths_agree(ops):
    """The same traffic through the vectorized and scalar paths produces the
    same addresses, the same failures, and the same final free list."""
    fast = FreeListHeap("fast", base=BASE, capacity=CAPACITY)
    slow = FreeListHeap("slow", base=BASE, capacity=CAPACITY)
    live = []
    for op in ops:
        if op < 0:
            if not live:
                continue
            addr = live.pop(-op % len(live))
            assert fast.free(addr) == slow.free(addr)
        else:
            try:
                a = fast.allocate(op)
            except AllocationError:
                with pytest.raises(AllocationError):
                    slow.allocate_scalar(op)
                continue
            assert a.address == slow.allocate_scalar(op).address
            live.append(a.address)
    assert fast.free_blocks() == slow.free_blocks()
