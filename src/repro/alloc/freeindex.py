"""Address-ordered max-free-size index for the free-list heaps.

:class:`FreeIndex` accelerates the first-fit scan in
:class:`~repro.alloc.heap.FreeListHeap`: it maintains the heap's free
blocks in address order with a *max free size* aggregate over every
subtree, so "the lowest-address block with at least ``need`` bytes" — the
exact block the linear scan returns — is found by a single left-biased
descent in O(log n), and every free-list mutation (shrink-in-place on
allocate, insert/merge on free) updates the aggregate along one root-leaf
path.

Structurally this is the segment-tree aggregate (max over the
address-sorted blocks) carried on a treap rather than on a flat array:
the set of free blocks gains and loses members at arbitrary address
ranks on every allocate/free, which a fixed-leaf segment tree cannot
absorb in O(log n), while a priority-balanced tree gives the same
leftmost-fit descent over a mutating key set.  Priorities derive from a
splitmix64 mix of the block address, so the shape is deterministic for a
given operation history — independent of ``PYTHONHASHSEED`` and of the
process — which the bit-identical replay differential relies on.

The index never owns the free list: :class:`FreeListHeap` keeps its
sorted ``(starts, sizes)`` arrays as ground truth (the scalar oracle
``allocate_scalar`` scans them directly) and mirrors every mutation into
the index.  :meth:`check` verifies the mirror in the property suite.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import AddressError

_MASK64 = (1 << 64) - 1


def _priority(start: int) -> int:
    """Deterministic 64-bit priority for a block address (splitmix64 mix)."""
    x = (start + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class _Node:
    __slots__ = ("start", "size", "prio", "max_size", "left", "right")

    def __init__(self, start: int, size: int):
        self.start = start
        self.size = size
        self.prio = _priority(start)
        self.max_size = size
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None


def _pull(node: _Node) -> None:
    """Recompute the subtree max aggregate from the children."""
    m = node.size
    left, right = node.left, node.right
    if left is not None and left.max_size > m:
        m = left.max_size
    if right is not None and right.max_size > m:
        m = right.max_size
    node.max_size = m


def _rotate_right(node: _Node) -> _Node:
    top = node.left
    node.left = top.right
    top.right = node
    _pull(node)
    _pull(top)
    return top


def _rotate_left(node: _Node) -> _Node:
    top = node.right
    node.right = top.left
    top.left = node
    _pull(node)
    _pull(top)
    return top


class FreeIndex:
    """Max-free-size index over a heap's free blocks, ordered by address."""

    def __init__(self) -> None:
        self._root: Optional[_Node] = None
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # -- queries -------------------------------------------------------------

    def first_fit(self, need: int) -> Optional[int]:
        """Address of the lowest-address block with ``size >= need``.

        The left-biased descent visits the leftmost (lowest-address)
        fitting block: a subtree is entered only if its aggregate says a
        fitting block exists, and the left subtree — every block at a
        lower address — is always preferred over the node and the node
        over the right subtree.
        """
        node = self._root
        if node is None or node.max_size < need:
            return None
        while True:
            left = node.left
            if left is not None and left.max_size >= need:
                node = left
            elif node.size >= need:
                return node.start
            else:
                node = node.right

    def largest(self) -> int:
        """The largest block size (0 when empty): the root's aggregate."""
        return self._root.max_size if self._root is not None else 0

    # -- mutations ------------------------------------------------------------

    def insert(self, start: int, size: int) -> None:
        """Add a new free block (its address must not already be present)."""
        self._root = self._insert(self._root, _Node(start, size))
        self._count += 1

    def _insert(self, node: Optional[_Node], new: _Node) -> _Node:
        if node is None:
            return new
        if new.start == node.start:
            raise AddressError(
                f"free index: duplicate block at {new.start:#x}"
            )
        if new.start < node.start:
            node.left = self._insert(node.left, new)
            if node.left.prio > node.prio:
                return _rotate_right(node)
        else:
            node.right = self._insert(node.right, new)
            if node.right.prio > node.prio:
                return _rotate_left(node)
        _pull(node)
        return node

    def remove(self, start: int) -> None:
        """Drop the block starting at ``start``."""
        self._root = self._remove(self._root, start)
        self._count -= 1

    def _remove(self, node: Optional[_Node], start: int) -> Optional[_Node]:
        if node is None:
            raise AddressError(f"free index: no block at {start:#x}")
        if start < node.start:
            node.left = self._remove(node.left, start)
        elif start > node.start:
            node.right = self._remove(node.right, start)
        else:
            return self._merge(node.left, node.right)
        _pull(node)
        return node

    def _merge(self, a: Optional[_Node], b: Optional[_Node]) -> Optional[_Node]:
        if a is None:
            return b
        if b is None:
            return a
        if a.prio > b.prio:
            a.right = self._merge(a.right, b)
            _pull(a)
            return a
        b.left = self._merge(a, b.left)
        _pull(b)
        return b

    def shrink(self, start: int, new_start: int, new_size: int) -> None:
        """First-fit carve: the block at ``start`` loses its head in place.

        Allocation from a free block moves its start *up* without crossing
        the next block, so the node keeps its rank in address order and
        only the aggregates along the search path need refreshing — no
        structural change.  (The node also keeps its priority; priorities
        are independent of keys, so the heap shape stays valid.)
        """
        if not start <= new_start:
            raise AddressError(
                f"free index: shrink may not move {start:#x} down to "
                f"{new_start:#x}"
            )
        self._set(self._root, start, new_start, new_size)

    def resize(self, start: int, new_size: int) -> None:
        """Coalesce-with-preceding: the block at ``start`` grows in place."""
        self._set(self._root, start, start, new_size)

    def _set(self, node: Optional[_Node], start: int,
             new_start: int, new_size: int) -> None:
        if node is None:
            raise AddressError(f"free index: no block at {start:#x}")
        if start < node.start:
            self._set(node.left, start, new_start, new_size)
        elif start > node.start:
            self._set(node.right, start, new_start, new_size)
        else:
            node.start = new_start
            node.size = new_size
        _pull(node)

    # -- verification ----------------------------------------------------------

    def blocks(self) -> List[Tuple[int, int]]:
        """All (start, size) blocks in address order (the in-order walk)."""
        out: List[Tuple[int, int]] = []
        stack: List[_Node] = []
        node = self._root
        while node is not None or stack:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            out.append((node.start, node.size))
            node = node.right
        return out

    def check(self) -> None:
        """Assert the BST order, heap property and max aggregates."""

        def walk(node: Optional[_Node],
                 lo: Optional[int], hi: Optional[int]) -> int:
            if node is None:
                return 0
            if lo is not None and node.start <= lo:
                raise AssertionError("free index: address order violated")
            if hi is not None and node.start >= hi:
                raise AssertionError("free index: address order violated")
            for child in (node.left, node.right):
                if child is not None and child.prio > node.prio:
                    raise AssertionError("free index: heap order violated")
            expected = max(
                node.size,
                walk_max(node.left),
                walk_max(node.right),
            )
            if node.max_size != expected:
                raise AssertionError("free index: stale max aggregate")
            return (1 + walk(node.left, lo, node.start)
                    + walk(node.right, node.start, hi))

        def walk_max(node: Optional[_Node]) -> int:
            return node.max_size if node is not None else 0

        count = walk(self._root, None, None)
        if count != self._count:
            raise AssertionError(
                f"free index: count {self._count} != {count} nodes"
            )
