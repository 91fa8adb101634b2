"""Set-associative cache simulator.

The profiling pipeline samples *LLC load misses* (``MEM_LOAD_RETIRED.L3_MISS``)
and *L1D store misses*; the analytic engine uses per-phase miss rates supplied
by the application models.  This module provides an actual cache simulator so
that (a) microbenchmark workloads can produce genuine miss streams and (b)
tests can validate the analytic miss-rate assumptions against a real LRU
set-associative model.

The simulator processes NumPy arrays of addresses.  ``access_stream`` runs
a *round-based* batch kernel: accesses are grouped by set index (stable,
so per-set order is preserved) and round ``k`` processes the ``k``-th
access of every set simultaneously with array operations over the
``(sets, ways)`` state — tag compares across ways, LRU age vectors and
dirty/writeback masks all vectorise because cache sets are independent.
The per-access scalar path (``access`` / ``access_stream_scalar``) is kept
as the reference oracle the equivalence tests and ``tools/perf_bench.py``
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass
class CacheStats:
    """Counters for one simulated cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.accesses += other.accesses
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.writebacks += other.writebacks


class SetAssociativeCache:
    """A write-back, write-allocate, LRU set-associative cache.

    Parameters
    ----------
    size:
        Total capacity in bytes (power of two).
    line_size:
        Cache line size in bytes (power of two, typically 64).
    ways:
        Associativity; ``ways=1`` gives a direct-mapped cache.
    name:
        Label used in stats and error messages.
    """

    def __init__(self, size: int, line_size: int = 64, ways: int = 8, name: str = "cache"):
        if not _is_pow2(size):
            raise ConfigError(f"{name}: size {size} must be a power of two")
        if not _is_pow2(line_size):
            raise ConfigError(f"{name}: line size {line_size} must be a power of two")
        if ways < 1:
            raise ConfigError(f"{name}: ways must be >= 1, got {ways}")
        if size % (line_size * ways) != 0:
            raise ConfigError(
                f"{name}: size {size} not divisible by line_size*ways {line_size * ways}"
            )
        self.name = name
        self.size = size
        self.line_size = line_size
        self.ways = ways
        self.num_sets = size // (line_size * ways)
        if not _is_pow2(self.num_sets):
            raise ConfigError(f"{name}: derived set count {self.num_sets} not a power of two")
        self._line_shift = line_size.bit_length() - 1
        self._set_mask = self.num_sets - 1
        # tags[set][way] = line tag; lru[set][way] = age (0 = most recent)
        self._tags = np.full((self.num_sets, ways), -1, dtype=np.int64)
        self._dirty = np.zeros((self.num_sets, ways), dtype=bool)
        self._lru = np.tile(np.arange(ways, dtype=np.int32), (self.num_sets, 1))
        self.stats = CacheStats()

    # -- single access ------------------------------------------------------

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Access one address; returns ``True`` on hit.

        On a miss the line is allocated (write-allocate); a dirty eviction
        increments ``stats.writebacks``.
        """
        line = addr >> self._line_shift
        set_idx = line & self._set_mask
        tags = self._tags[set_idx]
        lru = self._lru[set_idx]
        self.stats.accesses += 1

        hit_ways = np.nonzero(tags == line)[0]
        if hit_ways.size:
            way = int(hit_ways[0])
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            way = int(np.argmax(lru))  # oldest way
            if tags[way] != -1:
                self.stats.evictions += 1
                if self._dirty[set_idx, way]:
                    self.stats.writebacks += 1
            tags[way] = line
            self._dirty[set_idx, way] = False
        if is_write:
            self._dirty[set_idx, way] = True
        # age update: everything younger than `way` ages by one
        age = lru[way]
        lru[lru < age] += 1
        lru[way] = 0
        return bool(hit_ways.size)

    # -- bulk access --------------------------------------------------------

    def _stream_inputs(
        self, addrs: np.ndarray, writes: "np.ndarray | None"
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        addrs = np.asarray(addrs, dtype=np.int64)
        if writes is None:
            writes = np.zeros(addrs.shape, dtype=bool)
        else:
            writes = np.asarray(writes, dtype=bool)
            if writes.shape != addrs.shape:
                raise ValueError("writes mask shape mismatch")
        lines = addrs >> self._line_shift
        sets = lines & self._set_mask
        return addrs, writes, lines, sets

    def access_stream(self, addrs: np.ndarray, writes: "np.ndarray | None" = None) -> np.ndarray:
        """Simulate a stream of accesses; returns a bool hit-mask.

        ``addrs`` is an integer array of byte addresses; ``writes`` an
        optional bool array of the same length marking stores.

        Cache sets are independent, so the stream is regrouped by set
        (order *within* each set preserved) and processed in rounds:
        round ``k`` handles the ``k``-th access of every active set at
        once with vectorised tag/LRU/dirty updates.  The result — hit
        mask, state and counters — is identical to replaying the stream
        through :meth:`access` one address at a time.
        """
        addrs, writes, lines, sets = self._stream_inputs(addrs, writes)
        n = addrs.shape[0]
        hits = np.empty(n, dtype=bool)
        if n == 0:
            return hits

        # group by set, preserving per-set stream order (radix sort: the
        # set index is a small non-negative int)
        order = np.argsort(sets.astype(np.int32), kind="stable")
        sorted_sets = sets[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_sets[1:] != sorted_sets[:-1]))
        )
        counts = np.diff(np.append(starts, n))
        tags, lru, dirty = self._tags, self._lru, self._dirty
        st = self.stats
        has_writes = bool(writes.any())
        all_rows = np.arange(starts.shape[0])

        for k in range(int(counts.max())):
            active = counts > k
            idx = order[starts[active] + k]  # one access per set: no collisions
            s = sets[idx]
            line = lines[idx]
            m = idx.shape[0]
            rows = all_rows[:m]

            tag_rows = tags[s]                       # (m, ways) gather
            eq = tag_rows == line[:, None]
            hit_way = np.argmax(eq, axis=1)
            hit = eq[rows, hit_way]                  # all-False rows argmax to 0
            miss = ~hit
            lru_rows = lru[s]
            victim = np.argmax(lru_rows, axis=1)     # oldest way per set
            way = np.where(hit, hit_way, victim)

            evict = miss & (tag_rows[rows, victim] != -1)
            st.accesses += m
            st.hits += int(hit.sum())
            st.misses += int(miss.sum())
            st.evictions += int(evict.sum())
            st.writebacks += int((evict & dirty[s, victim]).sum())

            ms, mw = s[miss], way[miss]
            tags[ms, mw] = line[miss]
            dirty[ms, mw] = False
            if has_writes:
                w = writes[idx]
                dirty[s[w], way[w]] = True

            # age update: ways younger than the touched way's age grow by one
            age = lru_rows[rows, way]
            lru_rows += lru_rows < age[:, None]
            lru_rows[rows, way] = 0
            lru[s] = lru_rows

            hits[idx] = hit
        return hits

    def access_stream_scalar(
        self, addrs: np.ndarray, writes: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Reference per-access loop with ``access_stream`` semantics.

        Kept as the oracle the vectorised kernel is benchmarked and
        property-tested against; do not use it on hot paths.
        """
        addrs, writes, lines, sets = self._stream_inputs(addrs, writes)
        hits = np.empty(addrs.shape, dtype=bool)
        tags_all, lru_all, dirty_all = self._tags, self._lru, self._dirty
        st = self.stats
        for i in range(addrs.shape[0]):
            set_idx = sets[i]
            line = lines[i]
            tags = tags_all[set_idx]
            lru = lru_all[set_idx]
            st.accesses += 1
            hit_way = -1
            for w in range(self.ways):
                if tags[w] == line:
                    hit_way = w
                    break
            if hit_way >= 0:
                st.hits += 1
                way = hit_way
                hits[i] = True
            else:
                st.misses += 1
                hits[i] = False
                way = int(np.argmax(lru))
                if tags[way] != -1:
                    st.evictions += 1
                    if dirty_all[set_idx, way]:
                        st.writebacks += 1
                tags[way] = line
                dirty_all[set_idx, way] = False
            if writes[i]:
                dirty_all[set_idx, way] = True
            age = lru[way]
            lru[lru < age] += 1
            lru[way] = 0
        return hits

    def flush(self) -> int:
        """Invalidate every line; returns the number of dirty writebacks."""
        dirty = int(self._dirty.sum())
        self.stats.writebacks += dirty
        self._tags.fill(-1)
        self._dirty.fill(False)
        self._lru[:] = np.tile(np.arange(self.ways, dtype=np.int32), (self.num_sets, 1))
        return dirty

    def resident_lines(self) -> int:
        """Number of currently valid lines (for occupancy assertions)."""
        return int((self._tags != -1).sum())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SetAssociativeCache({self.name}, {self.size}B, "
            f"{self.ways}-way, {self.num_sets} sets)"
        )
