"""Tests for the memory-mode DRAM cache hit-ratio model."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.memsim.dram_cache import memory_mode_hit_ratio
from repro.units import GiB


class TestAnalyticHitRatio:
    def test_fits_entirely(self):
        h = memory_mode_hit_ratio(1 * GiB, 16 * GiB, reuse_locality=0.9)
        assert h > 0.85

    def test_thrashing(self):
        h = memory_mode_hit_ratio(64 * GiB, 16 * GiB, reuse_locality=0.9)
        assert h < 0.35

    def test_monotone_in_working_set(self):
        sizes = [1, 4, 8, 16, 24, 48, 96]
        hits = [
            memory_mode_hit_ratio(s * GiB, 16 * GiB, reuse_locality=0.8)
            for s in sizes
        ]
        assert all(a >= b for a, b in zip(hits, hits[1:]))

    def test_zero_working_set(self):
        assert memory_mode_hit_ratio(0, 16 * GiB, reuse_locality=0.7) == 0.7

    def test_conflicts_reduce_hits(self):
        lo = memory_mode_hit_ratio(8 * GiB, 16 * GiB, conflict_pressure=0.1)
        hi = memory_mode_hit_ratio(8 * GiB, 16 * GiB, conflict_pressure=0.5)
        assert hi < lo

    @pytest.mark.parametrize("kwargs", [
        {"working_set": -1, "dram_bytes": 1},
        {"working_set": 1, "dram_bytes": 0},
        {"working_set": 1, "dram_bytes": 1, "reuse_locality": 1.5},
        {"working_set": 1, "dram_bytes": 1, "conflict_pressure": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            memory_mode_hit_ratio(**kwargs)

    @given(
        ws=st.floats(min_value=0, max_value=1e12),
        cache=st.floats(min_value=1e6, max_value=1e11),
        loc=st.floats(min_value=0, max_value=1),
        conf=st.floats(min_value=0, max_value=1),
    )
    def test_always_a_probability(self, ws, cache, loc, conf):
        h = memory_mode_hit_ratio(ws, cache, reuse_locality=loc,
                                  conflict_pressure=conf)
        assert 0.0 <= h <= 1.0
