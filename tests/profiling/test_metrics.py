"""Tests for derived profiling metrics (bandwidth, regions)."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.profiling.metrics import (
    LINE_BYTES, BandwidthRegion, bandwidth_region, object_bandwidth,
)
from repro.profiling.paramedir import SiteProfile


def profile(loads=1000.0, stores=0.0, live=10.0):
    return SiteProfile(site_key=("s",), largest_alloc=100, alloc_count=1,
                       load_misses=loads, store_misses=stores,
                       first_alloc=0.0, last_free=live,
                       total_live_time=live)


class TestObjectBandwidth:
    def test_loads_only(self):
        p = profile(loads=1000, live=10)
        assert object_bandwidth(p) == 1000 * LINE_BYTES / 10

    def test_stores_counted(self):
        p = profile(loads=0, stores=500, live=5)
        assert object_bandwidth(p) == 500 * LINE_BYTES / 5

    def test_ranks_scale(self):
        p = profile(loads=100, live=1)
        assert object_bandwidth(p, ranks=8) == 8 * object_bandwidth(p)

    def test_zero_live_time(self):
        p = replace(profile(live=10), total_live_time=0.0)
        assert object_bandwidth(p) == 0.0

    def test_ranks_validated(self):
        with pytest.raises(ConfigError):
            object_bandwidth(profile(), ranks=0)


class TestBandwidthRegion:
    @pytest.mark.parametrize("demand,expected", [
        (0.0, BandwidthRegion.LOW),
        (19.9, BandwidthRegion.LOW),
        (20.1, BandwidthRegion.MID),
        (39.9, BandwidthRegion.MID),
        (40.1, BandwidthRegion.HIGH),
        (99.0, BandwidthRegion.HIGH),
    ])
    def test_table2_thresholds(self, demand, expected):
        assert bandwidth_region(demand, peak=100.0) is expected

    def test_custom_thresholds(self):
        assert bandwidth_region(30.0, 100.0, low=0.35, high=0.5) is \
            BandwidthRegion.LOW

    def test_validation(self):
        with pytest.raises(ConfigError):
            bandwidth_region(1.0, peak=0.0)
        with pytest.raises(ConfigError):
            bandwidth_region(1.0, peak=10.0, low=0.5, high=0.4)
