"""Tests for the ProfDP baseline."""

import pytest

from repro.advisor.model import MemObject
from repro.baselines.profdp import (
    ALL_VARIANTS, ProfDPAggregation, ProfDPMetric, ProfDPVariant,
    profdp_placement, profdp_scores,
)
from repro.errors import PlacementError
from repro.memsim.subsystem import pmem6_system
from repro.units import GiB, MiB


def obj(key, size_mb, loads, stores=0.0, alloc_count=1):
    return MemObject(
        site_key=(key,), size=int(size_mb * MiB), alloc_count=alloc_count,
        load_misses=loads, store_misses=stores,
        first_alloc=0.0, last_free=10.0, total_live_time=10.0,
    )


@pytest.fixture
def system():
    return pmem6_system()


class TestScores:
    def test_latency_metric_follows_loads(self, system):
        objects = {("hot",): obj("hot", 10, loads=1e8),
                   ("cold",): obj("cold", 10, loads=1e4)}
        v = ProfDPVariant(ProfDPMetric.LATENCY, ProfDPAggregation.AVERAGE)
        scores = profdp_scores(objects, system, v)
        assert scores[("hot",)] > scores[("cold",)]

    def test_bandwidth_metric_counts_stores(self, system):
        objects = {("w",): obj("w", 10, loads=1e4, stores=1e8),
                   ("r",): obj("r", 10, loads=1e4)}
        v = ProfDPVariant(ProfDPMetric.BANDWIDTH, ProfDPAggregation.AVERAGE)
        scores = profdp_scores(objects, system, v)
        assert scores[("w",)] > scores[("r",)]

    def test_four_variants(self):
        assert len(ALL_VARIANTS) == 4
        assert len({v.label for v in ALL_VARIANTS}) == 4


class TestPlacement:
    def test_no_density_normalization(self, system):
        """ProfDP's documented flaw: a huge object with the top absolute
        score hogs DRAM even when small dense objects would be better."""
        objects = {
            ("huge",): obj("huge", 4000, loads=2e8),
            ("dense",): obj("dense", 10, loads=1.9e8),
        }
        p = profdp_placement(objects, system, ALL_VARIANTS[0],
                             dram_limit=int(3.91 * GiB))
        assert p.get(("huge",)) == "dram"
        assert p.get(("dense",)) == "pmem"  # no room left

    def test_capacity_respected(self, system):
        objects = {(f"o{i}",): obj(f"o{i}", 100, loads=1e6 * (i + 1))
                   for i in range(20)}
        p = profdp_placement(objects, system, ALL_VARIANTS[0],
                             dram_limit=500 * MiB)
        dram_bytes = sum(objects[k].size for k in objects if p.get(k) == "dram")
        assert dram_bytes <= 500 * MiB

    def test_zero_score_objects_not_placed(self, system):
        objects = {("idle",): obj("idle", 1, loads=0.0)}
        p = profdp_placement(objects, system, ALL_VARIANTS[0], dram_limit=1 * GiB)
        assert p.get(("idle",)) == "pmem"

    def test_bad_limit_rejected(self, system):
        with pytest.raises(PlacementError):
            profdp_placement({}, system, ALL_VARIANTS[0], dram_limit=0)

    def test_all_variants_produce_placements(self, system):
        objects = {(f"o{i}",): obj(f"o{i}", 50, loads=1e6 * (i + 1),
                                   stores=1e5 * (5 - i), alloc_count=1 + i * 3)
                   for i in range(5)}
        placements = {
            v: profdp_placement(objects, system, v, dram_limit=1 * GiB, ranks=4)
            for v in ALL_VARIANTS
        }
        assert len(placements) == 4

    def test_sum_vs_average_can_differ(self, system):
        """Rank-presence jitter makes sum and average genuinely different
        rankings for frequently-allocated objects."""
        objects = {(f"o{i}",): obj(f"o{i}", 10, loads=1e7,
                                   alloc_count=1 if i < 3 else 40)
                   for i in range(6)}
        sum_p = profdp_placement(
            objects, system,
            ProfDPVariant(ProfDPMetric.LATENCY, ProfDPAggregation.SUM),
            dram_limit=200 * MiB, ranks=16)
        avg_p = profdp_placement(
            objects, system,
            ProfDPVariant(ProfDPMetric.LATENCY, ProfDPAggregation.AVERAGE),
            dram_limit=200 * MiB, ranks=16)
        sum_dram = {k for k in objects if sum_p.get(k) == "dram"}
        avg_dram = {k for k in objects if avg_p.get(k) == "dram"}
        # not asserting inequality (seed-dependent), but both are valid
        assert sum_dram and avg_dram
