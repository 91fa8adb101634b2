"""Tests for the traffic accounting primitives."""

import pytest

from repro.errors import SimulationError
from repro.runtime.traffic import PlacementTraffic, SegmentTraffic, SubsystemTraffic

from tests.conftest import make_toy_workload, with_serial_fraction


class TestSubsystemTraffic:
    def test_byte_accounting(self):
        t = SubsystemTraffic()
        t.add(loads=10, stores=5)
        assert t.read_bytes == 640
        assert t.write_bytes == 640  # stores move RFO + writeback
        assert t.total_bytes == 1280
        assert t.write_fraction == 0.5

    def test_empty_write_fraction(self):
        assert SubsystemTraffic().write_fraction == 0.0

    def test_serial_subset_of_loads(self):
        t = SubsystemTraffic()
        with pytest.raises(SimulationError):
            t.add(loads=1, serial_loads=2)

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            SubsystemTraffic().add(loads=-1)

    def test_accumulation(self):
        t = SubsystemTraffic()
        t.add(loads=3, stores=1, serial_loads=1)
        t.add(loads=2)
        assert t.loads == 5 and t.stores == 1 and t.serial_loads == 1


class TestSegmentTraffic:
    def test_lazy_subsystems(self):
        seg = SegmentTraffic()
        assert not seg.by_subsystem
        seg.subsystem("dram").add(loads=1)
        assert set(seg.by_subsystem) == {"dram"}

    def test_object_attribution_accumulates(self):
        seg = SegmentTraffic()
        seg.record_object("a", "dram", 10, 1)
        seg.record_object("a", "dram", 5, 0)
        assert seg.by_object[("a", "dram")] == (15, 1)


class TestPlacementTraffic:
    def test_segment_respects_phase_rates(self, toy_workload):
        model = PlacementTraffic(toy_workload, {
            "toy::hot": "dram", "toy::cold": "pmem", "toy::temp": "pmem",
        })
        live = [i for i in toy_workload.instances() if i.overlap(0.0, 1.0) > 0]
        seg = model.segment_traffic(0.0, 1.0, "compute", live)
        hot = toy_workload.object_by_site("toy::hot")
        expected = hot.access["compute"].load_rate * toy_workload.ranks
        assert seg.by_object[("toy::hot", "dram")][0] == pytest.approx(expected)

    def test_unknown_phase_contributes_nothing(self, toy_workload):
        model = PlacementTraffic(toy_workload, {
            "toy::hot": "dram", "toy::cold": "pmem", "toy::temp": "pmem",
        })
        live = list(toy_workload.instances())
        seg = model.segment_traffic(0.0, 1.0, "no-such-phase", live)
        assert not seg.by_subsystem

    def test_serial_loads_propagated(self, toy_workload):
        serial = with_serial_fraction(toy_workload, 0.5)
        model = PlacementTraffic(serial, {
            "toy::hot": "pmem", "toy::cold": "pmem", "toy::temp": "pmem",
        })
        live = [i for i in serial.instances() if i.overlap(0.0, 1.0) > 0]
        seg = model.segment_traffic(0.0, 1.0, "compute", live)
        t = seg.by_subsystem["pmem"]
        assert t.serial_loads > 0
        assert t.serial_loads < t.loads
