"""Tests for the combined proactive+reactive traffic model."""

import pytest

from repro.apps.registry import get_workload
from repro.baselines.tiering import CombinedTraffic, tiering_effective_dram
from repro.memsim.subsystem import pmem2_system, pmem6_system
from repro.runtime.engine import ExecutionEngine
from repro.runtime.stats import run_results_identical
from repro.units import GiB, MiB

from tests.conftest import make_toy_workload


def model_with(placement, effective_dram=1 * GiB, reaction_s=1.0):
    wl = make_toy_workload()
    return wl, CombinedTraffic(wl, effective_dram, placement,
                               reaction_s=reaction_s)


class TestCombinedTraffic:
    def test_statically_placed_objects_skip_warmup(self):
        """An object ecoHMEM put in DRAM is DRAM-hot from t=0."""
        wl, model = model_with({"toy::hot": "dram"})
        live = [i for i in wl.instances() if i.overlap(0.0, 0.2) > 0]
        t = model.segment_traffic(0.0, 0.2, "compute", live)
        d = dict(t.by_object)
        assert ("toy::hot", "pmem") not in d
        assert d[("toy::hot", "dram")][0] > 0

    def test_unplaced_objects_still_warm_up(self):
        wl, model = model_with({})  # nothing proactively placed
        live = [i for i in wl.instances() if i.overlap(0.0, 0.2) > 0]
        t = model.segment_traffic(0.0, 0.2, "compute", live)
        d = dict(t.by_object)
        # inside the reaction window: promoted objects still hit PMem
        assert any(sub == "pmem" for (_n, sub) in d)

    def test_migration_traffic_smaller_with_placement(self):
        """Static placement shrinks the pages the kernel must copy."""
        wl1, unplaced = model_with({})
        wl2, placed = model_with({"toy::hot": "dram", "toy::cold": "dram"})
        live1 = [i for i in wl1.instances() if i.overlap(0.0, 1.0) > 0]
        live2 = [i for i in wl2.instances() if i.overlap(0.0, 1.0) > 0]
        t1 = unplaced.segment_traffic(0.0, 1.0, "compute", live1)
        t2 = placed.segment_traffic(0.0, 1.0, "compute", live2)
        # migration shows up as extra pmem loads (page reads)
        assert (t1.subsystem("pmem").loads > t2.subsystem("pmem").loads)

    def test_label(self):
        _, model = model_with({})
        assert model.label == "combined-proactive-reactive"


class TestCombinedPack:
    """``CombinedTraffic`` subclasses ``TieringTraffic`` but routes
    statically placed sites to DRAM: its native pack must be its own, not
    the tiering pack it would otherwise inherit."""

    @pytest.mark.parametrize("app,system_factory", [
        ("lulesh", pmem6_system),
        ("openfoam", pmem2_system),
    ], ids=["lulesh-pmem6", "openfoam-pmem2"])
    def test_run_matches_scalar(self, app, system_factory):
        wl = get_workload(app)
        system = system_factory()
        eff = tiering_effective_dram(system.get("dram").capacity,
                                     system.get("pmem").capacity)
        # every other site proactively in DRAM, short warm-up so promoted
        # objects also reach DRAM within a phase
        placement = {obj.site.name: ("dram" if i % 2 else "pmem")
                     for i, obj in enumerate(wl.objects)}

        def model():
            return CombinedTraffic(wl, eff, placement, reaction_s=0.3)

        engine = ExecutionEngine(wl, system)
        assert run_results_identical(
            engine.run(model()), engine.run_scalar(model())) == []
