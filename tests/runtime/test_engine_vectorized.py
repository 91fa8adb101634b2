"""Differential suite: the batched engine against its scalar oracle.

``ExecutionEngine.run`` must reproduce ``run_scalar`` bit for bit — every
float compared with ``==``, every dict in the same key order — across all
traffic models, several memory systems, and real workloads.  The building
blocks (segmentation arrays, batched latency curves, batched timeline
accumulation) each get their own exactness test so a regression points at
the layer that broke.
"""

import copy

import numpy as np
import pytest

from repro.apps.registry import get_workload, list_workloads
from repro.baselines.memory_mode import MemoryModeTraffic
from repro.baselines.tiering import (
    CombinedTraffic,
    TieringTraffic,
    tiering_effective_dram,
)
from repro.memsim.bandwidth import BandwidthTimeline
from repro.memsim.subsystem import (
    hbm_dram_pmem_system,
    pmem2_system,
    pmem6_system,
)
from repro.runtime.engine import FIXED_POINT_ITERS, ExecutionEngine
from repro.runtime.plan import plan_for
from repro.runtime.segments import build_segment_arrays
from repro.runtime.stats import RunResult, run_results_identical
from repro.runtime.traffic import (
    PlacementTraffic,
    SegmentTraffic,
    pack_traffic_batch,
    traffic_batches_identical,
)
from repro.units import GiB, MiB

from tests.conftest import make_toy_workload


def checkerboard_placement(workload, names):
    """A deterministic placement cycling sites over the system's tiers,
    with the first multi-instance site's second instance overridden to a
    different tier (so the ``instance_placement`` path is exercised)."""
    placement = {
        obj.site.name: names[i % len(names)]
        for i, obj in enumerate(workload.objects)
    }
    overrides = {}
    for obj in workload.objects:
        if obj.alloc_count > 1:
            current = placement[obj.site.name]
            overrides[(obj.site.name, 1)] = next(
                n for n in names if n != current
            )
            break
    return placement, overrides


def assert_runs_identical(workload, system, make_model):
    """Run both engine paths on fresh model instances; demand [] mismatches.

    Fresh models matter: the baselines accumulate side effects per
    ``segment_traffic`` call (hit-ratio history, promotion caches), so
    sharing one instance across both runs would double them.
    """
    engine = ExecutionEngine(workload, system)
    vec = engine.run(make_model())
    sca = engine.run_scalar(make_model())
    assert run_results_identical(vec, sca) == []


class TestAppDirectDifferential:
    @pytest.mark.parametrize("system_factory", [
        pmem6_system, pmem2_system, hbm_dram_pmem_system,
    ])
    def test_toy_workload(self, system_factory):
        wl = make_toy_workload()
        system = system_factory()
        placement, overrides = checkerboard_placement(wl, system.names)
        assert_runs_identical(
            wl, system, lambda: PlacementTraffic(wl, placement, overrides)
        )

    def test_minife(self):
        wl = get_workload("minife")
        system = pmem6_system()
        placement, overrides = checkerboard_placement(wl, system.names)
        assert_runs_identical(
            wl, system, lambda: PlacementTraffic(wl, placement, overrides)
        )

    def test_openfoam_on_pmem2(self):
        """openfoam/pmem2 produces a segment whose positive duration is
        below the float resolution at its start time — the regression that
        forced the sub-epsilon timeline guard."""
        wl = get_workload("openfoam")
        system = pmem2_system()
        placement, overrides = checkerboard_placement(wl, system.names)
        assert_runs_identical(
            wl, system, lambda: PlacementTraffic(wl, placement, overrides)
        )

    def test_lulesh_three_tier(self):
        wl = get_workload("lulesh")
        system = hbm_dram_pmem_system()
        placement, overrides = checkerboard_placement(wl, system.names)
        assert_runs_identical(
            wl, system, lambda: PlacementTraffic(wl, placement, overrides)
        )

    @pytest.mark.parametrize("workload_name,system_factory", [
        ("cloverleaf3d", pmem6_system),
        ("lammps", pmem2_system),
        ("minimd", pmem2_system),
    ], ids=["cloverleaf3d-pmem6", "lammps-pmem2", "minimd-pmem2"])
    def test_rows_unconverged_at_iteration_cap(self, workload_name,
                                               system_factory, monkeypatch):
        """Cells where some rows are still moving when the fixed point
        hits ``FIXED_POINT_ITERS``: converged rows must stay frozen while
        the capped rows keep their last damped step, as in the scalar
        loop."""
        wl = get_workload(workload_name)
        system = system_factory()
        placement, overrides = checkerboard_placement(wl, system.names)

        def model():
            return PlacementTraffic(wl, placement, overrides)

        assert_runs_identical(wl, system, model)
        capped = ExecutionEngine(wl, system).run(model()).total_time
        monkeypatch.setattr("repro.runtime.engine.FIXED_POINT_ITERS",
                            FIXED_POINT_ITERS + 1)
        assert ExecutionEngine(wl, system).run(model()).total_time != capped


class _ScalarOnly:
    """A traffic model with ``segment_traffic`` and no ``traffic_batch``,
    so the engine packs it through the generic per-segment replay."""

    def __init__(self, model):
        self._model = model
        self.label = model.label

    def segment_traffic(self, lo, hi, phase_name, live):
        return self._model.segment_traffic(lo, hi, phase_name, live)


def baseline_models(wl, system, half):
    """Memory Mode, tiering and combined factories for one grid cell.

    ``half`` shrinks the DRAM cache and the tiering budget to half the
    heap high-water mark (so residency and promotion are both partial)
    and shortens the reaction window (so warm-up shares vary within a
    phase and some promoted objects reach DRAM before a phase ends).
    """
    small = max(wl.heap_high_water() // 2, 1 * MiB)
    cache = small if half else system.get("dram").capacity
    eff = small if half else tiering_effective_dram(
        system.get("dram").capacity, system.get("pmem").capacity)
    reaction_s = 0.3 if half else 1.5
    placement, _ = checkerboard_placement(wl, system.names)
    return {
        "memory-mode": lambda: MemoryModeTraffic(wl, cache),
        "tiering": lambda: TieringTraffic(wl, eff, reaction_s=reaction_s),
        "combined": lambda: CombinedTraffic(wl, eff, placement,
                                            reaction_s=reaction_s),
    }


class TestBaselineDifferential:
    """The baselines pack natively: Memory Mode, tiering and combined
    build their ``TrafficBatch`` from columns of the (segment, instance)
    pairs.  Each native pack must equal the generic per-segment replay of
    the same model's scalar ``segment_traffic`` (``pack_traffic_batch``)
    field for field, with the same side effects, over every app, system
    and cache size; ``run`` against ``run_scalar`` then checks the engine
    end to end, and a model without ``traffic_batch`` keeps the generic
    packer proven."""

    @pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
    @pytest.mark.parametrize("system_factory", [
        pmem6_system, pmem2_system, hbm_dram_pmem_system,
    ], ids=["pmem6", "pmem2", "hbm-dram-pmem"])
    @pytest.mark.parametrize("app", list_workloads())
    def test_native_pack_matches_generic(self, app, system_factory, half):
        wl = get_workload(app)
        system = system_factory()
        plan = plan_for(wl)
        segments = plan.segments
        for kind, make in baseline_models(wl, system, half).items():
            native, generic = make(), make()
            assert traffic_batches_identical(
                native.traffic_batch(plan, system.names),
                pack_traffic_batch(generic, wl, segments, system.names),
            ) == [], kind
            if kind == "memory-mode":
                assert native.mean_hit_ratio() == generic.mean_hit_ratio()
            else:
                assert native._promoted_cache == generic._promoted_cache
                assert list(native._promoted_cache) == list(
                    generic._promoted_cache)

    @pytest.mark.parametrize("workload_name", [None, "minife"])
    def test_memory_mode(self, workload_name):
        wl = (get_workload(workload_name) if workload_name
              else make_toy_workload())
        system = pmem6_system()
        cache = max(wl.heap_high_water() // 2, 1 * MiB)
        assert_runs_identical(
            wl, system, lambda: MemoryModeTraffic(wl, cache)
        )

    @pytest.mark.parametrize("workload_name", [None, "minife"])
    def test_tiering(self, workload_name):
        wl = (get_workload(workload_name) if workload_name
              else make_toy_workload())
        system = pmem6_system()
        eff = tiering_effective_dram(
            system.get("dram").capacity, system.get("pmem").capacity
        )
        assert_runs_identical(
            wl, system, lambda: TieringTraffic(wl, eff)
        )

    def test_combined(self):
        wl = make_toy_workload()
        system = pmem6_system()
        eff = tiering_effective_dram(
            system.get("dram").capacity, system.get("pmem").capacity
        )
        placement, _ = checkerboard_placement(wl, system.names)
        assert_runs_identical(
            wl, system, lambda: CombinedTraffic(wl, eff, placement)
        )

    @pytest.mark.parametrize("kind", ["memory-mode", "tiering"])
    def test_lulesh_run(self, kind):
        wl = get_workload("lulesh")
        system = pmem6_system()
        assert_runs_identical(
            wl, system, baseline_models(wl, system, half=False)[kind])

    @pytest.mark.parametrize("kind", ["memory-mode", "tiering", "combined"])
    def test_generic_packer(self, kind):
        wl = get_workload("minife")
        system = pmem2_system()
        make = baseline_models(wl, system, half=True)[kind]
        assert not hasattr(_ScalarOnly(make()), "traffic_batch")
        engine = ExecutionEngine(wl, system)
        generic = engine.run(_ScalarOnly(make()))
        assert run_results_identical(generic, engine.run(make())) == []
        assert run_results_identical(
            generic, engine.run_scalar(make())) == []

    def test_reused_model_matches_scalar_side_effects(self):
        """A model packed twice keeps accumulating like the scalar path:
        hit ratios append, promotion sets come from the cache."""
        wl = get_workload("minife")
        system = pmem6_system()
        plan = plan_for(wl)
        segments = plan.segments
        for make in baseline_models(wl, system, half=True).values():
            native, generic = make(), make()
            for _ in range(2):
                assert traffic_batches_identical(
                    native.traffic_batch(plan, system.names),
                    pack_traffic_batch(generic, wl, segments, system.names),
                ) == []
            if isinstance(native, MemoryModeTraffic):
                assert native.mean_hit_ratio() == generic.mean_hit_ratio()


class TestSegmentArrays:
    @pytest.mark.parametrize("workload_name", [None, "minife", "lulesh"])
    def test_matches_scalar_segmentation(self, workload_name):
        wl = (get_workload(workload_name) if workload_name
              else make_toy_workload())
        engine = ExecutionEngine(wl, pmem6_system())
        sa = build_segment_arrays(wl)
        segments = engine._segments
        assert sa.num_segments == len(segments)
        key_of = {}
        for n, inst in enumerate(sa.instances):
            key_of[(inst.spec.site.name, inst.index, inst.start, inst.end)] = n
        pair = 0
        for s, seg in enumerate(segments):
            assert sa.seg_lo[s] == seg.lo
            assert sa.seg_hi[s] == seg.hi
            assert wl.spans[sa.span_idx[s]] is seg.phase
            for inst in seg.live:
                n = key_of[(inst.spec.site.name, inst.index,
                            inst.start, inst.end)]
                assert sa.pair_seg[pair] == s
                assert sa.pair_inst[pair] == n
                pair += 1
        assert pair == sa.pair_seg.size


class TestBatchedLatency:
    @pytest.mark.parametrize("system_factory", [
        pmem6_system, pmem2_system, hbm_dram_pmem_system,
    ])
    def test_matches_scalar_curve(self, system_factory):
        system = system_factory()
        for sub in (system.get(n) for n in system.names):
            bw = np.concatenate([
                np.linspace(0.0, 2.0 * sub.peak_read_bw, 97),
                np.array([sub.peak_read_bw * 0.92, sub.peak_read_bw]),
            ])
            for wf in (0.0, 0.2, 0.5, 0.9, 1.0):
                batched = sub.read_latency_ns_batch(
                    bw, np.full(bw.size, wf)
                )
                scalar = [sub.read_latency_ns(b, wf) for b in bw]
                assert batched.tolist() == scalar


class TestBatchedTimeline:
    def test_matches_sequential_add(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            duration = float(rng.uniform(1.0, 20.0))
            n = int(rng.integers(1, 40))
            starts = rng.uniform(-1.0, duration, n)
            ends = starts + rng.uniform(1e-9, duration / 2, n)
            nbytes = rng.uniform(0.0, 1e9, n)
            a = BandwidthTimeline(duration=duration, resolution=0.05)
            b = BandwidthTimeline(duration=duration, resolution=0.05)
            for s, e, v in zip(starts, ends, nbytes):
                a.add_traffic("pmem", float(s), float(e), float(v))
            b.add_traffic_batch("pmem", starts, ends, nbytes)
            assert np.array_equal(a._bins["pmem"], b._bins["pmem"])

    def test_rejects_empty_interval(self):
        tl = BandwidthTimeline(duration=1.0, resolution=0.1)
        with pytest.raises(ValueError, match="empty interval"):
            tl.add_traffic_batch(
                "pmem", np.array([0.5]), np.array([0.5]), np.array([1.0])
            )


class TestByteMajoritySubsystem:
    """Satellite: ``ObjectRunStats.subsystem`` reports where the *bytes*
    went, not just the designated placement — a capacity fallback that
    splits a site's instances across tiers must surface the majority."""

    def _split_run(self, scalar):
        wl = make_toy_workload(iterations=5)
        system = pmem6_system()
        placement = {"toy::hot": "dram", "toy::cold": "pmem",
                     "toy::temp": "dram"}
        # 3 of toy::temp's 5 identical instances land in PMem, as if the
        # DRAM heap bounced them mid-run: PMem holds the byte majority
        overrides = {("toy::temp", i): "pmem" for i in (1, 2, 3)}
        engine = ExecutionEngine(wl, system)
        run = engine.run_scalar if scalar else engine.run
        return run(PlacementTraffic(wl, placement, overrides))

    @pytest.mark.parametrize("scalar", [False, True])
    def test_majority_wins(self, scalar):
        res = self._split_run(scalar)
        assert res.objects["toy::temp"].subsystem == "pmem"
        assert res.objects["toy::hot"].subsystem == "dram"
        assert res.objects["toy::cold"].subsystem == "pmem"

    def test_paths_agree(self):
        assert run_results_identical(
            self._split_run(False), self._split_run(True)
        ) == []


class TestZeroLengthSegments:
    """Satellite: segments with no extent spread no timeline traffic —
    neither exact zeros nor positive durations below the float resolution
    at their start (openfoam/pmem2 produces the latter for real)."""

    def _fake_seg_results(self, start, duration):
        traffic = SegmentTraffic()
        traffic.subsystem("pmem").add(loads=1000.0)
        return [(None, traffic, start, duration, 0.0, {}, None)]

    def test_exact_zero_duration_skipped(self):
        engine = ExecutionEngine(make_toy_workload(), pmem6_system())
        tl = engine._timeline(self._fake_seg_results(0.5, 0.0), 1.0)
        assert tl.peak("pmem") == 0.0

    def test_sub_epsilon_duration_skipped(self):
        engine = ExecutionEngine(make_toy_workload(), pmem6_system())
        start, duration = 314.7169995661015, 1e-16
        assert start + duration == start  # below resolution at this start
        tl = engine._timeline(self._fake_seg_results(start, duration), 400.0)
        assert tl.peak("pmem") == 0.0


class TestDeferredAgainstEager:
    """``run`` results build their detail on first read; ``run_scalar``
    results carry it from construction.  ``run_results_identical`` reads
    every deferred field, so each differential check above compares the
    built detail, not just the totals."""

    DETAIL = {"phases", "objects", "timeline"}

    def _pair(self):
        wl = get_workload("minife")
        system = pmem6_system()
        placement, overrides = checkerboard_placement(wl, system.names)
        engine = ExecutionEngine(wl, system)
        lazy = engine.run(PlacementTraffic(wl, placement, overrides))
        eager = engine.run_scalar(PlacementTraffic(wl, placement, overrides))
        return lazy, eager

    def test_comparison_builds_every_deferred_field(self):
        lazy, eager = self._pair()
        assert not self.DETAIL & set(vars(lazy))
        assert self.DETAIL <= set(vars(eager))
        assert run_results_identical(lazy, eager) == []
        assert self.DETAIL <= set(vars(lazy))

    @pytest.mark.parametrize("field", ["phases", "objects", "timeline"])
    def test_comparison_sees_a_wrong_deferred_field(self, field):
        lazy, eager = self._pair()
        detail = {f: getattr(lazy, f) for f in self.DETAIL}
        bad = copy.deepcopy(detail[field])
        if field == "phases":
            bad[0].stall_time += 1.0
        elif field == "objects":
            next(iter(bad.values())).live_time += 1.0
        else:
            bad.add_traffic("pmem", 0.0, bad.resolution, 1.0)
        detail[field] = bad
        wrong = RunResult.deferred(
            lambda: (detail["phases"], detail["objects"], detail["timeline"]),
            workload_name=lazy.workload_name,
            config_label=lazy.config_label,
            total_time=lazy.total_time,
        )
        assert run_results_identical(wrong, eager) != []
