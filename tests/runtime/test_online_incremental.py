"""Differential grid for the incremental delta engine + online loop.

The contract under test: ``ExecutionEngine.run_incremental`` — prefix
rows reused verbatim, changed suffix rows re-solved through a gathered
fixed point — must be **bit-identical** to a from-scratch ``run`` of the
equivalent :class:`PatchedPlacementTraffic` model, whose only entry
point is scalar ``segment_traffic`` (so the oracle goes through the
generic per-segment replay, a genuinely different code path).  The grid
covers workloads x memory systems x change boundary in {first, middle,
last} segment.  Plus: the fused candidate predictor, patch chaining,
migration-cost accounting, the phase detector, and the online loop's
never-worse-than-static guarantee.
"""

import numpy as np
import pytest

from repro.apps.registry import get_workload
from repro.errors import SimulationError
from repro.memsim.subsystem import (
    hbm_dram_pmem_system,
    pmem2_system,
    pmem6_system,
)
from repro.runtime.delta import PatchedPlacementTraffic
from repro.runtime.engine import ExecutionEngine
from repro.runtime.online import (
    OnlineParams,
    detect_phase_shifts,
    epoch_boundaries,
    migration_cost_s,
    moved_bytes_by_destination,
    run_online,
    suffix_site_traffic,
)
from repro.runtime.plan import plan_for
from repro.runtime.segments import build_segment_arrays
from repro.runtime.stats import run_results_identical
from repro.runtime.traffic import PlacementTraffic, pack_traffic_batch
from repro.profiling.metrics import LINE_BYTES

from tests.conftest import make_toy_workload

SYSTEMS = {
    "pmem6": pmem6_system,
    "pmem2": pmem2_system,
    "hbm-dram-pmem": hbm_dram_pmem_system,
}

WORKLOADS = ("toy", "minife", "lulesh", "openfoam")

BOUNDARIES = ("first", "middle", "last")


def load_workload(name):
    return make_toy_workload() if name == "toy" else get_workload(name)


def boundary_index(num_segments, which):
    return {"first": 0, "middle": num_segments // 2,
            "last": num_segments - 1}[which]


def placement_pair(workload, names):
    """(before, after): rotation -> shifted rotation, maximum churn."""
    sites = [obj.site.name for obj in workload.objects]
    before = {s: names[i % len(names)] for i, s in enumerate(sites)}
    after = {s: names[(i + 1) % len(names)] for i, s in enumerate(sites)}
    return before, after


# -- the differential grid -----------------------------------------------------


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
@pytest.mark.parametrize("wl_name", WORKLOADS)
def test_run_incremental_bit_identical(wl_name, system_name, boundary):
    wl = load_workload(wl_name)
    system = SYSTEMS[system_name]()
    engine = ExecutionEngine(wl, system)
    names = system.names
    before, after = placement_pair(wl, names)
    s0 = boundary_index(engine._segment_arrays.num_segments, boundary)
    switch = float(engine._segment_arrays.seg_lo[s0])

    state = engine.run_delta(PlacementTraffic(wl, before))
    inc = engine.run_incremental(state, after, s0)

    oracle = engine.run(PatchedPlacementTraffic(
        PlacementTraffic(wl, before), after, switch))
    mismatches = run_results_identical(oracle, inc.result)
    assert mismatches == [], (
        f"{wl_name}/{system_name}/{boundary}: " + "; ".join(mismatches[:5]))


def test_run_delta_matches_run():
    """The captured state's result is a plain run, bit for bit."""
    for wl_name in ("toy", "minife"):
        wl = load_workload(wl_name)
        system = pmem6_system()
        engine = ExecutionEngine(wl, system)
        before, _ = placement_pair(wl, system.names)
        model = PlacementTraffic(wl, before)
        assert run_results_identical(
            engine.run(model), engine.run_delta(model).result) == []


def test_run_incremental_matches_run_scalar():
    """One cell against the per-segment Python-loop oracle."""
    wl = make_toy_workload()
    system = pmem6_system()
    engine = ExecutionEngine(wl, system)
    before, after = placement_pair(wl, system.names)
    s0 = engine._segment_arrays.num_segments // 2
    switch = float(engine._segment_arrays.seg_lo[s0])

    state = engine.run_delta(PlacementTraffic(wl, before))
    inc = engine.run_incremental(state, after, s0)
    scalar = engine.run_scalar(PatchedPlacementTraffic(
        PlacementTraffic(wl, before), after, switch))
    assert run_results_identical(scalar, inc.result) == []


def test_chained_patches_bit_identical():
    """Two successive patches == one from-scratch doubly-patched run."""
    wl = get_workload("minife")
    system = pmem6_system()
    engine = ExecutionEngine(wl, system)
    names = system.names
    sa = engine._segment_arrays
    before, after = placement_pair(wl, names)
    sites = [obj.site.name for obj in wl.objects]
    third = {s: names[-1] for s in sites}
    s1, s2 = sa.num_segments // 3, (2 * sa.num_segments) // 3

    state = engine.run_delta(PlacementTraffic(wl, before))
    state = engine.run_incremental(state, after, s1)
    state = engine.run_incremental(state, third, s2)

    base = PlacementTraffic(wl, before)
    once = PatchedPlacementTraffic(base, after, float(sa.seg_lo[s1]))
    twice = PatchedPlacementTraffic(once, third, float(sa.seg_lo[s2]))
    assert run_results_identical(engine.run(twice), state.result) == []


def test_unchanged_placement_patch_is_identity():
    wl = make_toy_workload()
    system = pmem6_system()
    engine = ExecutionEngine(wl, system)
    before, _ = placement_pair(wl, system.names)
    state = engine.run_delta(PlacementTraffic(wl, before))
    inc = engine.run_incremental(state, dict(before), 3)
    assert run_results_identical(state.result, inc.result) == []


def test_predict_times_incremental_matches_run_and_fused():
    """K fused candidate totals == per-candidate run_incremental == the
    engine's own fused predict over fresh patched models."""
    wl = get_workload("minife")
    system = pmem6_system()
    engine = ExecutionEngine(wl, system)
    names = system.names
    sa = engine._segment_arrays
    s0 = sa.num_segments // 2
    before, after = placement_pair(wl, names)
    sites = [obj.site.name for obj in wl.objects]
    candidates = [
        after,
        {s: names[0] for s in sites},
        {s: names[-1] for s in sites},
        dict(before),  # no-op candidate: zero changed rows in the fuse
    ]

    state = engine.run_delta(PlacementTraffic(wl, before))
    fused = engine.predict_times_incremental(state, candidates, s0)

    singly = [
        engine.run_incremental(state, cand, s0).result.total_time
        for cand in candidates
    ]
    assert fused == singly

    switch = float(sa.seg_lo[s0])
    scratch = engine.predict_times([
        PatchedPlacementTraffic(PlacementTraffic(wl, before), cand, switch)
        for cand in candidates
    ])
    assert fused == scratch
    assert fused[3] == state.result.total_time


def test_boundary_validation():
    wl = make_toy_workload()
    engine = ExecutionEngine(wl, pmem6_system())
    before, after = placement_pair(wl, pmem6_system().names)
    state = engine.run_delta(PlacementTraffic(wl, before))
    S = engine._segment_arrays.num_segments
    for bad in (-1, S, S + 7):
        with pytest.raises(SimulationError):
            engine.run_incremental(state, after, bad)
        with pytest.raises(SimulationError):
            engine.predict_times_incremental(state, [after], bad)


@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
@pytest.mark.parametrize(
    "wl_name", WORKLOADS + ("cloverleaf3d", "lammps", "minimd", "hpcg"))
def test_traffic_batch_order_pos_is_canonical(wl_name, system_name):
    """The vectorized pack emits the scalar pack's ``s*K + rank`` positions,
    so prefix and suffix rows from either path compose as they are."""
    wl = load_workload(wl_name)
    names = SYSTEMS[system_name]().names
    plan = plan_for(wl)
    sa = plan.segments
    placement, _ = placement_pair(wl, names)
    overrides = {}
    for obj in wl.objects:
        if obj.alloc_count > 1:
            overrides[(obj.site.name, 1)] = next(
                n for n in names if n != placement[obj.site.name])
            break
    model = PlacementTraffic(wl, placement, overrides)
    fast = model.traffic_batch(plan, names)
    scalar = pack_traffic_batch(model, wl, sa, names)
    assert np.array_equal(fast.order_pos, scalar.order_pos)
    assert np.array_equal(fast.present, scalar.present)


# -- phase detection -----------------------------------------------------------


def test_epoch_boundaries_interior_sorted_deduped():
    wl = make_toy_workload()
    sa = build_segment_arrays(wl)
    bounds = epoch_boundaries(wl, sa, 6)
    assert bounds == sorted(set(bounds))
    assert all(0 < s < sa.num_segments for s in bounds)
    # more epochs than segments still never duplicates or goes exterior
    many = epoch_boundaries(wl, sa, 50)
    assert many == sorted(set(many))
    assert all(0 < s < sa.num_segments for s in many)


def test_detect_phase_shifts_thresholds():
    wl = get_workload("minimd")  # setup -> compute: one big early shift
    plan = plan_for(wl)
    bounds, shifted = detect_phase_shifts(
        wl, plan, OnlineParams(epochs=6, shift_threshold=0.05))
    assert shifted, "minimd's setup->compute transition must register"
    assert set(s for _, s in shifted) <= set(bounds)
    assert all(1 <= e < 6 for e, _ in shifted)
    # an impossible threshold silences the detector entirely
    _, none = detect_phase_shifts(
        wl, plan, OnlineParams(epochs=6, shift_threshold=1.0))
    assert none == []


def test_suffix_site_traffic_full_timeline_and_tail():
    wl = make_toy_workload()
    plan = plan_for(wl)
    sa = plan.segments
    full = suffix_site_traffic(plan.pack_base, 0)
    assert set(full) == {o.site.name for o in wl.objects}
    assert all(l >= 0 and s >= 0 for l, s in full.values())
    # the suffix is monotone: later boundaries see no more traffic
    tail = suffix_site_traffic(plan.pack_base, sa.num_segments - 1)
    for site in full:
        assert tail[site][0] <= full[site][0]
        assert tail[site][1] <= full[site][1]
    beyond = suffix_site_traffic(plan.pack_base, sa.num_segments)
    assert all(v == (0.0, 0.0) for v in beyond.values())


# -- migration cost ------------------------------------------------------------


def test_moved_bytes_only_live_instances_move():
    wl = make_toy_workload()
    sa = build_segment_arrays(wl)
    names = pmem6_system().names
    sites = [o.site.name for o in wl.objects]
    old = {s: "pmem" for s in sites}

    # no change -> nothing moves
    assert moved_bytes_by_destination(wl, sa, 2, old, dict(old)) == {}

    new = dict(old)
    new["toy::hot"] = "dram"
    moved = moved_bytes_by_destination(wl, sa, 2, old, new)
    hot = wl.object_by_site("toy::hot")
    assert moved == {"dram": float(hot.size) * wl.ranks}

    # toy::temp is periodic; at a boundary where no instance is live,
    # re-placing it moves zero bytes (future instances allocate in place)
    temp = wl.object_by_site("toy::temp")
    assert temp.alloc_count > 1
    dead_segs = [
        s for s in range(sa.num_segments)
        if not any(
            sa.instances[int(j)].spec.site.name == "toy::temp"
            for j in sa.pair_inst[
                np.searchsorted(sa.pair_seg, s):
                np.searchsorted(sa.pair_seg, s + 1)]
        )
    ]
    if dead_segs:
        new2 = dict(old)
        new2["toy::temp"] = "dram"
        assert moved_bytes_by_destination(wl, sa, dead_segs[0], old, new2) == {}


def test_migration_cost_formula():
    wl = make_toy_workload()
    system = pmem6_system()
    assert migration_cost_s(wl, system, {}) == 0.0

    nbytes = 512.0 * 1024 * 1024
    cost = migration_cost_s(wl, system, {"dram": nbytes})
    dram = system.get("dram")
    expected = max(
        nbytes / dram.peak_write_bw,
        (nbytes / LINE_BYTES) * dram.read_latency_ns(0.0, 1.0) * 1e-9 / wl.mlp,
    )
    assert cost == expected
    # destinations add (the run is stopped while copying)
    both = migration_cost_s(wl, system, {"dram": nbytes, "pmem": nbytes})
    assert both == expected + migration_cost_s(wl, system, {"pmem": nbytes})
    # pmem writes are slower than dram writes, so the charge is larger
    assert migration_cost_s(wl, system, {"pmem": nbytes}) > expected


# -- the online loop -----------------------------------------------------------


def test_online_never_worse_and_charges_migration():
    wl = get_workload("minimd")
    system = pmem6_system()
    dram_limit = max(int(wl.heap_high_water() * 0.1), 1)
    sa = build_segment_arrays(wl)
    static = dict.fromkeys((o.site.name for o in wl.objects), "pmem")
    report = run_online(
        wl, system, static, dram_limit=dram_limit,
        params=OnlineParams(epochs=6, shift_threshold=0.05))
    assert report.total_time == report.engine_time + report.migration_total_s
    assert report.total_time <= report.static_time
    assert report.migration_total_s == sum(e.cost_s for e in report.events)
    for event in report.events:
        # accepted moves are strictly net-positive after the charge
        assert event.predicted_saving_s > event.cost_s


def test_online_incremental_equals_full_recompute():
    wl = get_workload("minife")
    system = pmem6_system()
    dram_limit = max(int(wl.heap_high_water() * 0.1), 1)
    static = suffix_site_traffic(plan_for(wl).pack_base, 0)
    placement = {name: "pmem" for name in static}
    kwargs = dict(dram_limit=dram_limit,
                  params=OnlineParams(epochs=6, shift_threshold=0.0))
    inc = run_online(wl, system, placement, use_incremental=True, **kwargs)
    full = run_online(wl, system, placement, use_incremental=False, **kwargs)
    assert inc.result.total_time == full.result.total_time
    assert inc.migration_total_s == full.migration_total_s
    assert inc.final_placement == full.final_placement
    assert ([(e.epoch, e.boundary_seg, e.cost_s) for e in inc.events]
            == [(e.epoch, e.boundary_seg, e.cost_s) for e in full.events])
    assert run_results_identical(inc.result, full.result) == []
