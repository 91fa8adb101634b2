"""Deferred object rows: native packs build their object rows on first read.

Every native pack (app-direct, Memory Mode, tiering, combined, and the
delta engine's composed batch) sets its row matrices at once; the fused
fixed point reads nothing else.  The object rows (``site_names``,
``obj_sub_names`` and the ``obj_*`` arrays) come from a builder that runs
on their first read.  Once built they must equal the eager pack's, a
sweep that reads only totals must build none, a builder must hold fewer
bytes than the rows it stands for, and concurrent readers, pickling and
chained patches must not change what is built.
"""

import dataclasses
import functools
import pickle
import sys
import threading
import time

import numpy as np
import pytest

from repro.apps.registry import get_workload, list_workloads
from repro.apps.workload import AccessStats, ObjectSpec, Phase, Workload
from repro.baselines.memory_mode import MemoryModeTraffic
from repro.experiments import fig6_sweep, tab8_full_apps
from repro.memsim.subsystem import pmem2_system, pmem6_system
from repro.runtime import traffic as traffic_mod
from repro.runtime.delta import PatchedPlacementTraffic, compose_batches
from repro.runtime.engine import ExecutionEngine
from repro.runtime.plan import plan_for
from repro.runtime.stats import run_results_identical
from repro.runtime.traffic import (
    OBJECT_FIELDS,
    PlacementTraffic,
    TrafficBatch,
    pack_traffic_batch,
    traffic_batches_identical,
)
from repro.units import MiB

from tests.conftest import make_site
from tests.runtime.test_engine_vectorized import (
    baseline_models,
    checkerboard_placement,
)
from tests.runtime.test_plan import _split_workload


@pytest.fixture
def built(monkeypatch):
    """Spy on every deferred batch's builder: the site names of each build."""
    names = []
    original = TrafficBatch.deferred.__func__

    def spy(cls, build, **rows):
        def counted():
            fields = build()
            names.append(fields[0])
            return fields
        return original(cls, counted, **rows)

    monkeypatch.setattr(TrafficBatch, "deferred", classmethod(spy))
    return names


def _app_of(site_names):
    """The registered application whose sites these are."""
    [app] = [app for app in list_workloads()
             if set(site_names) <= {o.site.name
                                    for o in get_workload(app).objects}]
    return app


def _unbuilt(batch):
    return "_build" in vars(batch)


def _canonical(batch):
    """``batch`` with sites and object subsystems numbered by first
    appearance, as the per-segment replay numbers them.  App-direct packs
    name every site and every subsystem column up front instead."""
    def renumber(names, idx):
        order = list(dict.fromkeys(idx.tolist()))
        new = np.zeros(max(len(names), 1), dtype=np.int64)
        new[order] = np.arange(len(order))
        return [names[i] for i in order], new[idx]

    site_names, obj_site = renumber(batch.site_names, batch.obj_site)
    sub_names, obj_sub = renumber(batch.obj_sub_names, batch.obj_sub)
    return dataclasses.replace(batch, site_names=site_names,
                               obj_site=obj_site, obj_sub_names=sub_names,
                               obj_sub=obj_sub)


# -- reading totals builds nothing --------------------------------------------


def test_density_sweep_builds_no_object_rows(built):
    fig6_sweep.compute_fig6(apps=["minife"], pmem_configs=(6,), jobs=1)
    assert built == []


def test_table8_builds_only_the_observation_rows(built):
    """Table VIII reads object rows only through the density-observation
    results it assembles, one per app."""
    tab8_full_apps.compute_tab8(jobs=1)
    assert sorted(_app_of(names) for names in built) == ["lammps", "openfoam"]


# -- built rows equal the eager pack ------------------------------------------


def _models(wl, system):
    placement, overrides = checkerboard_placement(wl, system.names)
    return dict(
        baseline_models(wl, system, half=True),
        uniform=lambda: PlacementTraffic(wl, placement),
        overrides=lambda: PlacementTraffic(wl, placement, overrides),
    )


@pytest.mark.parametrize("system_factory", [pmem6_system, pmem2_system],
                         ids=["pmem6", "pmem2"])
@pytest.mark.parametrize("app", ["minife", "openfoam"])
def test_forced_rows_equal_the_replay(app, system_factory):
    """Each native pack is unbuilt after packing and after the rows the
    fixed point reads are read; its built rows then equal the generic
    per-segment replay's, field for field."""
    wl = get_workload(app)
    system = system_factory()
    plan = plan_for(wl)
    for kind, make in _models(wl, system).items():
        native, generic = make(), make()
        batch = native.traffic_batch(plan, system.names)
        assert _unbuilt(batch), kind
        ExecutionEngine(wl, system)._solve([batch])
        assert _unbuilt(batch), kind
        replayed = pack_traffic_batch(generic, wl, plan.segments, system.names)
        if isinstance(native, PlacementTraffic):
            batch = _canonical(batch)
        assert traffic_batches_identical(batch, replayed) == [], kind


def test_split_groups_are_built_on_read():
    """An override that splits (segment, site) groups adds rows beyond
    the plan's when the rows are read, and they equal the replay's."""
    wl = _split_workload()
    system = pmem6_system()
    plan = plan_for(wl)
    make = functools.partial(
        PlacementTraffic, wl, {"split::buf": "dram", "split::grid": "pmem"},
        {("split::buf", 1): "pmem"})
    batch = make().traffic_batch(plan, system.names)
    assert _unbuilt(batch)
    assert batch.obj_seg.size > plan.pack_base.obj_seg_ord.size
    replayed = pack_traffic_batch(make(), wl, plan.segments, system.names)
    assert traffic_batches_identical(_canonical(batch), replayed) == []


def test_uniform_rows_are_the_plans_arrays():
    """A uniform app-direct pack builds the plan's own row arrays, so the
    assembly's identity fast path still finds them."""
    wl = get_workload("minife")
    system = pmem6_system()
    plan = plan_for(wl)
    base = plan.pack_base
    uniform = _models(wl, system)["uniform"]().traffic_batch(
        plan, system.names)
    assert uniform.obj_seg is base.obj_seg_ord
    assert uniform.obj_site is base.obj_site_ord
    assert uniform.obj_loads is base.obj_loads_ord
    assert uniform.obj_stores is base.obj_stores_ord


def test_composed_batch_equals_the_patched_replay():
    """A composed delta batch over two deferred packs is itself deferred,
    and its built rows equal the replay of the patched model."""
    wl = get_workload("minife")
    system = pmem6_system()
    plan = plan_for(wl)
    placement, overrides = checkerboard_placement(wl, system.names)
    flipped = {site: "pmem" if sub == "dram" else "dram"
               for site, sub in placement.items()}
    s0 = plan.segments.num_segments // 2
    before = PlacementTraffic(wl, placement, overrides)
    after = PlacementTraffic(wl, flipped)
    composed = compose_batches(before.traffic_batch(plan, system.names),
                               after.traffic_batch(plan, system.names), s0)
    assert _unbuilt(composed)
    patched = PatchedPlacementTraffic(before, flipped,
                                      float(plan.segments.seg_lo[s0]))
    replayed = pack_traffic_batch(patched, wl, plan.segments, system.names)
    assert traffic_batches_identical(_canonical(composed), replayed) == []


# -- density order without a float lexsort -------------------------------------


def _tie_workload():
    """Densities that tie across different (spec, phase) cells: 1.25e6
    accesses/s on 1 MiB and 2.5e6 on 2 MiB; two tiny rates whose
    densities underflow to ``-0.0``; and a ``-0.0`` rate (density
    ``+0.0``, never kept).  Staggered allocations make the tied pairs'
    live order differ from their specs' table order in some segments."""
    def spec(name, size, first=0.0, count=1, life=None, period=None,
             **phases):
        return ObjectSpec(
            site=make_site(f"tie::{name}"), size=size * MiB,
            alloc_count=count, first_alloc=first, lifetime=life,
            period=period,
            access={ph: AccessStats(load_rate=rate, store_rate=rate / 4)
                    for ph, rate in phases.items()})

    objects = [
        spec("narrow", 1, count=3, life=0.25, period=0.5,
             solve=1e6, halo=2e6),
        spec("wide", 2, first=0.1, solve=2e6, halo=1e6),
        spec("tiny_small", 8, first=0.05, count=2, life=0.3, period=0.55,
             solve=1e-318),
        spec("tiny_big", 16, solve=1e-318, halo=1e-318),
        spec("signed_zero", 4, solve=-0.0, halo=5e5),
        spec("streamed", 32, solve=3e5, halo=3e5),
    ]
    return Workload("tie", [Phase("solve", 0.2, repeat=3),
                            Phase("halo", 0.1, repeat=3)], objects, ranks=2)


@pytest.mark.parametrize("cache_mib", [1, 2, 3, 5, 80])
def test_density_ties_keep_pair_order(cache_mib):
    """Tied cells (equal floats, ``-0.0`` against ``+0.0`` included) keep
    pair order, as the scalar ``sorted`` does: the pack, its hit ratios
    and the run equal the scalar replay at cache sizes from below one
    object's footprint to above the whole working set."""
    wl = _tie_workload()
    system = pmem6_system()
    plan = plan_for(wl)
    cache = cache_mib * MiB
    native, generic = MemoryModeTraffic(wl, cache), MemoryModeTraffic(wl, cache)
    assert traffic_batches_identical(
        native.traffic_batch(plan, system.names),
        pack_traffic_batch(generic, wl, plan.segments, system.names)) == []
    assert native.mean_hit_ratio() == generic.mean_hit_ratio()
    engine = ExecutionEngine(wl, system)
    assert run_results_identical(
        engine.run(MemoryModeTraffic(wl, cache)),
        engine.run_scalar(MemoryModeTraffic(wl, cache))) == []


# -- what a builder holds ---------------------------------------------------------


def _held_bytes(batch, plan):
    """Bytes of the arrays an unbuilt batch's builder holds that the plan
    does not already hold."""
    shared = {id(a) for part in (plan.pack_base, plan.segments, plan.rates)
              for a in vars(part).values() if isinstance(a, np.ndarray)}
    seen = set()

    def walk(obj):
        if id(obj) in seen or obj is plan.pack_base:
            return 0
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            return 0 if id(obj) in shared else obj.nbytes
        if isinstance(obj, functools.partial):
            return sum(walk(a) for a in obj.args + (obj.func,))
        if isinstance(obj, (tuple, list)):
            return sum(walk(a) for a in obj)
        if isinstance(obj, TrafficBatch):
            return sum(walk(v) for v in vars(obj).values())
        return 0

    return walk(vars(batch)["_build"])


def _row_bytes(batch):
    return sum(getattr(batch, f).nbytes for f in OBJECT_FIELDS[2:])


def test_builders_hold_less_than_their_rows():
    wl = get_workload("openfoam")
    system = pmem6_system()
    plan = plan_for(wl)
    for kind, make in _models(wl, system).items():
        batch = make().traffic_batch(plan, system.names)
        held = _held_bytes(batch, plan)
        assert held < _row_bytes(batch), kind


# -- sharing one build ------------------------------------------------------------


def test_concurrent_readers_share_one_build(monkeypatch):
    """8 threads (more than cores) read one unbuilt batch at once, with
    frequent thread switches, while its builder is held open: one build,
    and every reader sees its arrays."""
    builds = []
    original = traffic_mod._placement_object_rows

    def slow(*args):
        builds.append(threading.get_ident())
        time.sleep(0.05)  # hold the build open while the others read
        return original(*args)

    monkeypatch.setattr(traffic_mod, "_placement_object_rows", slow)
    wl = get_workload("minife")
    system = pmem6_system()
    plan = plan_for(wl)
    make = _models(wl, system)["overrides"]
    batch = make().traffic_batch(plan, system.names)
    start = threading.Barrier(8, timeout=30)
    seen = [None] * 8

    def read(i):
        start.wait()
        seen[i] = batch.obj_loads

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert all(s is batch.obj_loads for s in seen)
    replayed = pack_traffic_batch(make(), wl, plan.segments, system.names)
    assert traffic_batches_identical(_canonical(batch), replayed) == []


# -- chained patches and pickles ----------------------------------------------------


def test_incremental_chain_and_pickles_are_unchanged():
    """Three chained patches leave every state's batch unbuilt; the last
    result, read directly and through a pickle of the unread state,
    equals the from-scratch run of the thrice-patched model."""
    wl = get_workload("minife")
    system = pmem6_system()
    engine = ExecutionEngine(wl, system)
    sa = engine._segment_arrays
    placement, overrides = checkerboard_placement(wl, system.names)
    flipped = {site: "pmem" if sub == "dram" else "dram"
               for site, sub in placement.items()}
    plans = [flipped, placement, {site: "dram" for site in placement}]
    bounds = [sa.num_segments // 4, sa.num_segments // 2,
              (3 * sa.num_segments) // 4]

    model = PlacementTraffic(wl, placement, overrides)
    state = engine.run_delta(model)
    for placement_of, s0 in zip(plans, bounds):
        state = engine.run_incremental(state, placement_of, s0)
        model = PatchedPlacementTraffic(model, placement_of,
                                        float(sa.seg_lo[s0]))
        assert _unbuilt(state.batch) and _unbuilt(state.result)

    copy = pickle.loads(pickle.dumps(state))
    assert not _unbuilt(copy.batch) and "_lock" not in vars(copy.batch)
    oracle = engine.run_scalar(model)
    assert run_results_identical(copy.result, oracle) == []
    assert run_results_identical(state.result, oracle) == []
    assert traffic_batches_identical(state.batch, copy.batch) == []
    replayed = pack_traffic_batch(model, wl, sa, system.names)
    assert traffic_batches_identical(_canonical(state.batch), replayed) == []
