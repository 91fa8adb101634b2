"""Workload plans: one compiled plan per workload content, shared by engines.

The contract under test: engines of content-equal workloads share one
:class:`~repro.runtime.plan.WorkloadPlan` (found by content fingerprint,
kept by a small LRU and a weak index), and sharing never changes a
result — every entry point, app-direct and baselines alike, is
bit-identical to an engine built from an empty registry.
"""

import dataclasses
import functools
import gc
import hashlib
import random
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.apps import get_workload, list_workloads
from repro.apps.workload import AccessStats, ObjectSpec, Phase, Workload
from repro.baselines.memory_mode import MemoryModeTraffic
from repro.baselines.tiering import TieringTraffic
from repro.experiments import fig6_sweep, tab8_full_apps
from repro.experiments.harness import run_ecohmem
from repro.experiments.ablations import scale_workload
from repro.memsim.subsystem import pmem2_system, pmem6_system
from repro.runtime import plan as plan_mod
from repro.runtime.engine import ExecutionEngine
from repro.runtime.online import OnlineParams, run_online
from repro.runtime.plan import REGISTRY, plan_for
from repro.runtime.stats import run_results_identical
from repro.runtime.traffic import (
    PlacementTraffic,
    pack_traffic_batch,
    traffic_batches_identical,
)
from repro.units import MiB

from tests.conftest import make_site
from tests.runtime.test_engine_vectorized import (
    baseline_models,
    checkerboard_placement,
)


@pytest.fixture
def registry():
    """The process-wide registry, emptied before and after the test."""
    REGISTRY.clear()
    yield REGISTRY
    REGISTRY.clear()


# -- sharing ---------------------------------------------------------------------


def test_equal_content_shares_one_plan(registry):
    a, b = get_workload("lulesh"), get_workload("lulesh")
    assert a is not b
    assert plan_for(a) is plan_for(b)
    assert ExecutionEngine(a, pmem6_system())._plan is plan_for(b)
    assert (registry.builds, registry.hits) == (1, 3)


def test_scaled_variant_gets_its_own_plan(registry):
    wl = get_workload("minife")
    variant = scale_workload(wl, rate_scale=1.5)
    assert variant.name == wl.name
    assert plan_for(variant) is not plan_for(wl)
    assert plan_for(variant).fingerprint != plan_for(wl).fingerprint
    assert registry.builds == 2


def test_live_engine_keeps_its_plan_findable(registry, monkeypatch):
    """Past the LRU, a plan an engine still holds is found again through
    the weak index; once nothing holds it, it is gone."""
    monkeypatch.setattr(plan_mod, "PLAN_CAPACITY", 1)
    engine = ExecutionEngine(get_workload("minife"), pmem6_system())
    held = engine._plan
    plan_for(get_workload("minimd"))
    assert registry.evictions == 1
    assert ExecutionEngine(get_workload("minife"), pmem2_system())._plan is held
    assert registry.builds == 2

    ref = weakref.ref(held)
    del engine, held
    plan_for(get_workload("minimd"))  # rebuilt; evicts minife from the LRU
    gc.collect()
    assert ref() is None
    plan_for(get_workload("minife"))
    assert registry.builds == 4


def test_concurrent_engines_build_one_plan(registry):
    """8 threads (more than cores) build engines for one workload at once,
    with frequent thread switches: one plan is built, no count is lost,
    and all 8 engines share the plan."""
    start = threading.Barrier(8, timeout=60)
    engines = [None] * 8

    def build(i):
        wl = get_workload("lulesh")
        start.wait()
        engines[i] = ExecutionEngine(wl, pmem6_system())

    threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert registry.builds == 1
    assert registry.hits == 7
    assert len({id(e._plan) for e in engines}) == 1


def test_hit_does_not_wait_for_another_build(registry, monkeypatch):
    """While one workload's plan is being built, a lookup of a plan that
    already exists returns at once."""
    warm = plan_for(get_workload("minife"))
    entered, release = threading.Event(), threading.Event()
    real_build = plan_mod._build_plan

    def slow_build(workload, key):
        entered.set()
        assert release.wait(timeout=60)
        return real_build(workload, key)

    monkeypatch.setattr(plan_mod, "_build_plan", slow_build)
    builder = threading.Thread(
        target=plan_for, args=(get_workload("minimd"),))
    builder.start()
    try:
        assert entered.wait(timeout=60)
        assert plan_for(get_workload("minife")) is warm
    finally:
        release.set()
        builder.join(timeout=120)
    assert registry.builds == 2


def test_failed_build_is_retried(registry, monkeypatch):
    real_build = plan_mod._build_plan

    def broken(workload, key):
        raise RuntimeError("build failed")

    monkeypatch.setattr(plan_mod, "_build_plan", broken)
    with pytest.raises(RuntimeError):
        plan_for(get_workload("minife"))
    monkeypatch.setattr(plan_mod, "_build_plan", real_build)
    assert plan_for(get_workload("minife")) is not None
    assert registry.builds == 1


def _array_digests(obj, prefix=""):
    """{field path: sha256 of the bytes} of every array in a plan."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            out[prefix + f.name] = hashlib.sha256(
                np.ascontiguousarray(value).tobytes()).hexdigest()
        elif dataclasses.is_dataclass(value):
            out.update(_array_digests(value, prefix + f.name + "."))
    return out


def test_consumers_leave_the_plan_unchanged(registry):
    """Every engine entry point, traffic model and the allocation replay
    only read the shared plan: its arrays hash the same before and after
    all of them ran."""
    wl = get_workload("minife")
    system = pmem6_system()
    engine = ExecutionEngine(wl, system)
    before = _array_digests(engine._plan)
    models = _placements(wl, system.names)
    engine.run_batch(models)
    engine.predict_times(models)
    for half in (False, True):
        for make in baseline_models(wl, system, half=half).values():
            engine.run(make())
    static = dict.fromkeys((o.site.name for o in wl.objects), "pmem")
    for incremental in (True, False):
        run_online(wl, system, static,
                   dram_limit=max(int(wl.heap_high_water() * 0.1), 1),
                   params=OnlineParams(epochs=6, shift_threshold=0.0),
                   use_incremental=incremental)
    run_ecohmem(wl, system, dram_limit=max(wl.heap_high_water() // 4, 1))
    assert ExecutionEngine(wl, pmem2_system())._plan is engine._plan
    assert _array_digests(engine._plan) == before

    # an override that splits (segment, site) groups
    split = ExecutionEngine(_split_workload(), system)
    before = _array_digests(split._plan)
    split.run(PlacementTraffic(
        split.workload, {"split::buf": "dram", "split::grid": "pmem"},
        {("split::buf", 1): "pmem"}))
    assert _array_digests(split._plan) == before


def test_paper_round_builds_each_plan_once(registry):
    """One Figure 6 + Table VIII round, one ``compute_fig6`` call per
    (app, PMem) as the paper-sweep benchmark makes them: 47 engines
    share 7 plans."""
    for app in fig6_sweep.MINIAPPS:
        for dimms in (6, 2):
            fig6_sweep.compute_fig6(apps=[app], pmem_configs=(dimms,),
                                    seed=11, jobs=1)
    tab8_full_apps.compute_tab8(seed=11, jobs=1)
    assert registry.builds <= 7
    assert registry.hits >= 40


def test_shuffled_rounds_keep_every_plan(registry):
    """Two Figure 6 + Table VIII rounds with their calls shuffled, as the
    paper-sweep benchmark orders them: the first round builds the 7
    applications' plans once each, and the second builds none."""
    calls = [functools.partial(fig6_sweep.compute_fig6, apps=[app],
                               pmem_configs=(dimms,), seed=11, jobs=1)
             for app in fig6_sweep.MINIAPPS for dimms in (6, 2)]
    calls.append(functools.partial(tab8_full_apps.compute_tab8, seed=11,
                                   jobs=1))
    rng = random.Random(5)
    builds = []
    for _ in range(2):
        rng.shuffle(calls)
        before = registry.builds
        for call in calls:
            call()
        builds.append(registry.builds - before)
    assert builds == [7, 0]
    assert registry.evictions == 0


# -- exactness --------------------------------------------------------------------


def _placements(wl, names):
    placement, overrides = checkerboard_placement(wl, names)
    flipped = {site: names[(names.index(sub) + 1) % len(names)]
               for site, sub in placement.items()}
    return [placement, flipped, PlacementTraffic(wl, placement, overrides)]


@pytest.mark.parametrize("system_factory", [pmem6_system, pmem2_system],
                         ids=["pmem6", "pmem2"])
@pytest.mark.parametrize("app", list_workloads())
def test_shared_plan_matches_fresh_plan(app, system_factory, registry):
    """An engine over a plan other engines have used answers exactly as
    one built from an empty registry: run, run_batch, predict_times,
    Memory Mode and tiering."""
    system = system_factory()
    wl = get_workload(app)
    other = pmem2_system if system_factory is pmem6_system else pmem6_system
    warm = ExecutionEngine(wl, other())
    warm.run_batch(_placements(wl, warm.system.names))
    shared = ExecutionEngine(get_workload(app), system)
    assert shared._plan is warm._plan
    registry.clear()
    fresh = ExecutionEngine(get_workload(app), system)
    assert fresh._plan is not shared._plan

    models = _placements(wl, system.names)
    for a, b in zip(shared.run_batch(models), fresh.run_batch(models)):
        assert run_results_identical(a, b) == []
    assert run_results_identical(shared.run(models[2]),
                                 fresh.run(models[2])) == []
    assert shared.predict_times(models) == fresh.predict_times(models)
    for kind, make in baseline_models(wl, system, half=False).items():
        if kind == "combined":
            continue
        assert run_results_identical(
            shared.run(make()), fresh.run(make())) == [], kind


def _split_workload() -> Workload:
    """Two instances of one site live at once, so an override splits the
    site's (segment, site) groups across subsystems."""
    overlap = ObjectSpec(
        site=make_site("split::buf"), size=16 * MiB, alloc_count=3,
        lifetime=1.5, period=1.0,
        access={"compute": AccessStats(load_rate=1e6, store_rate=2e5)},
    )
    other = ObjectSpec(
        site=make_site("split::grid"), size=32 * MiB,
        access={"compute": AccessStats(load_rate=3e5, store_rate=1e5)},
    )
    return Workload("split", [Phase("compute", 1.0, repeat=4)],
                    [overlap, other], ranks=2)


def test_split_groups_match_the_scalar_engine(registry):
    wl = _split_workload()
    system = pmem6_system()
    placement = {"split::buf": "dram", "split::grid": "pmem"}
    model = PlacementTraffic(wl, placement, {("split::buf", 1): "pmem"})
    engine = ExecutionEngine(wl, system)
    batch = model.traffic_batch(engine._plan, system.names)
    assert batch.obj_seg.size > engine._plan.pack_base.obj_seg_ord.size
    assert run_results_identical(
        engine.run(model),
        engine.run_scalar(PlacementTraffic(wl, placement,
                                           {("split::buf", 1): "pmem"}))) == []


def test_baseline_packs_rekeep_when_traffic_underflows(registry):
    """A nonzero rate whose traffic underflows to zero is kept by the
    baselines' rules but not by the plan's pack base: both packs then
    re-keep the pairs themselves, and still match the scalar replay."""
    ghost = ObjectSpec(
        site=make_site("ghost::tiny"), size=1 * MiB,
        access={"compute": AccessStats(load_rate=5e-324)},
    )
    real = ObjectSpec(
        site=make_site("ghost::real"), size=8 * MiB,
        access={"compute": AccessStats(load_rate=1e6, store_rate=1e5)},
    )
    wl = Workload("ghost", [Phase("compute", 0.25, repeat=4)],
                  [ghost, real], ranks=1)
    plan = plan_for(wl)
    assert plan.pack_base.n_rated == plan.pack_base.kseg.size + 4
    names = pmem6_system().names
    for make in (lambda: MemoryModeTraffic(wl, 4 * MiB),
                 lambda: TieringTraffic(wl, 4 * MiB, scan_overhead=-0.5)):
        native, generic = make(), make()
        assert traffic_batches_identical(
            native.traffic_batch(plan, names),
            pack_traffic_batch(generic, wl, plan.segments, names)) == []
