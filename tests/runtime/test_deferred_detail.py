"""Deferred run detail: engine results build phases, objects and timeline
on first read.

``total_time`` is set when the lane settles; ``ExecutionEngine._assemble``
runs only when a caller reads ``phases``, ``objects`` or ``timeline``.
The lane's retained state must stand alone — plan evictions, later runs
on the same engine, pickling and concurrent readers cannot change what
it builds — and a sweep that reads only totals must build no detail.
"""

import pickle
import threading
import time

import pytest

from repro.apps.registry import get_workload
from repro.experiments import fig6_sweep, tab8_full_apps
from repro.memsim.subsystem import pmem6_system
from repro.runtime import plan as plan_mod
from repro.runtime.engine import ExecutionEngine
from repro.runtime.plan import REGISTRY
from repro.runtime.stats import run_results_identical
from repro.runtime.traffic import PlacementTraffic

from tests.runtime.test_engine_vectorized import checkerboard_placement


@pytest.fixture
def assembled(monkeypatch):
    """Spy on the detail builder: the workload name of every build."""
    names = []
    original = ExecutionEngine._assemble

    def spy(self, *args):
        names.append(self.workload.name)
        return original(self, *args)

    monkeypatch.setattr(ExecutionEngine, "_assemble", spy)
    return names


def _model(wl, flip: bool = False):
    """A uniform checkerboard placement (its object rows are the plan's);
    ``flip`` swaps the tiers and overrides one instance's tier."""
    names = ["pmem", "dram"] if flip else ["dram", "pmem"]
    placement, overrides = checkerboard_placement(wl, names)
    return PlacementTraffic(wl, placement, overrides if flip else None)


def _eager(wl):
    return ExecutionEngine(wl, pmem6_system()).run_scalar(_model(wl))


def test_unread_result_outlives_its_plan_and_later_runs(assembled,
                                                         monkeypatch):
    """A LULESH and a MiniFE result read after two other workloads pushed
    their plans out of a 2-plan LRU, and after more runs on the same
    engines, build exactly what the scalar oracle builds."""
    monkeypatch.setattr(plan_mod, "PLAN_CAPACITY", 2)
    system = pmem6_system()
    pending = []
    for name in ("lulesh", "minife"):
        wl = get_workload(name)
        engine = ExecutionEngine(wl, system)
        result = engine.run(_model(wl))
        engine.run(_model(wl, flip=True)).objects
        engine.run_batch([_model(wl, flip=True), _model(wl)])
        pending.append((wl, engine._plan, result))
    for name in ("hpcg", "cloverleaf3d"):
        wl = get_workload(name)
        ExecutionEngine(wl, system).run(_model(wl)).objects
    assert assembled == ["lulesh", "minife", "hpcg", "cloverleaf3d"]

    for wl, plan, result in pending:
        assert all(plan is not p for p in REGISTRY._recent.values())
        assert run_results_identical(result, _eager(wl)) == []
    assert assembled[4:] == ["lulesh", "minife"]


def test_pickled_unread_result_equals_the_eager_result(assembled):
    wl = get_workload("minife")
    result = ExecutionEngine(wl, pmem6_system()).run(_model(wl))
    copy = pickle.loads(pickle.dumps(result))
    assert assembled == ["minife"]
    assert "_build" not in vars(copy) and "_lock" not in vars(copy)
    assert run_results_identical(copy, _eager(wl)) == []
    assert run_results_identical(result, copy) == []
    assert assembled == ["minife"]


def test_concurrent_readers_share_one_build(monkeypatch):
    builds = []
    original = ExecutionEngine._assemble

    def slow(self, *args):
        builds.append(threading.get_ident())
        time.sleep(0.05)  # hold the build open while the other thread reads
        return original(self, *args)

    monkeypatch.setattr(ExecutionEngine, "_assemble", slow)
    wl = get_workload("minife")
    result = ExecutionEngine(wl, pmem6_system()).run(_model(wl))
    start = threading.Barrier(2)
    seen = [None, None]

    def read(i):
        start.wait()
        seen[i] = result.objects

    threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(builds) == 1
    assert seen[0] is seen[1] is result.objects
    assert run_results_identical(result, _eager(wl)) == []


def test_memory_mode_ratio_survives_a_later_build():
    wl = get_workload("minife")
    result = ExecutionEngine(wl, pmem6_system()).run(_model(wl))
    result.dram_cache_hit_ratio = 0.5
    assert result.phases and result.dram_cache_hit_ratio == 0.5


def test_density_sweep_builds_no_detail(assembled):
    fig6_sweep.compute_fig6(apps=["minife"], pmem_configs=(6,), jobs=1)
    assert assembled == []


def test_table8_builds_only_the_observation_runs(assembled):
    """Table VIII reads detail only from the bandwidth-aware advisor's
    density-observation runs, one per app."""
    tab8_full_apps.compute_tab8(jobs=1)
    assert sorted(assembled) == ["lammps", "openfoam"]
