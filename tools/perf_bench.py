#!/usr/bin/env python
"""Pipeline performance benchmark: the fast paths vs their reference paths.

Three sections, mirroring the three optimisation layers:

``kernel``
    The vectorised cache batch kernel (``access_stream``) against the
    scalar oracle (``access_stream_scalar``) on generator streams over an
    LLC-sized cache, asserting identical hit masks and counters.
``profile_cache``
    One ``run_ecohmem`` with a cold :class:`ProfileStore` vs the same run
    served from the warm store, then a cold run into a fresh
    :class:`ArtifactStore` vs a warm one that reads the profile artifact
    back (a fresh ``ProfileStore``, so the one disk read is timed),
    asserting identical results and a single published artifact.
``fig6_sweep``
    A reduced Figure 6 sweep, serial + memoization off vs parallel +
    profiles shared through the artifact store, asserting bit-identical
    cells.
``profiling``
    The vectorized profiling cold path (tracer + Paramedir) against the
    scalar oracles, asserting bit-identical traces and per-site
    profiles; the direct ``ExtraeTracer.profile`` against ``run`` +
    ``analyze``, asserting identical profiles; each registered app's
    cold ``profile()`` at 100 Hz (best of 3, no floor); onboarding, a
    whole cold LULESH ``run_ecohmem`` per algorithm with a fresh
    :class:`ProfileStore` (best of 3, no floor); plus JSONL vs ``.npz``
    trace (de)serialization.
``engine``
    The batched execution engine (``ExecutionEngine.run``) against its
    scalar oracle (``run_scalar``) on an app-direct LULESH run (miniFE
    in quick mode), asserting the full :class:`RunResult` bit-identical
    via :func:`run_results_identical`.
``plan``
    ``ExecutionEngine(lulesh, pmem6)`` built from an empty plan registry
    vs from a warm one (the shared :class:`WorkloadPlan`: segmentation,
    pack base, assembly plan), asserting both engines run bit-identical.
``baselines``
    The Memory Mode and kernel tiering packs: each model's native
    columnar ``traffic_batch`` against the generic per-segment replay
    of its scalar ``segment_traffic`` (``pack_traffic_batch``) on LULESH
    (miniFE in quick mode), asserting every ``TrafficBatch`` field
    identical and the same hit ratio / promotion cache.  The generic
    replay builds its object rows eagerly, so the native timer reads one
    ``obj_*`` field (building the native object rows) to stay
    like-for-like; ``rows_s`` is the native pack alone, the row matrices
    the fixed point reads.
``replay``
    The batched allocation replay (``replay_allocations``: only the
    heaps that can fill walked, through vectorized first-fit, memoized
    matcher, the plan's edge schedule) against its scalar oracle
    (``replay_allocations_scalar``) on a
    fragmentation-heavy LULESH replay — capacity-squeezed DRAM and
    heaps pre-fragmented with thousands of pinned 16 B holes, a
    synthetic worst case far longer than any free list a replay builds
    (at most about 20 blocks) — asserting the full
    :class:`ReplayResult` bit-identical via
    :func:`replay_results_identical`.  The batched timer runs on a warm
    workload plan, so it excludes the edge schedule build (``instances()``
    + lexsort) that the scalar oracle pays inside its timer; that build
    is timed separately (``schedule_s``) and ``cold_speedup`` includes
    it.  The 5x full-mode floor is on the warm ``speedup``.
``sweep``
    The fleet-scale sweep engine on the full Table VIII grid: the
    serial/uncached seed behaviour vs the scheduled cold path
    (work-stealing dispatch + profiles shared through the artifact store
    + manifest journal) vs a warm manifest resume of the same sweep,
    asserting every path bit-identical.
``service``
    The placement server's coalesced advisory path (one profile load +
    one vectorized ``density_batch`` pass per group) against the naive
    per-query ``run_ecohmem`` loop on a warm profile, asserting every
    batched report ``==`` its sequential scalar-oracle report (every
    float exact) and a >= 20x queries/second floor — in quick mode too.

Usage::

    PYTHONPATH=src python tools/perf_bench.py [--quick] [--jobs N]
        [--section NAME ...] [-o BENCH_pipeline.json]

``--quick`` shrinks the streams and the sweep for CI smoke runs; the
speedup assertions (kernel >= 10x) only apply to the full run, except
the service floor which always holds.  ``--section`` (repeatable) runs a
subset; the output JSON is then merged over the existing file so CI jobs
each refresh only their own sections.  Each section records the mode it
ran in (``"quick"``); the top-level ``"quick"`` is that mode when every
section in the file shares it, else ``"mixed"``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from unittest import mock

import numpy as np

from repro.alloc import BOMMatcher, FlexMalloc, build_heaps
from repro.alloc.report import PlacementEntry, PlacementReport
from repro.apps import get_workload, list_workloads
from repro.apps.generators import (
    Region, hot_cold_stream, random_access, sequential_stream,
)
from repro.apps.sites import SiteRegistry
from repro.baselines.memory_mode import MemoryModeTraffic
from repro.baselines.tiering import TieringTraffic, tiering_effective_dram
from repro.binary.callstack import StackFormat
from repro.experiments.fig6_sweep import compute_fig6
from repro.experiments.harness import run_ecohmem
from repro.experiments.parallel import add_jobs_argument, resolve_jobs
from repro.experiments.tab8_full_apps import compute_tab8
from repro.memsim.cache import SetAssociativeCache
from repro.memsim.subsystem import pmem6_system
from repro.pipeline import ArtifactStore, reset_default_artifact_store
from repro.profiling.cache import ProfileStore, reset_default_store
from repro.profiling.paramedir import Paramedir, SiteProfile
from repro.profiling.pebs import PEBSConfig
from repro.profiling.trace import Trace
from repro.profiling.tracer import ExtraeTracer, TracerConfig
from repro.runtime.engine import ExecutionEngine
from repro.runtime.replay import (
    replay_allocations,
    replay_allocations_scalar,
    replay_results_identical,
)
from repro.runtime.plan import REGISTRY, _build_replay_schedule, plan_for
from repro.runtime.stats import run_results_identical
from repro.runtime.traffic import (
    PlacementTraffic,
    pack_traffic_batch,
    traffic_batches_identical,
)
from repro.units import GiB, MiB

LLC = dict(size=16 * MiB, line_size=64, ways=16)

#: ``predict_times`` over K=16 LULESH candidates vs 16 sequential ``run``
#: calls that each read their result's detail, all on the shared
#: workload plan.  Per lane the fused path still packs like one ``run``;
#: it iterates each distinct fixed-point row once across all lanes, and
#: saves the engine construction, the per-object assembly and the
#: per-call overhead.  A plan rebuilt per packed lane costs about three
#: runs' worth per lane and fails the floor.
WHATIF_FLOOR = 1.75


def _read_detail(result):
    """``result`` with its phases, objects and timeline built (one read
    builds all three), as a ``run`` result always was before results
    deferred their detail."""
    result.objects
    return result


def _llc() -> SetAssociativeCache:
    return SetAssociativeCache(name="llc", **LLC)


def _kernel_streams(n: int):
    span = Region(0, 4 * LLC["size"])
    hot = Region(0, LLC["size"] // 4)
    rng = np.random.default_rng(42)
    return {
        "sequential": (sequential_stream(Region(0, n * 8), stride=8), None),
        "random": (random_access(span, n, seed=1),
                   rng.random(n) < 0.3),
        "hot_cold": (hot_cold_stream(hot, span, n, seed=2),
                     rng.random(n) < 0.3),
    }


def bench_kernel(quick: bool) -> dict:
    n = 120_000 if quick else 1_000_000
    out = {"accesses_per_stream": n, "streams": {}}
    total_scalar = total_vec = 0.0
    for name, (addrs, writes) in _kernel_streams(n).items():
        ref, vec = _llc(), _llc()
        t0 = time.perf_counter()
        hits_ref = ref.access_stream_scalar(addrs, writes)
        t_scalar = time.perf_counter() - t0
        t0 = time.perf_counter()
        hits_vec = vec.access_stream(addrs, writes)
        t_vec = time.perf_counter() - t0
        assert np.array_equal(hits_vec, hits_ref), f"{name}: hit masks differ"
        assert vec.stats == ref.stats, f"{name}: counters differ"
        total_scalar += t_scalar
        total_vec += t_vec
        out["streams"][name] = {
            "scalar_s": round(t_scalar, 4),
            "vectorized_s": round(t_vec, 4),
            "speedup": round(t_scalar / t_vec, 2),
        }
    out["scalar_s"] = round(total_scalar, 4)
    out["vectorized_s"] = round(total_vec, 4)
    out["speedup"] = round(total_scalar / total_vec, 2)
    return out


def bench_profile_cache(quick: bool) -> dict:
    wl_name = "minife"
    system = pmem6_system()
    store = ProfileStore()
    t0 = time.perf_counter()
    cold = run_ecohmem(get_workload(wl_name), system, dram_limit=12 * GiB,
                       profile_store=store)
    t_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = run_ecohmem(get_workload(wl_name), system, dram_limit=12 * GiB,
                       profile_store=store)
    t_warm = time.perf_counter() - t0
    assert store.hits == 1, "warm run did not hit the profile cache"
    assert warm.run.total_time == cold.run.total_time
    assert warm.site_placement == cold.site_placement

    # the one disk read left: the profile artifact, behind an empty LRU
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as root:
        astore = ArtifactStore(root)
        t0 = time.perf_counter()
        a_cold = run_ecohmem(get_workload(wl_name), system,
                             dram_limit=12 * GiB, profile_store=ProfileStore(),
                             artifact_store=astore)
        t_a_cold = time.perf_counter() - t0
        assert astore.puts == 1, "cold run published more than the profile"
        t0 = time.perf_counter()
        a_warm = run_ecohmem(get_workload(wl_name), system,
                             dram_limit=12 * GiB, profile_store=ProfileStore(),
                             artifact_store=astore)
        t_a_warm = time.perf_counter() - t0
        assert astore.puts == 1, "warm run published an artifact"
    for result in (a_cold, a_warm):
        assert result.run.total_time == cold.run.total_time
        assert result.site_placement == cold.site_placement
    return {
        "workload": wl_name,
        "cold_s": round(t_cold, 4),
        "warm_s": round(t_warm, 4),
        "speedup": round(t_cold / t_warm, 2),
        "artifact_cold_s": round(t_a_cold, 4),
        "artifact_warm_s": round(t_a_warm, 4),
    }


def _fig6_kwargs(quick: bool) -> dict:
    if quick:
        return dict(apps=["minife"], pmem_configs=(6,), dram_limits_gb=[12],
                    include_baseline_rows=False)
    return dict(apps=["minife", "minimd"], pmem_configs=(6,),
                dram_limits_gb=[8, 12], include_baseline_rows=True)


def bench_fig6(quick: bool, jobs=None) -> dict:
    kwargs = _fig6_kwargs(quick)
    env = os.environ
    jobs = resolve_jobs(jobs) if jobs is not None else None

    # serial, memoization off: the seed behaviour
    env["REPRO_PROFILE_CACHE"] = "off"
    env.pop("REPRO_ARTIFACT_DIR", None)
    reset_default_store()
    reset_default_artifact_store()
    t0 = time.perf_counter()
    serial = compute_fig6(jobs=1, **kwargs)
    t_serial = time.perf_counter() - t0

    # parallel, memoized: workers share profiles through the artifact store
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as artifact_dir:
        env.pop("REPRO_PROFILE_CACHE", None)
        env["REPRO_ARTIFACT_DIR"] = artifact_dir
        reset_default_store()
        reset_default_artifact_store()
        if jobs is None:
            jobs = min(os.cpu_count() or 1, 8)
        t0 = time.perf_counter()
        fast = compute_fig6(jobs=jobs, **kwargs)
        t_fast = time.perf_counter() - t0
    env.pop("REPRO_ARTIFACT_DIR", None)
    reset_default_store()
    reset_default_artifact_store()

    assert fast.cells == serial.cells, "parallel+cached sweep diverged"
    assert fast.tiering == serial.tiering
    assert fast.profdp == serial.profdp
    return {
        "cells": len(serial.cells),
        "jobs": jobs,
        "serial_uncached_s": round(t_serial, 4),
        "parallel_cached_s": round(t_fast, 4),
        "speedup": round(t_serial / t_fast, 2),
    }


def bench_sweep(quick: bool, jobs=None) -> dict:
    """The sweep engine on the full Table VIII grid, three ways.

    ``serial_uncached`` is the seed behaviour (inline serial loop, no
    caches, no journal); ``scheduled_cold`` adds the work-stealing pool,
    profiles shared through the artifact store and the sweep manifest;
    ``resume`` re-runs the same sweep against the populated manifest —
    every cell is served from the journal, so this is the fleet's
    steady-state restart cost.  All three produce bit-identical rows.
    """
    env = os.environ
    jobs = resolve_jobs(jobs) if jobs is not None else min(
        os.cpu_count() or 1, 8)

    def _reset():
        reset_default_store()
        reset_default_artifact_store()

    # serial, everything off: the seed behaviour
    saved = {k: env.pop(k, None) for k in (
        "REPRO_PROFILE_CACHE", "REPRO_ARTIFACT_DIR",
        "REPRO_SWEEP_MANIFEST", "REPRO_RESULT_DB",
    )}
    try:
        env["REPRO_PROFILE_CACHE"] = "off"
        _reset()
        t0 = time.perf_counter()
        serial = compute_tab8(jobs=1)
        t_serial = time.perf_counter() - t0

        with tempfile.TemporaryDirectory(prefix="repro-bench-") as td:
            env.pop("REPRO_PROFILE_CACHE", None)
            env["REPRO_ARTIFACT_DIR"] = os.path.join(td, "artifacts")
            _reset()
            manifest = os.path.join(td, "manifest.jsonl")

            t0 = time.perf_counter()
            cold = compute_tab8(jobs=jobs, manifest=manifest)
            t_cold = time.perf_counter() - t0

            t0 = time.perf_counter()
            resumed = compute_tab8(jobs=jobs, manifest=manifest)
            t_resume = time.perf_counter() - t0
    finally:
        for k in ("REPRO_PROFILE_CACHE", "REPRO_ARTIFACT_DIR"):
            env.pop(k, None)
        for k, v in saved.items():
            if v is not None:
                env[k] = v
        _reset()

    assert cold == serial, "scheduled sweep diverged from serial oracle"
    assert resumed == serial, "manifest resume diverged from serial oracle"
    cells = len(serial)
    return {
        "cells": cells,
        "jobs": jobs,
        "serial_uncached_s": round(t_serial, 4),
        "scheduled_cold_s": round(t_cold, 4),
        "resume_s": round(t_resume, 4),
        "cold_speedup": round(t_serial / t_cold, 2),
        "resume_speedup": round(t_serial / t_resume, 2),
        "serial_runs_per_s": round(cells / t_serial, 2),
        "cold_runs_per_s": round(cells / t_cold, 2),
        "resume_runs_per_s": round(cells / t_resume, 2),
    }


_PROFILE_FIELDS = tuple(f.name for f in dataclasses.fields(SiteProfile))


def _assert_profiles_identical(a, b, label):
    assert list(a.keys()) == list(b.keys()), f"{label}: site sets differ"
    for key in a:
        for field in _PROFILE_FIELDS:
            assert getattr(a[key], field) == getattr(b[key], field), (
                f"{label}: {key} {field} differs")


def bench_profiling(quick: bool) -> dict:
    # Full mode profiles LULESH at 1 kHz PEBS — the sampling density
    # where the scalar path's per-event Python cost dominates; quick mode
    # uses the small miniFE workload at the paper's 100 Hz.
    wl_name, hz = ("minife", 100.0) if quick else ("lulesh", 1000.0)
    wl = get_workload(wl_name)
    tracer = ExtraeTracer(
        wl, TracerConfig(seed=3, pebs=PEBSConfig(frequency_hz=hz)))
    pd = Paramedir()

    t0 = time.perf_counter()
    vec_trace = tracer.run(rank=0, aslr_seed=7)
    vec_profiles = pd.analyze(vec_trace)
    t_vec = time.perf_counter() - t0

    t0 = time.perf_counter()
    scalar_trace = tracer.run_scalar(rank=0, aslr_seed=7)
    scalar_profiles = pd.analyze_scalar(scalar_trace)
    t_scalar = time.perf_counter() - t0

    assert vec_trace.same_events(scalar_trace), "traces diverged"
    _assert_profiles_identical(vec_profiles, scalar_profiles, "profiles")

    # The production path at the paper's 100 Hz (what profile_workload
    # runs): the same profiles as run + analyze, without building a
    # trace.  The gap is about 1.4x there, and one-shot timings on a
    # shared 2-vCPU VM spread from 1.2x to 2.1x, so full mode takes the
    # best of five interleaved runs of each.
    prod_tracer = ExtraeTracer(wl, TracerConfig(seed=3))
    t_run_analyze = t_direct = float("inf")
    for _ in range(1 if quick else 5):
        t0 = time.perf_counter()
        prod_trace = prod_tracer.run(rank=0, aslr_seed=7)
        prod_profiles = pd.analyze(prod_trace)
        t_run_analyze = min(t_run_analyze, time.perf_counter() - t0)
        t0 = time.perf_counter()
        direct_profiles = prod_tracer.profile(rank=0, aslr_seed=7)
        t_direct = min(t_direct, time.perf_counter() - t0)
    _assert_profiles_identical(direct_profiles, prod_profiles,
                               "direct profiles")

    # cold profiling: every registered app profiled from scratch at the
    # paper's 100 Hz, with the profiling stage's tracer configuration (a
    # fresh tracer over the workload's own site registry, as a
    # profile-store miss builds); best of 3, no floor
    cold = {}
    for app in list_workloads():
        app_wl = get_workload(app)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            ExtraeTracer(app_wl, TracerConfig(
                seed=11, pebs=PEBSConfig(frequency_hz=100.0, seed=78),
            )).profile(rank=0, aslr_seed=1011)
            best = min(best, time.perf_counter() - t0)
        cold[app] = round(best, 4)

    # onboarding: whole cold run_ecohmem calls on one LULESH workload, a
    # fresh profile store each and no artifact store, so every call
    # profiles from scratch while the workload's own derived values
    # (fingerprint, instances, site registry) are built once; best of 3
    # per algorithm, no floor
    onboard_wl = get_workload("lulesh")
    onboard_sys = pmem6_system()
    onboard_dram = int(onboard_wl.heap_high_water() * 0.3)
    onboard = {}
    with mock.patch.dict(os.environ, {"REPRO_ARTIFACT_DIR": ""}):
        for algo in ("density", "bw-aware"):
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                run_ecohmem(onboard_wl, onboard_sys, dram_limit=onboard_dram,
                            algorithm=algo, profile_store=ProfileStore())
                best = min(best, time.perf_counter() - t0)
            onboard[algo] = round(best, 4)

    # trace I/O: the inspectable JSONL format vs the binary columns, on
    # the 100 Hz trace so the file stays an honest single-run trace size
    io_trace = prod_trace
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as d:
        jl = os.path.join(d, "trace.jsonl")
        nz = os.path.join(d, "trace.npz")
        t0 = time.perf_counter()
        io_trace.dump(jl)
        t_dump_jsonl = time.perf_counter() - t0
        t0 = time.perf_counter()
        io_trace.dump(nz)
        t_dump_npz = time.perf_counter() - t0
        t0 = time.perf_counter()
        via_jsonl = Trace.load(jl)
        t_load_jsonl = time.perf_counter() - t0
        t0 = time.perf_counter()
        via_npz = Trace.load(nz)
        t_load_npz = time.perf_counter() - t0
    assert via_jsonl.same_events(io_trace), "jsonl round trip diverged"
    assert via_npz.same_events(io_trace), "npz round trip diverged"

    return {
        "workload": wl_name,
        "pebs_hz": hz,
        "samples": vec_trace.num_samples,
        "scalar_s": round(t_scalar, 4),
        "vectorized_s": round(t_vec, 4),
        "speedup": round(t_scalar / t_vec, 2),
        "direct": {
            "pebs_hz": prod_tracer.config.pebs.frequency_hz,
            "run_analyze_s": round(t_run_analyze, 4),
            "profile_s": round(t_direct, 4),
            "speedup": round(t_run_analyze / t_direct, 2),
        },
        "cold_profile_s": {**cold, "total": round(sum(cold.values()), 4)},
        "onboard_s": {"workload": "lulesh", **onboard},
        "trace_io": {
            "samples": io_trace.num_samples,
            "dump_jsonl_s": round(t_dump_jsonl, 4),
            "dump_npz_s": round(t_dump_npz, 4),
            "load_jsonl_s": round(t_load_jsonl, 4),
            "load_npz_s": round(t_load_npz, 4),
            "load_speedup": round(t_load_jsonl / t_load_npz, 2),
        },
    }


def bench_engine(quick: bool) -> dict:
    # Construction is timed with the run; both engines find the workload
    # plan compiled before the timers, as every engine after the first
    # does in a consumer.  ``run_scalar`` always builds its detail, so
    # the vectorized result's detail is read inside its timer too.
    wl_name = "minife" if quick else "lulesh"
    wl = get_workload(wl_name)
    system = pmem6_system()
    placement = {
        obj.site.name: ("dram" if i % 2 == 0 else "pmem")
        for i, obj in enumerate(wl.objects)
    }

    plan_for(wl)
    t0 = time.perf_counter()
    engine = ExecutionEngine(wl, system)
    vec = _read_detail(engine.run(PlacementTraffic(wl, placement)))
    t_vec = time.perf_counter() - t0

    t0 = time.perf_counter()
    engine = ExecutionEngine(wl, system)
    sca = engine.run_scalar(PlacementTraffic(wl, placement))
    t_scalar = time.perf_counter() - t0

    mismatches = run_results_identical(vec, sca)
    assert mismatches == [], "engine diverged: " + "; ".join(mismatches[:3])

    return {
        "workload": wl_name,
        "segments": engine._segment_arrays.num_segments,
        "scalar_s": round(t_scalar, 4),
        "vectorized_s": round(t_vec, 4),
        "speedup": round(t_scalar / t_vec, 2),
    }


def bench_plan(quick: bool) -> dict:
    """``ExecutionEngine(lulesh, pmem6)`` with a cold and a warm plan
    registry; both engines' runs must be bit-identical.  The workload is
    LULESH in quick mode too: its plan is the one worth sharing."""
    system = pmem6_system()
    REGISTRY.clear()
    t0 = time.perf_counter()
    cold = ExecutionEngine(get_workload("lulesh"), system)
    t_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = ExecutionEngine(get_workload("lulesh"), system)
    t_warm = time.perf_counter() - t0
    assert warm._plan is cold._plan and REGISTRY.builds == 1

    wl = warm.workload
    placement = {
        obj.site.name: ("dram" if i % 2 == 0 else "pmem")
        for i, obj in enumerate(wl.objects)
    }
    mismatches = run_results_identical(
        cold.run(PlacementTraffic(wl, placement)),
        warm.run(PlacementTraffic(wl, placement)))
    assert mismatches == [], "shared plan diverged: " + "; ".join(
        mismatches[:3])
    return {
        "workload": "lulesh",
        "segments": warm._segment_arrays.num_segments,
        "plan_cold_s": round(t_cold, 4),
        "plan_warm_s": round(t_warm, 4),
        "speedup": round(t_cold / t_warm, 2),
    }


def bench_baselines(quick: bool) -> dict:
    wl_name = "minife" if quick else "lulesh"
    wl = get_workload(wl_name)
    system = pmem6_system()
    plan = plan_for(wl)
    segments = plan.segments
    dram = system.get("dram").capacity
    eff = tiering_effective_dram(dram, system.get("pmem").capacity)
    models = {
        "memory_mode": lambda: MemoryModeTraffic(wl, dram),
        "tiering": lambda: TieringTraffic(wl, eff),
    }
    out = {"workload": wl_name, "segments": segments.num_segments,
           "pairs": int(segments.pair_seg.size)}
    for name, make in models.items():
        native, generic = make(), make()
        t0 = time.perf_counter()
        packed = native.traffic_batch(plan, system.names)
        packed.obj_loads  # builds the deferred object rows
        t_native = time.perf_counter() - t0
        t0 = time.perf_counter()
        replayed = pack_traffic_batch(generic, wl, segments, system.names)
        t_generic = time.perf_counter() - t0
        t0 = time.perf_counter()
        make().traffic_batch(plan, system.names)
        t_rows = time.perf_counter() - t0
        fields = traffic_batches_identical(packed, replayed)
        assert fields == [], f"{name} pack diverged in {fields}"
        if name == "memory_mode":
            assert native.mean_hit_ratio() == generic.mean_hit_ratio()
        else:
            assert native._promoted_cache == generic._promoted_cache
        out[name] = {
            "generic_s": round(t_generic, 4),
            "native_s": round(t_native, 4),
            "rows_s": round(t_rows, 4),
            "speedup": round(t_generic / t_native, 2),
        }
    return out


def _prefragment(heap, holes: int) -> None:
    """Checkerboard ``holes`` pinned 16 B holes at the base of the heap.

    A synthetic worst case: a free list thousands of entries long whose
    holes are too small for any replay allocation, so every scalar
    first-fit scan walks past all of them in Python while the vectorized
    path compares them in one NumPy pass.  The live odd blocks pin the
    holes open (no coalescing).
    """
    blocks = [heap.allocate(16) for _ in range(2 * holes)]
    for alloc in blocks[::2]:
        heap.free(alloc.address)


def bench_replay(quick: bool) -> dict:
    # Full mode replays LULESH (2634 instances) over heavily
    # pre-fragmented heaps with a capacity-squeezed DRAM budget — the
    # configuration where the scalar path's linear first-fit scan
    # dominates; quick mode uses miniFE with a lighter fragment load.
    wl_name, holes = ("minife", 512) if quick else ("lulesh", 8192)
    wl = get_workload(wl_name)
    registry = SiteRegistry(wl)
    profiling = registry.make_process(rank=0, aslr_seed=500)
    report = PlacementReport(StackFormat.BOM)
    for i, obj in enumerate(wl.objects):
        if i % 2 == 0:
            report.add(PlacementEntry(
                site=profiling.site_key(obj.site, StackFormat.BOM),
                subsystem="dram",
            ))
    dram_limit = max(wl.heap_high_water() // 4, 1 * MiB)

    def side(memoize: bool):
        production = registry.make_process(rank=0, aslr_seed=777)
        heaps = build_heaps(pmem6_system(), dram_limit=dram_limit)
        for heap in heaps:
            _prefragment(heap, holes)
        matcher = BOMMatcher(report, production.space, memoize=memoize)
        return production, FlexMalloc(heaps, matcher)

    # the replay's edge schedule is part of the shared workload plan,
    # compiled once before the timers as a pipeline's engines do; its
    # build is timed on its own and reported as the cold speedup
    plan_for(wl)
    t0 = time.perf_counter()
    _build_replay_schedule(wl, wl.instances())
    t_schedule = time.perf_counter() - t0
    proc_f, flex_f = side(memoize=True)
    pinned = {h.subsystem: h.stats.allocations for h in flex_f.heaps}
    t0 = time.perf_counter()
    fast = replay_allocations(wl, proc_f, flex_f)
    t_vec = time.perf_counter() - t0
    replayed = {h.subsystem: h.stats.allocations - pinned[h.subsystem]
                for h in flex_f.heaps}

    proc_s, flex_s = side(memoize=False)
    t0 = time.perf_counter()
    scalar = replay_allocations_scalar(wl, proc_s, flex_s)
    t_scalar = time.perf_counter() - t0

    mismatches = replay_results_identical(fast, scalar)
    assert mismatches == [], "replay diverged: " + "; ".join(mismatches[:3])

    return {
        "workload": wl_name,
        "instances": len(wl.instances()),
        "prefragment_holes": holes,
        # allocations per heap: first-fit walked, or accounted in bulk
        "walked_allocations": {
            sub: n for sub, n in replayed.items() if sub in fast.walked},
        "bulk_allocations": {
            sub: n for sub, n in replayed.items() if sub not in fast.walked},
        "capacity_fallbacks": flex_f.stats.fallback_capacity,
        "scalar_s": round(t_scalar, 4),
        "vectorized_s": round(t_vec, 4),
        "speedup": round(t_scalar / t_vec, 2),
        "schedule_s": round(t_schedule, 4),
        "cold_speedup": round(t_scalar / (t_vec + t_schedule), 2),
    }


def bench_service(quick: bool) -> dict:
    """The coalesced advisory service vs naive per-query ``run_ecohmem``.

    The naive baseline answers each advisory by running the full pipeline
    (placement + production run) on a warm profile — what a client had to
    do before the service existed.  The server answers the same stream of
    queries through one profile load and one vectorized ``density_batch``
    pass per coalesced group.  Every batched report must compare ``==``
    (every float exact) to :func:`sequential_advisory`'s scalar-oracle
    answer, and the throughput floor (>= 20x) is asserted in quick mode
    too — it is CI's contract for the service.  Both sides are timed
    warm, best of 3: one cold 30 ms timer lets host noise move the ratio
    across the floor.
    """
    from repro.service import (
        AdvisoryRequest, PlacementServer, sequential_advisory,
    )

    wl_name = "minife"
    wl = get_workload(wl_name)
    system = pmem6_system()
    store = ProfileStore()
    n_naive = 6 if quick else 12
    n_queries = 64 if quick else 256
    limits = [(2 + (i % 13)) * GiB for i in range(n_queries)]

    # naive baseline: one full run_ecohmem per advisory, profile warm
    def naive():
        for i in range(n_naive):
            run_ecohmem(wl, system, dram_limit=limits[i % len(limits)],
                        profile_store=store)

    _, t_naive = _warm_best_of(naive)
    naive_qps = n_naive / t_naive

    requests = [
        AdvisoryRequest(workload=wl_name, dram_limit=limits[i],
                        use_stores=(i % 3 != 0))
        for i in range(n_queries)
    ]

    # a fresh server per repeat, so every repeat coalesces the same
    # groups and loads the same profile; built and stopped untimed
    def server():
        return PlacementServer(workers=4, batch_window_ms=25.0,
                               max_batch=n_queries, profile_store=store)

    def burst(srv):
        return srv.query_many(requests), srv.stats

    (batched, stats), t_batched = _warm_best_of(burst, setup=server)

    sequential = [sequential_advisory(r, profile_store=store)
                  for r in requests]
    for b, s in zip(batched, sequential):
        assert b.ok and s.ok, (b.error, s.error)
        assert b == s, "batched report diverged from sequential oracle"

    qps = n_queries / t_batched
    speedup = qps / naive_qps
    return {
        "workload": wl_name,
        "queries": n_queries,
        "naive_queries": n_naive,
        "naive_s": round(t_naive, 4),
        "batched_s": round(t_batched, 4),
        "naive_qps": round(naive_qps, 2),
        "batched_qps": round(qps, 2),
        "speedup": round(speedup, 2),
        "batches": stats.batches,
        "profile_loads": stats.profile_loads,
        "max_group": stats.max_group,
    }


def _warm_best_of(fn, repeats: int = 3, setup=None):
    """``fn()`` run once untimed, then ``repeats`` timed; returns the
    last output and the best time.  The warm-up keeps one-off costs
    (first-touch allocations, lazily built caches) out of whichever path
    happens to be timed first.  With ``setup``, each call is ``fn(ctx)``
    inside ``with setup() as ctx``, entered and exited outside the
    timer."""
    def timed():
        if setup is None:
            t0 = time.perf_counter()
            return fn(), time.perf_counter() - t0
        with setup() as ctx:
            t0 = time.perf_counter()
            out = fn(ctx)
            return out, time.perf_counter() - t0

    out, _ = timed()
    best = float("inf")
    for _ in range(repeats):
        out, elapsed = timed()
        best = min(best, elapsed)
    return out, best


def bench_whatif(quick: bool) -> dict:
    """K candidate placements in one fused pass vs K sequential runs.

    The what-if hot loop: score K=16 distinct candidate placements of
    LULESH (nested size-ordered DRAM prefixes, from nearly-all-PMem to
    nearly-all-DRAM) on pmem6.  The sequential baseline pays a fresh
    ``ExecutionEngine.run`` per candidate and reads its result's detail
    — what every consumer paid before the fused path and before results
    deferred their detail.  All three paths find the shared workload
    plan, compiled once before the timers, as a consumer's engines do.
    ``run_batch`` shares packing and the fixed point, and its lanes'
    detail is read in its timer too; ``predict_times`` builds no detail
    (the ranking path).  Each path runs once untimed and then reports
    its best of three.  Both fused paths are asserted bit-identical to
    the sequential runs, untimed; the ``WHATIF_FLOOR`` on
    ``predict_times`` is CI's contract and holds in quick mode too (the
    acceptance grid names LULESH, so quick mode keeps it).  ``rows`` and
    ``distinct_rows`` count the fused pass's fixed-point rows and the
    distinct ones it iterates.
    """
    del quick  # the floor is defined at K=16 on LULESH in every mode
    wl_name = "lulesh"
    wl = get_workload(wl_name)
    system = pmem6_system()
    K = 16
    order = sorted(wl.objects, key=lambda o: (-o.size, o.site.name))
    sites = [o.site.name for o in order]
    candidates = []
    for k in range(K):
        c = max(1, ((k + 1) * len(sites)) // (K + 1))
        candidates.append({s: ("dram" if i < c else "pmem")
                           for i, s in enumerate(sites)})
    assert len({tuple(sorted(c.items())) for c in candidates}) == K

    def sequential():
        return [_read_detail(ExecutionEngine(wl, system).run(
            PlacementTraffic(wl, cand))) for cand in candidates]

    def fused():
        return [_read_detail(r) for r in ExecutionEngine(wl, system).run_batch(
            [PlacementTraffic(wl, c) for c in candidates])]

    def predict():
        return ExecutionEngine(wl, system).predict_times(
            [PlacementTraffic(wl, c) for c in candidates])

    plan = plan_for(wl)
    seq, t_seq = _warm_best_of(sequential)
    batch, t_batch = _warm_best_of(fused)
    times, t_predict = _warm_best_of(predict)

    for k, (b, s) in enumerate(zip(batch, seq)):
        mism = run_results_identical(b, s)
        assert mism == [], (
            f"what-if lane {k} diverged: " + "; ".join(mism[:3]))
    assert times == [r.total_time for r in batch], \
        "predict_times diverged from run_batch totals"

    with mock.patch.object(ExecutionEngine, "_iterate", autospec=True,
                           side_effect=ExecutionEngine._iterate) as iterate:
        predict()
    return {
        "workload": wl_name,
        "candidates": K,
        "rows": K * plan.segments.num_segments,
        "distinct_rows": int(iterate.call_args.args[2].size),
        "sequential_s": round(t_seq, 4),
        "run_batch_s": round(t_batch, 4),
        "predict_s": round(t_predict, 4),
        "full_speedup": round(t_seq / t_batch, 2),
        "speedup": round(t_seq / t_predict, 2),
    }


def bench_online(quick: bool) -> dict:
    """E-epoch online re-advisory: incremental delta engine vs full recompute.

    Runs the complete phase-aware loop of
    :func:`repro.runtime.online.run_online` twice on LULESH/pmem6 with a
    zero shift threshold (every epoch boundary re-advises): once through
    the incremental path — frozen prefix rows, a suffix-only fixed
    point, all candidates fused — and once through the naive path
    every consumer would otherwise pay, a per-candidate scalar pack of
    the patched placement through the generic per-segment replay.  The
    two runs are asserted to make identical decisions and produce
    bit-equal totals, untimed; the >= 5x floor is CI's contract and
    holds in quick mode too (the acceptance grid names the E-epoch loop,
    so quick mode keeps it).
    """
    del quick  # the floor is defined on the full LULESH loop in every mode
    from repro.pipeline.online import static_placement
    from repro.runtime.online import OnlineParams, run_online

    wl = get_workload("lulesh")
    system = pmem6_system()
    dram_limit = max(int(wl.heap_high_water() * 0.1), 1)
    params = OnlineParams(epochs=8, shift_threshold=0.0)

    engine = ExecutionEngine(wl, system)
    static = static_placement(wl, system, dram_limit, engine=engine)

    t0 = time.perf_counter()
    inc = run_online(wl, system, static, dram_limit=dram_limit,
                     params=params, engine=engine, use_incremental=True)
    t_inc = time.perf_counter() - t0

    t0 = time.perf_counter()
    full = run_online(wl, system, static, dram_limit=dram_limit,
                      params=params, engine=engine, use_incremental=False)
    t_full = time.perf_counter() - t0

    assert inc.candidate_evaluations == full.candidate_evaluations > 0, \
        "online bench evaluated no candidates — the loop never fired"
    assert inc.result.total_time == full.result.total_time, \
        "incremental and full online paths diverged on the engine total"
    assert inc.migration_total_s == full.migration_total_s
    assert ([e.boundary_seg for e in inc.events]
            == [e.boundary_seg for e in full.events]), \
        "incremental and full online paths accepted different moves"

    return {
        "workload": "lulesh",
        "epochs": params.epochs,
        "evaluations": inc.candidate_evaluations,
        "migrations": inc.migrations,
        "segments": engine._segment_arrays.num_segments,
        "incremental_s": round(t_inc, 4),
        "full_s": round(t_full, 4),
        "speedup": round(t_full / t_inc, 2),
    }


def bench_corpus(quick: bool, jobs=None) -> dict:
    """Workload-corpus generation + the placement-CI quality sweep.

    Times (a) seeded generation of a corpus slice plus a determinism
    re-check (same seed must reproduce the same digests), and (b) the
    64-cell advisor-vs-tiering quality sweep dispatched through the
    work-stealing scheduler.  The wall-clock budget on generate+sweep is
    CI's contract that corpus-scale placement evaluation stays cheap —
    it holds in quick mode too.
    """
    from repro.apps.corpus import corpus_digest, generate_corpus
    from repro.apps.dsl import default_corpus_spec
    from repro.experiments.quality import run_quality

    spec = default_corpus_spec()
    n_generate = 256 if quick else 1000
    t0 = time.perf_counter()
    cells = generate_corpus(spec, 2026, n_generate)
    t_generate = time.perf_counter() - t0

    digest = corpus_digest(cells[:64])
    again = corpus_digest(generate_corpus(spec, 2026, 64))
    deterministic = digest == again

    t0 = time.perf_counter()
    report = run_quality(cells=64, jobs=jobs)
    t_sweep = time.perf_counter() - t0

    return {
        "generated": n_generate,
        "generate_s": round(t_generate, 4),
        "deterministic": deterministic,
        "digest": digest[:16],
        "sweep_cells": len(report.cells),
        "sweep_s": round(t_sweep, 4),
        "total_s": round(t_generate + t_sweep, 4),
        "win_rate": round(report.win_rate, 4),
        "monotone_rate": round(report.monotone_rate, 4),
        "jobs": resolve_jobs(jobs),
    }


def _file_mode(results: dict) -> "bool | str":
    """The top-level ``"quick"`` of a merged results file: the mode every
    section in it ran in, or ``"mixed"`` when they differ (a section
    without its own ``"quick"`` record counts as unknown)."""
    modes = {results[name].get("quick") for name in SECTIONS
             if isinstance(results.get(name), dict)}
    return modes.pop() if len(modes) == 1 and None not in modes else "mixed"


#: section name -> benchmark callable (jobs-aware ones wrapped in main)
SECTIONS = ("kernel", "profile_cache", "fig6_sweep", "profiling",
            "engine", "plan", "baselines", "replay", "sweep", "service",
            "whatif", "online", "corpus")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small streams / reduced sweep (CI smoke)")
    add_jobs_argument(parser)
    parser.add_argument("--section", action="append", choices=SECTIONS,
                        dest="sections", metavar="NAME",
                        help="run only this section (repeatable); the "
                             "output JSON is merged over the existing file")
    parser.add_argument("-o", "--output", default="BENCH_pipeline.json")
    args = parser.parse_args(argv)
    # argparse ``choices`` guards the CLI, but programmatic main(argv)
    # callers and future SECTIONS edits must fail just as loudly — a
    # typo'd section silently benching nothing is how floors rot
    unknown = [s for s in (args.sections or []) if s not in SECTIONS]
    if unknown:
        parser.error(
            f"unknown section(s) {unknown} — choose from {list(SECTIONS)}")
    want = set(args.sections or SECTIONS)

    results = {"quick": args.quick}
    if args.sections and os.path.exists(args.output):
        # subset run: refresh only the selected sections in place
        try:
            with open(args.output) as fh:
                previous = json.load(fh)
            if isinstance(previous, dict):
                previous.update(results)
                results = previous
        except ValueError:
            pass

    if "kernel" in want:
        print(f"cache kernel ({'quick' if args.quick else 'full'}) ...",
              flush=True)
        results["kernel"] = bench_kernel(args.quick)
        print(f"  scalar {results['kernel']['scalar_s']}s -> vectorized "
              f"{results['kernel']['vectorized_s']}s "
              f"({results['kernel']['speedup']}x)")

    if "profile_cache" in want:
        print("profile memoization ...", flush=True)
        results["profile_cache"] = bench_profile_cache(args.quick)
        pc = results["profile_cache"]
        print(f"  cold {pc['cold_s']}s -> warm {pc['warm_s']}s "
              f"({pc['speedup']}x); artifact cold {pc['artifact_cold_s']}s "
              f"-> warm {pc['artifact_warm_s']}s")

    if "fig6_sweep" in want:
        print("fig6 sweep ...", flush=True)
        results["fig6_sweep"] = bench_fig6(args.quick, jobs=args.jobs)
        print(f"  serial/uncached "
              f"{results['fig6_sweep']['serial_uncached_s']}s "
              f"-> parallel/cached "
              f"{results['fig6_sweep']['parallel_cached_s']}s "
              f"({results['fig6_sweep']['speedup']}x, "
              f"jobs={results['fig6_sweep']['jobs']})")

    if "profiling" in want:
        print("profiling cold path ...", flush=True)
        results["profiling"] = bench_profiling(args.quick)
        prof = results["profiling"]
        print(f"  tracer+analyzer scalar {prof['scalar_s']}s -> vectorized "
              f"{prof['vectorized_s']}s ({prof['speedup']}x, "
              f"{prof['samples']} samples)")
        direct = prof["direct"]
        print(f"  run+analyze {direct['run_analyze_s']}s -> direct profile "
              f"{direct['profile_s']}s ({direct['speedup']}x, "
              f"{direct['pebs_hz']:g} Hz)")
        cold = prof["cold_profile_s"]
        print("  cold profile() at 100 Hz: " + ", ".join(
            f"{app} {t * 1e3:.1f} ms" for app, t in cold.items()))
        print("  onboard LULESH run_ecohmem: " + ", ".join(
            f"{algo} {t * 1e3:.1f} ms"
            for algo, t in prof["onboard_s"].items() if algo != "workload"))
        print(f"  trace load jsonl {prof['trace_io']['load_jsonl_s']}s -> "
              f"npz {prof['trace_io']['load_npz_s']}s "
              f"({prof['trace_io']['load_speedup']}x)")

    if "engine" in want:
        print("execution engine ...", flush=True)
        results["engine"] = bench_engine(args.quick)
        print(f"  engine scalar {results['engine']['scalar_s']}s -> batched "
              f"{results['engine']['vectorized_s']}s "
              f"({results['engine']['speedup']}x, "
              f"{results['engine']['segments']} segments)")

    if "plan" in want:
        print("workload plan ...", flush=True)
        results["plan"] = bench_plan(args.quick)
        pl = results["plan"]
        print(f"  engine build cold {pl['plan_cold_s']}s -> warm "
              f"{pl['plan_warm_s']}s ({pl['speedup']}x, "
              f"{pl['segments']} segments)")

    if "baselines" in want:
        print("baseline packs ...", flush=True)
        results["baselines"] = bench_baselines(args.quick)
        bl = results["baselines"]
        for name in ("memory_mode", "tiering"):
            print(f"  {name} generic {bl[name]['generic_s']}s -> native "
                  f"{bl[name]['native_s']}s ({bl[name]['speedup']}x, "
                  f"{bl['segments']} segments, {bl['pairs']} live pairs; "
                  f"rows only {bl[name]['rows_s']}s)")

    if "replay" in want:
        print("allocation replay ...", flush=True)
        results["replay"] = bench_replay(args.quick)
        rep = results["replay"]
        print(f"  replay scalar {rep['scalar_s']}s -> batched "
              f"{rep['vectorized_s']}s ({rep['speedup']}x; "
              f"{rep['cold_speedup']}x with the {rep['schedule_s']}s "
              f"schedule build, "
              f"{rep['instances']} instances, "
              f"{rep['prefragment_holes']} holes, walked "
              f"{rep['walked_allocations']}, bulk {rep['bulk_allocations']})")

    if "sweep" in want:
        print("sweep engine (tab8) ...", flush=True)
        results["sweep"] = bench_sweep(args.quick, jobs=args.jobs)
        sw = results["sweep"]
        print(f"  serial/uncached {sw['serial_uncached_s']}s -> scheduled "
              f"cold {sw['scheduled_cold_s']}s ({sw['cold_speedup']}x, "
              f"jobs={sw['jobs']}) -> manifest resume {sw['resume_s']}s "
              f"({sw['resume_speedup']}x, {sw['cells']} rows)")

    if "service" in want:
        print("placement service ...", flush=True)
        results["service"] = bench_service(args.quick)
        svc = results["service"]
        print(f"  naive {svc['naive_qps']} q/s -> batched "
              f"{svc['batched_qps']} q/s ({svc['speedup']}x, "
              f"{svc['queries']} queries in {svc['batches']} batch(es), "
              f"{svc['profile_loads']} profile load(s))")

    if "whatif" in want:
        print("what-if batch engine ...", flush=True)
        results["whatif"] = bench_whatif(args.quick)
        wi = results["whatif"]
        print(f"  {wi['candidates']} candidates sequential "
              f"{wi['sequential_s']}s -> run_batch {wi['run_batch_s']}s "
              f"({wi['full_speedup']}x) -> predict {wi['predict_s']}s "
              f"({wi['speedup']}x); {wi['distinct_rows']} of {wi['rows']} "
              f"fixed-point rows distinct")

    if "online" in want:
        print("online re-advisory (incremental delta engine) ...", flush=True)
        results["online"] = bench_online(args.quick)
        onl = results["online"]
        print(f"  {onl['epochs']}-epoch loop ({onl['evaluations']} "
              f"evaluations, {onl['segments']} segments) full "
              f"{onl['full_s']}s -> incremental {onl['incremental_s']}s "
              f"({onl['speedup']}x)")

    if "corpus" in want:
        print("workload corpus ...", flush=True)
        results["corpus"] = bench_corpus(args.quick, jobs=args.jobs)
        cor = results["corpus"]
        print(f"  generate {cor['generated']} cells {cor['generate_s']}s "
              f"(deterministic={cor['deterministic']}) -> quality sweep "
              f"{cor['sweep_cells']} cells {cor['sweep_s']}s "
              f"(win rate {cor['win_rate']}, jobs={cor['jobs']})")

    for name in want:
        results[name]["quick"] = args.quick
    results["quick"] = _file_mode(results)
    with open(args.output, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")

    if "corpus" in want:
        # the corpus floors hold in quick mode too: they are CI's contract
        # that corpus-scale placement evaluation stays cheap and seeded
        if not results["corpus"]["deterministic"]:
            print("FAIL: corpus regeneration changed digests",
                  file=sys.stderr)
            return 1
        if results["corpus"]["total_s"] >= 120.0:
            print("FAIL: corpus generate+sweep exceeded the 120 s budget",
                  file=sys.stderr)
            return 1
    if "service" in want and results["service"]["speedup"] < 20.0:
        # the service floor holds in quick mode too: coalescing must
        # beat the naive per-query pipeline by 20x on a warm profile
        print("FAIL: service advisory throughput below 20x naive",
              file=sys.stderr)
        return 1
    if "whatif" in want and results["whatif"]["speedup"] < WHATIF_FLOOR:
        # holds in quick mode too: the fused prediction path must beat
        # K=16 sequential LULESH runs by WHATIF_FLOOR
        print(f"FAIL: what-if fused prediction below {WHATIF_FLOOR}x "
              f"sequential at K=16", file=sys.stderr)
        return 1
    if "online" in want and results["online"]["speedup"] < 5.0:
        # holds in quick mode too: the incremental delta engine must beat
        # the full-recompute re-advisory loop by 5x (the acceptance floor)
        print("FAIL: incremental online re-advisory below 5x full recompute",
              file=sys.stderr)
        return 1
    if not args.quick:
        if "kernel" in want and results["kernel"]["speedup"] < 10.0:
            print("FAIL: cache kernel speedup below 10x", file=sys.stderr)
            return 1
        if ("fig6_sweep" in want
                and results["fig6_sweep"]["jobs"] > 1
                and results["fig6_sweep"]["speedup"] < 2.0):
            # with one worker the parallel path is bypassed entirely, so
            # the floor only applies when the pool actually fans out
            print("FAIL: fig6 sweep speedup below 2x", file=sys.stderr)
            return 1
        if "profiling" in want:
            if results["profiling"]["speedup"] < 10.0:
                print("FAIL: profiling cold path speedup below 10x",
                      file=sys.stderr)
                return 1
            if results["profiling"]["direct"]["speedup"] < 1.3:
                print("FAIL: direct profile below 1.3x run + analyze "
                      "at 100 Hz", file=sys.stderr)
                return 1
            if results["profiling"]["trace_io"]["load_speedup"] < 5.0:
                print("FAIL: npz trace load speedup below 5x",
                      file=sys.stderr)
                return 1
        if "engine" in want and results["engine"]["speedup"] < 5.0:
            print("FAIL: execution engine speedup below 5x", file=sys.stderr)
            return 1
        if "baselines" in want and min(
                results["baselines"][m]["speedup"]
                for m in ("memory_mode", "tiering")) < 3.0:
            print("FAIL: baseline pack speedup below 3x", file=sys.stderr)
            return 1
        if "replay" in want and results["replay"]["speedup"] < 5.0:
            print("FAIL: allocation replay speedup below 5x", file=sys.stderr)
            return 1
        if "sweep" in want:
            if results["sweep"]["serial_uncached_s"] >= 10.0:
                print("FAIL: cold full tab8 took double-digit seconds",
                      file=sys.stderr)
                return 1
            if (results["sweep"]["jobs"] > 1
                    and results["sweep"]["cold_speedup"] < 5.0):
                # as with the fig6 floor: one worker bypasses the pool, so
                # the fan-out floor only applies when it actually fans out
                print("FAIL: scheduled cold sweep below 5x over serial "
                      "seed behaviour", file=sys.stderr)
                return 1
            if results["sweep"]["resume_speedup"] < 5.0:
                # holds on any core count: a warm resume decodes journaled
                # cells instead of running the pipeline
                print("FAIL: manifest resume below 5x over serial seed "
                      "behaviour", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
