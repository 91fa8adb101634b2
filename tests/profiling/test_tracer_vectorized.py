"""Scalar-oracle equivalence for the vectorized profiling cold path.

The vectorized tracer (:meth:`ExtraeTracer.run`) and analyzer
(:meth:`Paramedir.analyze`) must be *bit-identical* to their scalar
oracles (``run_scalar`` / ``analyze_scalar``) — not approximately equal:
every timestamp, address, weight and per-site float aggregate matches
exactly, because both paths issue the same RNG calls in the same order
and accumulate floats in the same order.

Hypothesis-free property-style coverage: a seeded grid over stack
formats, rank jitter, window geometry, and workload shapes (the same
pattern as ``test_cache_vectorized.py``), including the edge cases the
vectorized code has to get right — zero-sample windows, objects freed
mid-window, and objects never freed.
"""

import dataclasses

import pytest

from repro.binary.callstack import StackFormat
from repro.apps.workload import AccessStats, ObjectSpec, Phase, Workload
from repro.profiling.paramedir import Paramedir, SiteProfile
from repro.profiling.pebs import PEBSConfig
from repro.profiling.tracer import ExtraeTracer, TracerConfig
from repro.units import MiB

from tests.conftest import make_site, make_toy_workload

PROFILE_FIELDS = tuple(f.name for f in dataclasses.fields(SiteProfile))


def assert_profiles_identical(a, b):
    """Dict-order and field-exact equality of two per-site profile maps."""
    assert list(a.keys()) == list(b.keys())
    for key in a:
        for field in PROFILE_FIELDS:
            va, vb = getattr(a[key], field), getattr(b[key], field)
            assert va == vb, f"{key}: {field} differs ({va!r} != {vb!r})"


def make_idle_phase_workload() -> Workload:
    """A workload with an idle phase no object touches: every window
    inside it fires zero samples."""
    hot = ObjectSpec(
        site=make_site("idle::hot"),
        size=8 * MiB,
        access={
            "compute": AccessStats(load_rate=2_000_000.0, store_rate=400_000.0,
                                   accessor="k"),
        },
    )
    ephemeral = ObjectSpec(
        site=make_site("idle::tmp"),
        size=2 * MiB,
        alloc_count=3,
        first_alloc=0.25,
        lifetime=0.4,   # freed mid-window (window = 1.0)
        period=2.0,
        access={
            "compute": AccessStats(load_rate=800_000.0, accessor="k"),
        },
    )
    return Workload(
        name="idle-phases",
        phases=[
            Phase("compute", compute_time=1.0),
            Phase("idle", compute_time=2.0),
            Phase("compute", compute_time=1.5),
        ],
        objects=[hot, ephemeral],
        ranks=1,
    )


def make_out_of_order_workload() -> Workload:
    """Objects whose instances allocate out of column order, with ties in
    allocation start times, and frees that coincide with allocations.

    Columns follow the object list (``late`` 0-2, ``early`` 3-6, ``tie``
    7, ``resident`` 8), but the live set orders instances by allocation
    edge (start time, then column): at ``t = 2.0`` it is ``resident,
    late[0], early[2], tie, late[1]`` — ``early[1]`` (freed at 2.0) gone,
    ``resident`` first though its column is last.
    """
    def spec(name, size, load, store=0.0, **kw):
        return ObjectSpec(
            site=make_site(f"ooo::{name}"), size=size,
            access={"compute": AccessStats(load_rate=load, store_rate=store,
                                           accessor=name)},
            **kw)

    return Workload(
        name="out-of-order",
        phases=[Phase("compute", compute_time=3.0),
                Phase("idle", compute_time=0.5),
                Phase("compute", compute_time=2.0)],
        objects=[
            spec("late", 2 * MiB, 900_000.0, 150_000.0, alloc_count=3,
                 first_alloc=1.0, lifetime=1.5, period=1.0),
            spec("early", 4 * MiB, 600_000.0, 300_000.0, alloc_count=4,
                 first_alloc=0.0, lifetime=1.0, period=1.0),
            spec("tie", 1 * MiB, 1_500_000.0, first_alloc=1.0, lifetime=2.5),
            spec("resident", 16 * MiB, 200_000.0, 50_000.0, first_alloc=0.5,
                 sampling_visibility=0.5),
        ],
        ranks=1,
    )


def run_both(wl, config, rank=0, aslr_seed=42):
    tracer = ExtraeTracer(wl, config)
    return (tracer.run(rank=rank, aslr_seed=aslr_seed),
            tracer.run_scalar(rank=rank, aslr_seed=aslr_seed))


class TestTracerEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_toy_grid(self, seed, jitter):
        wl = make_toy_workload()
        vec, scalar = run_both(
            wl, TracerConfig(seed=seed, rank_jitter=jitter))
        assert vec.num_samples > 0
        assert vec.same_events(scalar)

    @pytest.mark.parametrize("fmt", [StackFormat.BOM, StackFormat.HUMAN])
    def test_stack_formats(self, fmt):
        wl = make_toy_workload()
        vec, scalar = run_both(
            wl, TracerConfig(seed=11, stack_format=fmt))
        assert vec.same_events(scalar)

    def test_zero_sample_windows_and_mid_window_frees(self):
        """Idle phases (no firing counter), frees mid-window, and the
        never-freed hot object all reproduce exactly."""
        wl = make_idle_phase_workload()
        vec, scalar = run_both(wl, TracerConfig(seed=3))
        assert vec.same_events(scalar)
        # the idle phase really does produce sample-free windows
        times = vec.sample_columns().times
        assert ((times < 1.0) | (times > 3.0)).all()

    def test_fractional_last_window(self):
        """A window that does not divide the duration leaves a short
        final window; both paths must clip it identically."""
        wl = make_toy_workload(iterations=3)
        vec, scalar = run_both(wl, TracerConfig(seed=5, window=0.7))
        assert vec.same_events(scalar)

    def test_window_larger_than_run(self):
        wl = make_toy_workload(iterations=2)
        vec, scalar = run_both(wl, TracerConfig(seed=5, window=100.0))
        assert vec.same_events(scalar)

    @pytest.mark.parametrize("hz", [20.0, 500.0])
    def test_sampling_rates(self, hz):
        wl = make_toy_workload()
        vec, scalar = run_both(
            wl, TracerConfig(seed=9, pebs=PEBSConfig(frequency_hz=hz)))
        assert vec.same_events(scalar)

    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    @pytest.mark.parametrize("window", [1.0, 0.3])
    def test_allocations_out_of_column_order(self, jitter, window):
        """Ties in allocation start times and objects allocating out of
        column order: the per-key draws follow the live (allocation)
        order, not the column order."""
        wl = make_out_of_order_workload()
        vec, scalar = run_both(wl, TracerConfig(
            seed=13, rank_jitter=jitter, window=window,
            pebs=PEBSConfig(frequency_hz=200.0)))
        assert vec.num_samples > 0
        assert vec.same_events(scalar)


class TestParamedirEquivalence:
    @pytest.mark.parametrize("seed,jitter", [(1, 0.0), (7, 0.3), (23, 0.3)])
    def test_profiles_identical(self, seed, jitter):
        wl = make_toy_workload()
        trace, _ = run_both(wl, TracerConfig(seed=seed, rank_jitter=jitter))
        pd = Paramedir()
        assert_profiles_identical(pd.analyze(trace), pd.analyze_scalar(trace))

    def test_edge_case_workload(self):
        wl = make_idle_phase_workload()
        trace, _ = run_both(wl, TracerConfig(seed=3))
        pd = Paramedir()
        assert_profiles_identical(pd.analyze(trace), pd.analyze_scalar(trace))

    def test_full_chain_scalar_vs_vectorized(self):
        """scalar tracer -> scalar analyzer == vectorized tracer ->
        vectorized analyzer, end to end."""
        wl = make_toy_workload()
        vec, scalar = run_both(wl, TracerConfig(seed=17, rank_jitter=0.3))
        pd = Paramedir()
        assert_profiles_identical(pd.analyze(vec), pd.analyze_scalar(scalar))


class TestRankOrderIndependence:
    """PR 2 regression: a rank's trace must not depend on which ranks
    were profiled before it (the old shared-RNG coupling)."""

    def test_run_all_ranks_matches_fresh_run(self):
        wl = make_toy_workload()
        tracer = ExtraeTracer(wl, TracerConfig(seed=9, rank_jitter=0.2))
        batch = tracer.run_all_ranks(ranks=3)
        # run_all_ranks uses aslr_base_seed=5000 + r
        fresh = ExtraeTracer(wl, TracerConfig(seed=9, rank_jitter=0.2))
        assert batch[1].same_events(fresh.run(rank=1, aslr_seed=5001))
        assert batch[2].same_events(fresh.run(rank=2, aslr_seed=5002))

    def test_ranks_differ_from_each_other(self):
        wl = make_toy_workload()
        tracer = ExtraeTracer(wl, TracerConfig(seed=9))
        batch = tracer.run_all_ranks(ranks=2)
        assert not batch[0].same_events(batch[1])
