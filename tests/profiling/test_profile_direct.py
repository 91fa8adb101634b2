"""``ExtraeTracer.profile`` is ``Paramedir().analyze(ExtraeTracer.run())``.

The direct profile path never builds a trace: it keeps Paramedir's
per-site sums inside the tracer's window loop.  It must still agree with
the trace path on every profile field and on the profile dict order —
exactly, not approximately — across the registered applications, stack
formats, tracer seeds, rank jitter, sampling rates and the window edge
cases of ``test_tracer_vectorized.py``.  The production profiling stage
must take the direct path and never build a trace.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps import get_workload, list_workloads
from repro.binary.callstack import StackFormat
from repro.pipeline.stages import profile_workload
from repro.profiling import tracer as tracer_mod
from repro.profiling.cache import ProfileStore
from repro.profiling.paramedir import Paramedir
from repro.profiling.pebs import PEBSConfig
from repro.profiling.trace import Trace
from repro.profiling.tracer import ExtraeTracer, TracerConfig
from repro.units import MiB

from tests.conftest import make_toy_workload
from tests.profiling.test_tracer_vectorized import (
    assert_profiles_identical,
    make_idle_phase_workload,
    make_out_of_order_workload,
)

#: (seed, format, rank jitter, PEBS Hz): every pair of factor levels
#: appears in some row (a strength-2 covering array of the grid)
_GRID = (
    (3, StackFormat.RAW, 0.0, 100.0),
    (11, StackFormat.RAW, 0.3, 1000.0),
    (3, StackFormat.HUMAN, 0.3, 100.0),
    (11, StackFormat.HUMAN, 0.0, 1000.0),
    (3, StackFormat.BOM, 0.0, 1000.0),
    (11, StackFormat.BOM, 0.3, 100.0),
)
#: LULESH's 2.6 k instances make a 1 kHz run slow; its 100 Hz rows
#: still cover every format
_SLOW = {"lulesh"}


def _cases():
    for app in list_workloads():
        for seed, fmt, jitter, hz in _GRID:
            if app in _SLOW and hz > 100.0:
                continue
            yield pytest.param(app, seed, fmt, jitter, hz,
                               id=f"{app}-{seed}-{fmt.value}-{jitter}-{hz:g}")


def _tracer(wl, seed=11, fmt=StackFormat.BOM, jitter=0.0, hz=100.0,
            window=1.0):
    return ExtraeTracer(wl, TracerConfig(
        stack_format=fmt, seed=seed, rank_jitter=jitter, window=window,
        pebs=PEBSConfig(frequency_hz=hz, seed=seed * 7 + 1)))


def _assert_direct_matches(tracer, rank=0, aslr_seed=1011):
    via_trace = Paramedir().analyze(tracer.run(rank, aslr_seed))
    direct = tracer.profile(rank, aslr_seed)
    assert_profiles_identical(direct, via_trace)
    return direct


def test_every_registered_app_is_in_the_grid():
    assert set(list_workloads()) == {
        "cloverleaf3d", "hpcg", "lammps", "lulesh", "minife", "minimd",
        "openfoam"}


@pytest.mark.parametrize("app,seed,fmt,jitter,hz", list(_cases()))
def test_registered_apps(app, seed, fmt, jitter, hz):
    profiles = _assert_direct_matches(
        _tracer(get_workload(app), seed, fmt, jitter, hz))
    assert any(p.load_samples for p in profiles.values())


@pytest.mark.parametrize("rank", [0, 2])
def test_ranks(rank):
    _assert_direct_matches(_tracer(make_toy_workload(), jitter=0.3),
                           rank=rank, aslr_seed=5000 + rank)


class TestWindowEdgeCases:
    def test_idle_windows_and_mid_window_frees(self):
        _assert_direct_matches(_tracer(make_idle_phase_workload(), seed=3))

    def test_fractional_last_window(self):
        _assert_direct_matches(
            _tracer(make_toy_workload(iterations=3), seed=5, window=0.7))

    def test_window_longer_than_run(self):
        _assert_direct_matches(
            _tracer(make_toy_workload(iterations=2), seed=5, window=100.0))

    @pytest.mark.parametrize("hz", [20.0, 500.0])
    def test_sampling_rates(self, hz):
        _assert_direct_matches(_tracer(make_toy_workload(), seed=9, hz=hz))

    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    @pytest.mark.parametrize("window", [1.0, 0.3])
    def test_allocations_out_of_column_order(self, jitter, window):
        """Tied allocation start times and objects allocating out of
        column order: the sink's live-order renumbering and its
        alloc-order profile creation both match the trace path."""
        profiles = _assert_direct_matches(_tracer(
            make_out_of_order_workload(), seed=13, jitter=jitter, hz=200.0,
            window=window))
        # dict order is first-alloc order (start time, then column), not
        # the object order: early, resident, late, tie (told apart by size)
        assert [p.largest_alloc // MiB for p in profiles.values()] == [
            4, 16, 2, 1]


def test_fallback_to_the_trace_path(monkeypatch):
    """When a sample cannot be attributed without the analyzer (a time
    rounded past its object's free, or before an earlier window's
    samples), ``profile`` answers through ``analyze(run())``: force that
    branch where the after-loop check decides it, and check it still
    agrees.  Only float rounding at a window's or an object's end trips
    the check, too rarely for a test workload to reach it."""
    calls = []

    def inexact(*args):
        calls.append(args)
        return False

    monkeypatch.setattr(tracer_mod, "_attributable", inexact)
    analyzed = []
    real_analyze = Paramedir.analyze
    monkeypatch.setattr(Paramedir, "analyze", lambda self, trace: (
        analyzed.append(trace) or real_analyze(self, trace)))
    _assert_direct_matches(_tracer(make_toy_workload(), seed=4))
    assert calls, "the exactness check was never consulted"
    # one analyze in the helper, one in the fallback
    assert len(analyzed) == 2


def test_timestamp_buffers_grow(monkeypatch):
    """The window loop's timestamp buffers start at one sample here, so
    they grow many times; profile and trace still match their oracles."""
    monkeypatch.setattr(tracer_mod, "_stamps_capacity",
                        lambda hz, duration: 1)
    tracer = _tracer(make_toy_workload(), seed=5, jitter=0.3)
    _assert_direct_matches(tracer)
    assert tracer.run(0, 1011).same_events(tracer.run_scalar(0, 1011))


@pytest.mark.parametrize("times,exact", [
    ([0.2, 0.5, 1.1], True),
    ([0.2, 0.9, 0.9], True),     # a tie across windows keeps the order
    ([0.2, 1.05, 1.1], False),   # past its instance's free at 1.0
    ([0.2, 0.9, 0.8], False),    # before the first window's latest
])
def test_exactness_check(times, exact):
    """Two firing windows: the first samples column 0 twice, the second
    column 1 once."""
    batches = tracer_mod._Batches(
        win=np.array([0, 1]), weight=np.array([1.0, 1.0]),
        n=np.array([2, 1]), segs=np.array([1, 1]),
        cols=np.array([0, 1]), counts=np.array([2, 1]),
        times=np.array(times))
    assert tracer_mod._attributable(batches, np.array([1.0, 2.0])) is exact


def _old_profile_workload(wl, seed, ranks, jitter):
    """The pre-direct profiling stage: trace each rank, analyze, merge."""
    tracer = ExtraeTracer(wl, TracerConfig(
        seed=seed, pebs=PEBSConfig(frequency_hz=100.0, seed=seed * 7 + 1),
        rank_jitter=jitter))
    pd = Paramedir()
    if ranks == 1:
        return pd.analyze(tracer.run(rank=0, aslr_seed=1000 + seed))
    per_rank = [pd.analyze(tracer.run(rank=r, aslr_seed=1000 + seed + r))
                for r in range(ranks)]
    merged = pd.merge(per_rank, mode="sum")
    return {key: replace(prof, load_misses=prof.load_misses / ranks,
                         store_misses=prof.store_misses / ranks)
            for key, prof in merged.items()}


@pytest.mark.parametrize("ranks,jitter", [(1, 0.0), (3, 0.0), (3, 0.5)])
def test_profile_workload_matches_trace_path(ranks, jitter):
    wl = get_workload("minimd")
    got = profile_workload(wl, seed=13, profile_ranks=ranks,
                           rank_jitter=jitter, profile_store=ProfileStore())
    assert_profiles_identical(got, _old_profile_workload(wl, 13, ranks, jitter))


@pytest.mark.parametrize("ranks", [1, 3])
def test_profile_workload_builds_no_trace(monkeypatch, ranks):
    def forbidden(*args, **kwargs):
        raise AssertionError("the profiling stage built or analyzed a trace")

    monkeypatch.setattr(Paramedir, "analyze", forbidden)
    monkeypatch.setattr(Trace, "__init__", forbidden)
    store = ProfileStore()  # a fresh store: the profile is computed
    profiles = profile_workload(get_workload("minife"), seed=12,
                                profile_ranks=ranks, profile_store=store)
    assert profiles and store.misses == 1
