"""Distinct rows: the fused fixed point iterates one row per distinct input.

``ExecutionEngine._fixed_point_batch`` groups the rows whose solve inputs
(nominal duration, loads, stores, serial-loads and extra-latency row,
stall fold order) are equal bit for bit, iterates one representative of
each group and scatters the outputs back.  Results must stay bit-equal to
sequential runs and to the scalar oracle; rows that differ in any one
input, even only in the sign of a zero, must be solved apart; and a hash
that groups unequal rows must fall back to solving every row.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.apps.registry import get_workload
from repro.memsim.subsystem import pmem2_system, pmem6_system
from repro.runtime import engine as engine_mod
from repro.runtime.engine import ExecutionEngine
from repro.runtime.stats import run_results_identical
from repro.runtime.traffic import ROW_FIELDS, PlacementTraffic

from tests.runtime.test_engine_vectorized import checkerboard_placement

#: (rows, distinct rows) of an 8-candidate pass on pmem2
PASS_ROWS = {"lulesh": (30888, 7615), "openfoam": (18024, 2396)}


def deck(wl, k=8):
    """``k`` random placements: each draws a DRAM share in [0.1, 0.9) and
    sends every site to DRAM with that probability."""
    rng = random.Random(f"whatif-candidates/{wl.name}/pmem2")
    sites = list(dict.fromkeys(o.site.name for o in wl.objects))
    out = []
    for _ in range(k):
        share = rng.uniform(0.1, 0.9)
        out.append({s: "dram" if rng.random() < share else "pmem"
                    for s in sites})
    return out


@pytest.fixture
def solved(monkeypatch):
    """Spy on the fixed point: (rows in, rows iterated) per solve."""
    calls = []
    fixed_point = ExecutionEngine._fixed_point_batch
    iterate = ExecutionEngine._iterate

    def spy_fixed_point(self, batch, compute):
        calls.append([compute.size, None])
        return fixed_point(self, batch, compute)

    def spy_iterate(self, batch, compute, order_cols):
        calls[-1][1] = compute.size
        return iterate(self, batch, compute, order_cols)

    monkeypatch.setattr(ExecutionEngine, "_fixed_point_batch", spy_fixed_point)
    monkeypatch.setattr(ExecutionEngine, "_iterate", spy_iterate)
    return calls


@pytest.mark.parametrize("app", sorted(PASS_ROWS))
def test_fused_candidates_equal_sequential_and_scalar_runs(app, solved):
    wl = get_workload(app)
    system = pmem2_system()
    cands = deck(wl)
    engine = ExecutionEngine(wl, system)

    batch = engine.run_batch(cands)
    times = engine.predict_times(cands)
    assert [tuple(c) for c in solved] == [PASS_ROWS[app]] * 2
    assert times == [r.total_time for r in batch]

    for k, cand in enumerate(cands):
        seq = ExecutionEngine(wl, system).run(cand)
        scalar = engine.run_scalar(PlacementTraffic(wl, cand))
        assert run_results_identical(batch[k], seq) == [], k
        assert run_results_identical(batch[k], scalar) == [], k


def test_one_lulesh_run_solves_its_distinct_rows(solved):
    wl = get_workload("lulesh")
    ExecutionEngine(wl, pmem2_system()).run(deck(wl)[0])
    assert [tuple(c) for c in solved] == [(3861, 869)]


def _row_pair(engine, batch, r):
    """Row ``r`` of ``batch`` twice, as a 2-row batch and its nominals."""
    two = engine_mod._fuse([batch, batch])
    S = batch.loads.shape[0]
    rows = [r, S + r]
    pair = {f: getattr(two, f)[rows].copy() for f in ROW_FIELDS}
    nominal = engine._segment_arrays.durations_nominal[r]
    return pair, np.array([nominal, nominal])


@pytest.mark.parametrize("variant", ["order", "nominal", "negative_zero"])
def test_rows_differing_in_one_input_are_solved_apart(variant, solved):
    wl = get_workload("minife")
    engine = ExecutionEngine(wl, pmem6_system())
    placement, _ = checkerboard_placement(wl, ["dram", "pmem"])
    _, [batch] = engine._pack([placement])
    # a row touching both subsystems, so its fold order can be swapped
    r = int(np.flatnonzero(batch.present.all(axis=1)
                           & (batch.loads > 0).all(axis=1))[0])
    pair, compute = _row_pair(engine, batch, r)
    fused = engine_mod._fuse([batch])

    engine._fixed_point_batch(replace(fused, **pair), compute)
    assert solved[-1] == [2, 1]

    if variant == "order":
        pair["order_pos"][1] = pair["order_pos"][1][::-1]
    elif variant == "nominal":
        compute[1] = np.nextafter(compute[0], np.inf)
    else:
        assert pair["extra_latency_ns"][1, 0] == 0.0
        pair["extra_latency_ns"][1, 0] = -0.0
    durations, lat = engine._fixed_point_batch(replace(fused, **pair), compute)
    assert solved[-1] == [2, 2]

    for i in range(2):
        alone = {f: a[i:i + 1] for f, a in pair.items()}
        d, lt = engine._fixed_point_batch(replace(fused, **alone),
                                          compute[i:i + 1])
        assert d.tobytes() == durations[i:i + 1].tobytes()
        assert lt.tobytes() == lat[i:i + 1].tobytes()


def test_constant_hash_falls_back_to_every_row(monkeypatch, solved):
    wl = get_workload("lulesh")
    cands = deck(wl)
    engine = ExecutionEngine(wl, pmem2_system())
    deduped = engine.run_batch(cands)

    monkeypatch.setattr(engine_mod, "_row_hash",
                        lambda key: np.zeros(key.shape[0], dtype=np.uint64))
    fallback = engine.run_batch(cands)
    times = engine.predict_times(cands)

    rows = PASS_ROWS["lulesh"][0]
    assert [tuple(c) for c in solved] == [
        PASS_ROWS["lulesh"], (rows, rows), (rows, rows)]
    assert times == [r.total_time for r in deduped]
    for a, b in zip(fallback, deduped):
        assert run_results_identical(a, b) == []
