"""The trace sink's sample draws reproduce the scalar oracle's per-key calls.

:func:`~repro.profiling.tracer.draw_sample_offsets` must return exactly
what ``rng.integers(0, h, size=c)`` per key (then, for loads,
``rng.normal(200, 40, size=c)``) would, and leave the generator in
exactly the same state — including PCG64's buffered 32-bit half, which
carries across calls.  A window's store offsets are one ``integers``
call with per-sample bounds; that it equals the per-key calls is a
property of NumPy's bounded-integer algorithm.  Every check compares
the values, the full ``bit_generator.state`` dict, and a following
``normal`` and ``integers`` draw.  If NumPy ever changes that
algorithm, these are the tests that fail.
"""

import numpy as np
import pytest

from repro.apps import get_workload
from repro.profiling.tracer import draw_sample_offsets

_U32 = 1 << 32
#: bounds that stress the draw: no draw (1), the smallest real bound,
#: just past 2**31 (rejection probability near 1/2), 3 * 2**30
#: (2**32 mod h == 2**30), the largest 32-bit bounds, and HPCG's largest
#: object (what the tracer actually draws for it)
_HPCG_HIGH = max(o.size for o in get_workload("hpcg").objects) - 8
_ADVERSARIAL = (1, 2, 2**31 + 5, 3 * 2**30, _U32 - 2, _U32 - 1, _HPCG_HIGH)
#: bounds past 2**32 - 1, where NumPy switches to 64-bit words
_WIDE = (_U32, _U32 + 1, 2**40 + 3, 2**62 + 11)


def draw_offsets_per_key(rng, highs, counts):
    """The reference: one ``integers(0, h, size=c)`` call per key."""
    return np.concatenate([rng.integers(0, h, size=c)
                           for h, c in zip(highs, counts)])


def draw_stores(rng, highs, counts):
    offsets, lats = draw_sample_offsets(rng, np.array(highs),
                                        np.array(counts), loads=False)
    assert lats is None
    return offsets


def _generators(seed, buffered):
    """Two identical generators; ``buffered`` leaves a 32-bit half in
    PCG64's buffer first (an odd number of 32-bit draws)."""
    pair = [np.random.default_rng(seed) for _ in range(2)]
    if buffered:
        for g in pair:
            g.integers(0, 1000)
            assert g.bit_generator.state["has_uint32"] == 1
    return pair


def _assert_same_stream(a, b):
    assert a.bit_generator.state == b.bit_generator.state
    assert a.normal() == b.normal()
    assert a.integers(0, 10**6) == b.integers(0, 10**6)
    assert a.bit_generator.state == b.bit_generator.state


def _random_window(rng, pool, n_keys):
    highs = [pool[int(rng.integers(len(pool)))] for _ in range(n_keys)]
    counts = [int(rng.integers(1, 9)) for _ in range(n_keys)]
    return highs, counts


def _pool(rng):
    return list(_ADVERSARIAL) + [int(rng.integers(1, _U32)),
                                 int(rng.integers(1, 2**20))]


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("trial", range(40))
def test_window_batch_matches_per_key_calls(trial, buffered):
    """Store offsets: one call for the whole window."""
    rng = np.random.default_rng(1000 + trial)
    highs, counts = _random_window(rng, _pool(rng), int(rng.integers(1, 40)))
    a, b = _generators(trial, buffered)
    got = draw_stores(a, highs, counts)
    want = draw_offsets_per_key(b, highs, counts)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    _assert_same_stream(a, b)


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("trial", range(20))
def test_interleaved_with_normals_matches(trial, buffered):
    """Load offsets: one key at a time, each followed by its ``normal``
    latencies."""
    rng = np.random.default_rng(5000 + trial)
    highs, counts = _random_window(rng, _pool(rng), int(rng.integers(1, 20)))
    a, b = _generators(trial, buffered)
    offsets, lats = draw_sample_offsets(a, np.array(highs), np.array(counts),
                                        loads=True)
    got, want = [], []
    p = 0
    for h, c in zip(highs, counts):
        got.extend(offsets[p:p + c].tolist())
        got.extend(lats[p:p + c].tolist())
        p += c
        want.extend(b.integers(0, h, size=c).tolist())
        want.extend(b.normal(200.0, 40.0, size=c).tolist())
    assert got == want
    _assert_same_stream(a, b)


@pytest.mark.parametrize("h", _ADVERSARIAL)
@pytest.mark.parametrize("c", range(1, 9))
@pytest.mark.parametrize("buffered", [False, True])
def test_adversarial_bounds(h, c, buffered):
    a, b = _generators(h % 97 + c, buffered)
    # a window of four store keys, then one load key
    got = draw_stores(a, [h] * 4, [c] * 4)
    got_key, got_lats = draw_sample_offsets(a, np.array([h]), np.array([c]),
                                            loads=True)
    want = draw_offsets_per_key(b, [h] * 4, [c] * 4)
    assert np.array_equal(got, want)
    assert got_key.tolist() == b.integers(0, h, size=c).tolist()
    assert got_lats.tolist() == b.normal(200.0, 40.0, size=c).tolist()
    _assert_same_stream(a, b)


def test_rejections_are_redrawn_in_place():
    """A rejection-heavy bound redraws many values in one window,
    possibly the very last one."""
    h = 2**31 + 1  # 2**32 mod h == 2**31 - 1: about half the words reject
    for seed in range(20):
        a, b = _generators(seed, seed % 2 == 1)
        got = draw_stores(a, [h, 3, h], [40, 5, 1])
        assert np.array_equal(got, draw_offsets_per_key(b, [h, 3, h],
                                                        [40, 5, 1]))
        _assert_same_stream(a, b)


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("h", _WIDE)
def test_wide_bounds_fall_back_to_per_key_calls(h, buffered):
    """``h > 2**32 - 1`` uses 64-bit words (and ``h == 2**32`` a raw
    32-bit word) amid 32-bit keys: the per-key calls' stream still."""
    highs, counts = [3, h, 2**20, h], [2, 3, 1, 2]
    a, b = _generators(7, buffered)
    got = draw_stores(a, highs, counts)
    assert np.array_equal(got, draw_offsets_per_key(b, highs, counts))
    _assert_same_stream(a, b)


def test_all_ones_draws_nothing():
    a, b = _generators(3, True)
    got = draw_stores(a, [1] * 20, [3] * 20)
    assert not got.any() and got.size == 60
    _assert_same_stream(a, b)
