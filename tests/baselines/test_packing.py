"""The builtin-``sum`` reductions the columnar baseline packs rely on.

The scalar baselines reduce with Python's ``sum``, which adds floats left
to right before Python 3.12 and compensates rounding from 3.12 on.  The
packs call ``sum`` over the same values in the same order, so they must
reproduce it bit for bit on any interpreter.  The packs themselves are
checked against the generic per-segment replay in
``tests/runtime/test_engine_vectorized.py::TestBaselineDifferential``.
"""

import numpy as np

from repro.baselines import packing


def test_reductions_equal_builtin_sum():
    rng = np.random.default_rng(0)
    # magnitudes spread over 16 decades, so rounding order matters
    values = rng.random(2000) * 10.0 ** rng.integers(-8, 8, 2000)
    seg = np.sort(rng.integers(0, 60, 2000))
    bounds = np.searchsorted(seg, np.arange(61))
    want = [sum(values[lo:hi].tolist())
            for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert packing.segment_sums(values, bounds).tolist() == want
    assert packing.builtin_sum(values) == sum(values.tolist())
    assert packing.builtin_sum(values[:0]) == sum([])

