"""The tail-percentile rule: ten samples beyond, or the name is refused."""

import pytest

from bench import stats
from bench.workloads import WORKLOADS


def test_too_few_samples_are_refused():
    with pytest.raises(ValueError, match="p50 needs at least 20"):
        stats.check_tail(50.0, 19)
    with pytest.raises(ValueError, match="p99 needs at least 1000"):
        stats.check_tail(99.0, 999)
    with pytest.raises(ValueError, match="p95 needs at least 200"):
        stats.check_tail(95.0, 150)


@pytest.mark.parametrize("pct, n", [(50.0, 20), (75.0, 40), (90.0, 100),
                                    (95.0, 200), (99.0, 1000), (99.9, 10000)])
def test_min_samples(pct, n):
    assert stats.min_samples(pct) == n
    stats.check_tail(pct, n)
    with pytest.raises(ValueError):
        stats.check_tail(pct, n - 1)


def test_percentile_interpolates_like_numpy():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(xs, 50.0) == 3.0
    assert stats.percentile(xs, 75.0) == 4.0
    assert stats.percentile(xs, 90.0) == pytest.approx(4.6)
    assert stats.percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


def test_every_workload_names_a_ladder_percentile_or_the_maximum():
    for factory in WORKLOADS.values():
        assert factory.tail_pct in stats.LADDER + (100.0,)
    assert stats.percentile([3.0, 9.0, 1.0], 100.0) == 9.0
    assert stats.tail_name(100.0) == "p100"
