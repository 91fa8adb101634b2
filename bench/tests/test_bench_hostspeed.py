"""Host-speed scaling: intervals between probes, counted at reference speed."""

from concurrent.futures import Future

import pytest

from bench import hostspeed
from bench.hostspeed import HostSpeed
from bench.workloads import closed_loop, one_client


def _speed(*probes):
    speed = HostSpeed()
    speed.probes = list(probes)
    return speed


def test_interval_is_scaled_by_the_probes_around_it():
    ref = hostspeed.REFERENCE_S
    # the host ran at reference speed before and at half speed after
    speed = _speed((0.0, 1.0, ref), (5.0, 6.0, 2 * ref))
    assert speed.factor(1.5, 4.5) == pytest.approx(1 / 1.5)
    assert speed.scaled(1.5, 4.5) == pytest.approx(2.0)
    # only the nearest probe on each side counts
    speed = _speed((0.0, 0.1, 4 * ref), (0.2, 0.3, ref),
                   (1.0, 1.1, ref), (2.0, 2.1, 4 * ref))
    assert speed.scaled(0.4, 0.9) == pytest.approx(0.5)
    assert speed.ratio() == pytest.approx(2.5)
    assert speed.probing_s() == pytest.approx(0.4)


def test_unbracketed_interval_is_refused():
    speed = _speed((0.0, 1.0, 0.01))
    with pytest.raises(ValueError):
        speed.factor(2.0, 3.0)
    with pytest.raises(ValueError):
        _speed((5.0, 6.0, 0.01)).factor(1.0, 2.0)


def test_probe_times_the_yardstick():
    speed = HostSpeed()
    seconds = speed.probe()
    assert seconds > 0
    (start, end, recorded), = speed.probes
    assert recorded == seconds and end - start >= seconds


class _EchoServer:
    """Answers every request at once with the request itself."""

    def submit(self, request):
        fut = Future()
        fut.set_result(request)
        return fut


def test_closed_loop_slices_cover_every_request_once():
    items = [(i, i * 10) for i in range(23)]
    seen = []
    speed = HostSpeed()
    speed.probe()
    slices = list(closed_loop(_EchoServer(), items, 4,
                              lambda key, report: seen.append((key, report)),
                              speed, 10))
    assert [n for n, _ in slices] == [10, 10, 3]
    assert all(ref_s > 0 for _, ref_s in slices)
    assert sorted(seen) == items
    # one probe before, one after each slice
    assert len(speed.probes) == 4


def test_one_client_times_each_request():
    items = [(i, i) for i in range(5)]
    seen = []
    speed = HostSpeed()
    speed.probe()
    lat_ms = one_client(_EchoServer(), items,
                        lambda key, report: seen.append(key), speed)
    assert len(lat_ms) == 5 and all(v >= 0 for v in lat_ms)
    assert seen == list(range(5))
