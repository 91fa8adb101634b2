"""Tracer and PEBS configs reject values that would hang or mislead.

A zero or negative window never advances the tracer's window loop; a NaN
window silently yields an empty profile; a negative or NaN rank jitter
used to be treated as 0; a NaN sampling rate passed validation and then
failed inside NumPy's Poisson draw.  Each now raises ``ConfigError`` at
construction, naming the field.  Only configs are built here — the
hanging configurations are never run.
"""

import math

import pytest

from repro.errors import ConfigError
from repro.profiling.pebs import PEBSConfig
from repro.profiling.tracer import TracerConfig

_NAN = math.nan
_INF = math.inf


@pytest.mark.parametrize("window", [0.0, -1.0, _NAN, _INF])
def test_tracer_window_must_be_finite_and_positive(window):
    with pytest.raises(ConfigError, match="window"):
        TracerConfig(window=window)


@pytest.mark.parametrize("jitter", [-1.0, -1e-9, _NAN, _INF])
def test_tracer_rank_jitter_must_be_finite_and_non_negative(jitter):
    with pytest.raises(ConfigError, match="rank_jitter"):
        TracerConfig(rank_jitter=jitter)


@pytest.mark.parametrize("hz", [0.0, -100.0, _NAN, _INF])
def test_pebs_frequency_must_be_finite_and_positive(hz):
    with pytest.raises(ConfigError, match="frequency_hz"):
        PEBSConfig(frequency_hz=hz)


@pytest.mark.parametrize("min_events", [0.0, -1.0, _NAN, _INF])
def test_pebs_min_events_must_be_finite_and_positive(min_events):
    with pytest.raises(ConfigError, match="min_events"):
        PEBSConfig(min_events=min_events)


def test_boundary_values_are_accepted():
    cfg = TracerConfig(window=1e-6, rank_jitter=0.0,
                       pebs=PEBSConfig(frequency_hz=1e-3, min_events=1e-9))
    assert cfg.window == 1e-6 and cfg.rank_jitter == 0.0
