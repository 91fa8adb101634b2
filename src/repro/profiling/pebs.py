"""PEBS sampling model.

The paper samples both counters at 100 Hz (Section VIII): every 10 ms the
PMU delivers the most recent qualifying event with its data address.  For
a simulation that knows each object's true per-phase miss counts, this is
a thinning process: over an interval of length ``T`` the sampler draws
``~Poisson(rate * T)`` samples (``rate`` = sampling frequency, provided at
least one qualifying event occurred) and attributes each sample to an
object with probability proportional to that object's share of the true
event count — a multinomial draw.  The result is a *noisy, scaled-down*
view of the truth, exactly the distortion the paper attributes sampling
artefacts to (e.g. LAMMPS's under-sampled MPI communication objects,
Section VIII-C).

Scaling back to estimated true counts divides by the sampling fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.profiling.events import HardwareCounter


@dataclass(frozen=True)
class PEBSConfig:
    """Sampler configuration (the paper's defaults)."""

    frequency_hz: float = 100.0
    #: minimum true events in an interval for the counter to fire at all
    min_events: float = 1.0
    seed: int = 12345

    def __post_init__(self) -> None:
        # NaN passes a plain ``<= 0`` check and then fails deep inside
        # NumPy's Poisson draw
        if not (math.isfinite(self.frequency_hz) and self.frequency_hz > 0):
            raise ConfigError(
                f"PEBSConfig.frequency_hz must be finite and > 0, "
                f"got {self.frequency_hz!r}")
        if not (math.isfinite(self.min_events) and self.min_events > 0):
            raise ConfigError(
                f"PEBSConfig.min_events must be finite and > 0, "
                f"got {self.min_events!r}")


@dataclass
class SampleBatch:
    """Samples attributed over an interval: per-key counts plus timestamps."""

    counter: HardwareCounter
    start: float
    end: float
    counts: Dict[object, int]
    total_true_events: float
    total_samples: int

    @property
    def sampling_fraction(self) -> float:
        """samples / true events; used to scale estimates back up."""
        if self.total_true_events <= 0:
            return 0.0
        return self.total_samples / self.total_true_events

    def estimated_true(self, key: object) -> float:
        """Scaled estimate of the true event count for one key."""
        frac = self.sampling_fraction
        if frac == 0.0:
            return 0.0
        return self.counts.get(key, 0) / frac


class PEBSSampler:
    """Frequency-based sampler over known true event counts."""

    def __init__(self, config: PEBSConfig = PEBSConfig()):
        self.config = config
        self._rng = np.random.default_rng(config.seed)

    def sample_interval(
        self,
        counter: HardwareCounter,
        start: float,
        end: float,
        true_counts: Dict[object, float],
    ) -> SampleBatch:
        """Sample one time interval.

        Parameters
        ----------
        true_counts:
            Ground-truth qualifying event counts per attribution key
            (usually a live-object instance or a site key) over the
            interval.  Keys with zero events never receive samples.
        """
        weights = np.array(list(true_counts.values()), dtype=float)
        total, n_samples, draws = self.sample_counts(start, end, weights)
        if draws is None:
            return SampleBatch(counter, start, end, {}, total, 0)
        counts = {k: int(c) for k, c in zip(true_counts, draws) if c > 0}
        return SampleBatch(
            counter=counter,
            start=start,
            end=end,
            counts=counts,
            total_true_events=total,
            total_samples=n_samples,
        )

    def sample_counts(
        self, start: float, end: float, weights: np.ndarray
    ) -> Tuple[float, int, "np.ndarray | None"]:
        """RNG core shared by both tracers: draw per-key sample counts.

        Returns ``(total_true_events, n_samples, draws)``; ``draws`` is
        ``None`` when the counter doesn't fire (too few events or an empty
        Poisson draw).  The RNG call sequence — one ``poisson`` then one
        ``multinomial`` per firing interval — is the bit-identity contract
        between the scalar and vectorized tracers.
        """
        if end <= start:
            raise ConfigError(f"empty sampling interval [{start}, {end})")
        # left-to-right accumulation, matching ``sum()`` over dict values
        total = float(sum(weights.tolist()))
        if total < self.config.min_events:
            return total, 0, None

        duration = end - start
        expected = self.config.frequency_hz * duration
        # The PMU can't deliver more samples than events occurred.
        n_samples = int(self._rng.poisson(expected))
        n_samples = min(n_samples, int(total))
        if n_samples == 0:
            return total, 0, None

        probs = weights / weights.sum()
        draws = self._rng.multinomial(n_samples, probs)
        return total, n_samples, draws

    def sample_timestamps(self, batch: SampleBatch) -> Dict[object, np.ndarray]:
        """Uniformly spread timestamps for each key's samples in the batch."""
        out: Dict[object, np.ndarray] = {}
        for key, count in batch.counts.items():
            ts = self._rng.uniform(batch.start, batch.end, size=count)
            ts.sort()
            out[key] = ts
        return out

    def timestamps_flat(self, start: float, end: float, n: int) -> np.ndarray:
        """Flat, unsorted form of :meth:`sample_timestamps` for vectorized
        callers: the timestamps of a batch's ``n`` samples, keys in batch
        order.

        One uniform draw covers every key — consecutive uniform calls
        read the bit stream sequentially, so one draw of the total splits
        into the same per-key values.  Sorting each key's run reproduces
        the per-key ``sort()``; the caller does it, once over all batches.
        """
        return self._rng.uniform(start, end, size=n)
