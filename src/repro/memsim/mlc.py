"""An Intel MLC-style loaded-latency measurement tool.

The paper produces Figure 2 with Intel's Memory Latency Checker: generate
a controlled amount of memory traffic and measure the resulting access
latency.  This module does the same *through the execution engine* — a
single-object workload tuned to demand a target bandwidth, run under a
fixed placement — and reports the effective latency the engine's fixed
point settles on.

Because the engine consumes the analytic curves, the measured points must
land back on them; the Figure 2 bench uses this as a closed-loop check
that the timing model is self-consistent (traffic -> duration -> bandwidth
-> latency -> duration converges to the curve's value).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.apps.workload import AccessStats, AllocationSite, ObjectSpec, Phase, Workload
from repro.errors import ConfigError
from repro.memsim.subsystem import MemorySystem
from repro.runtime.engine import ExecutionEngine
from repro.runtime.traffic import PlacementTraffic
from repro.units import GiB

#: cache line moved per load miss
_LINE = 64.0


@dataclass(frozen=True)
class MLCPoint:
    """One loaded-latency measurement."""

    target_bandwidth: float     # what the workload was tuned to demand
    achieved_bandwidth: float   # what the run actually sustained
    latency_ns: float           # effective latency the engine settled on


def _probe_workload(subsystem: str, bandwidth: float,
                    write_fraction: float) -> Workload:
    """A one-object workload demanding ``bandwidth`` at steady state.

    With MLP=1 and zero compute time the fixed point gives
    ``duration = loads * latency``, so latency is directly recoverable
    from the achieved rate.  Loads/stores are split so the *bytes* match
    the requested write fraction (stores move two lines: RFO + writeback).
    """
    if bandwidth <= 0:
        raise ConfigError(f"bandwidth must be > 0, got {bandwidth}")
    if not 0.0 <= write_fraction < 1.0:
        raise ConfigError(f"write_fraction must be in [0,1), got {write_fraction}")
    read_bytes = bandwidth * (1.0 - write_fraction)
    write_bytes = bandwidth * write_fraction
    site = AllocationSite(name="mlc::buffer", image="mlc.x",
                          stack=("run_probe", "main"))
    probe = ObjectSpec(
        site=site,
        size=1 * GiB,
        access={
            "probe": AccessStats(
                load_rate=read_bytes / _LINE,
                store_rate=write_bytes / (2.0 * _LINE),
            ),
        },
    )
    return Workload(
        name="mlc-probe",
        phases=[Phase("probe", compute_time=1.0)],
        objects=[probe],
        ranks=1,
        mlp=1.0,
    )


def measure_loaded_latency(
    system: MemorySystem,
    subsystem: str,
    bandwidths: Sequence[float],
    *,
    write_fraction: float = 0.0,
) -> List[MLCPoint]:
    """Measure effective latency at several bandwidth demands.

    ``bandwidths`` are the *demanded* rates; under load the run stretches,
    so the achieved bandwidth (reported per point) is lower — exactly how
    MLC's loaded-latency sweep behaves on real hardware.
    """
    if subsystem not in system.names:
        raise ConfigError(f"no subsystem {subsystem!r} in {system.names}")
    points: List[MLCPoint] = []
    for bw in bandwidths:
        wl = _probe_workload(subsystem, bw, write_fraction)
        engine = ExecutionEngine(wl, system)
        run = engine.run(
            PlacementTraffic(wl, {"mlc::buffer": subsystem}),
            label=f"mlc-{subsystem}",
        )
        phase = run.phases[0]
        loads = phase.loads_by_subsystem.get(subsystem, 0.0)
        stores = phase.stores_by_subsystem.get(subsystem, 0.0)
        # with MLP=1, stall = loads*lat + stores*store_cost; recover the
        # load latency the engine applied from its own per-phase report
        latency = phase.mean_latency_by_subsystem.get(subsystem, 0.0)
        achieved = (loads + 2.0 * stores) * _LINE / phase.actual_duration
        points.append(MLCPoint(
            target_bandwidth=bw,
            achieved_bandwidth=achieved,
            latency_ns=latency,
        ))
    return points


def verify_against_curve(
    points: Sequence[MLCPoint],
    system: MemorySystem,
    subsystem: str,
    *,
    write_fraction: float = 0.0,
    rel_tol: float = 0.02,
) -> Dict[float, float]:
    """Compare measured points to the analytic curve at the achieved rates.

    Returns ``{achieved_bandwidth: relative_error}``; raises if any point
    misses the curve by more than ``rel_tol`` — a broken fixed point or a
    clamping bug shows up here immediately.
    """
    sub = system.get(subsystem)
    errors: Dict[float, float] = {}
    for p in points:
        expected = sub.read_latency_ns(p.achieved_bandwidth, write_fraction)
        err = abs(p.latency_ns - expected) / expected
        errors[p.achieved_bandwidth] = err
        if err > rel_tol:
            raise ConfigError(
                f"MLC point at {p.achieved_bandwidth / 1e9:.2f} GB/s is "
                f"{100 * err:.1f}% off the curve "
                f"({p.latency_ns:.1f} vs {expected:.1f} ns)"
            )
    return errors
