"""Execution engine: a workload + a placement -> a simulated run.

The engine walks the workload's nominal timeline in *segments* (maximal
intervals where the set of live object instances is constant), aggregates
per-subsystem miss counts and traffic for each segment, and solves a
fixed point between segment duration and bandwidth-dependent latency:
more traffic -> higher loaded latency -> longer stalls -> longer segment
-> lower bandwidth.  Saturation is enforced (a segment cannot move bytes
faster than the device's peak), and per-object serial fractions model
critical-path accesses that memory-level parallelism cannot hide.

Traffic mapping is pluggable (:mod:`~repro.runtime.traffic`): app-direct
object placement here, memory mode and kernel tiering under
:mod:`repro.baselines`.
"""

from repro.runtime.traffic import (
    SegmentTraffic,
    SubsystemTraffic,
    TrafficModel,
    PlacementTraffic,
)
from repro.runtime.stats import ObjectRunStats, PhaseResult, RunResult
from repro.runtime.engine import ExecutionEngine

__all__ = [
    "SegmentTraffic",
    "SubsystemTraffic",
    "TrafficModel",
    "PlacementTraffic",
    "ObjectRunStats",
    "PhaseResult",
    "RunResult",
    "ExecutionEngine",
]
