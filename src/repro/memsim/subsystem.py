"""Memory subsystems and machine memory configurations.

A :class:`MemorySubsystem` is one explicitly addressable memory tier (the
paper's "knapsack"): it has a capacity, peak read/write bandwidths, loaded
latency curves, and the advisor cost coefficients for loads and stores.

A :class:`MemorySystem` is the per-NUMA-node combination the experiments
run on.  The paper's two configurations are provided as factories:

- :func:`pmem6_system` — 16 GB DDR4 + 6 x 512 GB PMem DIMMs (the target
  DRAM:PMem ratio the paper advocates).
- :func:`pmem2_system` — PMem capacity and bandwidth cut to one third by
  physically removing DIMMs (the paper's sensitivity configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.memsim.latency import (
    DDR4_1R1W,
    DDR4_READ,
    PMEM_1R1W,
    PMEM_READ,
    LoadedLatencyCurve,
)
from repro.units import GB, GiB


@dataclass(frozen=True)
class MemorySubsystem:
    """One memory tier (DRAM, PMem, HBM...) visible to the placement layer.

    Attributes
    ----------
    name:
        Identifier used in advisor reports and configuration files.
    capacity:
        Usable bytes for application heap data.
    read_curve / rw_curve:
        Loaded-latency curves for read-only and mixed (1R1W) traffic.
    peak_read_bw / peak_write_bw:
        Sustainable bandwidth ceilings in bytes/s.
    load_coefficient / store_coefficient:
        Advisor cost weights (Section V): relative penalty of an LLC load
        miss / an L1D store miss served by this subsystem.  Higher means
        costlier, so objects with traffic weighted by these coefficients
        are pulled toward the *other* tiers first.
    store_stall_factor:
        *Physical* model parameter (distinct from the advisor's config
        coefficients): the fraction of a store miss's device latency that
        reaches the pipeline after write buffering.  DRAM writes are almost
        fully absorbed; PMem's slow media backs up the store buffers.
    is_fallback_default:
        Whether FlexMalloc should prefer this tier as the fallback for
        unmatched objects (usually the largest tier).
    """

    name: str
    capacity: int
    read_curve: LoadedLatencyCurve
    rw_curve: LoadedLatencyCurve
    peak_read_bw: float
    peak_write_bw: float
    load_coefficient: float = 1.0
    store_coefficient: float = 1.0
    store_stall_factor: float = 0.15
    is_fallback_default: bool = False

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigError(f"subsystem {self.name!r}: capacity must be > 0")
        if self.peak_read_bw <= 0 or self.peak_write_bw <= 0:
            raise ConfigError(f"subsystem {self.name!r}: peak bandwidths must be > 0")
        if self.load_coefficient < 0 or self.store_coefficient < 0:
            raise ConfigError(f"subsystem {self.name!r}: coefficients must be >= 0")
        if not 0.0 <= self.store_stall_factor <= 1.0:
            raise ConfigError(
                f"subsystem {self.name!r}: store_stall_factor must be in [0, 1]"
            )

    def read_latency_ns(
        self,
        bandwidth_demand: float,
        write_fraction: float = 0.0,
        util_cap: float = 0.92,
    ) -> float:
        """Effective load latency under a given total bandwidth demand.

        ``write_fraction`` interpolates between the read-only and 1R1W
        curves; store-heavy phases see the (worse) mixed-traffic latency.
        Each curve is evaluated at most at ``util_cap`` of *its own* peak:
        beyond that point throughput (not queueing latency) limits the
        device, which the engine models separately as a duration floor.
        """
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError(f"write_fraction out of range: {write_fraction}")
        if not 0.0 < util_cap <= 1.0:
            raise ValueError(f"util_cap out of range: {util_cap}")
        ro = self.read_curve.latency_ns(
            min(bandwidth_demand, self.read_curve.peak_bw * util_cap)
        )
        if write_fraction == 0.0:
            return ro
        rw = self.rw_curve.latency_ns(
            min(bandwidth_demand, self.rw_curve.peak_bw * util_cap)
        )
        # 1R1W corresponds to a 0.5 write fraction; scale linearly and clamp.
        mix = min(write_fraction / 0.5, 1.0)
        return ro + (rw - ro) * mix

    def read_latency_ns_batch(
        self,
        bandwidth_demand: "np.ndarray",
        write_fraction: "np.ndarray",
        util_cap: float = 0.92,
    ) -> "np.ndarray":
        """Vectorised :meth:`read_latency_ns` over arrays of demands.

        Bit-identical to the scalar method element by element: both paths
        evaluate the same curve kernels, and the blend collapses exactly to
        the read-only latency where ``write_fraction`` is zero because
        ``ro + (rw - ro) * 0.0 == ro`` for the positive latencies involved.

        Rows are independent, so callers may stack any set of segments —
        the execution engine's what-if path feeds the fused ``(placements
        × segments)`` rows of ``ExecutionEngine.run_batch`` through this
        method in one call, and each row's latency is exactly what a
        single-placement run would compute for it.
        """
        if not 0.0 < util_cap <= 1.0:
            raise ValueError(f"util_cap out of range: {util_cap}")
        bw = np.asarray(bandwidth_demand, dtype=float)
        wf = np.asarray(write_fraction, dtype=float)
        if wf.size and (wf.min() < 0.0 or wf.max() > 1.0):
            raise ValueError("write_fraction out of range")
        ro = self.read_curve.latency_ns_vec(
            np.minimum(bw, self.read_curve.peak_bw * util_cap)
        )
        rw = self.rw_curve.latency_ns_vec(
            np.minimum(bw, self.rw_curve.peak_bw * util_cap)
        )
        mix = np.minimum(wf / 0.5, 1.0)
        return ro + (rw - ro) * mix

    def idle_read_latency_ns(self) -> float:
        """Unloaded read latency (the curve's idle asymptote)."""
        return self.read_curve.idle_ns

    def with_capacity(self, capacity: int) -> "MemorySubsystem":
        """Copy of this subsystem with a different capacity (DRAM limits)."""
        return replace(self, capacity=capacity)


def dram_ddr4(capacity: int = 16 * GiB, *, store_coefficient: float = 1.0) -> MemorySubsystem:
    """The testbed's single-node DDR4 tier (2 DIMMs, 2666 MT/s)."""
    return MemorySubsystem(
        name="dram",
        capacity=capacity,
        read_curve=DDR4_READ,
        rw_curve=DDR4_1R1W,
        peak_read_bw=DDR4_READ.peak_bw,
        peak_write_bw=18.0 * GB,
        load_coefficient=1.0,
        store_coefficient=store_coefficient,
        store_stall_factor=0.12,
    )


def pmem_optane(
    dimms: int = 6,
    *,
    dimm_capacity: int = 512 * GiB,
    load_coefficient: float = 2.1,
    store_coefficient: float = 6.0,
) -> MemorySubsystem:
    """An Optane PMem 100 tier built from ``dimms`` interleaved DIMMs.

    Bandwidth scales with the interleave width (the paper's PMem-2 removes
    DIMMs to cut bandwidth to one third); per-access latency does not.
    The default cost coefficients encode the paper's measured penalty
    ratios: ~2x for reads, far higher for stores (write latencies are
    6x-30x DRAM's and write bandwidth is ~10% of DRAM's).
    """
    if dimms <= 0:
        raise ConfigError(f"PMem needs at least one DIMM, got {dimms}")
    scale = dimms / 6.0
    read_curve = LoadedLatencyCurve(
        name=f"pmem-read-{dimms}d",
        idle_ns=PMEM_READ.idle_ns,
        peak_bw=PMEM_READ.peak_bw * scale,
        scale_ns=PMEM_READ.scale_ns,
        shape=PMEM_READ.shape,
    )
    rw_curve = LoadedLatencyCurve(
        name=f"pmem-1r1w-{dimms}d",
        idle_ns=PMEM_1R1W.idle_ns,
        peak_bw=PMEM_1R1W.peak_bw * scale,
        scale_ns=PMEM_1R1W.scale_ns,
        shape=PMEM_1R1W.shape,
    )
    return MemorySubsystem(
        name="pmem",
        capacity=dimms * dimm_capacity,
        read_curve=read_curve,
        rw_curve=rw_curve,
        peak_read_bw=read_curve.peak_bw,
        peak_write_bw=2.2 * GB * dimms,
        load_coefficient=load_coefficient,
        store_coefficient=store_coefficient,
        store_stall_factor=0.55,
        is_fallback_default=True,
    )


@dataclass
class MemorySystem:
    """The set of subsystems available on one NUMA node, ordered by speed.

    ``subsystems`` must be ordered from the highest-performance tier to the
    lowest; the advisor fills knapsacks in that order.  Exactly one tier
    should be the fallback (defaults to the last/largest).
    """

    subsystems: List[MemorySubsystem] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.subsystems:
            raise ConfigError("MemorySystem needs at least one subsystem")
        names = [s.name for s in self.subsystems]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate subsystem names: {names}")

    def __iter__(self) -> Iterator[MemorySubsystem]:
        return iter(self.subsystems)

    def __len__(self) -> int:
        return len(self.subsystems)

    def get(self, name: str) -> MemorySubsystem:
        for sub in self.subsystems:
            if sub.name == name:
                return sub
        raise KeyError(f"no subsystem named {name!r} (have {[s.name for s in self.subsystems]})")

    @property
    def names(self) -> List[str]:
        return [s.name for s in self.subsystems]

    @property
    def fallback(self) -> MemorySubsystem:
        """The tier used for unmatched objects and capacity overflow."""
        for sub in self.subsystems:
            if sub.is_fallback_default:
                return sub
        return self.subsystems[-1]

    def with_dram_limit(self, limit: int) -> "MemorySystem":
        """Copy with the DRAM tier's capacity clamped to ``limit``.

        This mirrors the paper's HMem Advisor configuration knob: only
        ``limit`` bytes of DRAM may be used for dynamic allocations (the
        rest is left to stacks, static data and the OS).
        """
        subs = []
        for sub in self.subsystems:
            if sub.name == "dram":
                if limit <= 0:
                    raise ConfigError(f"DRAM limit must be > 0, got {limit}")
                subs.append(sub.with_capacity(min(limit, sub.capacity)))
            else:
                subs.append(sub)
        return MemorySystem(subsystems=subs)

    def coefficients(self) -> Dict[str, "tuple[float, float]"]:
        """Per-subsystem (load, store) advisor coefficients."""
        return {s.name: (s.load_coefficient, s.store_coefficient) for s in self.subsystems}


def hbm_stack(capacity: int = 16 * GiB) -> MemorySubsystem:
    """An HBM2e-style tier for the paper's forward-looking scenario.

    The conclusion expects the methodology "to be easily applicable to
    upcoming systems based on HBM and DRAM, as well as those leveraging
    CXL memory pools": HBM trades slightly *higher* idle latency for far
    more bandwidth headroom, so it is the top knapsack for bandwidth-bound
    objects while latency-bound ones still favour DRAM.
    """
    read_curve = calibrate_curve_hbm()
    return MemorySubsystem(
        name="hbm",
        capacity=capacity,
        read_curve=read_curve,
        rw_curve=read_curve,
        peak_read_bw=read_curve.peak_bw,
        peak_write_bw=read_curve.peak_bw * 0.7,
        load_coefficient=0.75,
        store_coefficient=0.6,
        store_stall_factor=0.10,
    )


def calibrate_curve_hbm() -> LoadedLatencyCurve:
    """HBM2e loaded-latency curve: ~110 ns idle, very late knee."""
    from repro.memsim.latency import calibrate_curve

    return calibrate_curve(
        "hbm-read", idle_ns=108.0, peak_bw=120.0 * GB,
        anchor_lo=(20.0 * GB, 112.0), anchor_hi=(90.0 * GB, 160.0),
    )


def pmem6_system(dram_capacity: int = 16 * GiB) -> MemorySystem:
    """The paper's target configuration: 16 GB DRAM + 6 PMem DIMMs/node."""
    return MemorySystem([dram_ddr4(dram_capacity), pmem_optane(dimms=6)])


def pmem2_system(dram_capacity: int = 16 * GiB) -> MemorySystem:
    """The reduced configuration: PMem bandwidth and capacity cut to 1/3."""
    return MemorySystem([dram_ddr4(dram_capacity), pmem_optane(dimms=2)])


def hbm_dram_pmem_system(
    hbm_capacity: int = 16 * GiB,
    dram_capacity: int = 64 * GiB,
) -> MemorySystem:
    """A three-tier HBM + DRAM + PMem node (the conclusion's outlook).

    The Advisor's greedy multiple knapsack fills tiers in this order; the
    PMem pool stays the fallback.  Nothing else in the pipeline needs to
    change — which is the point the paper makes about generality.
    """
    return MemorySystem([
        hbm_stack(hbm_capacity),
        dram_ddr4(dram_capacity),
        pmem_optane(dimms=6),
    ])


#: named memory systems (the names service requests and the CLI accept)
SERVICE_SYSTEMS = {
    "pmem6": pmem6_system,
    "pmem2": pmem2_system,
    "hbm-dram-pmem": hbm_dram_pmem_system,
}


def system_for_name(name: str) -> MemorySystem:
    try:
        factory = SERVICE_SYSTEMS[name]
    except KeyError:
        raise ConfigError(
            f"unknown memory system {name!r} "
            f"(have {sorted(SERVICE_SYSTEMS)})"
        )
    return factory()
