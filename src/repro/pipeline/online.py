"""The online-placement front door: static advisory + online re-advisory.

One call produces everything the CLI, the service, and the experiment
grid need to compare static ecoHMEM with the online loop: the static
placement (the density advisor over the *full-timeline* engine-level
traffic — the one-shot offline answer in the engine's own modeling
frame), its run, and the :class:`~repro.runtime.online.OnlineRunReport`
of the phase-aware loop seeded with that same placement.  Both runs
share one :class:`~repro.runtime.engine.ExecutionEngine`, so the
comparison is apples to apples down to the segmentation and the cached
placement-independent pack base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.apps import get_workload
from repro.apps.workload import Workload
from repro.errors import ConfigError
from repro.memsim.subsystem import MemorySystem, system_for_name
from repro.runtime.engine import ExecutionEngine
from repro.runtime.online import (
    OnlineParams,
    OnlineRunReport,
    advise_placement,
    run_online,
    suffix_site_traffic,
)

__all__ = ["OnlineOutcome", "static_placement", "run_online_pipeline"]


@dataclass
class OnlineOutcome:
    """Static-vs-online comparison of one (workload, system, budget) cell."""

    workload_name: str
    system_label: str
    dram_limit: int
    static_placement: Dict[str, str] = field(default_factory=dict)
    report: Optional[OnlineRunReport] = None

    @property
    def static_time(self) -> float:
        return self.report.static_time

    @property
    def online_time(self) -> float:
        """Online total with migration costs charged."""
        return self.report.total_time

    @property
    def speedup(self) -> float:
        return self.static_time / self.online_time if self.online_time else 0.0

    @property
    def win(self) -> bool:
        """Online no worse than static (guaranteed by construction)."""
        return self.online_time <= self.static_time


def static_placement(
    workload: Workload,
    system: MemorySystem,
    dram_limit: int,
    *,
    engine: Optional[ExecutionEngine] = None,
) -> Dict[str, str]:
    """The one-shot offline placement in the engine's modeling frame.

    Density advisor over the full-timeline per-site traffic — exactly
    the suffix advisory at boundary 0 with the whole DRAM budget, so the
    online loop's epoch candidates and this baseline come from the same
    advisor on the same inputs.
    """
    if engine is None:
        engine = ExecutionEngine(workload, system)
    traffic = suffix_site_traffic(engine._plan.pack_base, 0)
    return advise_placement(workload, system, dram_limit, traffic)


def run_online_pipeline(
    workload: Union[str, Workload],
    system: Union[str, MemorySystem],
    *,
    dram_limit: Optional[int] = None,
    dram_frac: float = 0.25,
    params: Optional[OnlineParams] = None,
    engine: Optional[ExecutionEngine] = None,
    use_incremental: bool = True,
) -> OnlineOutcome:
    """Run the full static-vs-online comparison for one cell.

    ``dram_limit`` is the DRAM byte budget per rank; when omitted it is
    derived as ``dram_frac`` of the workload's heap high-water mark (the
    paper's Table V metric), which is where placement actually has to
    choose — a budget that fits everything makes both answers trivially
    equal.  ``engine`` shares an existing engine of the same (workload,
    system) and its cached segmentation and pack base; by default the
    cell builds its own.
    """
    wl = get_workload(workload) if isinstance(workload, str) else workload
    sysm = system_for_name(system) if isinstance(system, str) else system
    if dram_limit is None:
        if not 0.0 < dram_frac <= 1.0:
            raise ConfigError(f"online: dram_frac {dram_frac} outside (0, 1]")
        dram_limit = max(int(wl.heap_high_water() * dram_frac), 1)
    if dram_limit < 1:
        raise ConfigError(f"online: dram_limit must be >= 1, got {dram_limit}")

    if engine is None:
        engine = ExecutionEngine(wl, sysm)
    static = static_placement(wl, sysm, dram_limit, engine=engine)
    report = run_online(
        wl, sysm, static,
        dram_limit=dram_limit,
        params=params,
        engine=engine,
        use_incremental=use_incremental,
    )
    return OnlineOutcome(
        workload_name=wl.name,
        system_label=system if isinstance(system, str) else ",".join(sysm.names),
        dram_limit=dram_limit,
        static_placement=static,
        report=report,
    )
