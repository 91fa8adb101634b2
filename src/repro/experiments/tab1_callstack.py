"""Table I: the supported call-stack formats.

Renders one real allocation site from a workload in the raw, human-
readable and BOM formats, alongside the assigned memory subsystem — the
paper's Table I, generated from live objects instead of typed by hand.
It also demonstrates the ASLR problem: the same site's raw frames differ
between two processes while both stable formats agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.apps import get_workload
from repro.binary.callstack import StackFormat


@dataclass
class Tab1Row:
    fmt: str
    rendered: str
    subsystem: str
    stable_across_runs: bool


def compute_tab1(app: str = "lulesh", site_name: str = "lulesh::temp00",
                 subsystem: str = "pmem") -> List[Tab1Row]:
    """Render one site in all three formats, checking run-stability."""
    wl = get_workload(app)
    registry = wl.site_registry
    p1 = registry.make_process(rank=0, aslr_seed=1)
    p2 = registry.make_process(rank=0, aslr_seed=2)
    site = wl.object_by_site(site_name).site

    rows: List[Tab1Row] = []
    for fmt in (StackFormat.RAW, StackFormat.HUMAN, StackFormat.BOM):
        r1 = p1.callstack(site).render(p1.space, fmt)
        r2 = p2.callstack(site).render(p2.space, fmt)
        rows.append(Tab1Row(
            fmt=fmt.value,
            rendered=r1,
            subsystem=subsystem,
            stable_across_runs=(r1 == r2),
        ))
    return rows
