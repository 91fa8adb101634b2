"""Experiment harness: the paper's evaluation, end to end.

:mod:`~repro.experiments.harness` wires the complete workflow — profiling
run, Paramedir analysis, HMem Advisor, report emission, FlexMalloc
matching under fresh ASLR, capacity-aware allocation replay, and the
execution engine — plus the three baselines, exactly once, so every
benchmark regenerating a paper table or figure shares the same pipeline.

One module per table/figure lives alongside
(:mod:`~repro.experiments.fig6_sweep` etc.); each exposes a ``compute_*``
function returning plain data structures and a ``format_*`` function
rendering the paper-style rows.
"""

from repro.experiments.harness import (
    EcoHMEMResult,
    profile_workload,
    run_ecohmem,
    run_profdp_best,
    speedup_table,
)
from repro.experiments.parallel import (
    add_jobs_argument,
    resolve_jobs,
)
from repro.experiments.sweep import (
    ResultDB,
    SweepManifest,
    resolve_manifest,
    resolve_result_db,
    run_scheduled,
)

__all__ = [
    "EcoHMEMResult",
    "ResultDB",
    "SweepManifest",
    "add_jobs_argument",
    "profile_workload",
    "resolve_jobs",
    "resolve_manifest",
    "resolve_result_db",
    "run_ecohmem",
    "run_profdp_best",
    "run_scheduled",
    "speedup_table",
]
