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

from importlib import import_module

#: each export and the module it lives in, imported on first access
#: (PEP 562): the sweep codec is imported by :mod:`repro.pipeline`, which
#: the harness imports, so this package must not import the harness
#: eagerly
_EXPORTS = {
    **dict.fromkeys(("EcoHMEMResult", "profile_workload", "run_ecohmem",
                     "run_profdp_best", "speedup_table"),
                    "repro.experiments.harness"),
    **dict.fromkeys(("add_jobs_argument", "resolve_jobs"),
                    "repro.experiments.parallel"),
    **dict.fromkeys(("ResultDB", "SweepManifest", "resolve_manifest",
                     "resolve_result_db", "run_scheduled"),
                    "repro.experiments.sweep"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.experiments' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
