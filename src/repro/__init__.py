"""ecoHMEM reproduction: object placement for hybrid DRAM+PMem systems.

A from-scratch Python reproduction of *"ecoHMEM: Improving Object
Placement Methodology for Hybrid Memory Systems in HPC"* (IEEE CLUSTER
2022), built on a simulated hybrid-memory substrate -- see DESIGN.md for
the substitution map.

Quickstart::

    from repro import (
        get_workload, pmem6_system, run_ecohmem, run_memory_mode, GiB,
    )

    workload = get_workload("minife")
    system = pmem6_system()
    baseline = run_memory_mode(workload, system)
    eco = run_ecohmem(workload, system, dram_limit=12 * GiB)
    print(eco.run.speedup_vs(baseline))

The main subpackages:

- :mod:`repro.memsim` -- memory subsystems, latency curves, caches;
- :mod:`repro.binary` -- binaries, ASLR, call-stack formats;
- :mod:`repro.alloc` -- heap managers, FlexMalloc, report matching;
- :mod:`repro.profiling` -- the Extrae/PEBS/Paramedir pipeline;
- :mod:`repro.advisor` -- the HMem Advisor placement algorithms;
- :mod:`repro.runtime` -- the execution engine;
- :mod:`repro.apps` -- the seven application models;
- :mod:`repro.baselines` -- memory mode, kernel tiering, ProfDP;
- :mod:`repro.experiments` -- one module per paper table/figure.
"""

from importlib import import_module

__version__ = "1.0.0"

#: each top-level export and the module it lives in; imported on first
#: access (PEP 562), so ``import repro`` does not load the whole package
_EXPORTS = {
    **dict.fromkeys(("GiB", "GB", "MiB", "MB", "KiB", "KB"), "repro.units"),
    "ReproError": "repro.errors",
    **dict.fromkeys(("MemorySystem", "MemorySubsystem", "pmem2_system",
                     "pmem6_system"), "repro.memsim"),
    **dict.fromkeys(("get_workload", "list_workloads", "Workload"),
                    "repro.apps"),
    **dict.fromkeys(("AdvisorConfig", "HMemAdvisor", "Placement"),
                    "repro.advisor"),
    **dict.fromkeys(("FlexMalloc", "PlacementReport"), "repro.alloc"),
    "StackFormat": "repro.binary",
    **dict.fromkeys(("run_memory_mode", "run_tiering"), "repro.baselines"),
    **dict.fromkeys(("ExecutionEngine", "PlacementTraffic", "RunResult"),
                    "repro.runtime"),
    **dict.fromkeys(("run_ecohmem", "run_profdp_best"), "repro.experiments"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
