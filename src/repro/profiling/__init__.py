"""Data-oriented profiling substrate (Extrae + PEBS + Paramedir analogues).

The offline half of the ecoHMEM workflow (Section IV-A):

- :mod:`~repro.profiling.events` — trace event records (alloc/free and
  PEBS samples).
- :mod:`~repro.profiling.object_table` — live-object interval index that
  matches sampled data addresses to the object they fall in.
- :mod:`~repro.profiling.pebs` — the sampling model: 100 Hz frequency-based
  sampling of ``MEM_LOAD_RETIRED.L3_MISS`` and
  ``MEM_INST_RETIRED.ALL_STORES`` with multinomial attribution noise.
- :mod:`~repro.profiling.tracer` — the Extrae-like tracer that drives a
  profiling run over a workload and emits a :class:`Trace`, or the
  per-site profiles directly (:meth:`ExtraeTracer.profile`).
- :mod:`~repro.profiling.trace` — columnar trace container with JSONL and
  binary ``.npz`` (de)serialization.
- :mod:`~repro.profiling.paramedir` — the trace analyzer producing
  per-allocation-site statistics for the Advisor.
- :mod:`~repro.profiling.metrics` — derived metrics (per-object bandwidth,
  lifetimes, bandwidth regions).
- :mod:`~repro.profiling.cache` — memoization of the profiling stage
  (the paper's profile-once property): :class:`ProfileStore` keyed by
  :class:`ProfileKey`.
"""

from repro.profiling.events import (
    AllocEvent,
    FreeEvent,
    SampleEvent,
    HardwareCounter,
)
from repro.profiling.object_table import LiveObjectTable, LiveInterval
from repro.profiling.pebs import PEBSConfig, PEBSSampler
from repro.profiling.trace import SampleColumns, Trace, TraceMeta
from repro.profiling.tracer import ExtraeTracer, TracerConfig
from repro.profiling.paramedir import Paramedir, SiteProfile
from repro.profiling.metrics import (
    object_bandwidth,
    bandwidth_region,
    BandwidthRegion,
)
from repro.profiling.cache import (
    ProfileKey,
    ProfileStore,
    default_store,
    reset_default_store,
    resolve_store,
    workload_fingerprint,
)

__all__ = [
    "AllocEvent",
    "FreeEvent",
    "SampleEvent",
    "HardwareCounter",
    "LiveObjectTable",
    "LiveInterval",
    "PEBSConfig",
    "PEBSSampler",
    "SampleColumns",
    "Trace",
    "TraceMeta",
    "ExtraeTracer",
    "TracerConfig",
    "Paramedir",
    "SiteProfile",
    "object_bandwidth",
    "bandwidth_region",
    "BandwidthRegion",
    "ProfileKey",
    "ProfileStore",
    "default_store",
    "reset_default_store",
    "resolve_store",
    "workload_fingerprint",
]
