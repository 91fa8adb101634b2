"""Advisor-as-a-service: a long-running placement server.

The paper's methodology is a one-shot offline pipeline; this package
turns the placement stage into a persistent service so *many advisory
queries* can be answered against *few profiles*:

- :mod:`~repro.service.protocol` — the request/report dataclasses
  (codec-encodable, so they round-trip through JSONL exactly);
- :mod:`~repro.service.server` — :class:`PlacementServer`: a stdlib
  ``ThreadPoolExecutor`` + ``queue`` server whose dispatcher coalesces
  concurrent requests into batches keyed by profile artifact — N queries
  against one workload pay one profile load, a per-request feasibility
  check and one vectorized :func:`~repro.advisor.density.density_batch`
  pass, with results bit-identical to serving each query alone (the
  retained scalar path is the oracle);
- :mod:`~repro.service.reports` — the persistent report store keyed by
  (workload, config, seed).

Besides advisory queries the server answers **what-if** requests
(:class:`WhatIfRequest`): K candidate placements of one workload scored
in fused fixed-point passes
(:func:`~repro.pipeline.whatif.evaluate_placements`), ranked
best-first, bit-equal to running each candidate alone
(:func:`sequential_whatif` is the oracle).

It also answers **online** requests (:class:`OnlineRequest`): one
static-vs-online re-advisory comparison per request, powered by the
incremental delta engine
(:meth:`~repro.runtime.engine.ExecutionEngine.run_incremental`) — the
phase-aware loop re-places objects at detected shifts with migration
costs charged, and the report compares ``==`` to
:func:`sequential_online`, the full-recompute oracle.

Environment knobs: ``REPRO_SERVICE_WORKERS``,
``REPRO_SERVICE_BATCH_WINDOW_MS``, ``REPRO_SERVICE_MAX_BATCH``,
``REPRO_SERVICE_REPORT_DIR`` — plus ``REPRO_ARTIFACT_DIR`` for the
shared stage cache.  A malformed or out-of-range knob raises
:class:`~repro.errors.ConfigError`.
"""

from repro.service.protocol import (
    SERVICE_SYSTEMS,
    AdvisoryReport,
    AdvisoryRequest,
    OnlineReport,
    OnlineRequest,
    WhatIfReport,
    WhatIfRequest,
    system_for_name,
)
from repro.service.reports import ReportStore, resolve_report_store
from repro.service.server import (
    PlacementServer,
    ServiceSession,
    ServiceStats,
    sequential_advisory,
    sequential_online,
    sequential_whatif,
)

__all__ = [
    "SERVICE_SYSTEMS",
    "AdvisoryReport",
    "AdvisoryRequest",
    "OnlineReport",
    "OnlineRequest",
    "WhatIfReport",
    "WhatIfRequest",
    "system_for_name",
    "ReportStore",
    "resolve_report_store",
    "PlacementServer",
    "ServiceSession",
    "ServiceStats",
    "sequential_advisory",
    "sequential_online",
    "sequential_whatif",
]
