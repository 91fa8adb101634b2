"""Fleet-scale sweep engine: scheduler, manifest resume, result ledger.

Three layers, composable and individually optional:

- :mod:`repro.experiments.sweep.scheduler` — work-stealing dispatch of
  sweep cells over worker processes, bit-identical to a serial loop;
- :mod:`repro.experiments.sweep.manifest` — a JSONL journal of completed
  cells so a killed sweep resumes from where it died;
- :mod:`repro.experiments.sweep.results` — an append-only cross-run
  ledger of finished experiment tables, read back by ``reporting.py``.

Workers share profiles through the pipeline's artifact store
(:mod:`repro.pipeline.artifacts`, ``REPRO_ARTIFACT_DIR``).
"""

from repro.experiments.sweep.manifest import (
    SweepManifest,
    cell_key,
    code_fingerprint,
    resolve_manifest,
    task_name,
)
from repro.experiments.sweep.results import (
    RESULT_DB_ENV,
    ResultDB,
    resolve_result_db,
)
from repro.experiments.sweep.scheduler import (
    CellProgress,
    SweepWorkerDied,
    run_scheduled,
)

__all__ = [
    "CellProgress",
    "RESULT_DB_ENV",
    "ResultDB",
    "SweepManifest",
    "SweepWorkerDied",
    "cell_key",
    "code_fingerprint",
    "resolve_manifest",
    "resolve_result_db",
    "run_scheduled",
    "task_name",
]
