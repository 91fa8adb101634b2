"""Worker-count resolution for process-parallel sweeps.

The paper's experiment grids (Figure 6, Table VIII, the ablations) are
embarrassingly parallel: every cell is an independent, deterministic
pipeline run.  The sweep scheduler
(:func:`repro.experiments.sweep.run_scheduled`) dispatches them; this
module decides how many worker processes it gets.

Worker count resolution (first match wins):

1. the explicit ``jobs=`` argument (CLI ``--jobs`` flows in here),
2. the ``REPRO_JOBS`` environment variable,
3. serial execution (``jobs=1``).

``jobs=1`` bypasses the pool entirely — no fork, no pickling — which is
both the safe fallback and the baseline the benchmarks compare against.
``jobs=0`` (or any value < 1) means "all cores".  Worker processes
inherit the environment, so a shared ``REPRO_ARTIFACT_DIR`` lets
concurrent cells reuse each other's profiles across processes (see
:mod:`repro.pipeline.artifacts`).
"""

from __future__ import annotations

import argparse
import os
from typing import Optional

JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective worker count (>= 1)."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV}={env!r} is not a valid worker count: "
                    f"expected an integer (e.g. {JOBS_ENV}=4; 0 or a "
                    f"negative value means all cores)"
                )
        else:
            jobs = 1
    if jobs < 1:
        jobs = os.cpu_count() or 1
    return jobs


def add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the canonical ``--jobs`` flag to an argument parser.

    Every entry point that fans a sweep out over workers (``ecohmem
    experiment``, ``tools/perf_bench.py``, ``tools/fault_corpus.py``)
    shares this definition, so the flag's name, type, default chain
    (explicit > ``REPRO_JOBS`` > serial) and help text never drift apart.
    """
    parser.add_argument(
        "--jobs", type=int, default=None,
        help=f"sweep worker processes (default: {JOBS_ENV} or serial; "
             f"0 = all cores)",
    )

