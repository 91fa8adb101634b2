"""The sweep scheduler: a dynamic task queue over worker processes.

:func:`run_scheduled` is the one sweep runner every experiment driver
dispatches through.  It runs module-level functions on picklable specs
and reassembles results in spec order, so any dispatch mode is
bit-identical to the serial loop ``[fn(s) for s in specs]``:

- **Work stealing**: every cell is submitted as its own future and
  workers pull the next cell the moment they free up, so one big Table
  VIII cell no longer convoys a queue of small Figure 6 cells behind a
  static chunk assignment.
- **Manifest resume**: with a :class:`SweepManifest` (or the
  ``REPRO_SWEEP_MANIFEST`` environment variable) every completed cell is
  journaled; a restarted sweep re-runs only missing or failed cells and
  decodes the rest from the journal — bit-identically, because the codec
  round-trips floats and dataclasses exactly.
- **Worker-death retry**: a cell whose worker process dies (OOM kill,
  segfault — :class:`BrokenProcessPool`) is retried once in a fresh pool
  before the sweep fails; deterministic task exceptions are *not*
  retried (they would simply recur) — they are journaled as failed and
  propagated, as the serial loop would raise them.
- **Per-cell timing + progress**: each cell's wall time is measured in
  the worker and journaled; an optional ``progress`` callback sees every
  completion (including cells served from the manifest) as it happens.

Serial execution (``jobs=1``) runs cells inline in spec order — no pool,
no pickling — but still journals and resumes, so even a laptop-scale
sweep survives a kill.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, TypeVar, Union

from repro.errors import SimulationError
from repro.experiments.parallel import resolve_jobs
from repro.experiments.sweep import codec
from repro.experiments.sweep.manifest import (
    SweepManifest,
    cell_key,
    code_fingerprint,
    resolve_manifest,
    task_name,
)

S = TypeVar("S")
R = TypeVar("R")


@dataclass(frozen=True)
class CellProgress:
    """One completed cell, as seen by the ``progress`` callback."""

    index: int          #: position in the spec list
    done: int           #: cells finished so far (including this one)
    total: int          #: cells in the sweep
    status: str         #: ``ok`` | ``cached`` | ``failed``
    elapsed_s: float    #: cell wall time (0 for cached cells)
    spec: Any = None


class SweepWorkerDied(SimulationError):
    """A cell's worker process died repeatedly (beyond the retry budget)."""


def _timed_call(fn: Callable[[S], R], spec: S) -> "tuple[R, float]":
    """Worker-side wrapper: run one cell and measure its wall time."""
    t0 = time.perf_counter()
    result = fn(spec)
    return result, time.perf_counter() - t0


class _Journal:
    """The scheduler's view of one sweep's manifest (may be absent)."""

    def __init__(self, manifest: Optional[SweepManifest], experiment: str,
                 fn: Callable):
        self.manifest = manifest
        self.experiment = experiment
        self.task = task_name(fn)
        self.fingerprint = code_fingerprint(fn)

    def key_for(self, spec: Any) -> str:
        return cell_key(self.experiment, self.task, codec.canonical(spec),
                        self.fingerprint)

    def completed(self) -> Dict[str, dict]:
        return self.manifest.completed() if self.manifest else {}

    def record(self, key: str, spec: Any, *, status: str, result: Any = None,
               error: Optional[str] = None, elapsed_s: Optional[float] = None,
               attempt: int = 0) -> None:
        if self.manifest is None:
            return
        self.manifest.record(
            key, experiment=self.experiment, task=self.task, spec=spec,
            fingerprint=self.fingerprint, status=status, result=result,
            error=error, elapsed_s=elapsed_s, attempt=attempt,
        )


def run_scheduled(
    fn: Callable[[S], R],
    specs: Iterable[S],
    *,
    jobs: Optional[int] = None,
    experiment: Optional[str] = None,
    manifest: Union[None, str, Path, SweepManifest] = None,
    progress: Optional[Callable[[CellProgress], None]] = None,
    retries: int = 1,
) -> List[R]:
    """Run ``fn`` over ``specs``; results in spec order.

    ``fn`` must be a module-level function and every spec picklable.
    Results additionally must be codec-encodable when a manifest is in
    play, so completed cells can be journaled and decoded on resume.
    Worker exceptions propagate to the caller after being journaled as
    failed.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    journal = _Journal(resolve_manifest(manifest), experiment or task_name(fn),
                       fn)

    total = len(specs)
    results: List[Any] = [None] * total
    done = 0

    # resume: serve journaled cells, leaving only the missing/failed ones
    keys = [journal.key_for(spec) for spec in specs]
    pending: List[int] = []
    if journal.manifest is not None:
        recorded = journal.completed()
        for i, key in enumerate(keys):
            entry = recorded.get(key)
            if entry is not None:
                results[i] = codec.decode(entry["result"])
                done += 1
                if progress:
                    progress(CellProgress(index=i, done=done, total=total,
                                          status="cached", elapsed_s=0.0,
                                          spec=specs[i]))
            else:
                pending.append(i)
    else:
        pending = list(range(total))

    if not pending:
        return results

    def finish(i: int, result: Any, elapsed_s: float, attempt: int) -> None:
        nonlocal done
        results[i] = result
        done += 1
        journal.record(keys[i], specs[i], status="ok", result=result,
                       elapsed_s=round(elapsed_s, 6), attempt=attempt)
        if progress:
            progress(CellProgress(index=i, done=done, total=total,
                                  status="ok", elapsed_s=elapsed_s,
                                  spec=specs[i]))

    def fail(i: int, exc: BaseException, elapsed_s: float,
             attempt: int) -> None:
        journal.record(keys[i], specs[i], status="failed",
                       error=f"{type(exc).__name__}: {exc}",
                       elapsed_s=round(elapsed_s, 6), attempt=attempt)
        if progress:
            progress(CellProgress(index=i, done=done, total=total,
                                  status="failed", elapsed_s=elapsed_s,
                                  spec=specs[i]))

    if jobs == 1 or len(pending) == 1:
        for i in pending:
            t0 = time.perf_counter()
            try:
                result, elapsed = _timed_call(fn, specs[i])
            except Exception as exc:
                fail(i, exc, time.perf_counter() - t0, attempt=0)
                raise
            finish(i, result, elapsed, attempt=0)
        return results

    # dynamic dispatch: one future per cell, workers steal the next cell
    # as they free up; a dead pool is rebuilt and its incomplete cells
    # resubmitted (at most `retries` times per cell)
    attempts: Dict[int, int] = {i: 0 for i in pending}
    while pending:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
        completed: set = set()
        try:
            # a worker can die before every cell is submitted: submit
            # raises, and the unsubmitted cells retry with the rest
            futures = {pool.submit(_timed_call, fn, specs[i]): i
                       for i in pending}
            not_done = set(futures)
            while not_done:
                finished, not_done = wait(not_done,
                                          return_when=FIRST_COMPLETED)
                for fut in finished:
                    i = futures[fut]
                    try:
                        result, elapsed = fut.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:
                        fail(i, exc, 0.0, attempt=attempts[i])
                        pool.shutdown(wait=False, cancel_futures=True)
                        raise
                    finish(i, result, elapsed, attempt=attempts[i])
                    completed.add(i)
            pending = []
            pool.shutdown(wait=True)
        except BrokenProcessPool:
            pool.shutdown(wait=False, cancel_futures=True)
            survivors = [i for i in pending if i not in completed]
            for i in survivors:
                attempts[i] += 1
            exhausted = [i for i in survivors if attempts[i] > retries]
            if exhausted:
                exc = SweepWorkerDied(
                    f"worker process died {retries + 1}x on cell(s) "
                    f"{exhausted} of experiment {journal.experiment!r}; "
                    f"specs: {[specs[i] for i in exhausted[:3]]!r}"
                )
                for i in exhausted:
                    fail(i, exc, 0.0, attempt=attempts[i])
                raise exc
            pending = survivors
    return results

