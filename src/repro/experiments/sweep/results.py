"""Cross-run result database: an append-only JSONL ledger of experiment rows.

Every experiment driver (``fig6_sweep``, ``tab8_full_apps``, the
ablations, the fault corpus) can append its finished tables here, so a
fleet of runs — different machines, different days, different seeds —
accumulates into one queryable ledger instead of a pile of regenerated
markdown.  ``reporting.py`` reads the ledger back to regenerate the
EXPERIMENTS.md tables programmatically from recorded rows.

Layout:

``results.jsonl``
    One JSON line per record: identity fields (``experiment``, ``label``,
    ``seed``), a wall-clock ``ts``, free-form ``params``, and the encoded
    ``rows`` (via the exact sweep codec, so dataclass rows round-trip
    bit-identically).

The ledger is its own index: :meth:`ResultDB.latest` scans it and keeps
the last matching line, so an append is one write and nothing beside the
ledger can go stale.  Only ``ecohmem results`` looks records up by
identity.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.experiments.sweep import codec

#: bump when the record layout changes; old records are skipped
_DB_VERSION = 1

_LEDGER_NAME = "results.jsonl"

RESULT_DB_ENV = "REPRO_RESULT_DB"


class ResultDB:
    """Append-only experiment-result ledger rooted at one directory."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.ledger = self.root / _LEDGER_NAME

    # -- write -----------------------------------------------------------------

    def append(
        self,
        experiment: str,
        rows: Any,
        *,
        label: str = "default",
        seed: Optional[int] = None,
        params: Optional[Dict[str, Any]] = None,
        elapsed_s: Optional[float] = None,
    ) -> dict:
        """Append one result record to the ledger.

        ``rows`` is whatever table the driver produced (lists of
        dataclass rows, dicts of lists, ...) as long as the sweep codec
        can encode it — which is exactly the set of shapes a resumable
        sweep may produce.

        Safe under concurrent appenders from several processes: each
        record is published with a single ``write(2)`` on an ``O_APPEND``
        descriptor (the kernel seeks to end-of-file and writes atomically,
        so two writers can never interleave bytes within a line).  A short
        write (``ENOSPC``) leaves a torn tail line that readers skip.
        """
        record = {
            "version": _DB_VERSION,
            "experiment": experiment,
            "label": label,
            "seed": seed,
            "ts": time.time(),
            "params": codec.encode(params or {}),
            "elapsed_s": elapsed_s,
            "rows": codec.encode(rows),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        data = (json.dumps(record, sort_keys=True) + "\n").encode()
        fd = os.open(str(self.ledger),
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        return record

    # -- read ------------------------------------------------------------------

    def records(self) -> Iterator[dict]:
        """Every record in the ledger, oldest first; torn lines skipped."""
        try:
            fh = self.ledger.open()
        except OSError:
            return
        with fh:
            for line in fh:
                record = self._parse(line)
                if record is not None:
                    yield record

    @staticmethod
    def _parse(line: str) -> Optional[dict]:
        line = line.strip()
        if not line:
            return None
        try:
            record = json.loads(line)
        except ValueError:
            return None
        if (not isinstance(record, dict)
                or record.get("version") != _DB_VERSION):
            return None
        return record

    def latest(self, experiment: str, *, label: str = "default",
               seed: Optional[int] = None,
               decode_rows: bool = True) -> Optional[dict]:
        """The most recent record for one identity: its last ledger line."""
        identity = (experiment, label, seed)
        record = None
        for candidate in self.records():
            if (candidate["experiment"], candidate["label"],
                    candidate["seed"]) == identity:
                record = candidate
        if record is None:
            return None
        if decode_rows:
            record = dict(record)
            record["rows"] = codec.decode(record["rows"])
            record["params"] = codec.decode(record["params"])
        return record

    def latest_any(self, experiment: str, *, label: Optional[str] = None,
                   decode_rows: bool = True) -> Optional[dict]:
        """The newest record for an experiment across all seeds/labels."""
        best = None
        for record in self.records():
            if record["experiment"] != experiment:
                continue
            if label is not None and record["label"] != label:
                continue
            if best is None or record["ts"] >= best["ts"]:
                best = record
        if best is None:
            return None
        if decode_rows:
            best = dict(best)
            best["rows"] = codec.decode(best["rows"])
            best["params"] = codec.decode(best["params"])
        return best

    def experiments(self) -> List[Tuple[str, str, Optional[int]]]:
        """All identities present in the ledger (experiment, label, seed)."""
        seen: Dict[Tuple[str, str, Optional[int]], None] = {}
        for record in self.records():
            seen[(record["experiment"], record["label"],
                  record["seed"])] = None
        return list(seen)


def resolve_result_db(
    db: Union[None, str, Path, ResultDB],
) -> Optional[ResultDB]:
    """The DB a driver should append to; ``None`` = no ledger.

    Accepts an existing :class:`ResultDB` or a directory path; with
    neither, falls back to the ``REPRO_RESULT_DB`` environment variable.
    """
    if isinstance(db, ResultDB):
        return db
    if db is not None:
        return ResultDB(db)
    env = os.environ.get(RESULT_DB_ENV, "").strip()
    if env:
        return ResultDB(env)
    return None
