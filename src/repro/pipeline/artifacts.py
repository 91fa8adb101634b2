"""Content-addressed artifact storage for pipeline profiles.

An artifact key is ``sha256(canonical({stage, spec}))`` — the stage
name and the stage's spec (any codec-encodable structure: primitives,
tuples, string-keyed dicts, dataclasses).  Two runs that would compute
the same bytes land on the same key; anything that could change the
output changes the key.  The profile is the only stage whose output is
stored: the profile stage keys it by its
:class:`~repro.profiling.cache.ProfileKey`, the placement server by the
content digest of a trace file.

Layout: ``root/<key[:2]>/<key>/payload.json`` — sharded two levels deep
so a million artifacts never pile into one directory.  Publish is a
tmpdir + ``os.rename``: ``payload.json`` is written *inside* the temp
directory first and the whole directory renamed into place, so readers
(which key existence off ``payload.json``) can never observe a torn
artifact, no matter where a crash or SIGKILL lands.  Losing a publish
race is fine — the winner wrote the same bytes.  An entry that does not
read back (torn by a foreign writer, or from an older
``_ARTIFACT_VERSION``) is moved aside and replaced by the next publish.

``REPRO_ARTIFACT_DIR`` selects the process-wide default store; unset
means the artifact layer is off and every stage computes from scratch
(the profile stage still memoizes in memory).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Optional, Union

from repro.errors import ConfigError
from repro.experiments.sweep.codec import canonical, decode, encode

#: bump when the payload layout or key material changes; old entries
#: then read as misses and are recomputed
_ARTIFACT_VERSION = 3


def artifact_key(stage: str, spec: Any) -> str:
    """The content address of one stage output.

    ``spec`` must be codec-encodable (the encoder raises loudly if not).
    """
    material = canonical({
        "stage": stage,
        "spec": spec,
        "version": _ARTIFACT_VERSION,
    })
    return hashlib.sha256(material.encode()).hexdigest()[:32]


class ArtifactStore:
    """Sharded, crash-safe, content-addressed store of stage outputs."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def _dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    def contains(self, key: str) -> bool:
        return (self._dir(key) / "payload.json").exists()

    def _read(self, key: str) -> "tuple[bool, Any]":
        """``(True, payload)`` for an entry that reads back, else ``(False, None)``.

        A foreign-version, corrupt, or unreadable entry does not read back.
        """
        try:
            data = json.loads((self._dir(key) / "payload.json").read_text())
        except (OSError, ValueError):
            return False, None
        if not isinstance(data, dict) or data.get("version") != _ARTIFACT_VERSION:
            return False, None
        try:
            return True, decode(data["payload"])
        except Exception:  # a payload naming classes this code no longer has
            return False, None

    def get(self, key: str) -> Optional[Any]:
        """The decoded payload under ``key``, or ``None`` (a miss).

        An entry that does not read back behaves as a miss — the store
        is a cache, the stage recomputes.
        """
        ok, payload = self._read(key)
        if not ok:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Any) -> None:
        """Publish ``payload`` under ``key`` (atomic; losing a race is fine).

        An entry that already reads back is kept; one that does not is
        replaced.  The payload must be codec-encodable; encoding failures
        raise (a stage whose output cannot be addressed is a bug, not a
        cache miss).  Filesystem failures are swallowed — the store is
        best-effort, the caller keeps the value it just computed.
        """
        body = json.dumps({"version": _ARTIFACT_VERSION,
                           "payload": encode(payload)})
        if self._read(key)[0]:
            return
        final = self._dir(key)
        shard = final.parent
        try:
            shard.mkdir(parents=True, exist_ok=True)
            tmp = Path(tempfile.mkdtemp(dir=shard, prefix=".tmp-put-"))
        except OSError:
            return
        stale = None
        try:
            # payload.json lands complete inside tmp, then the directory
            # is renamed into place — existence is keyed off payload.json,
            # so a half-written entry is never visible under `final`
            (tmp / "payload.json").write_text(body)
            if final.exists():
                # move the entry that does not read back out of the way;
                # readers see a miss until the rename below lands
                stale = Path(tempfile.mkdtemp(dir=shard, prefix=".tmp-stale-"))
                os.rename(final, stale / key)
            os.rename(tmp, final)
            self.puts += 1
        except OSError:
            # lost the publish race or the store is read-only/full
            shutil.rmtree(tmp, ignore_errors=True)
        finally:
            if stale is not None:
                shutil.rmtree(stale, ignore_errors=True)


_default_artifact_store: Optional[ArtifactStore] = None
_default_artifact_root: Optional[str] = None


def reset_default_artifact_store() -> None:
    """Drop the process-wide store (tests, or to re-read the environment)."""
    global _default_artifact_store, _default_artifact_root
    _default_artifact_store = None
    _default_artifact_root = None


def resolve_artifact_store(
    store: "Union[ArtifactStore, str, Path, None]" = None,
) -> Optional[ArtifactStore]:
    """The store a pipeline run should use; ``None`` = artifact layer off.

    Explicit store wins; a path builds a store over it; otherwise
    ``REPRO_ARTIFACT_DIR`` selects the process-wide default (one shared
    instance per root, so hit counters accumulate across calls).  An
    empty explicit path raises :class:`ConfigError` — it would root the
    store at the working directory; an empty ``REPRO_ARTIFACT_DIR``
    means off.
    """
    if isinstance(store, ArtifactStore):
        return store
    if isinstance(store, str) and not store.strip():
        raise ConfigError(f"artifact_store={store!r} is an empty path")
    if store is not None:
        return ArtifactStore(store)
    root = os.environ.get("REPRO_ARTIFACT_DIR")
    if not root:
        return None
    global _default_artifact_store, _default_artifact_root
    if _default_artifact_store is None or _default_artifact_root != root:
        _default_artifact_store = ArtifactStore(root)
        _default_artifact_root = root
    return _default_artifact_store
