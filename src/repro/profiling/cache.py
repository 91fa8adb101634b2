"""Memoization of the profiling stage (trace + Paramedir analysis).

The paper's workflow profiles *once* and reuses the per-site profiles for
every placement decision that consumes them — the profile is a property of
the code and the cache hierarchy, not of the placement under evaluation.
The experiment harness, however, historically re-ran trace + analysis for
every (DRAM limit, metrics) sweep cell.  :class:`ProfileStore` restores
the profile-once property: per-site profiles are cached under a
:class:`ProfileKey` covering everything the profiling stage depends on —
workload content, tracer seed, stack format, PEBS sampling rate, number
of profiled ranks and rank jitter.

The store is the in-memory LRU (per process, bounded by ``capacity``)
in front of the profile artifact of :func:`repro.pipeline.profile_stage`:
cross-process reuse goes through the content-addressed
:class:`~repro.pipeline.artifacts.ArtifactStore` (``REPRO_ARTIFACT_DIR``),
which stores the :func:`encode_profiles` payload: every
:class:`~repro.profiling.paramedir.SiteProfile` field, by name, in
declaration order.

A :class:`~repro.profiling.paramedir.SiteProfile` is immutable, so the
store keeps the very profile objects it is given and hands the same
objects to every caller: a hit copies nothing but the dict around them,
and writing to a cached profile raises instead of reaching the entry.
Cached results are bit-identical to a fresh computation: the tracer is
fully deterministic given the key, and the JSON round trip of
:func:`encode_profiles` preserves floats exactly (``repr``-based
shortest-roundtrip encoding).

Environment knob (read by :func:`resolve_store`):

``REPRO_PROFILE_CACHE``
    Set to ``0``/``off``/``false`` to disable memoization entirely.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional

from repro.apps.workload import workload_fingerprint  # re-exported
from repro.binary.callstack import BOMFrame, HumanFrame, StackFormat
from repro.errors import ConfigError
from repro.profiling.paramedir import SiteKey, SiteProfile


@dataclass(frozen=True)
class ProfileKey:
    """Everything the profiling stage's output depends on."""

    workload: str
    fingerprint: str
    seed: int
    stack_format: str
    pebs_hz: float
    profile_ranks: int
    rank_jitter: float

    @classmethod
    def for_workload(
        cls,
        workload,
        *,
        seed: int,
        stack_format: StackFormat,
        pebs_hz: float,
        profile_ranks: int,
        rank_jitter: float,
    ) -> "ProfileKey":
        return cls(
            workload=workload.name,
            fingerprint=workload_fingerprint(workload),
            seed=seed,
            stack_format=stack_format.value,
            pebs_hz=float(pebs_hz),
            profile_ranks=int(profile_ranks),
            rank_jitter=float(rank_jitter),
        )


# -- (de)serialization --------------------------------------------------------


def _encode_site_key(key: SiteKey) -> List[list]:
    frames: List[list] = []
    for f in key:
        if isinstance(f, BOMFrame):
            frames.append(["bom", f.object_name, f.offset])
        elif isinstance(f, HumanFrame):
            frames.append(["human", f.source_file, f.line])
        elif isinstance(f, int):
            frames.append(["raw", f])
        else:  # pragma: no cover - closed frame set
            raise ConfigError(f"unserializable site-key frame {f!r}")
    return frames


def _decode_site_key(frames: List[list]) -> SiteKey:
    out = []
    for f in frames:
        kind = f[0]
        if kind == "bom":
            out.append(BOMFrame(object_name=f[1], offset=f[2]))
        elif kind == "human":
            out.append(HumanFrame(source_file=f[1], line=f[2]))
        elif kind == "raw":
            out.append(f[1])
        else:  # pragma: no cover - closed frame set
            raise ConfigError(f"unknown site-key frame kind {kind!r}")
    return tuple(out)


def _encode_profile(prof: SiteProfile) -> dict:
    data = {f.name: getattr(prof, f.name) for f in fields(SiteProfile)}
    data["site_key"] = _encode_site_key(prof.site_key)
    data["spans"] = [list(s) for s in prof.spans]
    return data


def _decode_profile(data: dict) -> SiteProfile:
    values = {f.name: data[f.name] for f in fields(SiteProfile)}
    values["site_key"] = _decode_site_key(data["site_key"])
    values["spans"] = tuple(tuple(s) for s in data["spans"])
    return SiteProfile(**values)


Profiles = Dict[SiteKey, SiteProfile]


def encode_profiles(profiles: Profiles) -> dict:
    """The artifact payload for ``profiles`` (float-exact, order kept)."""
    return {"profiles": [_encode_profile(p) for p in profiles.values()]}


def decode_profiles(payload: Any) -> Optional[Profiles]:
    """Inverse of :func:`encode_profiles`; ``None`` for anything else.

    A missing or foreign payload (wrong schema, hand-edited) is a miss,
    never an error raised into the profiling path.
    """
    if payload is None:
        return None
    try:
        profiles = {}
        for entry in payload["profiles"]:
            prof = _decode_profile(entry)
            profiles[prof.site_key] = prof
    except (LookupError, TypeError, AttributeError, ValueError, ConfigError):
        return None
    return profiles


class ProfileStore:
    """In-memory LRU cache of per-site profiles."""

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ConfigError(f"ProfileStore capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        #: profiles computed (lookups that fell through to ``compute``)
        self.misses = 0
        self._entries: "OrderedDict[ProfileKey, Profiles]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    # -- lookup ---------------------------------------------------------------

    def get(self, key: ProfileKey) -> Optional[Profiles]:
        """Cached profiles for ``key``, or ``None``.

        A new dict over the stored (immutable) profile objects.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return dict(entry)
        return None

    def put(self, key: ProfileKey, profiles: Profiles) -> None:
        """Insert ``profiles``: the dict is copied, the profiles are kept."""
        self._entries[key] = dict(profiles)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def get_or_compute(
        self, key: ProfileKey, compute: Callable[[], Profiles]
    ) -> Profiles:
        """The memoization primitive the harness uses."""
        cached = self.get(key)
        if cached is not None:
            return cached
        self.misses += 1
        profiles = compute()
        self.put(key, profiles)
        return profiles


_default_store: Optional[ProfileStore] = None


def default_store() -> ProfileStore:
    """The process-wide store."""
    global _default_store
    if _default_store is None:
        _default_store = ProfileStore()
    return _default_store


def reset_default_store() -> None:
    """Drop the process-wide store (tests, or to re-read the environment)."""
    global _default_store
    _default_store = None


def resolve_store(store: Optional[ProfileStore]) -> Optional[ProfileStore]:
    """The store a pipeline run should use; ``None`` = memoization off."""
    if store is not None:
        return store
    if os.environ.get("REPRO_PROFILE_CACHE", "1").lower() in ("0", "off", "false", "no"):
        return None
    return default_store()
