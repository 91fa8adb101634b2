"""The placement service's wire types.

Requests and reports are frozen/plain dataclasses built only from
primitives, so the exact JSON codec (:mod:`repro.experiments.sweep.codec`)
round-trips them bit-identically — a report read back from the report
store or a JSONL response file compares equal, float for float, with the
one the server produced.  Reports carry no timestamps for the same
reason: batched and sequential serving must yield *equal* values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.errors import ConfigError
# the named systems live with their factories; re-exported for clients
from repro.memsim.subsystem import SERVICE_SYSTEMS, system_for_name  # noqa: F401


@dataclass(frozen=True)
class AdvisoryRequest:
    """One advisory query: a profile source + memory config + policy.

    The profile source is either ``workload`` (a registered workload
    name, profiled through the shared pipeline stages) or ``trace`` (a
    path to a ``.jsonl``/``.npz`` trace file, analyzed on first use and
    again whenever its modification time or size changes; the profile
    artifact is keyed by content digest).  Exactly one must be set.
    """

    dram_limit: int
    workload: Optional[str] = None
    trace: Optional[str] = None
    system: str = "pmem6"
    use_stores: bool = True
    algorithm: str = "density"
    stack_format: str = "bom"
    seed: int = 11
    pebs_hz: float = 100.0
    profile_ranks: int = 1
    rank_jitter: float = 0.0
    session: str = "default"

    def validate(self) -> None:
        if (self.workload is None) == (self.trace is None):
            raise ConfigError(
                "exactly one of workload= or trace= must be set"
            )
        if self.algorithm not in ("density", "bw-aware"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.dram_limit <= 0:
            raise ConfigError(f"DRAM limit must be > 0, got {self.dram_limit}")
        system_for_name(self.system)

    def with_session(self, session: str) -> "AdvisoryRequest":
        return replace(self, session=session)


@dataclass(frozen=True)
class WhatIfRequest:
    """One what-if query: K candidate placements of a workload to score.

    The what-if request kind of the placement server: submit K candidate
    ``{site_name: subsystem}`` placements for a registered workload on a
    named memory system, get one predicted total runtime per candidate
    plus a best-first ranking.  Candidates are evaluated in the
    engine's fused passes
    (:func:`~repro.pipeline.whatif.evaluate_placements`), so
    every predicted time is bit-equal to a full sequential
    ``engine.run`` of that placement — :func:`~repro.service.server.sequential_whatif`
    is the retained per-candidate oracle.
    """

    workload: str
    #: tuple of {site_name: subsystem} candidate mappings
    placements: tuple = ()
    system: str = "pmem6"
    session: str = "default"

    def __post_init__(self) -> None:
        # accept any sequence of mappings; store a canonical tuple so
        # codec round trips compare equal
        object.__setattr__(
            self, "placements",
            tuple(dict(p) for p in self.placements),
        )

    def validate(self) -> None:
        if not self.workload:
            raise ConfigError("what-if requests need a workload name")
        if not self.placements:
            raise ConfigError(
                "what-if requests need at least one candidate placement"
            )
        for i, candidate in enumerate(self.placements):
            for site, sub in candidate.items():
                if not isinstance(site, str) or not isinstance(sub, str):
                    raise ConfigError(
                        f"candidate {i}: placements map site names to "
                        f"subsystem names, got {site!r} -> {sub!r}"
                    )
        system_for_name(self.system)

    def with_session(self, session: str) -> "WhatIfRequest":
        return replace(self, session=session)


@dataclass
class WhatIfReport:
    """The server's answer to one :class:`WhatIfRequest`.

    ``predicted_times[i]`` is the engine's predicted total runtime of
    candidate ``i`` — bit-equal to ``engine.run`` of that placement
    alone.  ``ranking`` lists candidate indices best-first, ties kept in
    submission order.  What-if reports are transient scoring queries:
    they are not persisted to the report store.
    """

    request: WhatIfRequest
    status: str
    error: Optional[str] = None
    predicted_times: "list[float]" = field(default_factory=list)
    #: candidate indices, fastest predicted runtime first
    ranking: "list[int]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def best(self) -> Optional[int]:
        """Index of the fastest candidate (None on error/empty)."""
        return self.ranking[0] if self.ranking else None


@dataclass(frozen=True)
class OnlineRequest:
    """One online re-advisory run: static vs phase-aware placement.

    The server answers with both totals of one
    :func:`~repro.pipeline.online.run_online_pipeline` cell — the static
    ecoHMEM placement left alone, and the online loop that re-advises at
    detected phase shifts with migration costs charged.  ``dram_frac``
    sizes the DRAM budget as a fraction of the workload's heap
    high-water mark; ``epochs`` and ``shift_threshold`` parameterize the
    phase detector.  The server runs the incremental delta engine;
    :func:`~repro.service.server.sequential_online` is the
    full-recompute oracle, and the two reports compare ``==`` — float
    for float — by the service's correctness contract.
    """

    workload: str
    system: str = "pmem6"
    dram_frac: float = 0.25
    epochs: int = 8
    shift_threshold: float = 0.10
    session: str = "default"

    def validate(self) -> None:
        if not self.workload:
            raise ConfigError("online requests need a workload name")
        if not 0.0 < self.dram_frac <= 1.0:
            raise ConfigError(
                f"online: dram_frac must be in (0, 1], got {self.dram_frac}"
            )
        if self.epochs < 2:
            raise ConfigError(f"online: epochs must be >= 2, got {self.epochs}")
        if not 0.0 <= self.shift_threshold <= 1.0:
            raise ConfigError(
                f"online: shift_threshold must be in [0, 1], "
                f"got {self.shift_threshold}"
            )
        system_for_name(self.system)

    def with_session(self, session: str) -> "OnlineRequest":
        return replace(self, session=session)


@dataclass
class OnlineReport:
    """The server's answer to one :class:`OnlineRequest`.

    ``online_time`` includes the charged migration costs, so it is
    directly comparable with ``static_time``; by construction it can
    never exceed it (moves are only accepted when predicted savings beat
    the migration cost).  ``shift_boundaries`` are the segment indices
    where the detector fired; ``migrations`` counts accepted moves.
    """

    request: OnlineRequest
    status: str
    error: Optional[str] = None
    static_time: float = 0.0
    online_time: float = 0.0
    engine_time: float = 0.0
    migration_time: float = 0.0
    migrations: int = 0
    candidate_evaluations: int = 0
    shift_boundaries: "list[int]" = field(default_factory=list)
    dram_limit: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class AdvisoryReport:
    """The server's answer to one :class:`AdvisoryRequest`.

    ``report_text`` is the exact FlexMalloc input file content —
    byte-identical to what ``run_ecohmem`` would have fed the production
    run for the same query.  ``status`` is ``"ok"`` or ``"error"``; an
    errored report carries the message and no placement.  All fields are
    deterministic functions of the request and the profile, so equality
    (``==``, every float exact) across serving modes is the service's
    correctness contract.
    """

    request: AdvisoryRequest
    status: str
    error: Optional[str] = None
    report_text: Optional[str] = None
    fallback: Optional[str] = None
    #: bytes assigned per subsystem (node-level: object size x ranks)
    bytes_by_subsystem: Dict[str, int] = field(default_factory=dict)
    objects_placed: int = 0
    #: cache accounting — excluded from equality so batched and
    #: sequential reports compare equal regardless of cache temperature
    profile_key: Optional[str] = field(default=None, compare=False)
    #: True when the profile came from a cache (artifact store or memo)
    profile_cached: bool = field(default=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"
