"""The workload DSL: phases, allocation sites and object specs.

A workload describes an application run on a *nominal timeline* — the
phase durations the run would have on an ideal memory system.  The
execution engine stretches that timeline with memory stall time computed
from the placement under evaluation; miss *rates* (events per nominal
second per live instance) stay fixed, which is the standard quasi-static
approximation: off-chip miss counts are a property of the code and the
cache hierarchy above the placement decision, not of where the data lands.

Conventions
-----------
- Sizes are bytes **per rank**; the engine multiplies by ``ranks`` for
  node-level capacity and bandwidth.
- Rates are events per second per live instance, on the nominal timeline.
- ``Phase.repeat`` unrolls iterative applications without spelling out
  every iteration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError

if TYPE_CHECKING:  # pragma: no cover - import cycle at runtime
    from repro.apps.sites import SiteRegistry


@dataclass(frozen=True)
class AllocationSite:
    """A heap allocation site: a named call chain inside a binary image.

    ``stack`` is the function chain, innermost first (the function that
    calls malloc first); :class:`~repro.apps.sites.SiteRegistry` turns it
    into concrete frame addresses per process.
    """

    name: str
    image: str
    stack: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.stack:
            raise WorkloadError(f"site {self.name!r}: empty call chain")


@dataclass(frozen=True)
class AccessStats:
    """Per-phase access intensity of one object spec (per live instance).

    Attributes
    ----------
    load_rate:
        True LLC load misses per nominal second (off-chip reads).
    store_rate:
        True off-chip store misses per nominal second.
    l1d_store_rate:
        L1D store misses per second — what PEBS *samples* (Section V:
        there is no LLC store-miss event).  Defaults to ``store_rate``;
        cache-friendly writers have ``l1d_store_rate >> store_rate``,
        which is exactly the imprecision the paper blames for
        lower-quality store-aware placements.
    accessor:
        Function name performing the accesses (Table VII groups by it).
    """

    load_rate: float = 0.0
    store_rate: float = 0.0
    l1d_store_rate: Optional[float] = None
    accessor: str = ""

    def __post_init__(self) -> None:
        if self.load_rate < 0 or self.store_rate < 0:
            raise WorkloadError(
                f"negative access rate ({self.load_rate}, {self.store_rate})"
            )
        if self.l1d_store_rate is not None and self.l1d_store_rate < 0:
            raise WorkloadError(f"negative l1d_store_rate {self.l1d_store_rate}")

    @property
    def sampled_store_rate(self) -> float:
        """The store rate the profiler observes."""
        return self.store_rate if self.l1d_store_rate is None else self.l1d_store_rate


@dataclass(frozen=True)
class ObjectSpec:
    """One allocation site's runtime behaviour.

    Attributes
    ----------
    site:
        Where the object is allocated.
    size:
        Bytes per instance per rank (the 'largest allocation' Paramedir
        extracts).
    alloc_count:
        How many times the site allocates over the run.
    first_alloc:
        Nominal time of the first allocation.
    lifetime:
        Per-instance nominal lifetime; ``None`` = lives to the end.
    period:
        Spacing between successive allocations (defaults to ``lifetime``,
        i.e. back-to-back instances).
    access:
        Per-phase-name access statistics while an instance is alive.
    sampling_visibility:
        Fraction of this object's events PEBS can see (short communication
        bursts are under-sampled — the paper's LAMMPS observation).
    serial_fraction:
        Fraction of this object's miss latency that cannot be overlapped
        (critical-path accesses, e.g. MPI message buffers).
    """

    site: AllocationSite
    size: int
    alloc_count: int = 1
    first_alloc: float = 0.0
    lifetime: Optional[float] = None
    period: Optional[float] = None
    access: Dict[str, AccessStats] = field(default_factory=dict)
    sampling_visibility: float = 1.0
    serial_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise WorkloadError(f"object {self.site.name!r}: size must be > 0")
        if self.alloc_count < 1:
            raise WorkloadError(f"object {self.site.name!r}: alloc_count must be >= 1")
        if self.first_alloc < 0:
            raise WorkloadError(f"object {self.site.name!r}: negative first_alloc")
        if self.lifetime is not None and self.lifetime <= 0:
            raise WorkloadError(f"object {self.site.name!r}: lifetime must be > 0")
        if self.period is not None and self.period <= 0:
            raise WorkloadError(f"object {self.site.name!r}: period must be > 0")
        if self.alloc_count > 1 and self.lifetime is None:
            raise WorkloadError(
                f"object {self.site.name!r}: repeated allocations need a lifetime"
            )
        if not 0.0 < self.sampling_visibility <= 1.0:
            raise WorkloadError(
                f"object {self.site.name!r}: sampling_visibility must be in (0, 1]"
            )
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise WorkloadError(
                f"object {self.site.name!r}: serial_fraction must be in [0, 1]"
            )

    @property
    def is_read_only(self) -> bool:
        """No stores in any phase (the Streaming-D 'no writes' criterion)."""
        return all(a.store_rate == 0.0 for a in self.access.values())

    def instances(self, run_end: float) -> List["InstanceSpan"]:
        """Concrete (alloc, free) spans for every instance of this site."""
        spans: List[InstanceSpan] = []
        period = self.period if self.period is not None else (self.lifetime or 0.0)
        t = self.first_alloc
        for i in range(self.alloc_count):
            start = t
            end = run_end if self.lifetime is None else min(start + self.lifetime, run_end)
            if start >= run_end:
                break
            spans.append(InstanceSpan(spec=self, index=i, start=start, end=end))
            t += period
        if not spans:
            raise WorkloadError(
                f"object {self.site.name!r}: no instance fits in the run "
                f"(first_alloc {self.first_alloc} >= run end {run_end})"
            )
        return spans


@dataclass(frozen=True)
class InstanceSpan:
    """One concrete allocation instance: ``[start, end)`` on the timeline."""

    spec: ObjectSpec
    index: int
    start: float
    end: float

    @property
    def lifetime(self) -> float:
        return self.end - self.start

    def overlap(self, lo: float, hi: float) -> float:
        """Seconds of this instance's life inside ``[lo, hi)``."""
        return max(0.0, min(self.end, hi) - max(self.start, lo))


@dataclass(frozen=True)
class Phase:
    """A named execution phase with a nominal duration.

    ``compute_time`` is the per-rank time the phase needs with a perfect
    memory system; memory stall time is added by the engine.  ``repeat``
    unrolls the phase that many times consecutively.
    """

    name: str
    compute_time: float
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.compute_time <= 0:
            raise WorkloadError(f"phase {self.name!r}: compute_time must be > 0")
        if self.repeat < 1:
            raise WorkloadError(f"phase {self.name!r}: repeat must be >= 1")


@dataclass(frozen=True)
class PhaseSpan:
    """An unrolled phase occurrence on the nominal timeline."""

    name: str
    iteration: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Workload:
    """A full application model.

    Immutable: ``phases`` and ``objects`` are tuples, and assigning an
    attribute after construction raises.  Build a variant as a new
    workload.  Values derived from the definition are computed once per
    workload and kept on it: the content fingerprint, the allocation
    instances, the heap high-water mark and the default
    :attr:`site_registry`.  They die with the workload.

    Parameters
    ----------
    name:
        Registry name (``"lulesh"``...).
    phases:
        Ordered phase list; ``repeat`` unrolls in place.
    objects:
        The allocation-site inventory.
    ranks, threads:
        The paper's Table V process configuration.
    mlp:
        Memory-level parallelism: how many misses overlap on average.
    locality, conflict_pressure:
        Memory-mode DRAM-cache model parameters (Table VI calibration).
    ws_factor:
        Fraction of the live accessed bytes that is simultaneously *hot*
        from the DRAM cache's perspective.  Kernels sweep arrays one or
        two at a time, so the cache-relevant working set of a phase is
        usually much smaller than everything the phase touches.
    non_heap_bytes:
        Per-rank stack/static/OS memory, excluded from placement.
    """

    def __init__(
        self,
        name: str,
        phases: Sequence[Phase],
        objects: Sequence[ObjectSpec],
        *,
        ranks: int = 1,
        threads: int = 1,
        mlp: float = 6.0,
        locality: float = 0.8,
        conflict_pressure: float = 0.35,
        ws_factor: float = 1.0,
        non_heap_bytes: int = 0,
    ):
        if not phases:
            raise WorkloadError(f"workload {name!r}: needs at least one phase")
        if not objects:
            raise WorkloadError(f"workload {name!r}: needs at least one object")
        if ranks < 1 or threads < 1:
            raise WorkloadError(f"workload {name!r}: ranks/threads must be >= 1")
        if mlp < 1.0:
            raise WorkloadError(f"workload {name!r}: mlp must be >= 1")
        if not 0.0 < ws_factor <= 1.0:
            raise WorkloadError(f"workload {name!r}: ws_factor must be in (0, 1]")
        self.__dict__.update(
            name=name,
            phases=tuple(phases),
            objects=tuple(objects),
            ranks=ranks,
            threads=threads,
            mlp=mlp,
            locality=locality,
            conflict_pressure=conflict_pressure,
            ws_factor=ws_factor,
            non_heap_bytes=non_heap_bytes,
        )
        self.__dict__["_spans"] = self._unroll()
        self._validate_access_names()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"workload {self.name!r} is immutable (cannot set {name!r}); "
            f"build a new Workload instead")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"workload {self.name!r} is immutable (cannot delete {name!r})")

    # -- timeline -------------------------------------------------------------

    def _unroll(self) -> List[PhaseSpan]:
        spans: List[PhaseSpan] = []
        t = 0.0
        occurrence: Dict[str, int] = {}
        for phase in self.phases:
            for _ in range(phase.repeat):
                i = occurrence.get(phase.name, 0)
                occurrence[phase.name] = i + 1
                spans.append(
                    PhaseSpan(name=phase.name, iteration=i, start=t, end=t + phase.compute_time)
                )
                t += phase.compute_time
        return spans

    def _validate_access_names(self) -> None:
        names = {p.name for p in self.phases}
        for obj in self.objects:
            unknown = set(obj.access) - names
            if unknown:
                raise WorkloadError(
                    f"workload {self.name!r}: object {obj.site.name!r} references "
                    f"unknown phases {sorted(unknown)}"
                )

    @property
    def spans(self) -> List[PhaseSpan]:
        """Unrolled nominal timeline."""
        return list(self._spans)

    @property
    def nominal_duration(self) -> float:
        return self._spans[-1].end

    @cached_property
    def _instances(self) -> Tuple[InstanceSpan, ...]:
        end = self.nominal_duration
        return tuple(inst for obj in self.objects for inst in obj.instances(end))

    def instances(self) -> List[InstanceSpan]:
        """Every allocation instance of every object spec (a fresh list)."""
        return list(self._instances)

    # -- derived inventory ------------------------------------------------------

    def sites(self) -> List[AllocationSite]:
        return [obj.site for obj in self.objects]

    def images(self) -> List[str]:
        return sorted({obj.site.image for obj in self.objects})

    def object_by_site(self, site_name: str) -> ObjectSpec:
        for obj in self.objects:
            if obj.site.name == site_name:
                return obj
        raise KeyError(f"workload {self.name!r}: no site named {site_name!r}")

    def heap_high_water(self) -> int:
        """Max concurrently-live heap bytes per rank (Table V's metric)."""
        return self._heap_high_water

    @cached_property
    def _heap_high_water(self) -> int:
        """Computed by sweeping the instance start/end events."""
        events: List[Tuple[float, int]] = []
        for inst in self._instances:
            events.append((inst.start, inst.spec.size))
            events.append((inst.end, -inst.spec.size))
        events.sort(key=lambda e: (e[0], -e[1]))
        level = peak = 0
        for _, delta in events:
            level += delta
            peak = max(peak, level)
        return peak

    def working_set(self, lo: float, hi: float) -> int:
        """Per-rank bytes of objects actively accessed in ``[lo, hi)``."""
        names = {s.name for s in self._spans if s.start < hi and s.end > lo}
        total = 0
        for inst in self._instances:
            if inst.overlap(lo, hi) <= 0.0:
                continue
            spec = inst.spec
            if any(
                n in spec.access and
                (spec.access[n].load_rate > 0 or spec.access[n].store_rate > 0)
                for n in names
            ):
                total += spec.size
        return total

    @cached_property
    def site_registry(self) -> "SiteRegistry":
        """The workload's default :class:`~repro.apps.sites.SiteRegistry`.

        Built on first use and kept on the workload, so every pipeline
        stage shares one set of images, call offsets and stable site
        keys, and the registry dies with the workload.  A custom registry
        (other debug info or symbol counts) is built directly instead.
        """
        from repro.apps.sites import SiteRegistry

        return SiteRegistry(self)

    @cached_property
    def _fingerprint(self) -> str:
        return _content_hash(self)

    def _defining_state(self) -> Tuple:
        return tuple(getattr(self, name) for name in _DEFINING_FIELDS)

    def replace(self, **changes) -> "Workload":
        """A new workload: this definition with ``changes`` applied."""
        state = dict(zip(_DEFINING_FIELDS, self._defining_state()))
        state.update(changes)
        return Workload(**state)

    def __eq__(self, other: object) -> bool:
        """Structural equality over the defining state.

        Phases/objects are frozen dataclasses, so this compares the full
        model — the property the YAML round-trip tests assert.
        """
        if not isinstance(other, Workload):
            return NotImplemented
        return self._defining_state() == other._defining_state()

    # keep identity hashing: objects hold dicts, and experiment code uses
    # workloads as cache keys by identity
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Workload({self.name!r}, {len(self.objects)} sites, "
            f"{len(self._spans)} phase spans, {self.ranks}x{self.threads})"
        )


#: the constructor arguments, in order: everything a workload is
_DEFINING_FIELDS = (
    "name", "phases", "objects", "ranks", "threads", "mlp", "locality",
    "conflict_pressure", "ws_factor", "non_heap_bytes",
)


def workload_fingerprint(workload: Workload) -> str:
    """A stable content hash of a workload definition.

    Phase, site, object-spec and access-stat dataclasses carry only
    primitives, so their ``repr`` is canonical; ``Workload`` itself is a
    plain class, so its scalar fields are hashed explicitly.  The hash
    distinguishes same-named workloads with different content (e.g. the
    scaled variants the input-sensitivity ablation builds).  It keys the
    profile cache and the engine's workload plans.  A workload is
    immutable, so the hash is computed once per workload.
    """
    return workload._fingerprint


def _content_hash(workload: Workload) -> str:
    """The hash :func:`workload_fingerprint` caches, computed afresh."""
    canon = (
        workload.name,
        tuple(repr(p) for p in workload.phases),
        tuple(repr(o) for o in workload.objects),
        workload.ranks,
        workload.threads,
        repr(workload.mlp),
        repr(workload.locality),
        repr(workload.conflict_pressure),
        repr(workload.ws_factor),
        workload.non_heap_bytes,
    )
    return hashlib.sha256(repr(canon).encode()).hexdigest()[:16]
