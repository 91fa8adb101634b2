"""Paramedir: the trace analyzer.

Reconstructs per-allocation-site statistics from a raw :class:`Trace`,
exactly the quantities the paper's workflow extracts (Section IV-A and
Section VII-B):

- the largest allocation observed at each site,
- the number of allocations and per-instance alloc/dealloc timestamps,
- estimated LLC load misses and L1D store misses (sample weights summed),
- total live time, used to derive per-object bandwidth.

Load samples carry a latency in the trace, but no per-site output reads
it (the advisor ranks by misses and sizes), so the analyzer ignores it.

The analyzer replays alloc/free events through a
:class:`~repro.profiling.object_table.LiveObjectTable` and attributes every
sample to the object containing its data address — it does *not* trust any
side channel from the tracer, so a malformed trace (overlapping objects,
samples outside any object, frees without allocs) is detected here.

Two implementations share that definition:

- :meth:`Paramedir.analyze` — the vectorized cold path.  Alloc/free
  edges are replayed scalar (they are few), but all samples falling
  between two consecutive edges are attributed in one batch: a
  ``searchsorted`` finds the batch boundary and ``lookup_batch``
  resolves the addresses.  Per-site weights accumulate once at the end
  with a weighted ``np.bincount`` (:func:`add_sample_sums`), which
  applies additions in element order, preserving the scalar
  accumulation order bit for bit.
- :meth:`Paramedir.analyze_scalar` — the original per-event loop, kept
  as the equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import AddressError, TraceError
from repro.faults.degrade import (
    INVALID_ALLOC,
    ORPHAN_FREE,
    OVERLAPPING_ALLOC,
    UNATTRIBUTABLE_SAMPLE,
    DegradationReport,
)
from repro.profiling.events import HardwareCounter
from repro.profiling.object_table import LiveObjectTable
from repro.profiling.trace import COUNTER_CODE, Trace

SiteKey = Tuple


@dataclass(frozen=True)
class SiteProfile:
    """Aggregated profile of one allocation site.

    Immutable: the analyzer builds each profile finished, and the profile
    store hands the same objects to every caller.  Derive a variant with
    :func:`dataclasses.replace`.
    """

    site_key: SiteKey
    largest_alloc: int = 0
    alloc_count: int = 0
    free_count: int = 0
    load_misses: float = 0.0    # estimated true LLC load misses
    store_misses: float = 0.0   # estimated true L1D store misses
    load_samples: int = 0
    store_samples: int = 0
    first_alloc: float = float("inf")
    last_free: float = 0.0
    total_live_time: float = 0.0
    #: per-instance (alloc_time, free_time), sorted; free may be the run end
    spans: Tuple[Tuple[float, float], ...] = ()

    @property
    def mean_lifetime(self) -> float:
        return self.total_live_time / self.alloc_count if self.alloc_count else 0.0

    @property
    def miss_density(self) -> float:
        """Misses per byte — the knapsack value numerator (loads only)."""
        return self.load_misses / self.largest_alloc if self.largest_alloc else 0.0


_PROFILE_FIELDS = tuple(f.name for f in fields(SiteProfile))


class _SiteAcc:
    """One site's statistics while a replay or merge accumulates them."""

    __slots__ = _PROFILE_FIELDS

    def __init__(self, site_key: SiteKey):
        for f in fields(SiteProfile):
            setattr(self, f.name, f.default)
        self.site_key = site_key
        self.spans: List[Tuple[float, float]] = []

    def freeze(self) -> SiteProfile:
        """The finished profile (spans sorted)."""
        values = {name: getattr(self, name) for name in _PROFILE_FIELDS}
        values["spans"] = tuple(sorted(self.spans))
        return SiteProfile(**values)


def add_sample_sums(
    profiles: Dict[SiteKey, SiteProfile],
    site_idx: Dict[SiteKey, int],
    sites: np.ndarray,
    codes: np.ndarray,
    weights: np.ndarray,
) -> Dict[SiteKey, SiteProfile]:
    """``profiles`` with the attributed samples folded in, in sample order.

    ``sites[i]`` is the ``site_idx`` index sample ``i`` is attributed to.
    A weighted ``np.bincount`` adds ``weights[i]`` into its site's bin in
    element order, starting from 0.0 — the scalar ``+=`` over the same
    sample sequence, so every float sum matches it.  ``profiles`` carry
    the structural fields; the returned profiles are new objects with
    the four sample fields set.
    """
    n_sites = len(site_idx)
    is_load = codes == COUNTER_CODE[HardwareCounter.LLC_LOAD_MISS]
    is_store = codes == COUNTER_CODE[HardwareCounter.ALL_STORES]

    def sums(mask, values=None):
        return np.bincount(sites[mask], minlength=n_sites,
                           weights=None if values is None else values[mask])

    load_miss, load_n = sums(is_load, weights), sums(is_load)
    store_miss, store_n = sums(is_store, weights), sums(is_store)
    out: Dict[SiteKey, SiteProfile] = {}
    for key, prof in profiles.items():
        i = site_idx[key]
        out[key] = replace(
            prof,
            load_samples=int(load_n[i]), load_misses=float(load_miss[i]),
            store_samples=int(store_n[i]), store_misses=float(store_miss[i]))
    return out


class Paramedir:
    """Analyze a trace into per-site profiles."""

    def analyze(
        self,
        trace: Trace,
        *,
        degradation: Optional[DegradationReport] = None,
    ) -> Dict[SiteKey, SiteProfile]:
        """Replay the trace and aggregate per-site statistics (vectorized).

        Bit-identical to :meth:`analyze_scalar`: the alloc/free replay is
        the same scalar loop, sample batches are flushed exactly where the
        merged ``(time, kind)`` sort would place the edges (samples with
        ``time < t`` precede an alloc at ``t``; samples with ``time <= t``
        precede a free), and :func:`add_sample_sums` accumulates per-site
        weights in the same element order as the scalar ``+=``.

        With a ``degradation`` report, malformed records degrade instead
        of raising: orphan frees, overlapping/invalid allocs, and
        unattributable samples are skipped and counted per fault class —
        by construction the *same* records (and so the same counts) the
        scalar path skips.  Without one, the strict behaviour is
        unchanged (orphan frees and overlapping allocs raise).
        """
        profiles: Dict[SiteKey, _SiteAcc] = {}
        table = LiveObjectTable()

        cols = trace.sample_columns()
        order = np.argsort(cols.times, kind="stable")
        times = cols.times[order]
        addrs = cols.addresses[order]
        codes = cols.codes[order]
        weights = cols.weights[order]

        edges: List[Tuple[float, int, object]] = []
        for ev in trace.allocs:
            edges.append((ev.time, 0, ev))
        for ev in trace.frees:
            edges.append((ev.time, 2, ev))
        edges.sort(key=lambda e: (e[0], e[1]))

        # enumerate candidate sites in first-alloc order; profiles are
        # created lazily on the first *successful* alloc, matching the
        # scalar ``setdefault`` insertion order even when degraded allocs
        # are skipped
        site_idx: Dict[SiteKey, int] = {}
        for _, kind, ev in edges:
            if kind == 0 and ev.site_key not in site_idx:
                site_idx[ev.site_key] = len(site_idx)

        # slot id (from the table) -> site index, kept in lockstep with
        # insert/remove so a flushed batch maps slots to sites in O(1)
        slot_site = np.full(64, -1, dtype=np.int64)
        open_allocs: Dict[int, Tuple[SiteKey, float]] = {}
        cursor = 0
        # attributed samples (sorted position, site index), batch by batch
        hit_pos: List[np.ndarray] = []
        hit_site: List[np.ndarray] = []

        def flush(upto: int) -> None:
            nonlocal cursor
            if upto <= cursor:
                return
            sl = slice(cursor, upto)
            slots = table.lookup_batch(addrs[sl])
            hit = slots >= 0
            if degradation is not None:
                degradation.record(UNATTRIBUTABLE_SAMPLE,
                                   int((~hit).sum()))
            # samples in stacks/statics are legal; just not attributed
            hit_pos.append(np.flatnonzero(hit) + cursor)
            hit_site.append(slot_site[slots[hit]])
            cursor = upto

        for time_, kind, ev in edges:
            if kind == 0:  # alloc: samples strictly before it flush first
                flush(int(np.searchsorted(times, time_, side="left")))
                try:
                    table.insert(ev.address, ev.size, ev.site_key, ev.time)
                except AddressError:
                    if degradation is None:
                        raise
                    degradation.record(OVERLAPPING_ALLOC)
                    continue
                except TraceError:
                    if degradation is None:
                        raise
                    degradation.record(INVALID_ALLOC)
                    continue
                prof = profiles.get(ev.site_key)
                if prof is None:
                    prof = profiles[ev.site_key] = _SiteAcc(ev.site_key)
                prof.largest_alloc = max(prof.largest_alloc, ev.size)
                prof.alloc_count += 1
                prof.first_alloc = min(prof.first_alloc, ev.time)
                slot = table.slot_of(ev.address)
                if slot >= slot_site.size:
                    grown = np.full(slot_site.size * 2, -1, dtype=np.int64)
                    grown[: slot_site.size] = slot_site
                    slot_site = grown
                slot_site[slot] = site_idx[ev.site_key]
                open_allocs[ev.address] = (ev.site_key, ev.time)
            else:  # free: samples at the same timestamp flush first
                flush(int(np.searchsorted(times, time_, side="right")))
                info = open_allocs.pop(ev.address, None)
                if info is None:
                    if degradation is None:
                        raise TraceError(
                            f"free at {ev.address:#x} without matching alloc")
                    degradation.record(ORPHAN_FREE)
                    continue
                site_key, t_alloc = info
                table.remove(ev.address)
                prof = profiles[site_key]
                prof.free_count += 1
                prof.last_free = max(prof.last_free, ev.time)
                prof.total_live_time += ev.time - t_alloc
                prof.spans.append((t_alloc, ev.time))
        flush(times.size)

        # objects never freed live until the end of the run
        run_end = trace.meta.duration
        for address, (site_key, t_alloc) in open_allocs.items():
            prof = profiles[site_key]
            prof.total_live_time += run_end - t_alloc
            prof.spans.append((t_alloc, run_end))
            prof.last_free = max(prof.last_free, run_end)

        pos = (np.concatenate(hit_pos) if hit_pos
               else np.empty(0, dtype=np.intp))
        sites = (np.concatenate(hit_site) if hit_site
                 else np.empty(0, dtype=np.int64))
        return add_sample_sums(
            {key: acc.freeze() for key, acc in profiles.items()},
            site_idx, sites, codes[pos], weights[pos])

    def analyze_scalar(
        self,
        trace: Trace,
        *,
        degradation: Optional[DegradationReport] = None,
    ) -> Dict[SiteKey, SiteProfile]:
        """The per-event reference implementation (equivalence oracle).

        Accepts the same ``degradation`` report as :meth:`analyze` and
        skips exactly the same records under it — the property the
        differential-oracle harness in ``tests/faults/`` pins.
        """
        profiles: Dict[SiteKey, _SiteAcc] = {}
        table = LiveObjectTable()
        # merge alloc/free/sample streams in time order; allocs precede
        # frees and samples at equal timestamps so lookups succeed
        events: List[Tuple[float, int, object]] = []
        for ev in trace.allocs:
            events.append((ev.time, 0, ev))
        for ev in trace.samples:
            events.append((ev.time, 1, ev))
        for ev in trace.frees:
            events.append((ev.time, 2, ev))
        events.sort(key=lambda e: (e[0], e[1]))

        open_allocs: Dict[int, Tuple[SiteKey, float]] = {}

        for time_, kind, ev in events:
            if kind == 0:  # alloc
                try:
                    table.insert(ev.address, ev.size, ev.site_key, ev.time)
                except AddressError:
                    if degradation is None:
                        raise
                    degradation.record(OVERLAPPING_ALLOC)
                    continue
                except TraceError:
                    if degradation is None:
                        raise
                    degradation.record(INVALID_ALLOC)
                    continue
                prof = profiles.get(ev.site_key)
                if prof is None:
                    prof = profiles[ev.site_key] = _SiteAcc(ev.site_key)
                prof.largest_alloc = max(prof.largest_alloc, ev.size)
                prof.alloc_count += 1
                prof.first_alloc = min(prof.first_alloc, ev.time)
                open_allocs[ev.address] = (ev.site_key, ev.time)
            elif kind == 1:  # sample
                iv = table.lookup(ev.data_address)
                if iv is None:
                    # samples in stacks/statics are legal; just not attributed
                    if degradation is not None:
                        degradation.record(UNATTRIBUTABLE_SAMPLE)
                    continue
                prof = profiles[iv.site_key]
                if ev.counter is HardwareCounter.LLC_LOAD_MISS:
                    prof.load_samples += 1
                    prof.load_misses += ev.weight
                elif ev.counter is HardwareCounter.ALL_STORES:
                    prof.store_samples += 1
                    prof.store_misses += ev.weight
                else:  # pragma: no cover - enum is closed
                    raise TraceError(f"unknown counter {ev.counter!r}")
            else:  # free
                info = open_allocs.pop(ev.address, None)
                if info is None:
                    if degradation is None:
                        raise TraceError(
                            f"free at {ev.address:#x} without matching alloc")
                    degradation.record(ORPHAN_FREE)
                    continue
                site_key, t_alloc = info
                table.remove(ev.address)
                prof = profiles[site_key]
                prof.free_count += 1
                prof.last_free = max(prof.last_free, ev.time)
                prof.total_live_time += ev.time - t_alloc
                prof.spans.append((t_alloc, ev.time))

        # objects never freed live until the end of the run
        run_end = trace.meta.duration
        for address, (site_key, t_alloc) in open_allocs.items():
            prof = profiles[site_key]
            prof.total_live_time += run_end - t_alloc
            prof.spans.append((t_alloc, run_end))
            prof.last_free = max(prof.last_free, run_end)

        return {key: acc.freeze() for key, acc in profiles.items()}

    def merge(
        self,
        per_rank: List[Dict[SiteKey, SiteProfile]],
        mode: str = "sum",
    ) -> Dict[SiteKey, SiteProfile]:
        """Aggregate per-rank profiles across an MPI job.

        ``mode="sum"`` adds miss estimates across ranks (total work the
        site causes on the node); ``mode="average"`` divides by the number
        of ranks that *observed* the site.  The two produce different
        rankings when sites appear in different rank subsets — precisely
        the ambiguity the paper faced when reproducing ProfDP and resolved
        by trying both (Section VIII).

        Structural fields merge naturally: ``largest_alloc`` is the max,
        ``alloc_count`` the per-rank mean (the advisor reasons per
        process), spans are pooled, and timestamps take the envelope.
        """
        if mode not in ("sum", "average"):
            raise ValueError(f"unknown aggregation mode {mode!r}")
        if not per_rank:
            raise ValueError("need at least one rank's profiles")
        merged: Dict[SiteKey, _SiteAcc] = {}
        seen_by: Dict[SiteKey, int] = {}
        for profiles in per_rank:
            for key, prof in profiles.items():
                seen_by[key] = seen_by.get(key, 0) + 1
                out = merged.get(key)
                if out is None:
                    out = merged[key] = _SiteAcc(key)
                out.largest_alloc = max(out.largest_alloc, prof.largest_alloc)
                out.alloc_count += prof.alloc_count
                out.free_count += prof.free_count
                out.load_misses += prof.load_misses
                out.store_misses += prof.store_misses
                out.load_samples += prof.load_samples
                out.store_samples += prof.store_samples
                out.first_alloc = min(out.first_alloc, prof.first_alloc)
                out.last_free = max(out.last_free, prof.last_free)
                out.total_live_time += prof.total_live_time
                out.spans.extend(prof.spans)
        for key, out in merged.items():
            n_ranks = seen_by[key]
            # per-process structural quantities: average over observers
            out.alloc_count = max(out.alloc_count // n_ranks, 1)
            out.free_count = out.free_count // n_ranks
            out.total_live_time /= n_ranks
            if mode == "average":
                out.load_misses /= n_ranks
                out.store_misses /= n_ranks
        return {key: out.freeze() for key, out in merged.items()}

    def top_sites(
        self, profiles: Dict[SiteKey, SiteProfile], n: int = 10,
        by: str = "load_misses",
    ) -> List[SiteProfile]:
        """The ``n`` sites with the largest value of ``by``."""
        valid = {"load_misses", "store_misses", "largest_alloc", "miss_density"}
        if by not in valid:
            raise ValueError(f"unknown sort key {by!r}; choose from {sorted(valid)}")
        return sorted(profiles.values(), key=lambda p: getattr(p, by), reverse=True)[:n]
