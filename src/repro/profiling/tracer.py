"""The Extrae-like tracer: profile a workload run into a :class:`Trace`.

The tracer replays a workload's allocation schedule through a real heap
(the profiling run needs actual addresses so that sampled data addresses
can be matched back to objects through the live-object table, as Extrae
does), translates each site's captured call stack into the configured
stable format, and drives the PEBS sampler over the run's phases.

The profiling run itself uses the fallback placement (everything in the
largest subsystem) — the sampled counters (LLC load misses, retired
stores) are properties of the cache hierarchy above the placement, so the
profile is placement-independent, exactly the property the paper's
workflow relies on (profile once, place, run).

One window loop (alloc/free edges, then per window and counter the PEBS
draws) feeds one of two sinks:

- :meth:`ExtraeTracer.run` — the trace sink.  Allocations go through
  the profiling heap, sample addresses are built from offsets the sink
  draws, resolved through :meth:`LiveObjectTable.lookup_batch`, and
  batches append to the trace's columnar storage.
- :meth:`ExtraeTracer.profile` — the profile sink, which returns exactly
  ``Paramedir().analyze(self.run(...))`` without building a trace.  Each
  drawn sample already knows its live instance and so its site, so the
  sink keeps Paramedir's per-site sums directly: structural fields from
  the sorted alloc/free edges (the order ``analyze`` replays them in),
  sample sums from each window's batch, stable-sorted by time.  No heap,
  no live-object table, no event objects, and no offset or latency
  draws: a profile reads neither.

The window loop is vectorized: the true event counts of every live
(window, instance) pair are precomputed as flat NumPy columns (span
overlap geometry via ``searchsorted``).  Sample offsets and load
latencies belong to the trace sink alone, which draws them in the scalar
RNG call order: per key for loads, and one call with per-sample bounds
for a window's stores.  :meth:`ExtraeTracer.run_scalar` — the
original per-event loop — is kept as the equivalence oracle (same
pattern as ``SetAssociativeCache.access_stream_scalar``).

All paths draw from per-run generators derived from ``(config.seed,
rank)``, so a rank's trace never depends on which ranks were profiled
before it; ``run`` and ``run_scalar`` produce bit-identical traces
(``tests/profiling/test_tracer_vectorized.py``) and ``profile`` equals
``analyze(run())`` field for field
(``tests/profiling/test_profile_direct.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, TraceError
from repro.binary.callstack import StackFormat
from repro.alloc.heap import FreeListHeap
from repro.apps.sites import ProcessImage, SiteRegistry
from repro.apps.workload import InstanceSpan, Workload
from repro.profiling.events import AllocEvent, FreeEvent, HardwareCounter, SampleEvent
from repro.profiling.object_table import LiveObjectTable
from repro.profiling.paramedir import (
    Paramedir, SiteKey, SiteProfile, add_sample_sums,
)
from repro.profiling.pebs import PEBSConfig, PEBSSampler
from repro.profiling.trace import COUNTER_CODE, Trace, TraceMeta

#: Profiling heap: one large region; base far from the real heaps so tests
#: can tell profiling-run addresses from production-run ones.
_PROFILING_HEAP_BASE = 0x0800_0000_0000

_LOAD = HardwareCounter.LLC_LOAD_MISS
_STORE = HardwareCounter.ALL_STORES


@dataclass(frozen=True)
class TracerConfig:
    """Extrae configuration file analogue."""

    stack_format: StackFormat = StackFormat.BOM
    pebs: PEBSConfig = PEBSConfig()
    #: sampling window; one PEBS batch is drawn per window per counter
    window: float = 1.0
    seed: int = 7
    #: per-rank load-imbalance jitter (lognormal sigma) applied to the
    #: true event counts a rank's sampler sees; 0 = perfectly symmetric
    rank_jitter: float = 0.0

    def __post_init__(self) -> None:
        # a zero/negative window never advances the window loop, and NaN
        # silently yields an empty trace
        if not (math.isfinite(self.window) and self.window > 0):
            raise ConfigError(
                f"TracerConfig.window must be finite and > 0, got {self.window!r}")
        if not (math.isfinite(self.rank_jitter) and self.rank_jitter >= 0):
            raise ConfigError(
                f"TracerConfig.rank_jitter must be finite and >= 0, "
                f"got {self.rank_jitter!r}")


class ExtraeTracer:
    """Profiles one rank of a workload (ranks are symmetric in the model)."""

    def __init__(self, workload: Workload, config: TracerConfig = TracerConfig(),
                 registry: Optional[SiteRegistry] = None):
        self.workload = workload
        self.config = config
        self.registry = registry or SiteRegistry(workload)

    def run_all_ranks(self, ranks: Optional[int] = None,
                      aslr_base_seed: int = 5000) -> List[Trace]:
        """Profile every rank (each with its own ASLR layout and sampler).

        With ``rank_jitter > 0`` the ranks see lognormally perturbed event
        counts — the load imbalance that makes cross-rank *sum* and
        *average* aggregation genuinely different (the ambiguity the paper
        hits when reproducing ProfDP, Section VIII).

        Each rank's generators derive from ``(config.seed, rank)``, so
        ``run_all_ranks()[r]`` equals a fresh ``run(rank=r)`` — ranks are
        profiling-order independent.
        """
        n = ranks if ranks is not None else self.workload.ranks
        return [
            self.run(rank=r, aslr_seed=aslr_base_seed + r) for r in range(n)
        ]

    def run(self, rank: int = 0, aslr_seed: Optional[int] = None) -> Trace:
        """Execute the profiling run and return the trace (vectorized)."""
        return self._replay(rank, aslr_seed, _TraceSink, vectorized=True)

    def run_scalar(self, rank: int = 0, aslr_seed: Optional[int] = None) -> Trace:
        """The per-event reference implementation (equivalence oracle)."""
        return self._replay(rank, aslr_seed, _TraceSink, vectorized=False)

    def profile(self, rank: int = 0, aslr_seed: Optional[int] = None
                ) -> Dict[SiteKey, SiteProfile]:
        """``Paramedir().analyze(self.run(rank, aslr_seed))``, without a trace.

        Same sampler and jitter draws, same per-site float sums in the
        same order.  A sample time rounded past its object's free (which
        the analyzer resolves by address) or before an earlier window's
        samples falls back to the trace path.
        """
        profiles = self._replay(rank, aslr_seed, _ProfileSink, vectorized=True)
        if profiles is None:
            return Paramedir().analyze(self.run(rank, aslr_seed))
        return profiles

    # -- the shared run loop ---------------------------------------------------

    def _replay(self, rank: int, aslr_seed: Optional[int], sink_cls,
                vectorized: bool):
        # Per-run generators: rank jitter (here) and the trace sink's
        # sample offsets/latencies are functions of (seed, rank) only —
        # never of previously profiled ranks.
        self._rank_rng = np.random.Generator(
            np.random.PCG64(self.config.seed * 131 + rank))
        wl = self.workload
        process = self.registry.make_process(
            rank=rank, aslr_seed=aslr_seed if aslr_seed is not None else 1000 + rank
        )
        instances = wl.instances()
        sink = sink_cls(self, process, rank, instances)
        sampler = PEBSSampler(self.config.pebs)

        # Timeline of alloc/free edges (by instance column), processed in
        # time order so the live set is correct at every sampling window.
        edges: List[Tuple[float, int, int]] = []
        for col, inst in enumerate(instances):
            edges.append((inst.start, 0, col))  # 0 = alloc sorts before free
            edges.append((inst.end, 1, col))
        edges.sort(key=lambda e: (e[0], e[1]))

        win_lo, win_hi = self._window_edges(wl.nominal_duration)
        geometry = None
        if vectorized:
            geometry = self._live_event_counts(win_lo, win_hi, instances)

        # instance column -> instance, in allocation order (the per-key
        # draw order)
        live: Dict[int, InstanceSpan] = {}
        edge_i = 0
        n_edges = len(edges)
        for wi in range(len(win_lo)):
            lo, hi = win_lo[wi], win_hi[wi]
            # apply all edges up to the *start* of the window, then sample,
            # then apply intra-window edges at window end (coarse but keeps
            # the live set consistent with overlap-based counts below)
            while edge_i < n_edges and edges[edge_i][0] <= lo:
                self._apply_edge(edges[edge_i], instances, live, sink)
                edge_i += 1
            if vectorized:
                self._sample_window_vec(wi, lo, hi, live, sampler, sink,
                                        geometry)
            else:
                self._sample_window(lo, hi, live, sampler, sink)
            # edges strictly inside the window
            while edge_i < n_edges and edges[edge_i][0] < hi:
                self._apply_edge(edges[edge_i], instances, live, sink)
                edge_i += 1
        # drain remaining frees at the end of the run
        while edge_i < n_edges:
            self._apply_edge(edges[edge_i], instances, live, sink)
            edge_i += 1
        return sink.finish()

    # -- internals ------------------------------------------------------------

    def _window_edges(self, duration: float) -> Tuple[List[float], List[float]]:
        """The sampling window boundaries, iterated exactly like the
        original scalar loop so the float edge values are identical."""
        lo: List[float] = []
        hi: List[float] = []
        t = 0.0
        window = self.config.window
        while t < duration:
            w_end = min(t + window, duration)
            lo.append(t)
            hi.append(w_end)
            t = w_end
        return lo, hi

    @staticmethod
    def _apply_edge(edge, instances, live, sink) -> None:
        time_, kind, col = edge
        inst = instances[col]
        if kind == 0:
            live[col] = inst
            sink.alloc(time_, col, inst)
        else:
            if live.pop(col, None) is None:
                raise TraceError(
                    f"free of never-allocated instance "
                    f"{(inst.spec.site.name, inst.index)}")
            sink.free(time_, col, inst)

    # -- vectorized window geometry -------------------------------------------

    def _live_event_counts(self, win_lo: List[float], win_hi: List[float],
                           instances: List[InstanceSpan]) -> dict:
        """Precompute the true event counts of every live (window, instance).

        Replaces the O(windows * live * spans) scalar accumulation of
        ``_window_phase_rates``: for each phase span (in timeline order,
        preserving the scalar accumulation order and therefore the exact
        float results), the overlap of every pair in the windows the span
        covers (found with ``searchsorted``) is one vectorized min/max.
        Adding a zero overlap contribution is a float no-op, so skipped vs
        added-zero spans produce bit-identical sums.

        The window loop samples an instance in window ``w`` exactly when
        ``start <= lo[w] < end`` (its alloc edge is applied and its free
        edge is not), so only those pairs are kept: flat, window-major,
        instances ascending within a window (``pair_bounds[w]`` is window
        ``w``'s first pair).  Each pair receives the same additions, in the
        same order, as a dense (windows x instances) matrix would, whose
        other entries are never read.
        """
        lo = np.asarray(win_lo)
        hi = np.asarray(win_hi)
        starts = np.array([i.start for i in instances])
        ends = np.array([i.end for i in instances])
        n_w, n_i = lo.size, len(instances)
        first = np.searchsorted(lo, starts, side="left")
        counts = np.maximum(np.searchsorted(lo, ends, side="left") - first, 0)
        pair_inst = np.repeat(np.arange(n_i), counts)
        pair_win = np.arange(pair_inst.size) + np.repeat(
            first - (np.cumsum(counts) - counts), counts)
        order = np.lexsort((pair_inst, pair_win))
        pair_inst, pair_win = pair_inst[order], pair_win[order]
        del order
        pair_bounds = np.searchsorted(pair_win, np.arange(n_w + 1))
        e_load = np.zeros(pair_inst.size)
        e_store = np.zeros(pair_inst.size)
        rates: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for span in self.workload.spans:
            pair = rates.get(span.name)
            if pair is None:
                rl = np.zeros(n_i)
                rs = np.zeros(n_i)
                for i, inst in enumerate(instances):
                    stats = inst.spec.access.get(span.name)
                    if stats is not None:
                        rl[i] = stats.load_rate
                        rs[i] = stats.sampled_store_rate
                pair = rates[span.name] = (rl, rs)
            rl, rs = pair
            # windows overlapping this span: first with hi > span.start,
            # last with lo < span.end
            w0 = int(np.searchsorted(hi, span.start, side="right"))
            w1 = int(np.searchsorted(lo, span.end, side="left"))
            if w1 <= w0:
                continue
            p0, p1 = pair_bounds[w0], pair_bounds[w1]
            w, i = pair_win[p0:p1], pair_inst[p0:p1]
            seg_lo = np.maximum(np.maximum(lo[w], span.start), starts[i])
            seg_hi = np.minimum(np.minimum(hi[w], span.end), ends[i])
            dt = seg_hi - seg_lo
            np.maximum(dt, 0.0, out=dt)
            e_load[p0:p1] += rl[i] * dt
            e_store[p0:p1] += rs[i] * dt
        vis = np.array([i.spec.sampling_visibility for i in instances])
        return {"load": e_load, "store": e_store, "pair_inst": pair_inst,
                "pair_bounds": pair_bounds, "vis": vis,
                "starts": starts, "ends": ends}

    def _sample_window_vec(self, wi, lo, hi, live, sampler, sink,
                           geometry) -> None:
        if not live:
            return
        n = len(live)
        idx = np.fromiter(live, dtype=np.intp, count=n)
        vis = geometry["vis"][idx]
        # clip each key's live span to the window: a sample on a freed
        # object would be unmatchable
        t_lo = np.maximum(lo, geometry["starts"][idx])
        t_hi = np.minimum(hi, geometry["ends"][idx])
        span = hi - lo
        # the live keys' pairs of this window
        p0, p1 = geometry["pair_bounds"][wi:wi + 2]
        pos = p0 + np.searchsorted(geometry["pair_inst"][p0:p1], idx)
        for counter, counts_of in ((_LOAD, geometry["load"]),
                                   (_STORE, geometry["store"])):
            events = counts_of[pos] * vis
            if self.config.rank_jitter > 0.0:
                events = events * self._rank_rng.lognormal(
                    0.0, self.config.rank_jitter, size=n)
            fpos = np.flatnonzero(events > 0)
            if fpos.size == 0:
                continue
            total, n_samples, draws = sampler.sample_counts(
                lo, hi, events[fpos])
            if n_samples == 0:
                continue
            # adaptive period: events represented per delivered sample
            weight = total / n_samples
            ppos = np.flatnonzero(draws > 0)
            sel = fpos[ppos]
            counts = draws[ppos]
            ts_all = sampler.timestamps_flat(lo, hi, counts)
            tl = t_lo[sel]
            th = t_hi[sel]
            ok = th > tl
            if not ok.all():
                # a key whose live span misses the window draws no
                # samples (the scalar guard) and its timestamps are dropped
                ts_all = ts_all[np.repeat(ok, counts)]
                sel, counts, tl, th = sel[ok], counts[ok], tl[ok], th[ok]
                if sel.size == 0:
                    continue
            seg = np.repeat(np.arange(sel.size), counts)
            times = tl[seg] + (ts_all - lo) * (th - tl)[seg] / span
            sink.samples(counter, idx[sel], counts, times, weight)

    # -- scalar oracle ---------------------------------------------------------

    def _window_phase_rates(self, lo: float, hi: float, inst: InstanceSpan
                            ) -> Tuple[float, float]:
        """True (load, store) events of one instance inside ``[lo, hi)``."""
        loads = stores = 0.0
        for span in self.workload.spans:
            seg_lo = max(lo, span.start, inst.start)
            seg_hi = min(hi, span.end, inst.end)
            if seg_hi <= seg_lo:
                continue
            stats = inst.spec.access.get(span.name)
            if stats is None:
                continue
            dt = seg_hi - seg_lo
            loads += stats.load_rate * dt
            stores += stats.sampled_store_rate * dt
        return loads, stores

    def _sample_window(self, lo, hi, live, sampler, sink) -> None:
        for counter in (_LOAD, _STORE):
            true_counts: Dict[int, float] = {}
            for key, inst in live.items():
                loads, stores = self._window_phase_rates(lo, hi, inst)
                events = loads if counter is _LOAD else stores
                events *= inst.spec.sampling_visibility
                if self.config.rank_jitter > 0.0:
                    events *= float(self._rank_rng.lognormal(
                        0.0, self.config.rank_jitter))
                if events > 0:
                    true_counts[key] = events
            if not true_counts:
                continue
            batch = sampler.sample_interval(counter, lo, hi, true_counts)
            if batch.total_samples == 0:
                continue
            # adaptive period: events represented per delivered sample
            weight = batch.total_true_events / batch.total_samples
            stamps = sampler.sample_timestamps(batch)
            for key, ts in stamps.items():
                # clip timestamps to the instance's live span inside the
                # window: a sample on a freed object would be unmatchable
                inst = live[key]
                t_lo = max(lo, inst.start)
                t_hi = min(hi, inst.end)
                if t_hi <= t_lo:
                    continue
                ts = t_lo + (ts - lo) * (t_hi - t_lo) / (hi - lo)
                base = int(sink.addr[key])
                size = live[key].spec.size
                offsets = sink.rng.integers(0, max(size - 8, 1), size=len(ts))
                for time_, off in zip(ts, offsets):
                    addr = base + int(off)
                    # the address must resolve through the live table, like
                    # Extrae matching PEBS linear addresses to objects
                    iv = sink.table.lookup(addr)
                    if iv is None:
                        raise TraceError(
                            f"sample address {addr:#x} fell outside live objects"
                        )
                    lat = None
                    if counter is _LOAD:
                        lat = float(sink.rng.normal(200.0, 40.0))
                    sink.trace.add_sample(SampleEvent(
                        time=float(time_), counter=counter, data_address=addr,
                        rank=sink.rank, latency_ns=lat, weight=weight,
                    ))


# -- sinks ----------------------------------------------------------------------


def draw_sample_offsets(rng: np.random.Generator, highs: np.ndarray,
                        counts: np.ndarray, loads: bool
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One window's sample offsets and, for ``loads``, latencies.

    Exactly the scalar oracle's calls, per key in order:
    ``integers(0, h, size=c)``, then for loads ``normal(200, 40,
    size=c)``.  Loads stay per key: ``normal`` takes whole 64-bit words
    between one key's offsets and the next's.  Stores are one call with
    per-sample bounds, which NumPy answers with Lemire's method element
    by element on one word stream: the concatenated per-key calls,
    PCG64's buffered 32-bit half included
    (``tests/profiling/test_offset_draws.py`` pins it).
    """
    if not loads:
        return rng.integers(0, np.repeat(highs, counts)), None
    n = int(counts.sum())
    offsets = np.empty(n, dtype=np.int64)
    lats = np.empty(n)
    p = 0
    for h, c in zip(highs.tolist(), counts.tolist()):
        offsets[p:p + c] = rng.integers(0, h, size=c)
        lats[p:p + c] = rng.normal(200.0, 40.0, size=c)
        p += c
    return offsets, lats


class _TraceSink:
    """Builds the :class:`Trace`: a real profiling heap and live table, so
    every sample address is checked against the live objects.

    The sink owns the sample generator, a function of ``(seed, rank)``
    only, and draws from it in the scalar oracle's order
    (:func:`draw_sample_offsets`).
    """

    def __init__(self, tracer: ExtraeTracer, process: ProcessImage, rank: int,
                 instances: List[InstanceSpan]):
        wl = tracer.workload
        self.process = process
        self.fmt = tracer.config.stack_format
        self.rank = rank
        self.rng = np.random.Generator(
            np.random.PCG64((tracer.config.seed, rank)))
        self.highs = np.fromiter((max(i.spec.size - 8, 1) for i in instances),
                                 dtype=np.int64, count=len(instances))
        self.trace = Trace(TraceMeta(
            workload=wl.name,
            ranks=wl.ranks,
            duration=wl.nominal_duration,
            stack_format=self.fmt,
            sampling_hz=tracer.config.pebs.frequency_hz,
        ))
        self.heap = FreeListHeap(
            name="profiling-heap",
            base=_PROFILING_HEAP_BASE,
            capacity=max(wl.heap_high_water() * 4, 1 << 20),
        )
        self.table = LiveObjectTable()
        #: instance column -> base address while live
        self.addr = np.zeros(len(instances), dtype=np.int64)

    def alloc(self, time_: float, col: int, inst: InstanceSpan) -> None:
        alloc = self.heap.allocate(inst.spec.size)
        site_key = self.process.site_key(inst.spec.site, self.fmt)
        self.table.insert(alloc.address, inst.spec.size, site_key, time_)
        self.addr[col] = alloc.address
        self.trace.add_alloc(AllocEvent(
            time=time_, address=alloc.address, size=inst.spec.size,
            site_key=site_key, rank=self.rank,
        ))

    def free(self, time_: float, col: int, inst: InstanceSpan) -> None:
        address = int(self.addr[col])
        self.heap.free(address)
        self.table.remove(address)
        self.trace.add_free(FreeEvent(time=time_, address=address,
                                      rank=self.rank))

    def samples(self, counter, cols, counts, times, weight) -> None:
        offsets, lats = draw_sample_offsets(self.rng, self.highs[cols],
                                            counts, loads=counter is _LOAD)
        addrs = np.repeat(self.addr[cols], counts) + offsets
        # the addresses must resolve through the live table, like
        # Extrae matching PEBS linear addresses to objects
        slots = self.table.lookup_batch(addrs)
        if (slots < 0).any():
            bad = int(addrs[slots < 0][0])
            raise TraceError(
                f"sample address {bad:#x} fell outside live objects"
            )
        self.trace.add_sample_batch(times, addrs, counter, rank=self.rank,
                                    latencies=lats, weight=weight)

    def finish(self) -> Trace:
        self.trace.sort()
        return self.trace


class _ProfileSink:
    """Keeps :meth:`Paramedir.analyze`'s per-site sums directly.

    Alloc/free edges arrive in the order ``analyze`` replays them (time,
    allocs before frees, ties in timeline order), so the structural
    fields and the profile dict order match field for field.  Samples are
    attributed to the instance they were drawn from, which is the object
    ``analyze`` finds at their address as long as the sample time lies
    inside the instance's live span.

    ``analyze`` adds samples in time order (a stable sort of the append
    order), and only the order *within* one counter matters to its sums.
    Windows arrive in time order, so one stable sort per window and
    counter gives that order, provided no sample time crosses into an
    earlier window's range (checked per counter).  ``finish`` returns
    ``None`` when either condition fails (a time rounded past its free or
    its window), and the caller falls back to the trace path.
    """

    def __init__(self, tracer: ExtraeTracer, process: ProcessImage, rank: int,
                 instances: List[InstanceSpan]):
        del rank  # profiles carry no rank
        self.process = process
        self.fmt = tracer.config.stack_format
        self.ends = np.array([inst.end for inst in instances])
        #: instance column -> site index while live
        self.site_of = np.zeros(len(instances), dtype=np.int64)
        self.site_idx: Dict[SiteKey, int] = {}
        self.profiles: Dict[SiteKey, SiteProfile] = {}
        self.open: Dict[int, Tuple[SiteKey, float]] = {}
        #: per counter: time-sorted batches of (sites, codes, weights),
        #: and the latest sample time so far
        self.parts: Dict[HardwareCounter, List[Tuple[np.ndarray, ...]]] = {
            _LOAD: [], _STORE: []}
        self.t_max = {_LOAD: -np.inf, _STORE: -np.inf}
        self.exact = True

    def alloc(self, time_: float, col: int, inst: InstanceSpan) -> None:
        site_key = self.process.site_key(inst.spec.site, self.fmt)
        prof = self.profiles.get(site_key)
        if prof is None:
            self.site_idx[site_key] = len(self.site_idx)
            prof = self.profiles[site_key] = SiteProfile(site_key=site_key)
        prof.largest_alloc = max(prof.largest_alloc, inst.spec.size)
        prof.alloc_count += 1
        prof.first_alloc = min(prof.first_alloc, time_)
        self.site_of[col] = self.site_idx[site_key]
        self.open[col] = (site_key, time_)

    def free(self, time_: float, col: int, inst: InstanceSpan) -> None:
        site_key, t_alloc = self.open.pop(col)
        prof = self.profiles[site_key]
        prof.free_count += 1
        prof.last_free = max(prof.last_free, time_)
        prof.total_live_time += time_ - t_alloc
        prof.spans.append((t_alloc, time_))

    def samples(self, counter, cols, counts, times, weight) -> None:
        inst_of = np.repeat(cols, counts)
        if ((times > self.ends[inst_of]).any()
                or times.min() < self.t_max[counter]):
            self.exact = False
        self.t_max[counter] = max(self.t_max[counter], times.max())
        order = np.argsort(times, kind="stable")
        n = times.size
        self.parts[counter].append((
            self.site_of[inst_of[order]],
            np.full(n, COUNTER_CODE[counter], dtype=np.uint8),
            np.full(n, weight),
        ))

    def finish(self) -> Optional[Dict[SiteKey, SiteProfile]]:
        if not self.exact:
            return None
        parts = self.parts[_LOAD] + self.parts[_STORE]
        if parts:
            sites, codes, weights = (
                np.concatenate(col) for col in zip(*parts))
        else:
            weights = np.empty(0)
            sites = np.empty(0, dtype=np.int64)
            codes = np.empty(0, dtype=np.uint8)
        add_sample_sums(self.profiles, self.site_idx, sites, codes, weights)
        return self.profiles
