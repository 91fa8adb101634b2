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

The vectorized path runs in three phases, which both sinks share:

1. Before the window loop, once over all windows: the true event counts
   of every live (window, instance) pair as flat NumPy columns (span
   overlap geometry via ``searchsorted``), each window's pairs in live
   order (the alloc-edge order: start time, then column), weighted by
   visibility and rank jitter, and the pairs with events to sample.
2. The loop makes only the PEBS sampler's generator calls, per window
   and counter, with the scalar oracle's arguments in its order:
   ``poisson``, ``multinomial``, then the timestamps' ``uniform``.
3. After the loop, once over all windows: the clip of each sample time
   to its instance's live span, then the sink.

- :meth:`ExtraeTracer.run` — the trace sink sorts each key's
  timestamps, then walks the alloc/free edges through the profiling
  heap, handing each window its ready-made batches.  Sample addresses
  are built from offsets the sink draws, resolved through
  :meth:`LiveObjectTable.lookup_batch`, and batches append to the
  trace's columnar storage.
- :meth:`ExtraeTracer.profile` — the profile sink, which returns exactly
  ``Paramedir().analyze(self.run(...))`` without building a trace.  Each
  drawn sample already knows its live instance and so its site, so the
  sink keeps Paramedir's per-site sums directly: structural fields from
  the instances in bulk, in the edge orders ``analyze`` replays, and
  sample sums in one pass over all windows.  No heap, no live-object
  table, no event objects, no timestamp sort, and no offset or latency
  draws: a profile reads none of them.

Each generator keeps its own call order: the sampler's (in the loop),
the rank jitter's (before it) and the trace sink's sample offsets and
load latencies, which it draws in the scalar RNG call order: per key for
loads, and one call with per-sample bounds for a window's stores.
:meth:`ExtraeTracer.run_scalar` — the original per-event loop — is kept
as the equivalence oracle (same pattern as
``SetAssociativeCache.access_stream_scalar``).

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
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

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
#: the per-window counter order
_COUNTERS = (_LOAD, _STORE)


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
        self.registry = registry or workload.site_registry

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
        win_lo, win_hi = self._window_edges(wl.nominal_duration)
        if vectorized:
            return sink.consume(
                self._draw_windows(win_lo, win_hi, instances, sampler))

        def sample(wi: int, live: Dict[int, InstanceSpan]) -> None:
            self._sample_window(win_lo[wi], win_hi[wi], live, sampler, sink)

        _walk_edges(instances, win_lo, sink, sample)
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

    # -- vectorized window loop -----------------------------------------------

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
        edge is not), so only those pairs are kept: flat, window-major
        (``pair_bounds[w]`` is window ``w``'s first pair).  Within a window
        the pairs come in live order, the order of the alloc edges (start
        time, then column): instances are ranked in that order
        (``order[rank]`` is the column) and ``pair_inst`` holds ranks.
        Each pair receives the same additions, in the same order, as a
        dense (windows x instances) matrix would, whose other entries are
        never read.
        """
        lo = np.asarray(win_lo)
        hi = np.asarray(win_hi)
        starts = np.array([i.start for i in instances])
        ends = np.array([i.end for i in instances])
        order = np.argsort(starts, kind="stable")
        r_starts, r_ends = starts[order], ends[order]
        n_w, n_i = lo.size, len(instances)
        first = np.searchsorted(lo, r_starts, side="left")
        counts = np.maximum(np.searchsorted(lo, r_ends, side="left") - first, 0)
        pair_inst = np.repeat(np.arange(n_i), counts)
        pair_win = np.arange(pair_inst.size) + np.repeat(
            first - (np.cumsum(counts) - counts), counts)
        by_win = np.argsort(pair_win, kind="stable")
        pair_inst, pair_win = pair_inst[by_win], pair_win[by_win]
        pair_bounds = np.searchsorted(pair_win, np.arange(n_w + 1))
        e_load = np.zeros(pair_inst.size)
        e_store = np.zeros(pair_inst.size)
        # an instance has its object spec's per-phase rates
        objects = self.workload.objects
        obj_idx = {id(obj): k for k, obj in enumerate(objects)}
        obj_of = np.array([obj_idx[id(i.spec)] for i in instances],
                          dtype=np.intp)[order]
        rates: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for span in self.workload.spans:
            pair = rates.get(span.name)
            if pair is None:
                stats = [obj.access.get(span.name) for obj in objects]
                rl = np.array([0.0 if st is None else st.load_rate
                               for st in stats])[obj_of]
                rs = np.array([0.0 if st is None else st.sampled_store_rate
                               for st in stats])[obj_of]
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
            seg_lo = np.maximum(np.maximum(lo[w], span.start), r_starts[i])
            seg_hi = np.minimum(np.minimum(hi[w], span.end), r_ends[i])
            dt = seg_hi - seg_lo
            np.maximum(dt, 0.0, out=dt)
            e_load[p0:p1] += rl[i] * dt
            e_store[p0:p1] += rs[i] * dt
        vis = np.array([obj.sampling_visibility for obj in objects])[obj_of]
        return {"load": e_load, "store": e_store, "pair_inst": pair_inst,
                "pair_bounds": pair_bounds, "vis": vis, "order": order,
                "starts": starts, "ends": ends}

    def _draw_windows(self, win_lo: List[float], win_hi: List[float],
                      instances: List[InstanceSpan], sampler: PEBSSampler
                      ) -> "_WindowSamples":
        """Every window's PEBS draws, in three phases.

        Before the loop, once over all windows: each window's live pairs
        in live order with their visibility-weighted event counts, the
        rank jitter (the rank generator's own calls, in the scalar order:
        per window with live instances, one ``lognormal`` per counter),
        and the ``> 0`` pairs each counter's sampler sees.  The loop makes
        only the sampler's calls, per window and counter, with the scalar
        arguments on the same 1-D weights: :meth:`PEBSSampler.sample_counts`
        (``poisson``, ``multinomial``) then the timestamps' ``uniform``.
        Everything else happens after it (:class:`_WindowSamples`).
        """
        geo = self._live_event_counts(win_lo, win_hi, instances)
        bounds = geo["pair_bounds"]
        vis = geo["vis"][geo["pair_inst"]]
        jitter = self.config.rank_jitter
        factors: Tuple[List[np.ndarray], ...] = ([], [])
        if jitter > 0.0:
            for n in np.diff(bounds).tolist():
                if n:
                    for per_counter in factors:
                        per_counter.append(self._rank_rng.lognormal(
                            0.0, jitter, size=n))
        kept: List[np.ndarray] = []
        weights: List[np.ndarray] = []
        kept_at: List[List[int]] = []
        for name, jit in zip(("load", "store"), factors):
            events = geo.pop(name) * vis
            if jit:
                events = events * np.concatenate(jit)
            pos = np.flatnonzero(events > 0)
            kept.append(pos)
            weights.append(events[pos])
            kept_at.append(np.searchsorted(pos, bounds).tolist())

        # Per counter, the loop records each kept pair's sample count (0
        # where its window does not fire), each firing window's index,
        # weight and sample count, and the timestamps in one buffer,
        # grown on demand: thousands of per-window arrays held until the
        # loop ends fragment the heap.
        drawn = [np.zeros(pos.size, dtype=np.int64) for pos in kept]
        fired_win: Tuple[List[int], List[int]] = ([], [])
        fired_weight: Tuple[List[float], List[float]] = ([], [])
        fired_n: Tuple[List[int], List[int]] = ([], [])
        capacity = _stamps_capacity(self.config.pebs.frequency_hz,
                                    self.workload.nominal_duration)
        stamps = [np.empty(capacity) for _ in kept]
        used = [0, 0]
        sample_counts = sampler.sample_counts
        timestamps = sampler.timestamps_flat
        for wi, (lo, hi) in enumerate(zip(win_lo, win_hi)):
            for k in (0, 1):
                a, b = kept_at[k][wi], kept_at[k][wi + 1]
                if a == b:
                    continue
                total, n, counts = sample_counts(lo, hi, weights[k][a:b])
                if n:
                    drawn[k][a:b] = counts
                    end = used[k] + n
                    if end > stamps[k].size:
                        stamps[k] = np.concatenate(
                            (stamps[k][:used[k]], np.empty(end)))
                    stamps[k][used[k]:end] = timestamps(lo, hi, n)
                    used[k] = end
                    fired_win[k].append(wi)
                    # adaptive period: events represented per sample
                    fired_weight[k].append(total / n)
                    fired_n[k].append(n)
        return _WindowSamples(geo, win_lo, win_hi, [
            _Draws(kept[k], kept_at[k], drawn[k],
                   np.array(fired_win[k], dtype=np.intp),
                   np.array(fired_weight[k], dtype=float),
                   np.array(fired_n[k], dtype=np.intp), stamps[k][:used[k]])
            for k in (0, 1)])

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


def _stamps_capacity(hz: float, duration: float) -> int:
    """Room for one counter's timestamps: a run's sample count is at most
    Poisson with mean ``hz * duration``, so six standard deviations
    above it; the window loop grows the buffer if a run ever needs more."""
    mean = hz * duration
    return int(mean + 6.0 * math.sqrt(mean)) + 64


# -- the alloc/free edge walk -------------------------------------------------


def _walk_edges(instances: List[InstanceSpan], win_lo: List[float], sink,
                sample: Callable[[int, Dict[int, InstanceSpan]], None]) -> None:
    """Apply the alloc/free edges to ``sink`` in time order, allocs before
    frees at equal times, ties by column.  ``sample(wi, live)`` runs at
    each window's start, once every edge at or before it is applied:
    ``live`` maps column to instance for ``start <= lo < end``, in
    allocation order (the per-key draw order)."""
    edges: List[Tuple[float, int, int]] = []
    for col, inst in enumerate(instances):
        edges.append((inst.start, 0, col))  # 0 = alloc sorts before free
        edges.append((inst.end, 1, col))
    edges.sort(key=lambda e: (e[0], e[1]))
    live: Dict[int, InstanceSpan] = {}

    def apply(edge) -> None:
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

    edge_i = 0
    n_edges = len(edges)
    for wi, lo in enumerate(win_lo):
        while edge_i < n_edges and edges[edge_i][0] <= lo:
            apply(edges[edge_i])
            edge_i += 1
        sample(wi, live)
    for edge in edges[edge_i:]:
        apply(edge)


# -- after the window loop ------------------------------------------------------


class _Batches(NamedTuple):
    """One counter's samples over all windows: one part per firing
    window, in window order; one segment per key with samples, in live
    order within its part; then the samples, segment by segment."""

    win: np.ndarray      #: per part: window index
    weight: np.ndarray   #: per part: events represented per sample
    n: np.ndarray        #: per part: samples
    segs: np.ndarray     #: per part: segments
    cols: np.ndarray     #: per segment: instance column
    counts: np.ndarray   #: per segment: samples
    times: np.ndarray    #: per sample; unsorted within a segment


class _Draws(NamedTuple):
    """One counter's record of the window loop."""

    kept: np.ndarray     #: pairs with events, ascending
    kept_at: List[int]   #: per window: its first kept pair
    drawn: np.ndarray    #: per kept pair: samples (0 if its window is quiet)
    win: np.ndarray      #: per firing window: window index
    weight: np.ndarray   #: per firing window: events per sample
    n: np.ndarray        #: per firing window: samples
    stamps: np.ndarray   #: per sample: the raw ``uniform`` timestamp


class _WindowSamples:
    """The window loop's draws, assembled once over all windows.

    :meth:`batches` builds one counter's :class:`_Batches` at a time and
    drops that counter's draws, so only one counter's per-sample arrays
    are alive at once.  A live instance has ``start <= lo < end``, so its
    span clipped to the window is ``[lo, min(hi, end))``, never empty,
    and every drawn sample is kept.
    """

    def __init__(self, geo: dict, win_lo: List[float], win_hi: List[float],
                 draws: List[_Draws]):
        self.order = geo["order"]
        self.pair_inst = geo["pair_inst"]
        #: per instance column
        self.starts, self.ends = geo["starts"], geo["ends"]
        self.lo = np.asarray(win_lo)
        self.hi = np.asarray(win_hi)
        self.draws: List[Optional[_Draws]] = draws
        self.sizes = [d.stamps.size for d in draws]

    def batches(self, k: int) -> _Batches:
        d, self.draws[k] = self.draws[k], None
        hit = np.flatnonzero(d.drawn)
        counts = d.drawn[hit]
        kept, kept_at, win, weight, n, times = (
            d.kept, d.kept_at, d.win, d.weight, d.n, d.stamps)
        del d
        # each sampled key's part: its window's rank among firing windows
        part_of = np.zeros(self.lo.size, dtype=np.intp)
        part_of[win] = np.arange(win.size)
        part = part_of[np.searchsorted(kept_at, hit, side="right") - 1]
        segs = np.bincount(part, minlength=win.size)
        cols = self.order[self.pair_inst[kept[hit]]]
        del hit, kept
        lo, hi = self.lo[win], self.hi[win]
        # the scalar clip: lo + (ts - lo) * (t_hi - lo) / (hi - lo)
        clip = np.minimum(hi[part], self.ends[cols]) - lo[part]
        del part
        lo_s = np.repeat(lo, n)
        times -= lo_s
        times *= np.repeat(clip, counts)
        times /= np.repeat(hi - lo, n)
        times += lo_s
        return _Batches(win, weight, n, segs, cols, counts, times)


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
        self.instances = instances
        #: instance column -> base address while live
        self.addr = np.zeros(len(instances), dtype=np.int64)

    def consume(self, draws: _WindowSamples) -> Trace:
        """Walk the edges once more, handing each window its ready-made
        batches (per-key sorted times), loads then stores."""
        parts: Dict[int, list] = {}
        for k, counter in enumerate(_COUNTERS):
            b = draws.batches(k)
            seg = np.repeat(np.arange(b.cols.size), b.counts)
            times = b.times[np.lexsort((b.times, seg))]
            s0 = t0 = 0
            for wi, weight, s1, t1 in zip(b.win.tolist(), b.weight.tolist(),
                                          np.cumsum(b.segs).tolist(),
                                          np.cumsum(b.n).tolist()):
                parts.setdefault(wi, []).append(
                    (counter, b.cols[s0:s1], b.counts[s0:s1], times[t0:t1],
                     weight))
                s0, t0 = s1, t1

        def sample(wi: int, live) -> None:
            for part in parts.get(wi, ()):
                self.samples(*part)

        _walk_edges(self.instances, draws.lo.tolist(), self, sample)
        return self.finish()

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


def _attributable(b: _Batches, ends: np.ndarray) -> bool:
    """Whether ``analyze`` attributes ``b``'s samples as the profile sink
    does: no sample time rounded past its instance's free (``ends`` by
    column), and no window's earliest sample before an earlier window's
    latest (``analyze`` adds samples in time order, the sink in window
    order)."""
    if not b.times.size:
        return True
    if (b.times > np.repeat(ends[b.cols], b.counts)).any():
        return False
    at = np.cumsum(b.n) - b.n
    latest = np.maximum.accumulate(np.maximum.reduceat(b.times, at))
    return not (np.minimum.reduceat(b.times, at)[1:] < latest[:-1]).any()


class _ProfileSink:
    """Keeps :meth:`Paramedir.analyze`'s per-site sums directly.

    The structural fields come from the instances in bulk.  Profiles are
    created in alloc-edge order (start time, then column), the order
    ``analyze`` first meets each site in; ``total_live_time`` adds each
    site's lifetimes in free-edge order (end time, then column) with one
    bincount.  Samples are attributed to the instance they were drawn
    from, which is the object ``analyze`` finds at their address as long
    as the sample time lies inside the instance's live span.

    ``analyze`` adds a counter's samples in time order.  Windows come in
    time order, and every sample of one window and counter carries the
    same weight, so the order inside a part changes no bincount sum: the
    samples go in as drawn, in one :func:`add_sample_sums`, provided no
    sample time crosses into an earlier window's range.
    :meth:`consume` returns ``None`` when either condition fails
    (:func:`_attributable`), and the caller falls back to the trace path.
    """

    def __init__(self, tracer: ExtraeTracer, process: ProcessImage, rank: int,
                 instances: List[InstanceSpan]):
        del rank  # profiles carry no rank
        self.process = process
        self.fmt = tracer.config.stack_format
        self.instances = instances

    def consume(self, draws: _WindowSamples
                ) -> Optional[Dict[SiteKey, SiteProfile]]:
        insts = self.instances
        site_idx: Dict[SiteKey, int] = {}
        #: object spec -> its site's index; per site index: first alloc
        #: and spans
        site_of_spec: Dict[int, int] = {}
        first_alloc: List[float] = []
        spans: List[List[Tuple[float, float]]] = []
        site_of = np.empty(len(insts), dtype=np.int64)
        for col in draws.order.tolist():
            inst = insts[col]
            i = site_of_spec.get(id(inst.spec))
            if i is None:
                key = self.process.site_key(inst.spec.site, self.fmt)
                i = site_idx.get(key)
                if i is None:
                    i = site_idx[key] = len(spans)
                    first_alloc.append(inst.start)
                    spans.append([])
                site_of_spec[id(inst.spec)] = i
            site_of[col] = i
            spans[i].append((inst.start, inst.end))
        n_sites = len(site_idx)
        starts, ends = draws.starts, draws.ends
        allocs = np.bincount(site_of, minlength=n_sites).tolist()
        largest = np.zeros(n_sites, dtype=np.int64)
        np.maximum.at(largest, site_of, [i.spec.size for i in insts])
        last_free = np.zeros(n_sites)
        np.maximum.at(last_free, site_of, ends)
        by_free = np.argsort(ends, kind="stable")
        live_time = np.bincount(site_of[by_free], minlength=n_sites,
                                weights=(ends - starts)[by_free])
        profiles = {
            key: SiteProfile(
                site_key=key, largest_alloc=int(largest[i]),
                alloc_count=allocs[i], free_count=allocs[i],
                first_alloc=first_alloc[i], last_free=float(last_free[i]),
                total_live_time=float(live_time[i]),
                spans=tuple(sorted(spans[i])))
            for key, i in site_idx.items()}

        total = sum(draws.sizes)
        sites = np.empty(total, dtype=np.int64)
        codes = np.empty(total, dtype=np.uint8)
        weights = np.empty(total)
        at = 0
        for k, counter in enumerate(_COUNTERS):
            b = draws.batches(k)
            if not _attributable(b, ends):
                return None
            end = at + b.times.size
            sites[at:end] = np.repeat(site_of[b.cols], b.counts)
            codes[at:end] = COUNTER_CODE[counter]
            weights[at:end] = np.repeat(b.weight, b.n)
            at = end
        return add_sample_sums(profiles, site_idx, sites, codes, weights)
