"""The benchmark's four workloads and the in-process runner for one of them.

Every workload drives the program only through its public API —
``run_ecohmem``, ``compute_fig6``/``compute_tab8`` and
``PlacementServer.submit`` — from one process and one load-generating
thread.  The workload seed picks the order, the mix and the arrival times
from a *fixed* catalogue of inputs, so every output has a golden value
whatever the seed (see :mod:`bench.golden`).

Why these four (the full table is in ``bench/README.md``):

- ``cold-pipeline``: the paper's Figure 1 workflow for a new application,
  profiling included — the only workload where the tracer and Paramedir
  do the work;
- ``paper-sweep``: Figure 6 + Table VIII reproduction with warm profiles,
  where advisor, FlexMalloc replay, fused engine runs and baselines do it;
- ``serve-advisory``: many tiny coalescable density queries to the
  placement server; no engine and no profiling work at all, so it is the
  workload that must not move when those layers change;
- ``serve-whatif``: few heavy what-if / online / bandwidth-aware requests
  to the same server, driving the memoized engine and the delta engine.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import math
import queue
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from bench import golden, stats
from bench.hostspeed import HostSpeed
from bench.trace import SpanRecorder, Target

clock = time.perf_counter

#: set-up repetitions per run (at least; cheap set-ups repeat until
#: ``SETUP_MIN_S`` or ``SETUP_MAX_REPS``); ``setup_s`` reports their median.
#: Two, not more: the servers' set-ups take 3-4 s each, and every run of
#: every workload pays for them
SETUP_REPS = 2
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 15
#: fresh interpreters timed importing the workload's modules
IMPORT_REPS = 3

#: the registered applications, fixed here so the catalogue never drifts
APPS = ("cloverleaf3d", "hpcg", "lammps", "lulesh", "minife", "minimd",
        "openfoam")
#: the Figure 6 miniapps (Table VIII adds lammps and openfoam)
FIG6_APPS = ("minife", "minimd", "lulesh", "hpcg", "cloverleaf3d")
#: ``--smoke`` runs use only the two smallest applications
SMOKE_APPS = ("minife", "minimd")

#: the placement server as a 2-vCPU machine should run it
SERVER_WORKERS = 2


def log(message: str) -> None:
    print(f"[bench] {message}", file=sys.stderr, flush=True)


@dataclass
class Phase:
    """What one timed phase measured.

    Durations named ``ref`` are at reference host speed (see
    :mod:`bench.hostspeed`); ``wall`` ones are as the clock read them.
    """

    #: results produced by the throughput part of the phase, and its
    #: duration at reference speed
    ops: int = 0
    ref_s: float = 0.0
    #: results per reference second of each slice of the throughput part
    #: (a round offline, a slice of the saturation phase on the servers)
    rates: List[float] = field(default_factory=list)
    #: every result of the phase, and the phase's whole wall time
    results: int = 0
    total_wall_s: float = 0.0
    #: per round (offline) or per latency-phase request, in ms at
    #: reference speed; open-loop requests are wall time from when they
    #: were due, not sent
    lat_ms: List[float] = field(default_factory=list)
    #: how far behind schedule the open-loop generator sent, in ms
    late_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    #: calls that raised or answered with an error status
    errors: int = 0
    #: outputs that differ from the golden file
    mismatches: int = 0
    cpu_s: float = 0.0
    #: simulated speedups over Memory Mode (offline workloads only)
    speedups: List[float] = field(default_factory=list)
    #: the yardstick probes taken between the phase's timed intervals
    speed: HostSpeed = field(default_factory=HostSpeed)
    info: Dict[str, object] = field(default_factory=dict)


# -- the span targets for ``--trace 1`` ----------------------------------------


def _one(counter: str):
    return lambda args, kwargs, result: {counter: 1}


def _count_trace(args, kwargs, result):
    return {"profiling.tracer_runs": 1,
            "profiling.samples": result.num_samples}


def _count_batch_queries(args, kwargs, result):
    return {"advisor.queries": len(result)}


def _count_replay(args, kwargs, result):
    istats = result.flexmalloc.stats
    return {"replay.instances": len(result.instance_placement),
            "replay.allocs": istats.calls,
            "replay.fallbacks": istats.fallback_total}


def _engine_calls(multi: bool, full_width: bool):
    """Counters of an engine entry point: calls, lanes, segments solved."""

    def count(args, kwargs, result):
        lanes = len(result) if multi else 1
        out = {"engine.calls": 1, "engine.lanes": lanes}
        if full_width:
            segs = getattr(getattr(args[0], "_segment_arrays", None),
                           "num_segments", 0)
            out["engine.segments"] = lanes * segs
        return out

    return count


def _count_online(args, kwargs, result):
    return {"online.evaluations": result.candidate_evaluations}


_ENGINE = "repro.runtime.engine"
_STAGES = "repro.pipeline.stages"
_HARNESS = "repro.experiments.harness"

SPAN_TARGETS = (
    Target("profiling.trace_s", "repro.profiling.tracer", "ExtraeTracer.run",
           _count_trace),
    Target("profiling.analyze_s", "repro.profiling.paramedir",
           "Paramedir.analyze"),
    Target("profiling.cache_s", _STAGES, "profile_workload",
           _one("profiling.requests")),
    Target("advisor.density_s", "repro.advisor.advisor",
           "HMemAdvisor.advise_density", _one("advisor.queries")),
    Target("advisor.density_s", "repro.advisor.density", "density_batch",
           _count_batch_queries),
    Target("advisor.report_s", "repro.advisor.advisor", "HMemAdvisor.to_report"),
    Target("advisor.report_s", "repro.alloc.report", "PlacementReport.dumps"),
    Target("advisor.report_s", "repro.alloc.report", "PlacementReport.loads"),
    Target("advisor.bw_aware_s", "repro.advisor.advisor",
           "HMemAdvisor.advise_bandwidth_aware"),
    Target("replay.s", "repro.runtime.replay", "replay_allocations",
           _count_replay),
    Target("engine.build_s", _ENGINE, "ExecutionEngine.__init__"),
    Target("engine.run_s", _ENGINE, "ExecutionEngine.run",
           _engine_calls(False, True)),
    Target("engine.run_s", _ENGINE, "ExecutionEngine.run_batch",
           _engine_calls(True, True)),
    Target("engine.predict_s", _ENGINE, "ExecutionEngine.predict_times",
           _engine_calls(True, True)),
    Target("engine.incremental_s", _ENGINE, "ExecutionEngine.run_delta",
           _engine_calls(False, True)),
    Target("engine.incremental_s", _ENGINE, "ExecutionEngine.run_incremental",
           _engine_calls(False, False)),
    Target("engine.incremental_s", _ENGINE,
           "ExecutionEngine.predict_times_incremental",
           _engine_calls(True, False)),
    Target("online.loop_s", "repro.runtime.online", "run_online",
           _count_online),
    Target("baselines.s", "repro.baselines.memory_mode", "run_memory_mode"),
    Target("baselines.s", "repro.baselines.tiering", "run_tiering"),
    Target("baselines.s", "repro.baselines.profdp", "profdp_placement"),
    Target("pipeline.glue_s", _HARNESS, "run_ecohmem"),
    Target("pipeline.glue_s", _HARNESS, "run_ecohmem_batch"),
    Target("pipeline.glue_s", _HARNESS, "run_profdp_best"),
    Target("pipeline.glue_s", _STAGES, "profile_stage"),
    Target("pipeline.glue_s", _STAGES, "placement_stage"),
    Target("pipeline.glue_s", _STAGES, "prepare_production"),
    Target("experiments.glue_s", "repro.experiments.fig6_sweep",
           "compute_fig6"),
    Target("experiments.glue_s", "repro.experiments.tab8_full_apps",
           "compute_tab8"),
)

#: layers whose self time is reported per op (``<layer>`` in s/op)
TIME_LAYERS = sorted({t.layer for t in SPAN_TARGETS} | {"service.glue_s"})


# -- workloads -------------------------------------------------------------------


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    #: the fixed tail percentile of ``lat_tail_ms`` (100: the slowest sample)
    tail_pct = 50.0
    #: what the workload imports; a fresh interpreter's import time of
    #: these is part of ``setup_s``
    MODULES: Tuple[str, ...] = ()

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def setup(self, seed: int) -> SimpleNamespace:
        raise NotImplementedError

    def close(self, state: SimpleNamespace) -> None:
        """Release what :meth:`setup` started."""

    def measure(self, state: SimpleNamespace, seed: int,
                seconds: float, strict: bool,
                checker: golden.Checker) -> Phase:
        raise NotImplementedError

    def pin(self) -> Dict[str, object]:
        """Every catalogue entry's output, computed through the public API."""
        raise NotImplementedError

    def service_stats(self, state: SimpleNamespace) -> Optional[object]:
        return None


def _rng(*parts: object) -> random.Random:
    # str seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random("/".join(str(p) for p in parts))


class OfflineWorkload(Workload):
    """Closed loop, one client: rounds of public calls back to back.

    Each round runs every catalogue operation once, in an order the seed
    shuffles, so every run measures the same mix.  A phase runs at least
    ``MIN_ROUNDS`` whole rounds and until ``seconds`` have passed.  A
    yardstick probe follows every call, so each call's time is counted
    at reference host speed (:mod:`bench.hostspeed`).

    Latency is per round — onboarding the whole catalogue, reproducing
    the whole figure — because that is what this user waits for; the
    calls inside a round differ by two orders of magnitude (MiniFE vs
    LULESH), so a percentile over calls lands on whichever application
    straddles it and moved by a quarter from run to run.  A run has too
    few rounds for any percentile to keep ten samples beyond it, so the
    tail is the slowest round.
    """

    tail_pct = 100.0
    MIN_ROUNDS = 2

    def operations(self) -> List[tuple]:
        raise NotImplementedError

    def rounds(self, seed: int) -> Iterator[List[tuple]]:
        rng = _rng(self.name, seed)
        while True:
            ops = list(self.operations())
            rng.shuffle(ops)
            yield [self.instantiate(op, rng) for op in ops]

    def instantiate(self, op: tuple, rng: random.Random) -> tuple:
        return op

    def call(self, state: SimpleNamespace, item: tuple) -> object:
        raise NotImplementedError

    def results_of(self, out: object) -> int:
        return 1

    def golden_pairs(self, state, item: tuple, out: object):
        raise NotImplementedError

    def speedups_of(self, entries: Dict[str, object], item: tuple,
                    out: object) -> List[float]:
        """Simulated speedups over Memory Mode in ``out`` (informational)."""
        return []

    def measure(self, state, seed, seconds, strict, checker) -> Phase:
        phase = Phase()
        speed = phase.speed
        min_rounds = self.MIN_ROUNDS if strict else 1
        outputs = []
        call_ms = []
        rounds = self.rounds(seed)
        cpu0 = time.process_time()
        t_start = clock()
        speed.probe()
        while True:
            round_s = 0.0
            round_ops = phase.ops
            for item in next(rounds):
                phase.attempted += 1
                t0 = clock()
                try:
                    out = self.call(state, item)
                except Exception:
                    out = None
                    phase.errors += 1
                    log(f"{self.name} {item} raised:\n{traceback.format_exc()}")
                t1 = clock()
                speed.probe()
                call_s = speed.scaled(t0, t1)
                round_s += call_s
                if out is None:
                    continue
                call_ms.append(call_s * 1e3)
                phase.ops += self.results_of(out)
                outputs.append((item, out))
            phase.ref_s += round_s
            phase.rates.append((phase.ops - round_ops) / round_s)
            phase.lat_ms.append(round_s * 1e3)
            if (clock() - t_start >= seconds
                    and len(phase.lat_ms) >= min_rounds):
                break
        phase.total_wall_s = clock() - t_start
        phase.cpu_s = time.process_time() - cpu0
        phase.results = phase.ops
        for item, out in outputs:
            phase.mismatches += not checker.matches(
                self.golden_pairs(state, item, out))
            phase.speedups.extend(self.speedups_of(checker.entries, item, out))
        phase.info.update(
            rounds=len(phase.lat_ms), calls=phase.attempted,
            call_ms={stats.tail_name(p): stats.percentile(call_ms, p)
                     for p in (50.0, 75.0, 90.0)} if call_ms else {})
        return phase


class ColdPipeline(OfflineWorkload):
    name = "cold-pipeline"
    MODULES = ("repro.experiments.harness",)
    ALGORITHMS = ("density", "bw-aware")
    TRACER_SEEDS = tuple(range(11, 19))
    DRAM_FRAC = 0.3

    def apps(self) -> Sequence[str]:
        return SMOKE_APPS if self.smoke else APPS

    def setup(self, seed):
        from repro.apps import get_workload
        from repro.memsim.subsystem import pmem6_system

        workloads = {app: get_workload(app) for app in APPS}
        state = SimpleNamespace(
            workloads=workloads,
            system=pmem6_system(),
            limits={app: int(wl.heap_high_water() * self.DRAM_FRAC)
                    for app, wl in workloads.items()},
        )
        # warm-up: one cold call loads every lazily imported code path
        self.call(state, ("minife", "density", self.TRACER_SEEDS[0]))
        return state

    def operations(self):
        return [(app, algo) for app in self.apps() for algo in self.ALGORITHMS]

    def instantiate(self, op, rng):
        return op + (rng.choice(self.TRACER_SEEDS),)

    def call(self, state, item):
        from repro.experiments import harness
        from repro.profiling.cache import ProfileStore

        app, algo, tracer_seed = item
        # a fresh profile store per call: every call profiles from scratch
        eco = harness.run_ecohmem(
            state.workloads[app], state.system,
            dram_limit=state.limits[app], algorithm=algo, seed=tracer_seed,
            profile_store=ProfileStore(),
        )
        return eco.report, eco.run.total_time

    def golden_pairs(self, state, item, out):
        app, algo, tracer_seed = item
        report, total = out
        return [(f"cold/{app}/{algo}/{tracer_seed}",
                 [golden.digest(report.dumps()), total])]

    def speedups_of(self, entries, item, out):
        base = entries.get(f"mm/{item[0]}")
        return [] if base is None else [base / out[1]]

    def pin(self):
        from repro.apps import get_workload
        from repro.baselines.memory_mode import run_memory_mode

        state = self.setup(0)
        entries = {}
        for app in APPS:
            for algo in self.ALGORITHMS:
                for tracer_seed in self.TRACER_SEEDS:
                    item = (app, algo, tracer_seed)
                    entries.update(self.golden_pairs(
                        state, item, self.call(state, item)))
            entries[f"mm/{app}"] = run_memory_mode(
                get_workload(app), state.system).total_time
        return entries


class PaperSweep(OfflineWorkload):
    name = "paper-sweep"
    MODULES = ("repro.experiments.fig6_sweep",
               "repro.experiments.tab8_full_apps")
    SWEEP_SEEDS = tuple(range(11, 17))

    def fig6_apps(self) -> Sequence[str]:
        return SMOKE_APPS[:1] if self.smoke else FIG6_APPS

    def sweep_seed(self, seed: int) -> int:
        return _rng(self.name, "sweep-seed", seed).choice(self.SWEEP_SEEDS)

    def setup(self, seed):
        from repro.apps import get_workload
        from repro.experiments import harness
        from repro.profiling import cache

        sweep_seed = self.sweep_seed(seed)
        # a fresh process-wide profile store, then every profile the sweep
        # reads: the timed calls are all profile-cache hits
        cache.reset_default_store()
        for app in self.fig6_apps() + ("lammps", "openfoam"):
            harness.profile_workload(get_workload(app), seed=sweep_seed)
        state = SimpleNamespace(sweep_seed=sweep_seed)
        self.call(state, ("fig6", self.fig6_apps()[0], 2))
        return state

    def operations(self):
        ops = [("fig6", app, dimms)
               for app in self.fig6_apps() for dimms in (6, 2)]
        return ops + [("tab8",)]

    def call(self, state, item):
        from repro.experiments import fig6_sweep, tab8_full_apps

        if item[0] == "tab8":
            return tab8_full_apps.compute_tab8(seed=state.sweep_seed, jobs=1)
        _, app, dimms = item
        return fig6_sweep.compute_fig6(
            apps=[app], pmem_configs=(dimms,), seed=state.sweep_seed, jobs=1)

    def results_of(self, out):
        if isinstance(out, list):
            return len(out)
        return len(out.cells) + len(out.tiering) + len(out.profdp)

    @staticmethod
    def fig6_value(result, app: str, dimms: int) -> dict:
        value = {"cells": [[c.dram_limit_gb, c.metrics, c.speedup]
                           for c in result.cells
                           if c.app == app and c.pmem_dimms == dimms]}
        if dimms == 6:
            value.update(tiering=result.tiering.get(app),
                         profdp=result.profdp.get(app),
                         variant=result.profdp_variant.get(app))
        return value

    @staticmethod
    def tab8_value(rows) -> list:
        return [[r.app, r.algorithm, r.dram_limit_gb, r.speedup, r.swaps]
                for r in rows]

    def golden_pairs(self, state, item, out):
        if item[0] == "tab8":
            return [(f"tab8/{state.sweep_seed}", self.tab8_value(out))]
        _, app, dimms = item
        return [(f"fig6/{app}/pmem{dimms}/{state.sweep_seed}",
                 self.fig6_value(out, app, dimms))]

    def speedups_of(self, entries, item, out):
        if item[0] == "tab8":
            return [r.speedup for r in out]
        return [c.speedup for c in out.cells]

    def pin(self):
        from repro.experiments import fig6_sweep, tab8_full_apps
        from repro.profiling import cache

        entries = {}
        for seed in self.SWEEP_SEEDS:
            cache.reset_default_store()
            # the full sweeps: the benchmark's per-(app, PMem) calls must
            # reproduce them cell for cell
            full = fig6_sweep.compute_fig6(seed=seed, jobs=1)
            for app in FIG6_APPS:
                for dimms in (6, 2):
                    entries[f"fig6/{app}/pmem{dimms}/{seed}"] = \
                        self.fig6_value(full, app, dimms)
            entries[f"tab8/{seed}"] = self.tab8_value(
                tab8_full_apps.compute_tab8(seed=seed, jobs=1))
        return entries


# -- the placement server workloads ------------------------------------------------


def open_loop(server, items, offsets, on_report, timeout=120.0):
    """Send ``items[i]`` at ``offsets[i]`` seconds from now, on schedule.

    Latency runs from when a request was *due*, so a stall also charges
    the requests queued behind it.  Completions are handled on this
    thread while it waits for the next send.  Returns (latencies ms,
    lateness ms) per request.
    """
    n = len(items)
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    futures = [None] * n
    lat_ms = [0.0] * n
    late_ms = [0.0] * n
    t0 = clock() + 0.005
    handled = 0

    def handle(i: int, t_done: float) -> None:
        lat_ms[i] = (t_done - (t0 + offsets[i])) * 1e3
        fut, futures[i] = futures[i], None
        on_report(items[i][0], fut.result())

    for i in range(n):
        due = t0 + offsets[i]
        while True:
            wait = due - clock()
            if wait <= 0:
                break
            try:
                j, t_done = done.get(timeout=wait)
            except queue.Empty:
                break
            handle(j, t_done)
            handled += 1
        late_ms[i] = (clock() - due) * 1e3
        fut = server.submit(items[i][1])
        futures[i] = fut
        fut.add_done_callback(lambda _f, i=i: done.put((i, clock())))
    deadline = clock() + timeout
    while handled < n:
        j, t_done = done.get(timeout=max(deadline - clock(), 1e-3))
        handle(j, t_done)
        handled += 1
    return lat_ms, late_ms


def closed_loop(server, items, outstanding, on_report, speed, size,
                timeout=120.0):
    """Keep ``outstanding`` requests in flight until ``items`` run out.

    The items go in slices of ``size``; each slice drains before a
    yardstick probe, so the server is idle while the probe runs.
    Yields (requests, seconds at reference speed) after each slice,
    timed from its first send to its last answer, and sends the next
    slice when asked for the next value.
    """
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    for start in range(0, len(items), size):
        inflight = {}
        chunk = items[start:start + size]
        pending = iter(enumerate(chunk))

        def send() -> None:
            nxt = next(pending, None)
            if nxt is None:
                return
            i, (key, request) = nxt
            fut = server.submit(request)
            inflight[i] = (key, fut)
            fut.add_done_callback(lambda _f, i=i: done.put(i))

        t0 = clock()
        for _ in range(outstanding):
            send()
        while inflight:
            key, fut = inflight.pop(done.get(timeout=timeout))
            send()
            on_report(key, fut.result())
        t1 = clock()
        speed.probe()
        yield len(chunk), speed.scaled(t0, t1)


def one_client(server, items, on_report, speed, probe_every_s=0.25,
               timeout=120.0):
    """One client that sends each request after the last one's answer.

    A yardstick probe runs between requests every ``probe_every_s``;
    returns each request's latency in ms at reference speed.
    """
    spans = []
    last_probe = clock()
    for key, request in items:
        t0 = clock()
        report = server.submit(request).result(timeout=timeout)
        spans.append((t0, clock()))
        on_report(key, report)
        if clock() - last_probe >= probe_every_s:
            speed.probe()
            last_probe = clock()
    speed.probe()
    return [speed.scaled(t0, t1) * 1e3 for t0, t1 in spans]


class ServiceWorkload(Workload):
    """A latency phase, then a closed-loop saturation phase.

    The latency phase is an open loop at ``RATE`` (independent clients,
    Poisson arrivals) or, with ``RATE = None``, one client that waits
    for each answer.  The saturation phase keeps ``SAT_OUTSTANDING``
    clients waiting on their answers; its throughput stands in for "the
    highest rate the server sustains".  Both phases send a fixed number
    of requests, sized from ``LAT_SIZING_RPS``/``SAT_SIZING_RPS`` and
    ``seconds``, so the server keeps the same reports whatever its speed.

    The saturation phase and the one-client latencies are counted at
    reference host speed, with yardstick probes while the server is idle
    (:mod:`bench.hostspeed`).  Open-loop latencies stay wall time: their
    arrivals follow the wall clock, and at a low rate most of a request's
    latency is the server's batch window, which is wall time too.
    """

    #: open-loop rate (req/s) of the latency phase; None: one waiting client
    RATE: Optional[float] = None
    LAT_SIZING_RPS = 1.0
    SAT_OUTSTANDING = 1
    SAT_SIZING_RPS = 1.0
    #: decks per slice of the saturation phase (a probe after each); a
    #: whole number of decks gives every slice the same request mix
    SAT_SLICE_DECKS = 1
    SAT_MIN_SLICES = 4
    #: share of ``seconds`` spent in the latency phase
    LAT_SHARE = 0.5
    MODULES = ("repro.service.server",)

    def apps(self) -> Sequence[str]:
        return SMOKE_APPS if self.smoke else APPS

    def start_server(self):
        from repro.profiling import cache
        from repro.service.server import PlacementServer

        cache.reset_default_store()
        return PlacementServer(workers=SERVER_WORKERS).start()

    def close(self, state):
        state.server.stop()

    def service_stats(self, state):
        return state.server.stats

    def deck(self) -> List[tuple]:
        """The strata one block of requests covers once each.

        Requests are dealt from shuffled copies of the deck, so every run
        sends the same mix of applications and request kinds, and only
        the order and the details within a stratum follow the seed: a
        heavy LULESH request costs tens of light ones, and an unstratified
        draw would let the seed change how many a run gets.
        """
        raise NotImplementedError

    def draw(self, state, card: tuple, rng: random.Random) -> Tuple[object, object]:
        """One (golden identity, request) of stratum ``card``."""
        raise NotImplementedError

    def golden_pairs(self, key, report) -> List[Tuple[str, object]]:
        raise NotImplementedError

    def schedule(self, state, rng: random.Random, n: float,
                 at_least: int = 1) -> List[Tuple[object, object]]:
        """About ``n`` (and ``at_least``) requests, in whole decks."""
        deck = self.deck()
        decks = max(1, round(n / len(deck)), math.ceil(at_least / len(deck)))
        cards = []
        for _ in range(decks):
            block = list(deck)
            rng.shuffle(block)
            cards += block
        return [self.draw(state, card, rng) for card in cards]

    def measure(self, state, seed, seconds, strict, checker) -> Phase:
        rng = _rng(self.name, seed)
        phase = Phase()
        lat_s = seconds * self.LAT_SHARE
        lat_items = self.schedule(
            state, rng, self.LAT_SIZING_RPS * lat_s,
            stats.min_samples(self.tail_pct) if strict else 1)
        size = self.SAT_SLICE_DECKS * len(self.deck())
        slices = max(self.SAT_MIN_SLICES if strict else 1,
                     round(self.SAT_SIZING_RPS * (seconds - lat_s) / size))
        sat_items = self.schedule(state, rng, slices * size)
        offsets = None
        if self.RATE is not None:
            offsets = list(itertools.accumulate(
                rng.expovariate(self.RATE) for _ in lat_items))

        def on_report(key, report) -> None:
            if getattr(report, "status", None) != "ok":
                phase.errors += 1
                log(f"{self.name} {key}: {getattr(report, 'error', report)}")
                return
            phase.mismatches += not checker.matches(
                self.golden_pairs(key, report))

        cpu0 = time.process_time()
        t_start = clock()
        phase.speed.probe()
        if offsets is not None:
            phase.lat_ms, phase.late_ms = open_loop(
                state.server, lat_items, offsets, on_report)
            phase.speed.probe()
        else:
            phase.lat_ms = one_client(state.server, lat_items, on_report,
                                      phase.speed)
        for n, ref_s in closed_loop(
                state.server, sat_items, self.SAT_OUTSTANDING, on_report,
                phase.speed, size):
            phase.ref_s += ref_s
            phase.rates.append(n / ref_s)
        phase.total_wall_s = clock() - t_start
        phase.cpu_s = time.process_time() - cpu0
        phase.ops = len(sat_items)
        phase.results = phase.attempted = len(lat_items) + len(sat_items)
        phase.info.update(latency_requests=len(lat_items),
                          saturation_requests=len(sat_items),
                          saturation_slices=len(phase.rates),
                          rate_per_s=self.RATE,
                          outstanding=self.SAT_OUTSTANDING)
        return phase


def _answered(report):
    """``report``, which a pin may record only when the server answered."""
    if report.status != "ok":
        raise RuntimeError(f"cannot pin an error report: {report.error}")
    return report


def _advisory_value(report) -> list:
    return [golden.digest(report.report_text), report.bytes_by_subsystem,
            report.fallback, report.objects_placed]


class ServeAdvisory(ServiceWorkload):
    name = "serve-advisory"
    # open-loop latencies are wall time, so the host's slow spells reach
    # them: over ten seeds on a host running 1.3-1.7x slow, p99 moved by
    # 39%, p90 by 18% and p75 by 10% (p50 by 5%)
    tail_pct = 75.0
    SYSTEMS = ("pmem6", "pmem2", "hbm-dram-pmem")
    #: DRAM limits as fractions of the application's heap high-water mark
    FRACS = tuple(0.05 + i * (0.85 / 31) for i in range(32))
    # at 1000 req/s the server runs at half its saturation rate, and a
    # host that slows by 15% moved the queueing-dominated p50 by 27%;
    # at 200 req/s a host running 1.5x slow still queued requests behind
    # the previous batch and moved p90 from 8 to 15 ms; at 100 req/s
    # latency is the 5 ms batch window plus service time, and p90 moved
    # by 5% over the same host speeds
    RATE = LAT_SIZING_RPS = 100.0
    SAT_OUTSTANDING = 256
    SAT_SIZING_RPS = 2000.0
    # 1260 requests, about half a second: slices this long still differ
    # by about a quarter in rate (the GIL-bound server's batching varies),
    # so ``ops_per_s`` is the median of about eight
    SAT_SLICE_DECKS = 60

    def __init__(self, smoke=False):
        super().__init__(smoke)
        if smoke:
            self.SAT_OUTSTANDING, self.SAT_SIZING_RPS = 32, 100.0
            self.SAT_SLICE_DECKS = 4

    def catalogue(self):
        return [(app, system, i, stores)
                for app in self.apps() for system in self.SYSTEMS
                for i in range(len(self.FRACS)) for stores in (True, False)]

    def request(self, state, entry):
        from repro.service.protocol import AdvisoryRequest

        app, system, i, stores = entry
        return AdvisoryRequest(
            workload=app, system=system, use_stores=stores,
            dram_limit=max(int(state.hwm[app] * self.FRACS[i]), 1))

    @staticmethod
    def key(app, system, i, stores) -> str:
        return f"adv/{app}/{system}/{i}/{'ls' if stores else 'l'}"

    def setup(self, seed):
        from repro.apps import get_workload

        state = SimpleNamespace(
            server=self.start_server(),
            hwm={app: get_workload(app).heap_high_water() for app in APPS},
            catalogue=self.catalogue(),
        )
        # profile every application into the server's memo, then one
        # coalesced burst over every system
        state.server.query_many([self.request(state, (app, "pmem6", 0, True))
                                 for app in self.apps()])
        state.server.query_many([self.request(state, e)
                                 for e in state.catalogue[::7]])
        return state

    def deck(self):
        return [(app, system) for app in self.apps() for system in self.SYSTEMS]

    def draw(self, state, card, rng):
        entry = card + (rng.randrange(len(self.FRACS)), rng.random() < 0.5)
        return entry, self.request(state, entry)

    def golden_pairs(self, key, report):
        return [(self.key(*key), _advisory_value(report))]

    def pin(self):
        state = self.setup(0)
        try:
            reports = state.server.query_many(
                [self.request(state, e) for e in state.catalogue])
        finally:
            self.close(state)
        return {self.key(*e): _advisory_value(_answered(r))
                for e, r in zip(state.catalogue, reports)}


class ServeWhatIf(ServiceWorkload):
    name = "serve-whatif"
    # LULESH requests are the slowest seventh: p90 sits four samples above
    # the OpenFOAM/LULESH boundary and moved by 19% run to run, p95 lies
    # inside the LULESH class
    tail_pct = 95.0
    SYSTEMS = ("pmem6", "pmem2")
    CANDIDATES = 64
    K = 8
    ONLINE_FRACS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    THRESHOLDS = (0.0, 0.1)
    BW_FRACS = (0.2, 0.3, 0.4, 0.5)
    #: request mix per 5 requests: 60% what-if, 20% online, 20% bw-aware
    KINDS = ("whatif",) * 3 + ("online", "bw")
    # one waiting client: heavy LULESH requests (~0.2 s) mixed with
    # light ones (~5 ms) make open-loop latencies follow the arrival
    # pattern more than the server, run to run.  At --seconds 10 the
    # client sends 210 requests, 10 beyond p95, and the saturation phase
    # eight one-deck slices (with four, their median moved by 11 %)
    LAT_SIZING_RPS = 40.0
    SAT_OUTSTANDING = 4
    SAT_SIZING_RPS = 56.0

    def __init__(self, smoke=False):
        super().__init__(smoke)
        if smoke:
            self.LAT_SIZING_RPS, self.SAT_SIZING_RPS = 10.0, 10.0

    def candidates(self, wl, system: str) -> List[Dict[str, str]]:
        """The fixed candidate placements of one (application, system)."""
        sites = list(dict.fromkeys(o.site.name for o in wl.objects))
        rng = _rng("whatif-candidates", wl.name, system)
        out = []
        for _ in range(self.CANDIDATES):
            share = rng.uniform(0.1, 0.9)
            out.append({s: "dram" if rng.random() < share else "pmem"
                        for s in sites})
        return out

    def setup(self, seed):
        from repro.apps import get_workload
        from repro.service.protocol import AdvisoryRequest, WhatIfRequest

        workloads = {app: get_workload(app) for app in APPS}
        state = SimpleNamespace(
            server=self.start_server(),
            hwm={app: wl.heap_high_water() for app, wl in workloads.items()},
            cands={(app, system): self.candidates(workloads[app], system)
                   for app in self.apps() for system in self.SYSTEMS},
        )
        # build every (application, system) engine and profile every
        # application for the bandwidth-aware path
        warm = []
        for app in self.apps():
            for system in self.SYSTEMS:
                warm.append(WhatIfRequest(
                    workload=app, system=system,
                    placements=state.cands[(app, system)][:1]))
            warm.append(AdvisoryRequest(
                workload=app, algorithm="bw-aware",
                dram_limit=int(state.hwm[app] * self.BW_FRACS[0])))
        state.server.query_many(warm)
        return state

    def request(self, state, key):
        from repro.service.protocol import (
            AdvisoryRequest, OnlineRequest, WhatIfRequest)

        kind, app, system, arg = key[0], key[1], key[2], key[3:]
        if kind == "whatif":
            cands = state.cands[(app, system)]
            return WhatIfRequest(workload=app, system=system,
                                 placements=[cands[i] for i in arg])
        if kind == "online":
            frac, threshold = arg
            return OnlineRequest(workload=app, system=system, dram_frac=frac,
                                 shift_threshold=threshold)
        (frac,) = arg
        return AdvisoryRequest(workload=app, system=system, algorithm="bw-aware",
                               dram_limit=int(state.hwm[app] * frac))

    def deck(self):
        return [(kind, app) for kind in self.KINDS for app in self.apps()]

    def draw(self, state, card, rng):
        kind, app = card
        system = rng.choice(self.SYSTEMS)
        if kind == "whatif":
            key = (kind, app, system) + tuple(
                rng.sample(range(self.CANDIDATES), self.K))
        elif kind == "online":
            key = (kind, app, system, rng.choice(self.ONLINE_FRACS),
                   rng.choice(self.THRESHOLDS))
        else:
            key = (kind, app, system, rng.choice(self.BW_FRACS))
        return key, self.request(state, key)

    @staticmethod
    def online_value(report) -> list:
        return [report.static_time, report.online_time, report.engine_time,
                report.migration_time, report.migrations,
                report.candidate_evaluations, report.shift_boundaries,
                report.dram_limit]

    def golden_pairs(self, key, report):
        kind, app, system = key[:3]
        if kind == "whatif":
            return [(f"whatif/{app}/{system}/{i}", t)
                    for i, t in zip(key[3:], report.predicted_times)]
        if kind == "online":
            return [(f"online/{app}/{system}/{key[3]}/{key[4]}",
                     self.online_value(report))]
        return [(f"bw/{app}/{system}/{key[3]}", _advisory_value(report))]

    def pin(self):
        state = self.setup(0)
        keys = []
        for app in APPS:
            for system in self.SYSTEMS:
                for frac in self.ONLINE_FRACS:
                    for threshold in self.THRESHOLDS:
                        keys.append(("online", app, system, frac, threshold))
                for frac in self.BW_FRACS:
                    keys.append(("bw", app, system, frac))
        try:
            entries = {}
            for app in APPS:
                for system in self.SYSTEMS:
                    key = ("whatif", app, system) + tuple(range(self.CANDIDATES))
                    report = state.server.query(self.request(state, key))
                    entries.update(self.golden_pairs(key, _answered(report)))
            reports = state.server.query_many(
                [self.request(state, k) for k in keys])
            for key, report in zip(keys, reports):
                entries.update(self.golden_pairs(key, _answered(report)))
        finally:
            self.close(state)
        return entries


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    w.name: w for w in (ColdPipeline, PaperSweep, ServeAdvisory, ServeWhatIf)
}

#: the end-to-end metrics and their units, as BENCHMARK.json lists them
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(untraced: Phase, traced: Phase, rec: SpanRecorder,
                  service: Optional[Tuple[object, object]]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced phase, each with its unit.

    Span times are divided by the phase's median host slowdown, so they
    are seconds at reference speed like the end-to-end metrics.
    """
    per_op = max(traced.results, 1)
    slowdown = traced.speed.ratio()
    self_time = rec.self_time_by_layer()
    counts = rec.counts
    out: Dict[str, Tuple[float, str]] = {
        layer: (self_time.get(layer, 0.0) / slowdown / per_op, "s/op")
        for layer in TIME_LAYERS
    }
    out["profiling.samples"] = (counts.get("profiling.samples", 0) / per_op, "1/op")
    # no profile request at all (warm servers) counts as no miss
    out["profiling.cache_hit_ratio"] = (
        1.0 - _ratio(counts.get("profiling.tracer_runs", 0),
                     counts.get("profiling.requests", 0)), "ratio")
    out["advisor.queries"] = (counts.get("advisor.queries", 0) / per_op, "1/op")
    out["replay.instances"] = (counts.get("replay.instances", 0) / per_op, "1/op")
    out["replay.fallback_ratio"] = (
        _ratio(counts.get("replay.fallbacks", 0), counts.get("replay.allocs", 0)),
        "ratio")
    out["engine.segments"] = (counts.get("engine.segments", 0) / per_op, "1/op")
    out["engine.lanes_per_call"] = (
        _ratio(counts.get("engine.lanes", 0), counts.get("engine.calls", 0)),
        "lanes")
    out["online.evaluations"] = (
        counts.get("online.evaluations", 0) / per_op, "1/op")

    # the yardstick probes run on this thread alone, the server idle:
    # they count neither as the program's wall time nor as its CPU time
    probing_s = traced.speed.probing_s()
    wall_s = traced.total_wall_s - probing_s
    requests_per_batch = memo_hit_ratio = busy = 0.0
    if service is not None:
        before, after = service
        d = {k: getattr(after, k) - before[k] for k in before}
        requests_per_batch = _ratio(d["requests"], d["batches"])
        memo_hit_ratio = _ratio(d["memo_hits"], d["memo_hits"] + d["profile_loads"])
        busy = _ratio(rec.duration_of("service.glue_s"),
                      wall_s * SERVER_WORKERS)
    out["service.requests_per_batch"] = (requests_per_batch, "requests")
    out["service.memo_hit_ratio"] = (memo_hit_ratio, "ratio")
    out["service.busy_frac"] = (busy, "ratio")

    out["proc.cpu_util"] = (_ratio(traced.cpu_s - probing_s, wall_s), "ratio")
    out["loadgen.late_p99_ms"] = (
        stats.percentile(untraced.late_ms, 99.0) if untraced.late_ms else 0.0,
        "ms")
    out["trace.overhead_frac"] = (
        1.0 - _ratio(traced.ops / traced.ref_s, untraced.ops / untraced.ref_s),
        "ratio")
    out["trace.wall_s"] = (wall_s / slowdown / per_op, "s/op")
    return out


_IMPORT_PROBE = """\
import importlib, sys, time
t0 = time.perf_counter()
for name in sys.argv[1:]:
    importlib.import_module(name)
print(time.perf_counter() - t0)
"""


def import_seconds(modules: Sequence[str], reps: int,
                   speed: HostSpeed) -> float:
    """Median time a fresh interpreter takes to import ``modules``.

    At reference speed: each interpreter runs between two probes.
    """
    times = []
    speed.probe()
    for _ in range(reps):
        t0 = clock()
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *modules],
            capture_output=True, text=True, check=True, timeout=120)
        t1 = clock()
        speed.probe()
        times.append(float(out.stdout) * speed.factor(t0, t1))
    return statistics.median(times)


def _stats_snapshot(service_stats) -> Dict[str, int]:
    return {k: getattr(service_stats, k)
            for k in ("requests", "batches", "memo_hits", "profile_loads")}


def _timed_setup(workload: Workload, seed: int, speed: HostSpeed):
    """Set up between two probes; the state and its seconds at reference speed."""
    speed.probe()
    t0 = clock()
    state = workload.setup(seed)
    t1 = clock()
    speed.probe()
    return state, speed.scaled(t0, t1)


def _repeat_setup(workload: Workload, seed: int, setups: List[float],
                  reps: int, speed: HostSpeed) -> None:
    """Set up from scratch again until ``setups`` holds enough samples.

    At least ``reps`` in all; cheap set-ups go on until they add up to
    ``SETUP_MIN_S`` so their median does not ride on timer noise.
    """
    while len(setups) < reps or (
            reps > 1 and sum(setups) < SETUP_MIN_S
            and len(setups) < SETUP_MAX_REPS):
        # the last set-up's garbage is not this one's
        gc.collect()
        state, seconds = _timed_setup(workload, seed, speed)
        setups.append(seconds)
        workload.close(state)


def _measure_end_to_end(workload: Workload, seed: int, seconds: float,
                        strict: bool, checker: golden.Checker, reps: int):
    """Imports, one set-up, the measured phase, then the other set-ups."""
    speed = HostSpeed()
    import_s = import_seconds(workload.MODULES, IMPORT_REPS if strict else 1,
                              speed)
    state, first_setup = _timed_setup(workload, seed, speed)
    setups = [first_setup]
    try:
        phase = workload.measure(state, seed, seconds, strict, checker)
        # read before the extra set-ups below: the measured process has
        # done one set-up, as a user's would
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        workload.close(state)
    if strict and workload.tail_pct < 100.0:
        stats.check_tail(workload.tail_pct, len(phase.lat_ms))
    _repeat_setup(workload, seed, setups, reps, speed)
    values = {
        "setup_s": import_s + statistics.median(setups),
        "ops_per_s": statistics.median(phase.rates),
        "lat_p50_ms": stats.percentile(phase.lat_ms, 50.0),
        "lat_tail_ms": stats.percentile(phase.lat_ms, workload.tail_pct),
        "peak_rss_mb": peak_rss_mb,
    }
    phase.info.update(
        import_s=import_s, setup_reps_s=setups,
        setup_host_slowdown=speed.ratio(),
        lat_ms={stats.tail_name(p): stats.percentile(phase.lat_ms, p)
                for p in stats.LADDER})
    return phase, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}


def _measure_layers(workload: Workload, seed: int, seconds: float,
                    checker: golden.Checker, keep_spans: bool):
    """An untraced and a traced half, each on a fresh set-up.

    Both halves replay the same schedule from the same starting state (a
    server keeps every report it served, so a second half on the same
    server would run against a bigger heap), so their throughputs differ
    by the tracing overhead only.
    """
    state = workload.setup(seed)
    try:
        untraced = workload.measure(state, seed, seconds / 2, False, checker)
    finally:
        workload.close(state)
    gc.collect()
    state = workload.setup(seed)
    try:
        svc = workload.service_stats(state)
        before = _stats_snapshot(svc) if svc is not None else None
        rec = SpanRecorder()
        rec.install_task_spans(ThreadPoolExecutor, "ThreadPoolExecutor.submit",
                               "service.glue_s")
        with rec.installed(SPAN_TARGETS):
            traced = workload.measure(state, seed, seconds / 2, False, checker)
    finally:
        workload.close(state)
    layers = layer_metrics(untraced, traced, rec,
                           None if svc is None else (before, svc))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
    return [untraced, traced], metrics, rec.dump() if keep_spans else None


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, keep_spans: bool = False,
                 golden_entries: Optional[Dict[str, object]] = None) -> dict:
    """Set up and measure one workload in this process; return its result.

    Untraced, the metrics are the end-to-end ones; the set-up is timed
    once before the measurement and repeated after it.  Traced, the run
    measures an untraced half and a traced half of ``seconds`` and the
    metrics are the per-layer ones; the difference between the halves'
    throughputs is the tracing overhead.
    """
    workload = WORKLOADS[name](smoke=smoke)
    checker = golden.Checker(
        golden.load() if golden_entries is None else golden_entries)
    for module in workload.MODULES:
        importlib.import_module(module)

    spans = None
    if trace:
        phases, metrics, spans = _measure_layers(
            workload, seed, seconds, checker, keep_spans)
    else:
        phase, metrics = _measure_end_to_end(
            workload, seed, seconds, not smoke, checker,
            SETUP_REPS if not smoke else 1)
        phases = [phase]

    attempted = sum(p.attempted for p in phases)
    errors = sum(p.errors for p in phases)
    mismatches = sum(p.mismatches for p in phases)
    speedups = [s for p in phases for s in p.speedups]
    info = {
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "tail_percentile": stats.tail_name(workload.tail_pct),
        "latency_samples": [len(p.lat_ms) for p in phases],
        "phases": [dict(p.info, ops=p.ops, ref_s=p.ref_s, rates=p.rates,
                        total_wall_s=p.total_wall_s,
                        host_slowdown=p.speed.ratio()) for p in phases],
        "golden_checked": checker.checked,
        "golden_mismatch_keys": sorted(checker.mismatches)[:20],
        "errors": errors,
    }
    if speedups:
        info["sim_speedup_geomean"] = math.exp(
            statistics.fmean(math.log(s) for s in speedups))
    return {
        "workload": name,
        "correct": errors == 0 and mismatches == 0,
        "attempted": attempted,
        "failed": errors + mismatches,
        "metrics": metrics,
        "info": info,
        "spans": spans,
    }
