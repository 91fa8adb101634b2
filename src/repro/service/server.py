"""The concurrent placement server.

Architecture (stdlib only):

- ``submit()`` enqueues ``(request, future)`` pairs;
- a dispatcher thread drains the queue, holding the first request for a
  short **batch window** (``REPRO_SERVICE_BATCH_WINDOW_MS``) so
  concurrent arrivals coalesce, up to ``REPRO_SERVICE_MAX_BATCH``;
- the batch is split into groups by **profile identity** (the profile
  artifact key for workload requests; the file path, modification time
  and size for trace requests, so a rewritten trace is reloaded)
  and each group runs on a ``ThreadPoolExecutor`` worker
  (``REPRO_SERVICE_WORKERS``);
- a group pays one profile load (profile store → artifact store →
  tracer, whichever hits first) and one vectorized
  :func:`~repro.advisor.density.density_batch` pass for *all* its
  density queries; bandwidth-aware queries run individually (they embed
  an engine observation run) against the same loaded profile.

Request failures are isolated: a bad request errors its own report,
never the batch.  Results are bit-identical to serving each query alone
— :func:`sequential_advisory` is the retained scalar oracle (per-query
Python-sort ranking) the test suite and perf bench compare against.
"""

from __future__ import annotations

import os
import queue
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.advisor import AdvisorConfig, HMemAdvisor, Placement, density_batch
from repro.advisor.density import density_placement_scalar
from repro.alloc import PlacementReport
from repro.apps import get_workload
from repro.binary.callstack import StackFormat
from repro.errors import ConfigError, ReproError
from repro.pipeline.artifacts import (
    ArtifactStore,
    artifact_key,
    resolve_artifact_store,
)
from repro.pipeline.online import run_online_pipeline
from repro.pipeline.stages import (
    bandwidth_observer,
    cell_config,
    placement_stage,
    profile_stage,
)
from repro.profiling.cache import (
    ProfileKey,
    ProfileStore,
    decode_profiles,
    encode_profiles,
)
from repro.profiling.paramedir import Paramedir
from repro.profiling.trace import Trace
from repro.pipeline.whatif import evaluate_placements, rank_placements
from repro.runtime.engine import ExecutionEngine
from repro.runtime.online import OnlineParams
from repro.runtime.traffic import PlacementTraffic
from repro.service.protocol import (
    AdvisoryReport,
    AdvisoryRequest,
    OnlineReport,
    OnlineRequest,
    WhatIfReport,
    WhatIfRequest,
    system_for_name,
)
from repro.service.reports import ReportStore, resolve_report_store


def _knob(value, arg: str, env: str, default, parse, least):
    """The explicit ``value``, else ``$env``, else ``default``.

    A malformed or out-of-range value raises :class:`ConfigError` naming
    the argument or variable and its value, so a typo cannot silently
    change the server's shape.
    """
    where = f"{arg}={value!r}"
    if value is None:
        raw = os.environ.get(env, "").strip()
        if not raw:
            return default
        where = f"{env}={raw!r}"
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigError(
                f"{where} is not a valid {parse.__name__}") from None
    if not value >= least:
        raise ConfigError(f"{where} must be >= {least}")
    return value


#: the report class answering each request type
_REPORT_OF = {
    AdvisoryRequest: AdvisoryReport,
    WhatIfRequest: WhatIfReport,
    OnlineRequest: OnlineReport,
}


def _profile_knobs(request: AdvisoryRequest) -> dict:
    """The profiling keywords (the ``ProfileKey`` fields) of a request."""
    return dict(
        seed=request.seed,
        stack_format=StackFormat(request.stack_format),
        pebs_hz=request.pebs_hz,
        profile_ranks=request.profile_ranks,
        rank_jitter=request.rank_jitter,
    )


def _error_report(request, message: str):
    """The error report of the right kind for ``request``."""
    report_cls = _REPORT_OF.get(type(request), AdvisoryReport)
    return report_cls(request=request, status="error", error=message)


@dataclass
class ServiceStats:
    """Counters for one server's lifetime (cold/warm hit accounting).

    Counters are updated from the dispatcher thread *and* from
    ``ThreadPoolExecutor`` workers, so every update goes through
    :meth:`bump`/:meth:`observe_group` under one lock — a bare
    ``stats.requests += 1`` is a read-modify-write race that silently
    drops counts under concurrency (the hammer test pins this down).
    """

    requests: int = 0
    batches: int = 0
    #: requests answered by the largest single batch group
    max_group: int = 0
    #: profile loads actually performed (tracer, artifact or profile store)
    profile_loads: int = 0
    #: groups answered from the in-process profile memo (no load at all)
    memo_hits: int = 0
    errors: int = 0
    bw_aware: int = 0
    #: what-if requests served (candidate scoring, no placement emitted)
    whatif: int = 0
    #: online re-advisory runs served (incremental delta engine)
    online: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, counter: str, amount: int = 1) -> None:
        """Atomically increment one of the integer counters."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def observe_group(self, size: int) -> None:
        """Atomically fold one batch group's size into ``max_group``."""
        with self._lock:
            if size > self.max_group:
                self.max_group = size


@dataclass
class _LoadedProfile:
    profiles: dict
    objects: dict
    ranks: int
    profile_key: Optional[str]
    cached: bool
    workload: Optional[object] = None  # Workload for bw-aware requests


class ServiceSession:
    """A named view of the server: submissions tagged, listings scoped."""

    def __init__(self, server: "PlacementServer", name: str):
        self.server = server
        self.name = name

    def submit(self, request: AdvisoryRequest) -> "Future[AdvisoryReport]":
        return self.server.submit(request.with_session(self.name))

    def query(self, request: AdvisoryRequest) -> AdvisoryReport:
        return self.submit(request).result()

    def query_many(self, requests: Sequence[AdvisoryRequest]) -> List[AdvisoryReport]:
        futures = [self.submit(r) for r in requests]
        return [f.result() for f in futures]

    def reports(self) -> List[AdvisoryReport]:
        return self.server.session_reports(self.name)


class PlacementServer:
    """Long-running advisory service over the staged pipeline."""

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        batch_window_ms: Optional[float] = None,
        max_batch: Optional[int] = None,
        artifact_store: "ArtifactStore | str | None" = None,
        report_store: "ReportStore | str | None" = None,
        profile_store: Optional[ProfileStore] = None,
    ):
        self.workers = _knob(
            workers, "workers", "REPRO_SERVICE_WORKERS", 4, int, 1)
        self.batch_window_s = _knob(
            batch_window_ms, "batch_window_ms",
            "REPRO_SERVICE_BATCH_WINDOW_MS", 5.0, float, 0.0) / 1000.0
        self.max_batch = _knob(
            max_batch, "max_batch", "REPRO_SERVICE_MAX_BATCH", 64, int, 1)
        self.artifact_store = resolve_artifact_store(artifact_store)
        self.report_store = resolve_report_store(report_store)
        self.profile_store = profile_store
        self.stats = ServiceStats()

        self._queue: "queue.Queue" = queue.Queue()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._profile_memo: Dict[Hashable, _LoadedProfile] = {}
        #: (workload, system) -> (engine, per-engine lock) for what-if
        #: scoring; the lock serializes fused passes sharing one engine
        self._engine_memo: Dict[Tuple[str, str],
                                Tuple[ExecutionEngine, threading.Lock]] = {}
        self._memo_lock = threading.Lock()
        #: request-identity -> group key; only the dispatcher touches it
        self._gkey_memo: Dict[tuple, str] = {}
        self._session_reports: Dict[str, List[AdvisoryReport]] = {}
        self._session_lock = threading.Lock()
        #: request type -> (group key, group handler)
        self._routes = {
            AdvisoryRequest: (self._profile_key, self._run_group),
            WhatIfRequest: (self._engine_key, self._run_whatif_group),
            OnlineRequest: (self._engine_key, self._run_online_group),
        }

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "PlacementServer":
        if self._dispatcher is not None:
            return self
        self._stopping.clear()
        self._executor = ThreadPoolExecutor(max_workers=self.workers)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="placement-dispatcher", daemon=True
        )
        self._dispatcher.start()
        return self

    def stop(self) -> None:
        if self._dispatcher is None:
            return
        self._stopping.set()
        self._queue.put(None)  # wake the dispatcher
        self._dispatcher.join()
        self._dispatcher = None
        assert self._executor is not None
        self._executor.shutdown(wait=True)
        self._executor = None

    def __enter__(self) -> "PlacementServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- client API ------------------------------------------------------------

    def submit(self, request: AdvisoryRequest) -> "Future[AdvisoryReport]":
        if self._dispatcher is None:
            raise ReproError("server is not running (use `with PlacementServer(...)`)")
        future: "Future[AdvisoryReport]" = Future()
        self._queue.put((request, future))
        return future

    def query(self, request: AdvisoryRequest) -> AdvisoryReport:
        return self.submit(request).result()

    def query_many(self, requests: Sequence[AdvisoryRequest]) -> List[AdvisoryReport]:
        futures = [self.submit(r) for r in requests]
        return [f.result() for f in futures]

    def session(self, name: str) -> ServiceSession:
        return ServiceSession(self, name)

    def session_reports(self, name: str) -> List[AdvisoryReport]:
        with self._session_lock:
            return list(self._session_reports.get(name, []))

    # -- dispatcher ------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        import time

        while True:
            item = self._queue.get()
            if item is None:
                if self._stopping.is_set():
                    return
                continue
            batch = [item]
            deadline = time.monotonic() + self.batch_window_s
            while len(batch) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    nxt = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if nxt is None:
                    if self._stopping.is_set():
                        self._fail(batch, "server stopped")
                        return
                    continue
                batch.append(nxt)
            self.stats.bump("batches")

            groups: Dict[tuple, List[Tuple[AdvisoryRequest, Future]]] = {}
            for request, future in batch:
                try:
                    request.validate()
                    group_key, handler = self._routes[type(request)]
                    gkey = group_key(request)
                except Exception as exc:
                    self._fail([(request, future)], str(exc))
                    continue
                groups.setdefault((handler, gkey), []).append((request, future))
            assert self._executor is not None
            for (handler, gkey), items in groups.items():
                self.stats.observe_group(len(items))
                self._executor.submit(self._run_guarded, handler, gkey, items)

    def _run_guarded(self, handler, gkey, items) -> None:
        """Run a group handler; if it raises, answer every request it left
        unresolved with the error (the executor would otherwise keep the
        exception on a future nobody reads, and those clients would wait
        forever)."""
        try:
            handler(gkey, items)
        except Exception as exc:
            self._fail([(r, f) for r, f in items if not f.done()], str(exc))

    def _fail(self, items, message: str) -> None:
        """Answer every ``(request, future)`` in ``items`` with an error."""
        for request, future in items:
            self._resolve(future, _error_report(request, message), request)

    # -- profile loading -------------------------------------------------------

    @staticmethod
    def _engine_key(request) -> str:
        # one engine per (workload, system): every what-if candidate in
        # the group rides the same fused fixed point, and the online loop
        # reuses the engine and its cached pack base
        return f"{request.workload}:{request.system}"

    def _profile_key(self, request: AdvisoryRequest) -> Hashable:
        if request.trace is not None:
            # a trace rewritten in place changes mtime or size, so it
            # misses the memo and is re-read (then re-digested)
            st = os.stat(request.trace)
            return ("trace", request.trace, st.st_mtime_ns, st.st_size)
        # the spec key hashes the workload fingerprint — too slow to
        # recompute per request on the dispatcher thread, and a pure
        # function of these fields, so memoized (dispatcher-only state)
        ident = (request.workload, request.seed, request.stack_format,
                 request.pebs_hz, request.profile_ranks, request.rank_jitter)
        key = self._gkey_memo.get(ident)
        if key is None:
            key = artifact_key("profile", ProfileKey.for_workload(
                get_workload(request.workload), **_profile_knobs(request)))
            self._gkey_memo[ident] = key
        return key

    def _load_profiles(self, gkey: Hashable, request: AdvisoryRequest) -> _LoadedProfile:
        with self._memo_lock:
            memo = self._profile_memo.get(gkey)
        if memo is not None:
            self.stats.bump("memo_hits")
            return memo

        if request.trace is not None:
            loaded = self._load_trace_profiles(request)
        else:
            wl = get_workload(request.workload)
            # `cached` reports the read that actually served the profile:
            # an artifact that exists but does not decode is recomputed
            profiles, key, cached = profile_stage(
                wl, profile_store=self.profile_store,
                artifact_store=self.artifact_store, **_profile_knobs(request),
            )
            objects = HMemAdvisor.objects_from_profiles(profiles)
            loaded = _LoadedProfile(
                profiles=profiles, objects=objects, ranks=wl.ranks,
                profile_key=key, cached=cached, workload=wl,
            )
        self.stats.bump("profile_loads")
        with self._memo_lock:
            self._profile_memo[gkey] = loaded
        return loaded

    def _load_trace_profiles(self, request: AdvisoryRequest) -> _LoadedProfile:
        """Analyze a trace file; artifact-cache the profiles by content."""
        import hashlib

        digest = hashlib.sha256(
            Path(request.trace).read_bytes()).hexdigest()[:32]
        store = self.artifact_store
        key = None
        if store is not None:
            key = artifact_key("trace-profile", {"digest": digest})
            payload = store.get(key)
            profiles = decode_profiles(payload)
            if profiles is not None:
                objects = HMemAdvisor.objects_from_profiles(profiles)
                return _LoadedProfile(
                    profiles=profiles, objects=objects,
                    ranks=int(payload.get("ranks", 1)),
                    profile_key=key, cached=True,
                )
        trace = Trace.load(request.trace)
        profiles = Paramedir().analyze(trace)
        if store is not None:
            store.put(key, {**encode_profiles(profiles),
                            "ranks": trace.meta.ranks})
        objects = HMemAdvisor.objects_from_profiles(profiles)
        return _LoadedProfile(
            profiles=profiles, objects=objects, ranks=trace.meta.ranks,
            profile_key=key, cached=False,
        )

    # -- batch execution -------------------------------------------------------

    def _run_group(self, gkey: Hashable, items: List[Tuple[AdvisoryRequest, Future]]) -> None:
        try:
            loaded = self._load_profiles(gkey, items[0][0])
        except Exception as exc:
            self._fail(items, str(exc))
            return

        density: List[Tuple[AdvisoryRequest, Future, object, object]] = []
        for request, future in items:
            if request.algorithm == "bw-aware":
                self._run_bw_aware(request, future, loaded)
                continue
            try:
                system = system_for_name(request.system)
                config = cell_config(system, request.dram_limit,
                                     ranks=loaded.ranks,
                                     use_stores=request.use_stores)
                HMemAdvisor(system, config).validate_feasible(loaded.objects)
            except Exception as exc:
                self._fail([(request, future)], str(exc))
                continue
            density.append((request, future, system, config))

        if not density:
            return
        # the coalesced fast path: one vectorized pass for the whole group
        queries = [(system, config) for _, _, system, config in density]
        try:
            placements = density_batch(loaded.objects, queries)
        except Exception as exc:
            self._fail([(r, f) for r, f, _, _ in density], str(exc))
            return
        for (request, future, system, config), placement in zip(
                density, placements):
            report = _advisory_report(
                request, config, placement,
                HMemAdvisor(system, config).to_report(
                    placement, StackFormat(request.stack_format)),
                loaded.objects, profile_key=loaded.profile_key,
                profile_cached=loaded.cached)
            self._resolve(future, report, request)

    def _whatif_engine(
        self, request: WhatIfRequest
    ) -> Tuple[ExecutionEngine, threading.Lock]:
        key = (request.workload, request.system)
        with self._memo_lock:
            entry = self._engine_memo.get(key)
        if entry is None:
            wl = get_workload(request.workload)
            engine = ExecutionEngine(wl, system_for_name(request.system))
            with self._memo_lock:
                entry = self._engine_memo.setdefault(
                    key, (engine, threading.Lock()))
        return entry

    def _run_whatif_group(
        self, gkey: str, items: List[Tuple[WhatIfRequest, Future]]
    ) -> None:
        """Score a group's candidates in fused prediction passes.

        Every request in the group names the same (workload, system), so
        all their candidates concatenate into one
        :func:`~repro.pipeline.whatif.evaluate_placements` call — fused
        passes of at most ``whatif.BATCH_SIZE`` candidates on the shared
        engine — and the times are split back per request.  Predictions
        are bit-equal to running each candidate alone
        (:func:`sequential_whatif` is the oracle).
        """
        self.stats.bump("whatif", len(items))
        try:
            engine, lock = self._whatif_engine(items[0][0])
            wl = engine.workload
            counts = [len(request.placements) for request, _ in items]
            models = [
                PlacementTraffic(wl, dict(candidate))
                for request, _ in items
                for candidate in request.placements
            ]
            with lock:
                times = evaluate_placements(wl, engine.system, models,
                                            engine=engine)
        except Exception as exc:
            self._fail(items, str(exc))
            return
        lo = 0
        for (request, future), n in zip(items, counts):
            part = [float(t) for t in times[lo:lo + n]]
            lo += n
            report = WhatIfReport(
                request=request,
                status="ok",
                predicted_times=part,
                ranking=rank_placements(part),
            )
            self._resolve(future, report, request)

    def _run_online_group(
        self, gkey: str, items: List[Tuple[OnlineRequest, Future]]
    ) -> None:
        """Answer a group of online re-advisory runs on one shared engine.

        Every request in the group names the same (workload, system), so
        they share the memoized engine — and through it the cached
        segmentation and placement-independent pack base.  Each request
        still runs its own loop (budgets and detector knobs may differ),
        under the engine lock.  Reports compare ``==`` to
        :func:`sequential_online`, the full-recompute oracle.
        """
        self.stats.bump("online", len(items))
        try:
            engine, lock = self._whatif_engine(items[0][0])
        except Exception as exc:
            self._fail(items, str(exc))
            return
        for request, future in items:
            try:
                with lock:
                    report = _online_report(request, engine)
            except Exception as exc:
                report = _error_report(request, str(exc))
            self._resolve(future, report, request)

    def _run_bw_aware(
        self, request: AdvisoryRequest, future: Future, loaded: _LoadedProfile
    ) -> None:
        self.stats.bump("bw_aware")
        try:
            if loaded.workload is None:
                raise ReproError(
                    "bw-aware advisories need a registered workload "
                    "(the observation run replays its allocations)"
                )
            system = system_for_name(request.system)
            config = cell_config(system, request.dram_limit,
                                 ranks=loaded.ranks,
                                 use_stores=request.use_stores)
            fmt = StackFormat(request.stack_format)
            outcome = placement_stage(
                loaded.profiles, system, config,
                algorithm="bw-aware",
                stack_format=fmt,
                observe=bandwidth_observer(
                    loaded.workload, system, loaded.workload.site_registry,
                    dram_limit=request.dram_limit, stack_format=fmt,
                    seed=request.seed,
                ),
            )
            report = _advisory_report(
                request, config, outcome.placement, outcome.report,
                loaded.objects, profile_key=loaded.profile_key,
                profile_cached=loaded.cached)
        except Exception as exc:
            report = _error_report(request, str(exc))
        self._resolve(future, report, request)

    def _resolve(self, future: Future, report, request) -> None:
        self.stats.bump("requests")
        if report.status == "error":
            self.stats.bump("errors")
        else:
            # what-if reports are transient scoring queries, never persisted
            if self.report_store is not None and isinstance(report, AdvisoryReport):
                self.report_store.put(report)
        with self._session_lock:
            self._session_reports.setdefault(request.session, []).append(report)
        future.set_result(report)


def _advisory_report(
    request: AdvisoryRequest,
    config: AdvisorConfig,
    placement: Placement,
    report: PlacementReport,
    objects: dict,
    *,
    profile_key: Optional[str] = None,
    profile_cached: bool = False,
) -> AdvisoryReport:
    """An ok advisory answer: the report text plus placement accounting."""
    return AdvisoryReport(
        request=request,
        status="ok",
        report_text=report.dumps(),
        fallback=placement.fallback,
        bytes_by_subsystem={
            name: placement.bytes_in(name, objects, ranks=config.ranks)
            for name in placement.subsystems
        },
        objects_placed=len(placement),
        profile_key=profile_key,
        profile_cached=profile_cached,
    )


def sequential_advisory(
    request: AdvisoryRequest,
    *,
    profile_store: Optional[ProfileStore] = None,
    artifact_store: "ArtifactStore | str | None" = None,
) -> AdvisoryReport:
    """The retained per-query oracle: no server, no batching, scalar ranking.

    Loads the profile through the same stages, then ranks with the
    original per-object Python sort (:func:`density_placement_scalar`).
    A batched server answer must compare ``==`` to this, float for
    float — the bit-identity contract of the coalescing fast path.
    """
    try:
        request.validate()
        if request.trace is not None:
            trace = Trace.load(request.trace)
            profiles = Paramedir().analyze(trace)
            ranks = trace.meta.ranks
            wl = None
            key = None
        else:
            wl = get_workload(request.workload)
            profiles, key, _ = profile_stage(
                wl, profile_store=profile_store,
                artifact_store=artifact_store, **_profile_knobs(request),
            )
            ranks = wl.ranks
        system = system_for_name(request.system)
        config = cell_config(system, request.dram_limit, ranks=ranks,
                             use_stores=request.use_stores)
        advisor = HMemAdvisor(system, config)
        objects = advisor.objects_from_profiles(profiles)
        advisor.validate_feasible(objects)
        if request.algorithm == "bw-aware":
            if wl is None:
                raise ReproError(
                    "bw-aware advisories need a registered workload "
                    "(the observation run replays its allocations)"
                )
            base = density_placement_scalar(objects, system, config)
            observe = bandwidth_observer(
                wl, system, wl.site_registry,
                dram_limit=request.dram_limit,
                stack_format=StackFormat(request.stack_format),
                seed=request.seed,
            )
            observations = observe(advisor, base, objects)
            placement = advisor.advise_bandwidth_aware(
                objects, observations, base=base).placement
        else:
            placement = density_placement_scalar(objects, system, config)
        report = advisor.to_report(placement, StackFormat(request.stack_format))
        return _advisory_report(request, config, placement, report, objects,
                                profile_key=key)
    except Exception as exc:
        return _error_report(request, str(exc))


def sequential_whatif(request: WhatIfRequest) -> WhatIfReport:
    """The retained per-candidate oracle: one fresh engine run per placement.

    Builds a new :class:`~repro.runtime.engine.ExecutionEngine` for every
    candidate and takes ``engine.run(...).total_time`` — no fused pass,
    no shared segmentation.  A server answer must compare ``==`` to this,
    float for float: the bit-identity contract of the what-if path.
    """
    try:
        request.validate()
        wl = get_workload(request.workload)
        system = system_for_name(request.system)
        times: List[float] = []
        for candidate in request.placements:
            engine = ExecutionEngine(wl, system)
            run = engine.run(PlacementTraffic(wl, dict(candidate)))
            times.append(float(run.total_time))
        return WhatIfReport(
            request=request,
            status="ok",
            predicted_times=times,
            ranking=rank_placements(times),
        )
    except Exception as exc:
        return _error_report(request, str(exc))


def _online_report(
    request: OnlineRequest,
    engine: ExecutionEngine,
    *,
    use_incremental: bool = True,
) -> OnlineReport:
    """Run one online cell on ``engine`` and wrap it as an OnlineReport."""
    outcome = run_online_pipeline(
        engine.workload, engine.system,
        dram_frac=request.dram_frac,
        params=OnlineParams(
            epochs=request.epochs,
            shift_threshold=request.shift_threshold,
        ),
        engine=engine,
        use_incremental=use_incremental,
    )
    report = outcome.report
    return OnlineReport(
        request=request,
        status="ok",
        static_time=float(report.static_time),
        online_time=float(report.total_time),
        engine_time=float(report.engine_time),
        migration_time=float(report.migration_total_s),
        migrations=report.migrations,
        candidate_evaluations=report.candidate_evaluations,
        shift_boundaries=[int(s) for s in report.shift_boundaries],
        dram_limit=outcome.dram_limit,
    )


def sequential_online(request: OnlineRequest) -> OnlineReport:
    """The retained full-recompute oracle for the online path.

    A fresh engine, and ``use_incremental=False``: every candidate is
    scored and every accepted move applied through per-segment scalar
    packs of the patched placement — no prefix reuse, no composed
    batches.  A server answer must compare ``==`` to this, float for
    float: the incremental delta engine's service-level contract.
    """
    try:
        request.validate()
        wl = get_workload(request.workload)
        engine = ExecutionEngine(wl, system_for_name(request.system))
        return _online_report(request, engine, use_incremental=False)
    except Exception as exc:
        return _error_report(request, str(exc))
