"""The placement server (repro.service).

The service's contract is bit-identity across serving modes: a batched,
coalesced, multi-threaded answer must compare ``==`` — every float exact
— to the per-query scalar-oracle path (:func:`sequential_advisory`), and
to itself regardless of cache temperature.  On top of that: sessions see
only their own reports, errors stay isolated to their own request, and
the artifact/report stores account cold vs warm hits honestly.
"""

import os

import pytest

from repro.errors import ConfigError
from repro.experiments.sweep import codec
from repro.pipeline import ArtifactStore
from repro.profiling.cache import ProfileStore
from repro.service import (
    AdvisoryReport,
    AdvisoryRequest,
    PlacementServer,
    ReportStore,
    resolve_report_store,
    sequential_advisory,
    system_for_name,
)
from repro.service.reports import report_identity
from repro.units import GiB


@pytest.fixture(autouse=True)
def _no_service_env(monkeypatch):
    for var in ("REPRO_ARTIFACT_DIR", "REPRO_SERVICE_WORKERS",
                "REPRO_SERVICE_BATCH_WINDOW_MS", "REPRO_SERVICE_MAX_BATCH",
                "REPRO_SERVICE_REPORT_DIR"):
        monkeypatch.delenv(var, raising=False)


@pytest.fixture(scope="module")
def shared_profile_store():
    return ProfileStore()


def _requests(n=6, workload="minife"):
    return [
        AdvisoryRequest(
            workload=workload,
            dram_limit=(2 + (i % 13)) * GiB,
            use_stores=(i % 3 != 0),
        )
        for i in range(n)
    ]


class TestProtocol:
    def test_request_needs_exactly_one_source(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            AdvisoryRequest(dram_limit=GiB).validate()
        with pytest.raises(ConfigError):
            AdvisoryRequest(dram_limit=GiB, workload="minife",
                            trace="t.jsonl").validate()
        AdvisoryRequest(dram_limit=GiB, workload="minife").validate()

    def test_request_rejects_bad_fields(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            AdvisoryRequest(dram_limit=0, workload="minife").validate()
        with pytest.raises(ConfigError):
            AdvisoryRequest(dram_limit=GiB, workload="minife",
                            algorithm="magic").validate()
        with pytest.raises(ConfigError):
            AdvisoryRequest(dram_limit=GiB, workload="minife",
                            system="optane9").validate()

    def test_system_names(self):
        assert system_for_name("pmem6").fallback.name == "pmem"
        assert system_for_name("hbm-dram-pmem").names == [
            "hbm", "dram", "pmem"]

    def test_report_roundtrips_through_codec(self, shared_profile_store):
        report = sequential_advisory(
            _requests(1)[0], profile_store=shared_profile_store)
        assert report.ok
        again = codec.decode(codec.encode(report))
        assert again == report

    def test_cache_fields_do_not_affect_equality(self):
        req = AdvisoryRequest(dram_limit=GiB, workload="minife")
        a = AdvisoryReport(request=req, status="ok", profile_key="abc",
                           profile_cached=True)
        b = AdvisoryReport(request=req, status="ok", profile_key=None,
                           profile_cached=False)
        assert a == b


class TestEndToEnd:
    def test_round_trip(self, shared_profile_store):
        req = AdvisoryRequest(workload="minife", dram_limit=8 * GiB)
        with PlacementServer(workers=2,
                             profile_store=shared_profile_store) as srv:
            report = srv.query(req)
        assert report.ok
        assert report.report_text.startswith("# ecohmem-placement")
        assert report.fallback == "pmem"
        assert set(report.bytes_by_subsystem) == {"dram", "pmem"}
        assert report.bytes_by_subsystem["dram"] <= 8 * GiB
        assert report.objects_placed > 0

    @pytest.mark.parametrize("use_stores", [True, False])
    @pytest.mark.parametrize("algorithm", ["density", "bw-aware"])
    def test_matches_run_ecohmem_report(self, shared_profile_store,
                                        algorithm, use_stores):
        # the service's report_text is the exact FlexMalloc artifact the
        # full pipeline would have produced for the same query
        from repro.apps import get_workload
        from repro.experiments.harness import run_ecohmem
        from repro.memsim.subsystem import pmem6_system

        eco = run_ecohmem(get_workload("minife"), pmem6_system(),
                          dram_limit=8 * GiB, algorithm=algorithm,
                          use_stores=use_stores,
                          profile_store=shared_profile_store)
        with PlacementServer(workers=2,
                             profile_store=shared_profile_store) as srv:
            report = srv.query(AdvisoryRequest(
                workload="minife", dram_limit=8 * GiB, algorithm=algorithm,
                use_stores=use_stores))
        assert report.ok
        assert report.report_text == eco.report.dumps()

    def test_trace_request(self, shared_profile_store, tmp_path):
        from repro.apps import get_workload
        from repro.profiling.pebs import PEBSConfig
        from repro.profiling.tracer import ExtraeTracer, TracerConfig

        path = tmp_path / "app.jsonl"

        def dump(workload):
            tracer = ExtraeTracer(
                get_workload(workload),
                TracerConfig(seed=11, pebs=PEBSConfig(frequency_hz=100.0)))
            tracer.run(rank=0, aslr_seed=1011).dump(str(path))

        req = AdvisoryRequest(trace=str(path), dram_limit=8 * GiB)
        dump("minife")
        with PlacementServer(workers=2) as srv:
            batched = srv.query(req)
            assert batched.ok
            assert batched == sequential_advisory(req)
            # a trace rewritten in place is read again, not answered
            # from the old trace's memoized profile
            dump("hpcg")
            rewritten = srv.query(req)
            assert srv.stats.profile_loads == 2
        assert rewritten.ok
        assert rewritten == sequential_advisory(req)
        assert rewritten.objects_placed != batched.objects_placed

    def test_submit_requires_running_server(self):
        from repro.errors import ReproError

        srv = PlacementServer()
        with pytest.raises(ReproError):
            srv.submit(AdvisoryRequest(workload="minife", dram_limit=GiB))

    def test_error_isolation(self, shared_profile_store):
        reqs = [
            AdvisoryRequest(workload="minife", dram_limit=8 * GiB),
            AdvisoryRequest(workload="no-such-wl", dram_limit=8 * GiB),
            AdvisoryRequest(workload="minife", dram_limit=8 * GiB,
                            system="pmem2"),
        ]
        with PlacementServer(workers=2,
                             profile_store=shared_profile_store) as srv:
            out = srv.query_many(reqs)
            assert srv.stats.errors == 1
        assert out[0].ok and out[2].ok
        assert not out[1].ok
        assert "no-such-wl" in out[1].error
        # errored requests still compare == to the sequential oracle
        assert out[1] == sequential_advisory(reqs[1])


    def test_raising_handler_fails_its_group(self, shared_profile_store,
                                             monkeypatch):
        """An exception escaping a group handler (here: report rendering,
        outside its per-request ``try``) must answer every unresolved
        request in the group instead of leaving its clients waiting."""
        from repro.service import server as server_mod

        reqs = _requests(6)
        render = server_mod._advisory_report

        def flaky(request, *args, **kwargs):
            if request == reqs[0]:
                raise RuntimeError("report rendering failed")
            return render(request, *args, **kwargs)

        monkeypatch.setattr(server_mod, "_advisory_report", flaky)
        with PlacementServer(workers=2, batch_window_ms=50.0,
                             max_batch=len(reqs),
                             profile_store=shared_profile_store) as srv:
            futures = [srv.submit(r) for r in reqs]
            out = [f.result(timeout=30) for f in futures]
            assert srv.stats.max_group == len(reqs), "queries did not coalesce"
        assert all(not r.ok for r in out)
        assert all("report rendering failed" in r.error for r in out)


class TestCoalescingIdentity:
    def test_concurrent_equals_sequential(self, shared_profile_store):
        """K coalesced concurrent queries == K sequential oracle queries.

        Every float in every report must be exactly equal — the batch
        shares one profile load and one vectorized ranking pass, but the
        answers must be indistinguishable from serving each alone.
        """
        reqs = _requests(12)
        with PlacementServer(workers=4, batch_window_ms=50.0,
                             max_batch=len(reqs),
                             profile_store=shared_profile_store) as srv:
            batched = srv.query_many(reqs)
            stats = srv.stats
        assert stats.max_group == len(reqs), "queries did not coalesce"
        assert stats.profile_loads + stats.memo_hits >= 1
        sequential = [sequential_advisory(r,
                                          profile_store=shared_profile_store)
                      for r in reqs]
        for b, s in zip(batched, sequential):
            assert b.ok and s.ok, (b.error, s.error)
            assert b == s

    def test_batched_equals_one_by_one_service(self, shared_profile_store):
        # same server, zero batch window: each query its own batch
        reqs = _requests(6)
        with PlacementServer(workers=2, batch_window_ms=50.0,
                             max_batch=len(reqs),
                             profile_store=shared_profile_store) as srv:
            coalesced = srv.query_many(reqs)
        with PlacementServer(workers=1, batch_window_ms=0.0, max_batch=1,
                             profile_store=shared_profile_store) as srv:
            singles = [srv.query(r) for r in reqs]
            assert srv.stats.batches == len(reqs)
        assert coalesced == singles

    def test_mixed_algorithms_coalesce(self, shared_profile_store):
        reqs = _requests(4) + [
            AdvisoryRequest(workload="minife", dram_limit=12 * GiB,
                            algorithm="bw-aware"),
        ]
        with PlacementServer(workers=2, batch_window_ms=50.0,
                             max_batch=len(reqs),
                             profile_store=shared_profile_store) as srv:
            batched = srv.query_many(reqs)
            assert srv.stats.bw_aware == 1
        for b, r in zip(batched, reqs):
            assert b.ok
            assert b == sequential_advisory(
                r, profile_store=shared_profile_store)


class TestSessions:
    def test_session_isolation(self, shared_profile_store):
        with PlacementServer(workers=2,
                             profile_store=shared_profile_store) as srv:
            alice = srv.session("alice")
            bob = srv.session("bob")
            a1 = alice.query(
                AdvisoryRequest(workload="minife", dram_limit=4 * GiB))
            b1 = bob.query(
                AdvisoryRequest(workload="minife", dram_limit=8 * GiB))
            a2 = alice.query(
                AdvisoryRequest(workload="minife", dram_limit=12 * GiB))

            assert alice.reports() == [a1, a2]
            assert bob.reports() == [b1]
            # session tagging never leaks into the placement answer
            assert a1.request.session == "alice"
            assert b1.request.session == "bob"

    def test_default_session_collects_untagged(self, shared_profile_store):
        with PlacementServer(workers=2,
                             profile_store=shared_profile_store) as srv:
            r = srv.query(
                AdvisoryRequest(workload="minife", dram_limit=8 * GiB))
            assert srv.session_reports("default") == [r]
            assert srv.session_reports("other") == []

    def test_session_identity_matches_unsessioned(self, shared_profile_store):
        # the session name is excluded from the report identity, so the
        # same query from two sessions persists to one report slot
        base = AdvisoryRequest(workload="minife", dram_limit=8 * GiB)
        assert report_identity(base) == report_identity(
            base.with_session("alice"))


class TestStores:
    def test_cold_then_warm_artifact_accounting(self, tmp_path):
        astore = ArtifactStore(tmp_path / "artifacts")
        req = AdvisoryRequest(workload="minife", dram_limit=8 * GiB)

        with PlacementServer(workers=2, artifact_store=astore,
                             profile_store=ProfileStore()) as srv:
            cold = srv.query(req)
            assert srv.stats.profile_loads == 1
        assert astore.puts == 1
        assert not cold.profile_cached

        # a new server over the same artifact dir: the profile artifact
        # is the only thing standing between it and the tracer
        with PlacementServer(workers=2, artifact_store=astore,
                             profile_store=ProfileStore()) as srv:
            warm = srv.query(req)
            assert srv.stats.profile_loads == 1
        assert astore.hits >= 1
        assert warm.profile_cached
        assert warm.profile_key == cold.profile_key
        assert warm == cold  # cache temperature cannot change the answer

        # a payload that exists but does not read back is recomputed, and
        # the report must say so (then the republished entry serves again)
        key = cold.profile_key
        (astore.root / key[:2] / key / "payload.json").write_text("{ torn")
        pstore = ProfileStore()
        with PlacementServer(workers=2, artifact_store=astore,
                             profile_store=pstore) as srv:
            recomputed = srv.query(req)
        assert not recomputed.profile_cached
        assert (pstore.hits, pstore.misses) == (0, 1)
        assert astore.puts == 2
        assert recomputed == cold

    def test_memo_hit_accounting(self, shared_profile_store):
        req = AdvisoryRequest(workload="minife", dram_limit=8 * GiB)
        with PlacementServer(workers=2, batch_window_ms=0.0, max_batch=1,
                             profile_store=shared_profile_store) as srv:
            first = srv.query(req)
            second = srv.query(
                AdvisoryRequest(workload="minife", dram_limit=4 * GiB))
            assert srv.stats.profile_loads == 1
            assert srv.stats.memo_hits == 1
        assert first.ok and second.ok

    def test_report_store_persists_ok_reports(self, tmp_path,
                                              shared_profile_store):
        rstore = ReportStore(tmp_path / "reports")
        reqs = _requests(3) + [
            AdvisoryRequest(workload="no-such-wl", dram_limit=GiB)]
        with PlacementServer(workers=2, report_store=rstore,
                             profile_store=shared_profile_store) as srv:
            out = srv.query_many(reqs)
        assert rstore.puts == 3  # the errored report is not persisted
        for report in out[:3]:
            assert rstore.get(report.request) == report
        assert rstore.get(reqs[3]) is None
        assert len(rstore.identities()) == 3

    def test_report_store_keyed_by_workload_config_seed(self, tmp_path):
        rstore = ReportStore(tmp_path / "reports")
        a = AdvisoryRequest(workload="minife", dram_limit=8 * GiB, seed=11)
        b = AdvisoryRequest(workload="minife", dram_limit=8 * GiB, seed=12)
        c = AdvisoryRequest(workload="minife", dram_limit=4 * GiB, seed=11)
        assert len({report_identity(r) for r in (a, b, c)}) == 3

    def test_resolve_report_store(self, tmp_path, monkeypatch):
        assert resolve_report_store(None) is None
        monkeypatch.setenv("REPRO_SERVICE_REPORT_DIR",
                           str(tmp_path / "envreports"))
        via_env = resolve_report_store(None)
        assert isinstance(via_env, ReportStore)
        explicit = ReportStore(tmp_path / "mine")
        assert resolve_report_store(explicit) is explicit
        assert resolve_report_store(str(tmp_path / "p")).root == tmp_path / "p"


class TestEnvKnobs:
    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "7")
        monkeypatch.setenv("REPRO_SERVICE_BATCH_WINDOW_MS", "12.5")
        monkeypatch.setenv("REPRO_SERVICE_MAX_BATCH", "9")
        srv = PlacementServer()
        assert srv.workers == 7
        assert srv.batch_window_s == pytest.approx(0.0125)
        assert srv.max_batch == 9

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "7")
        assert PlacementServer(workers=2).workers == 2

    @pytest.mark.parametrize("var,value", [
        ("REPRO_SERVICE_WORKERS", "four"),
        ("REPRO_SERVICE_WORKERS", "0"),
        ("REPRO_SERVICE_WORKERS", "2.5"),
        ("REPRO_SERVICE_MAX_BATCH", "-3"),
        ("REPRO_SERVICE_MAX_BATCH", "0"),
        ("REPRO_SERVICE_BATCH_WINDOW_MS", "-1"),
        ("REPRO_SERVICE_BATCH_WINDOW_MS", "soon"),
        ("REPRO_SERVICE_BATCH_WINDOW_MS", "nan"),
    ])
    def test_bad_env_raises(self, monkeypatch, var, value):
        monkeypatch.setenv(var, value)
        with pytest.raises(ConfigError) as err:
            PlacementServer()
        assert var in str(err.value) and value in str(err.value)

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0}, {"max_batch": 0}, {"max_batch": -3},
        {"batch_window_ms": -0.5},
    ], ids=["workers-0", "max_batch-0", "max_batch-neg", "window-neg"])
    def test_bad_explicit_raises(self, monkeypatch, kwargs):
        # a valid environment must not mask a bad explicit argument
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "3")
        monkeypatch.setenv("REPRO_SERVICE_MAX_BATCH", "8")
        [(arg, value)] = kwargs.items()
        with pytest.raises(ConfigError) as err:
            PlacementServer(**kwargs)
        assert f"{arg}={value!r}" in str(err.value)


def _whatif_request(workload="minife", K=3, system="pmem6", **kw):
    from repro.apps import get_workload
    from repro.service import WhatIfRequest

    wl = get_workload(workload)
    sites = [s.name for s in wl.sites()]
    names = system_for_name(system).names
    cands = [
        {s: names[(i + k) % len(names)] for i, s in enumerate(sites)}
        for k in range(K)
    ]
    return WhatIfRequest(workload=workload, placements=tuple(cands),
                         system=system, **kw)


class TestWhatIf:
    """The what-if request kind: K candidates per query, one fused pass,
    bit-equal to scoring each candidate alone."""

    def test_protocol_validation(self):
        from repro.errors import ConfigError
        from repro.service import WhatIfRequest

        with pytest.raises(ConfigError):
            WhatIfRequest(workload="", placements=({"a": "dram"},)).validate()
        with pytest.raises(ConfigError):
            WhatIfRequest(workload="minife").validate()
        with pytest.raises(ConfigError):
            WhatIfRequest(workload="minife",
                          placements=({"a": 3},)).validate()
        with pytest.raises(ConfigError):
            WhatIfRequest(workload="minife", placements=({"a": "dram"},),
                          system="optane9").validate()
        _whatif_request().validate()

    def test_request_roundtrips_through_codec(self):
        req = _whatif_request(K=2)
        assert codec.decode(codec.encode(req)) == req

    def test_server_matches_sequential_oracle(self):
        from repro.service import sequential_whatif

        req = _whatif_request(K=4)
        oracle = sequential_whatif(req)
        assert oracle.ok and len(oracle.predicted_times) == 4
        with PlacementServer(batch_window_ms=1.0) as srv:
            report = srv.query(req)
        assert report.ok
        assert report.predicted_times == oracle.predicted_times
        assert report.ranking == oracle.ranking
        assert report.best == oracle.ranking[0]
        assert codec.decode(codec.encode(report)) == report

    def test_coalesced_group_matches_one_by_one(self):
        """Concurrent same-(workload, system) queries share one fused
        pass; the split-back answers must equal solo serving."""
        reqs = [_whatif_request(K=k + 1) for k in range(4)]
        with PlacementServer(batch_window_ms=50.0, max_batch=16) as srv:
            futures = [srv.submit(r) for r in reqs]
            batched = [f.result() for f in futures]
        with PlacementServer(batch_window_ms=0.0) as srv:
            solo = [srv.query(r) for r in reqs]
        for b, s in zip(batched, solo):
            assert b.ok and b == s
        assert all(r.ok for r in batched)

    def test_groups_score_in_bounded_passes(self, monkeypatch):
        """One request, or a coalesced group, with more candidates than
        ``whatif.BATCH_SIZE`` is scored in passes of at most that many
        candidates, with answers unchanged."""
        from repro.pipeline import whatif
        from repro.runtime.engine import ExecutionEngine
        from repro.service import sequential_whatif

        reqs = [_whatif_request(K=7), _whatif_request(K=4, system="pmem2"),
                _whatif_request(K=5, system="pmem2")]
        oracle = [sequential_whatif(r) for r in reqs]
        widths = []
        predict = ExecutionEngine.predict_times

        def spy(self, models, *args, **kwargs):
            widths.append(len(models))
            return predict(self, models, *args, **kwargs)

        monkeypatch.setattr(whatif, "BATCH_SIZE", 3)
        monkeypatch.setattr(ExecutionEngine, "predict_times", spy)
        with PlacementServer(batch_window_ms=50.0, max_batch=16) as srv:
            futures = [srv.submit(r) for r in reqs]
            reports = [f.result() for f in futures]
        assert reports == oracle
        assert sum(widths) == 16 and max(widths) <= 3

    def test_mixes_with_advisory_requests(self, shared_profile_store):
        wreq = _whatif_request(K=2)
        areq = _requests(1)[0]
        with PlacementServer(batch_window_ms=50.0,
                             profile_store=shared_profile_store) as srv:
            wf, af = srv.submit(wreq), srv.submit(areq)
            wrep, arep = wf.result(), af.result()
        assert wrep.ok and arep.ok
        assert arep == sequential_advisory(
            areq, profile_store=shared_profile_store)
        assert srv.stats.whatif == 1

    def test_error_isolation_and_no_report_store_writes(self, tmp_path):
        from repro.service import WhatIfRequest

        store_dir = tmp_path / "reports"
        bad = WhatIfRequest(workload="nope", placements=({"a": "dram"},))
        good = _whatif_request(K=2)
        with PlacementServer(batch_window_ms=50.0,
                             report_store=str(store_dir)) as srv:
            gf, bf = srv.submit(good), srv.submit(bad)
            grep, brep = gf.result(), bf.result()
        assert grep.ok
        assert not brep.ok and "nope" in brep.error
        # what-if reports are transient: nothing persisted for either
        assert ReportStore(store_dir).identities() == []

    def test_session_scoping(self):
        with PlacementServer(batch_window_ms=1.0) as srv:
            ses = srv.session("whatif-run")
            report = ses.query(_whatif_request(K=2))
            assert report.ok
            assert ses.reports() == [report]
            assert srv.session_reports("default") == []


class TestOnline:
    """The online request kind: phase-aware re-advisory served through
    the dispatcher, bit-equal to the full-recompute sequential oracle."""

    def test_protocol_validation(self):
        from repro.errors import ConfigError
        from repro.service import OnlineRequest

        with pytest.raises(ConfigError):
            OnlineRequest(workload="").validate()
        with pytest.raises(ConfigError):
            OnlineRequest(workload="minife", dram_frac=0.0).validate()
        with pytest.raises(ConfigError):
            OnlineRequest(workload="minife", dram_frac=1.5).validate()
        with pytest.raises(ConfigError):
            OnlineRequest(workload="minife", epochs=1).validate()
        with pytest.raises(ConfigError):
            OnlineRequest(workload="minife", shift_threshold=-0.1).validate()
        with pytest.raises(ConfigError):
            OnlineRequest(workload="minife", system="optane9").validate()
        OnlineRequest(workload="minife").validate()

    def test_request_roundtrips_through_codec(self):
        from repro.service import OnlineRequest

        req = OnlineRequest(workload="minife", dram_frac=0.1, epochs=4)
        assert codec.decode(codec.encode(req)) == req

    def test_server_matches_sequential_oracle(self):
        """The served answer uses the incremental delta engine; the
        oracle recomputes every candidate from scratch.  Every float in
        the report must still compare exactly equal."""
        from repro.service import OnlineRequest, sequential_online

        req = OnlineRequest(workload="minife", dram_frac=0.1, epochs=4,
                            shift_threshold=0.0)
        oracle = sequential_online(req)
        assert oracle.ok
        assert oracle.online_time <= oracle.static_time
        assert oracle.online_time == (oracle.engine_time
                                      + oracle.migration_time)
        with PlacementServer(batch_window_ms=1.0) as srv:
            report = srv.query(req)
            assert srv.stats.online == 1
        assert report.ok
        assert report == oracle
        assert codec.decode(codec.encode(report)) == report

    def test_error_isolation_and_counter(self, shared_profile_store):
        from repro.service import OnlineRequest, sequential_online

        good = OnlineRequest(workload="minife", dram_frac=0.1, epochs=4)
        bad = OnlineRequest(workload="no-such-wl")
        areq = _requests(1)[0]
        with PlacementServer(batch_window_ms=50.0,
                             profile_store=shared_profile_store) as srv:
            futures = [srv.submit(r) for r in (good, bad, areq)]
            grep, brep, arep = [f.result() for f in futures]
            assert srv.stats.online == 2
            assert srv.stats.errors == 1
        assert grep.ok and arep.ok
        assert not brep.ok and "no-such-wl" in brep.error
        assert brep == sequential_online(bad)

    def test_session_scoping(self):
        from repro.service import OnlineRequest

        with PlacementServer(batch_window_ms=1.0) as srv:
            ses = srv.session("online-run")
            report = ses.query(OnlineRequest(workload="minife",
                                             dram_frac=0.1, epochs=4))
            assert report.ok
            assert ses.reports() == [report]
            assert srv.session_reports("default") == []


class TestServiceStatsThreadSafety:
    def test_hammer_loses_no_counts(self):
        """Unlocked ``stats.requests += 1`` drops counts under
        contention; the locked bump()/observe_group() must not."""
        import threading

        from repro.service import ServiceStats

        stats = ServiceStats()
        threads, per_thread = 8, 5000

        def hammer(tid):
            for i in range(per_thread):
                stats.bump("requests")
                stats.bump("whatif", 2)
                stats.observe_group(tid * per_thread + i)

        ts = [threading.Thread(target=hammer, args=(t,))
              for t in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert stats.requests == threads * per_thread
        assert stats.whatif == 2 * threads * per_thread
        assert stats.max_group == threads * per_thread - 1

    def test_whatif_counter_counts_requests(self):
        reqs = [_whatif_request(K=2), _whatif_request(K=3)]
        with PlacementServer(batch_window_ms=50.0) as srv:
            futures = [srv.submit(r) for r in reqs]
            assert all(f.result().ok for f in futures)
        assert srv.stats.whatif == 2
        assert srv.stats.errors == 0
