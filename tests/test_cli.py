"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "minife"])
        assert args.workload == "minife"
        assert args.dram_limit_gb == 12.0
        assert args.pmem == 6
        assert args.algorithm == "density"

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_pmem_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "minife", "--pmem", "4"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "minife" in out and "openfoam" in out
        assert "fig6" in out

    def test_run_toy_scale(self, capsys):
        assert main(["run", "minife", "--dram-limit-gb", "12"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "sites in dram" in out

    def test_run_bw_aware(self, capsys):
        assert main(["run", "minife", "--algorithm", "bw-aware"]) == 0
        assert "bw-aware swaps" in capsys.readouterr().out

    def test_report(self, capsys):
        assert main(["report", "minife"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# ecohmem-placement")

    def test_experiment_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_experiment_tab1(self, capsys):
        assert main(["experiment", "tab1"]) == 0
        out = capsys.readouterr().out
        assert "bom" in out and "raw" in out


class TestValidateTrace:
    @pytest.fixture(scope="class")
    def trace_dir(self, tmp_path_factory):
        from repro.faults.corpus import base_trace
        from repro.faults.plan import FaultPlan, inject, inject_file

        d = tmp_path_factory.mktemp("traces")
        trace = base_trace(0)
        trace.dump_jsonl(d / "clean.jsonl")
        trace.dump_npz(d / "clean.npz")
        dirty = inject(trace, FaultPlan.make("retarget_samples", frac=0.3), 0)
        dirty.dump_jsonl(d / "dirty.jsonl")
        inject_file(d / "clean.jsonl", d / "trunc.jsonl",
                    FaultPlan.make("truncate_jsonl"), 0)
        inject_file(d / "clean.npz", d / "trunc.npz",
                    FaultPlan.make("truncate_npz"), 0)
        return d

    def test_parser_accepts_flags(self):
        args = build_parser().parse_args(
            ["validate-trace", "t.jsonl", "--strict", "--oracle"])
        assert args.path == "t.jsonl"
        assert args.strict and args.oracle

    def test_clean_trace_exits_zero(self, trace_dir, capsys):
        assert main(["validate-trace", str(trace_dir / "clean.jsonl")]) == 0
        assert "status  : clean" in capsys.readouterr().out

    def test_clean_npz_exits_zero(self, trace_dir, capsys):
        assert main(["validate-trace", str(trace_dir / "clean.npz")]) == 0

    def test_degraded_trace_exits_one(self, trace_dir, capsys):
        assert main(["validate-trace", str(trace_dir / "dirty.jsonl")]) == 1
        out = capsys.readouterr().out
        assert "status  : degraded" in out
        assert "unattributable_sample" in out

    def test_strict_mode_exits_one_without_counts(self, trace_dir, capsys):
        rc = main(["validate-trace", str(trace_dir / "dirty.jsonl"),
                   "--strict"])
        # retargeted samples degrade silently in strict mode too: samples
        # that match no object are simply not attributed, so strict only
        # fails on structural errors -- this trace has none
        assert rc in (0, 1)

    def test_truncated_jsonl_exits_two(self, trace_dir, capsys):
        rc = main(["validate-trace", str(trace_dir / "trunc.jsonl")])
        assert rc == 2
        assert "UNREADABLE" in capsys.readouterr().err

    def test_truncated_npz_exits_two(self, trace_dir, capsys):
        assert main(["validate-trace", str(trace_dir / "trunc.npz")]) == 2

    def test_oracle_mode_clean(self, trace_dir, capsys):
        assert main(["validate-trace", str(trace_dir / "clean.jsonl"),
                     "--oracle"]) == 0

    def test_oracle_mode_degraded(self, trace_dir, capsys):
        assert main(["validate-trace", str(trace_dir / "dirty.jsonl"),
                     "--oracle"]) == 1


class TestQueryServe:
    def test_query_summary(self, capsys):
        assert main(["query", "--workload", "minife",
                     "--dram-limit-gb", "8"]) == 0
        out = capsys.readouterr().out
        assert "status    : ok" in out
        assert "dram" in out and "pmem" in out

    def test_query_report_matches_report_command(self, capsys):
        assert main(["report", "minife", "--dram-limit-gb", "8"]) == 0
        via_report = capsys.readouterr().out
        assert main(["query", "--workload", "minife",
                     "--dram-limit-gb", "8", "--report"]) == 0
        assert capsys.readouterr().out == via_report

    def test_query_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--dram-limit-gb", "8"])

    def test_query_unknown_workload_errors(self, capsys):
        assert main(["query", "--workload", "nope",
                     "--dram-limit-gb", "8"]) == 1
        assert "error" in capsys.readouterr().out

    def test_serve_round_trip(self, tmp_path, capsys):
        import json

        from repro.experiments.sweep import codec
        from repro.service import AdvisoryReport, sequential_advisory

        reqs = tmp_path / "requests.jsonl"
        reqs.write_text(
            '{"workload": "minife", "dram_limit_gb": 2}\n'
            "# comments and blank lines are skipped\n"
            "\n"
            '{"workload": "minife", "dram_limit_gb": 8, "use_stores": false}\n'
            '{"workload": "minife", "dram_limit_gb": 12, "seed": 11}\n'
        )
        out_path = tmp_path / "reports.jsonl"
        assert main(["serve", "--requests", str(reqs),
                     "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3
        reports = [codec.decode(json.loads(line)) for line in lines]
        for report in reports:
            assert isinstance(report, AdvisoryReport)
            assert report.ok
            # the served answer round-trips to == the sequential oracle
            assert report == sequential_advisory(report.request)

    def test_serve_reports_errors_in_exit_code(self, tmp_path, capsys):
        reqs = tmp_path / "requests.jsonl"
        reqs.write_text('{"workload": "nope", "dram_limit_gb": 8}\n')
        out_path = tmp_path / "reports.jsonl"
        assert main(["serve", "--requests", str(reqs),
                     "--out", str(out_path)]) == 1
        assert len(out_path.read_text().splitlines()) == 1

    def test_serve_rejects_bad_request_line(self, tmp_path):
        reqs = tmp_path / "requests.jsonl"
        reqs.write_text('{"workload": "minife"\n')
        with pytest.raises(SystemExit, match="bad request"):
            main(["serve", "--requests", str(reqs)])

    def test_serve_rejects_empty_file(self, tmp_path):
        reqs = tmp_path / "requests.jsonl"
        reqs.write_text("\n")
        with pytest.raises(SystemExit, match="no requests"):
            main(["serve", "--requests", str(reqs)])

    def test_serve_rejects_bad_server_knob(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_WORKERS", raising=False)
        reqs = tmp_path / "requests.jsonl"
        reqs.write_text('{"workload": "minife", "dram_limit_gb": 2}\n')
        with pytest.raises(SystemExit, match="workers=0 must be >= 1"):
            main(["serve", "--requests", str(reqs), "--workers", "0"])


class TestWhatIf:
    def _candidates(self, tmp_path, entries, jsonl=False):
        import json

        path = tmp_path / ("cands.jsonl" if jsonl else "cands.json")
        if jsonl:
            path.write_text(
                "\n".join(json.dumps(e) for e in entries) + "\n")
        else:
            path.write_text(json.dumps(entries))
        return str(path)

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["whatif", "minife", "--candidates", "c.json"])
        assert args.workload == "minife"
        assert args.system == "pmem6"
        assert not args.json

    def test_ranking_table(self, tmp_path, capsys):
        from repro.apps import get_workload

        wl = get_workload("minife")
        sites = [s.name for s in wl.sites()]
        path = self._candidates(tmp_path, [
            {"label": "all-dram",
             "placement": {s: "dram" for s in sites}},
            {s: "pmem" for s in sites},
        ])
        assert main(["whatif", "minife", "--candidates", path]) == 0
        out = capsys.readouterr().out
        assert "2 candidate(s)" in out
        assert out.index("all-dram") < out.index("candidate-1")
        assert "* #1" in out

    def test_round_trip_against_run_ecohmem(self, tmp_path, capsys):
        """The CLI's predicted time for run_ecohmem's chosen placement is
        the engine's own score of that placement — exactly."""
        import json

        from repro.apps import get_workload
        from repro.experiments.harness import run_ecohmem
        from repro.memsim.subsystem import pmem6_system
        from repro.runtime.engine import ExecutionEngine
        from repro.runtime.traffic import PlacementTraffic
        from repro.units import GiB

        wl = get_workload("minife")
        system = pmem6_system()
        eco = run_ecohmem(wl, system, dram_limit=12 * GiB)
        path = self._candidates(
            tmp_path,
            [{"label": "advisor", "placement": eco.site_placement},
             {"label": "all-pmem",
              "placement": {s: "pmem" for s in eco.site_placement}}],
            jsonl=True,
        )
        assert main(["whatif", "minife", "--candidates", path,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        oracle = ExecutionEngine(wl, system).run(
            PlacementTraffic(wl, eco.site_placement)).total_time
        idx = payload["labels"].index("advisor")
        assert payload["predicted_times"][idx] == oracle
        assert payload["ranking"][0] == idx  # the advisor's pick wins

    def test_unknown_workload_exits(self, tmp_path):
        path = self._candidates(tmp_path, [{"a": "dram"}])
        with pytest.raises(SystemExit):
            main(["whatif", "nope", "--candidates", path])

    def test_empty_candidates_exits(self, tmp_path):
        path = self._candidates(tmp_path, [])
        with pytest.raises(SystemExit):
            main(["whatif", "minife", "--candidates", path])

    def test_candidate_loader_closes_its_file(self, tmp_path):
        import gc
        import warnings

        from repro.cli import _load_candidates

        path = self._candidates(tmp_path, [{"a": "dram"}])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, placements = _load_candidates(path)
            gc.collect()
        assert placements == [{"a": "dram"}]
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaked == []


class TestOnlineCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["online", "minife"])
        assert args.workload == "minife"
        assert args.system == "pmem6"
        assert args.dram_frac == 0.25
        assert args.epochs == 8
        assert args.shift_threshold == 0.10
        assert not args.full and not args.json

    def test_human_output(self, capsys):
        assert main(["online", "minife", "--dram-frac", "0.1",
                     "--epochs", "4", "--shift-threshold", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "online" in out and "static" in out and "saved" in out

    def test_json_matches_pipeline(self, capsys):
        import json

        from repro.pipeline import run_online_pipeline
        from repro.runtime.online import OnlineParams

        assert main(["online", "minife", "--dram-frac", "0.1",
                     "--epochs", "4", "--shift-threshold", "0.0",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        outcome = run_online_pipeline(
            "minife", "pmem6", dram_frac=0.1,
            params=OnlineParams(epochs=4, shift_threshold=0.0))
        assert payload["workload"] == "minife"
        assert payload["static_time"] == outcome.static_time
        assert payload["online_time"] == outcome.online_time
        assert payload["online_time"] <= payload["static_time"]
        assert payload["migrations"] == len(payload["events"])

    def test_json_matches_server_report(self, capsys):
        import json

        from repro.service import OnlineRequest, PlacementServer

        assert main(["online", "minife", "--system", "pmem2",
                     "--dram-frac", "0.1", "--epochs", "4",
                     "--shift-threshold", "0.0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        with PlacementServer(batch_window_ms=1.0) as srv:
            report = srv.query(OnlineRequest(
                workload="minife", system="pmem2", dram_frac=0.1, epochs=4,
                shift_threshold=0.0))
        assert report.ok
        for name in ("dram_limit", "static_time", "online_time",
                     "engine_time", "migration_time", "migrations",
                     "candidate_evaluations", "shift_boundaries"):
            assert payload[name] == getattr(report, name), name

    def test_full_flag_same_answer(self, capsys):
        import json

        argv = ["online", "minife", "--dram-frac", "0.1", "--epochs", "4",
                "--shift-threshold", "0.0", "--json"]
        assert main(argv) == 0
        fast = json.loads(capsys.readouterr().out)
        assert main(argv + ["--full"]) == 0
        slow = json.loads(capsys.readouterr().out)
        assert fast == slow

    def test_unknown_workload_exits(self):
        with pytest.raises(SystemExit):
            main(["online", "nope"])

    def test_unknown_system_exits(self):
        with pytest.raises(SystemExit):
            main(["online", "minife", "--system", "optane9"])
