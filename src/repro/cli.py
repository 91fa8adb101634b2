"""Command-line interface: ``ecohmem <command>``.

Commands
--------
``list``
    List available workloads and experiments.
``run``
    Run the ecoHMEM pipeline on one workload and print the speedup.
``experiment``
    Regenerate one of the paper's tables/figures.
``report``
    Print the Advisor placement report for a workload.
``validate-trace``
    Load a trace file, run the analyzer over it, and report degradation.
``results``
    Inspect the cross-run result ledger (``--results`` / ``REPRO_RESULT_DB``).
``query``
    One advisory query (no server): print or save the placement report.
``corpus``
    Workload-DSL tooling: ``generate`` seeded corpus cells to YAML,
    ``export`` registered models to YAML, ``check`` DSL round-trip and
    generator-determinism integrity.
``serve``
    Run the placement server over a JSONL request file, coalescing
    concurrent queries, and write one JSONL report per request.
``whatif``
    Score K candidate placements of one workload in one fused engine
    pass and print the best-first ranking.
``online``
    Run the phase-aware online re-advisory loop (incremental delta
    engine) against the static placement and report the saving.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.apps import get_workload, list_workloads
from repro.baselines.memory_mode import run_memory_mode
from repro.binary.callstack import StackFormat
from repro.experiments.harness import run_ecohmem
from repro.experiments.parallel import add_jobs_argument
from repro.experiments.reporting import render_result_record, render_table
from repro.memsim.subsystem import pmem2_system, pmem6_system
from repro.units import GiB, fmt_bandwidth, fmt_size

EXPERIMENTS = [
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "tab1", "tab2", "tab3", "tab6", "tab7", "tab8", "sec8c", "sec8d",
    "ablation-stores", "ablation-thresholds", "ablation-sampling",
    "ablation-input", "ablation-combined",
]


def _system(pmem_dimms: int):
    if pmem_dimms == 6:
        return pmem6_system()
    if pmem_dimms == 2:
        return pmem2_system()
    raise SystemExit(f"unsupported PMem configuration: {pmem_dimms} DIMMs")


def cmd_list(_args: argparse.Namespace) -> int:
    print("workloads:")
    for name in list_workloads():
        wl = get_workload(name)
        print(f"  {name:14s} {wl.ranks:3d} ranks x {wl.threads} threads, "
              f"{len(wl.objects):4d} sites, HWM {fmt_size(wl.heap_high_water())}/rank")
    print("experiments:", " ".join(EXPERIMENTS))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    system = _system(args.pmem)
    wl = get_workload(args.workload)
    baseline = run_memory_mode(get_workload(args.workload), system)
    eco = run_ecohmem(
        wl, system,
        dram_limit=int(args.dram_limit_gb * GiB),
        use_stores=not args.loads_only,
        algorithm=args.algorithm,
        stack_format=StackFormat.HUMAN if args.human_stacks else StackFormat.BOM,
    )
    speedup = eco.run.speedup_vs(baseline)
    print(f"workload       : {args.workload}")
    print(f"memory         : PMem-{args.pmem}, DRAM limit {args.dram_limit_gb} GB")
    print(f"algorithm      : {args.algorithm} "
          f"({'loads' if args.loads_only else 'loads+stores'})")
    print(f"memory mode    : {baseline.total_time:10.1f} s "
          f"(hit ratio {100 * (baseline.dram_cache_hit_ratio or 0):.1f}%)")
    print(f"ecoHMEM        : {eco.run.total_time:10.1f} s")
    print(f"speedup        : {speedup:10.2f}x")
    if eco.swaps is not None:
        print(f"bw-aware swaps : {len(eco.swaps):10d}")
    placed = eco.placement
    for sub in placed.subsystems:
        n = len(placed.sites_in(sub))
        print(f"  sites in {sub:5s}: {n}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    system = _system(args.pmem)
    wl = get_workload(args.workload)
    eco = run_ecohmem(
        wl, system,
        dram_limit=int(args.dram_limit_gb * GiB),
        algorithm=args.algorithm,
    )
    sys.stdout.write(eco.report.dumps())
    return 0


def cmd_validate_trace(args: argparse.Namespace) -> int:
    """Check a dumped trace: parse it, analyze it, report degradation.

    Exit codes: 0 = clean, 1 = degraded (analyzable, records skipped),
    2 = unreadable (parse failure).
    """
    from repro.errors import ReproError, TraceError
    from repro.faults.degrade import DegradationReport
    from repro.profiling.paramedir import Paramedir
    from repro.profiling.trace import Trace

    try:
        trace = Trace.load(args.path)
    except TraceError as exc:
        where = f" (record {exc.record})" if exc.record is not None else ""
        print(f"UNREADABLE {args.path}{where}: {exc}", file=sys.stderr)
        return 2

    pm = Paramedir()
    degradation = None if args.strict else DegradationReport()
    try:
        if args.oracle:
            from repro.faults.corpus import differential_check

            outcome = differential_check(trace)
            if not outcome.identical:
                for m in outcome.mismatches:
                    print(f"ORACLE MISMATCH: {m}", file=sys.stderr)
                return 2
            degradation = outcome.degradation if not args.strict else None
            if args.strict and outcome.strict_vectorized != "ok":
                print(f"DEGRADED {args.path}: {outcome.strict_vectorized}",
                      file=sys.stderr)
                return 1
        else:
            pm.analyze(trace, degradation=degradation)
    except ReproError as exc:
        print(f"DEGRADED {args.path}: {exc}", file=sys.stderr)
        return 1

    print(f"trace   : {args.path}")
    print(f"allocs  : {len(trace.allocs)}")
    print(f"frees   : {len(trace.frees)}")
    print(f"samples : {len(trace.sample_columns())}")
    if degradation is None or degradation.clean:
        print("status  : clean")
        return 0
    print("status  : degraded")
    for fault_class, n in degradation.items():
        if n:
            print(f"  {fault_class:22s}: {n}")
    return 1


def cmd_experiment(args: argparse.Namespace) -> int:
    name = args.name
    if name == "fig2":
        from repro.experiments.fig2_latency import compute_fig2
        rows = []
        for label, (bw, lat) in compute_fig2(points=8).items():
            for b, l in zip(bw, lat):
                rows.append([label, f"{b / 1e9:.1f} GB/s", l])
        print(render_table(["curve", "bandwidth", "latency (ns)"], rows,
                           title="Figure 2: bandwidth vs latency"))
    elif name == "fig6":
        from repro.experiments.fig6_sweep import compute_fig6, fig6_rows
        result = compute_fig6(apps=args.apps or None, jobs=args.jobs,
                              manifest=args.manifest, results=args.results)
        print(render_table(
            ["app", "pmem", "dram", "metrics", "speedup"],
            fig6_rows(result), title="Figure 6: speedup vs memory mode",
        ))
    elif name == "tab6":
        from repro.experiments.tab6_memmode import compute_tab6
        rows = [[r.app, r.memory_bound_pct, r.hit_ratio_pct,
                 r.paper_memory_bound_pct, r.paper_hit_ratio_pct]
                for r in compute_tab6()]
        print(render_table(
            ["app", "mem-bound %", "hit %", "paper mb %", "paper hit %"],
            rows, title="Table VI: memory-mode profiling",
        ))
    elif name == "tab8":
        from repro.experiments.tab8_full_apps import compute_tab8
        rows = [[r.app, r.algorithm, f"{r.dram_limit_gb} GB", r.speedup,
                 r.paper_speedup]
                for r in compute_tab8(jobs=args.jobs, manifest=args.manifest,
                                      results=args.results)]
        print(render_table(
            ["app", "algorithm", "dram", "speedup", "paper"],
            rows, title="Table VIII: full applications",
        ))
    elif name == "tab1":
        from repro.experiments.tab1_callstack import compute_tab1
        rows = [[r.fmt, r.rendered, r.subsystem,
                 "yes" if r.stable_across_runs else "NO"]
                for r in compute_tab1()]
        print(render_table(["format", "call stack", "subsystem", "stable"],
                           rows, title="Table I: call-stack formats"))
    elif name in ("tab2", "tab3", "fig4", "fig5"):
        from repro.experiments.fig45_objects import (
            compute_fig45, table2_rows, table3_rows,
        )
        data = compute_fig45()
        if name == "tab2":
            print(render_table(["objects", "alloc regions", "exec regions"],
                               table2_rows(data), title="Table II"))
        elif name == "tab3":
            print(render_table(["objects", "allocs/object", "lifetime (s)"],
                               table3_rows(data), title="Table III"))
        else:
            objs = data.pmem_objects if name == "fig4" else data.dram_objects
            rows = [[r.site, r.alloc_count, r.mean_lifetime_s,
                     fmt_bandwidth(r.mean_bandwidth)] for r in objs]
            print(render_table(["object", "allocs", "lifetime (s)", "bandwidth"],
                               rows, title=f"Figure {name[-1]}"))
    elif name == "fig3":
        from repro.experiments.fig3_lulesh import compute_fig3
        from repro.experiments.reporting import render_series
        data = compute_fig3()
        print(render_series(data.times, data.pmem_bandwidth / 1e9,
                            x_label="t (s)", y_label="PMem GB/s",
                            title="Figure 3: LULESH PMem bandwidth"))
    elif name == "fig7":
        from repro.experiments.fig7_bandwidth import compute_fig7
        for app in args.apps or ["lulesh", "openfoam"]:
            s = compute_fig7(app)
            print(f"{app}: peak {fmt_bandwidth(s.peak_base)} -> "
                  f"{fmt_bandwidth(s.peak_aware)} "
                  f"(-{100 * s.peak_reduction:.0f}%), mean "
                  f"{fmt_bandwidth(s.mean_base)} -> {fmt_bandwidth(s.mean_aware)}")
    elif name == "tab7":
        from repro.experiments.tab7_functions import compute_tab7
        rows = [[r.function, r.ipc_pct, r.latency_pct] for r in compute_tab7()]
        print(render_table(["function", "IPC %", "latency %"], rows,
                           title="Table VII: CloverLeaf3D function breakdown"))
    elif name.startswith("ablation-"):
        from repro.experiments import ablations
        kind = name.split("-", 1)[1]
        if kind == "combined":
            results = ablations.combined_policy_comparison(
                results=args.results)
            print(render_table(["policy", "speedup"],
                               sorted(results.items(), key=lambda kv: kv[1]),
                               title="Ablation: proactive + reactive"))
        else:
            sweep = {
                "stores": ablations.store_coefficient_sweep,
                "thresholds": ablations.threshold_sweep,
                "sampling": ablations.sampling_frequency_sweep,
                "input": ablations.input_sensitivity,
            }[kind]
            points = sweep(jobs=args.jobs, manifest=args.manifest,
                           results=args.results)
            print(render_table(
                ["knob", "speedup", "detail"],
                [[p.knob, p.speedup, p.detail] for p in points],
                title=f"Ablation: {kind}",
            ))
    elif name == "sec8c":
        from repro.experiments.sec8c_lammps import compute_sec8c
        r = compute_sec8c()
        print("Section VIII-C: LAMMPS analysis")
        print(f"  memory-bound stalls : {r.memory_bound_pct:.1f}% (paper 29.2%)")
        print(f"  DRAM cache hit ratio: {r.dram_cache_hit_pct:.1f}% (paper 63.5%)")
        print(f"  ecoHMEM speedup     : {r.speedup:.2f}x (paper ~0.97x)")
        print(f"  serialized stalls   : {100 * r.comm.serial_share:.1f}% "
              f"from {len(r.comm.comm_sites)} comm sites -> "
              f"{r.comm_placement}")
    elif name == "sec8d":
        from repro.experiments.sec8d_callstack import compute_sec8d
        r = compute_sec8d()
        print("Section VIII-D: call-stack format impact (OpenFOAM)")
        print(f"  BOM speedup            : {r.speedup_bom:.2f}x")
        print(f"  human-readable speedup : {r.speedup_human:.2f}x")
        print(f"  debug info per rank    : {fmt_size(r.debug_info_bytes_per_rank)}")
        print(f"  human DRAM limit       : {fmt_size(r.human_dram_limit)}")
        print(f"  matcher time BOM/human : "
              f"{r.matcher_time_bom_ns / 1e6:.2f} / "
              f"{r.matcher_time_human_ns / 1e6:.2f} ms")
    else:
        raise SystemExit(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    return 0


def cmd_results(args: argparse.Namespace) -> int:
    """Inspect the cross-run result ledger."""
    from repro.experiments.sweep import resolve_result_db

    db = resolve_result_db(args.db)
    if db is None:
        raise SystemExit("no result database: pass --db or set REPRO_RESULT_DB")
    if args.experiment:
        if args.seed is None:
            record = db.latest_any(args.experiment, label=args.label)
        else:
            record = db.latest(args.experiment, label=args.label,
                               seed=args.seed)
        if record is None:
            raise SystemExit(
                f"no record for experiment={args.experiment!r} "
                f"label={args.label!r} in {db.root}")
        print(render_result_record(record))
        return 0
    identities = db.experiments()
    if not identities:
        print(f"result database {db.root} is empty")
        return 0
    rows = [[exp, label, "-" if seed is None else seed]
            for exp, label, seed in sorted(
                identities, key=lambda t: (t[0], t[1], t[2] or 0))]
    print(render_table(["experiment", "label", "seed"], rows,
                       title=f"result ledger at {db.root}"))
    return 0


def _advisory_request(args: argparse.Namespace):
    from repro.service import AdvisoryRequest
    from repro.units import GiB as _GiB

    return AdvisoryRequest(
        dram_limit=int(args.dram_limit_gb * _GiB),
        workload=args.workload,
        trace=args.trace,
        system=args.system,
        use_stores=not args.loads_only,
        algorithm=args.algorithm,
        stack_format="human" if args.human_stacks else "bom",
        seed=args.seed,
    )


def _render_advisory(report, out=None) -> None:
    out = out or sys.stdout
    req = report.request
    source = req.workload or req.trace
    print(f"query     : {source} on {req.system}, "
          f"DRAM {fmt_size(req.dram_limit)}, {req.algorithm}", file=out)
    if not report.ok:
        print(f"status    : error: {report.error}", file=out)
        return
    print(f"status    : ok ({report.objects_placed} objects placed, "
          f"fallback {report.fallback})", file=out)
    for sub, nbytes in report.bytes_by_subsystem.items():
        print(f"  {sub:6s}: {fmt_size(nbytes)}", file=out)


def cmd_query(args: argparse.Namespace) -> int:
    """One-shot advisory: the sequential (per-query oracle) path."""
    from repro.errors import ConfigError
    from repro.service import sequential_advisory

    try:
        request = _advisory_request(args)
        request.validate()
    except ConfigError as exc:
        raise SystemExit(str(exc))
    report = sequential_advisory(request)
    if args.report and report.ok:
        sys.stdout.write(report.report_text)
        return 0
    _render_advisory(report)
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Batch-serve a JSONL request file through the placement server.

    Each input line is a JSON object of :class:`AdvisoryRequest` fields
    (``dram_limit_gb`` accepted as a convenience for ``dram_limit``).
    Every request is submitted before any result is awaited, so
    same-profile queries coalesce into vectorized batches.  One JSONL
    report (exact codec encoding, round-trips to an equal
    ``AdvisoryReport``) is written per request, in input order.
    """
    import json

    from repro.errors import ReproError
    from repro.experiments.sweep.codec import encode
    from repro.service import AdvisoryRequest, PlacementServer
    from repro.units import GiB as _GiB

    requests = []
    with open(args.requests) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                fields = json.loads(line)
                if "dram_limit_gb" in fields:
                    fields["dram_limit"] = int(
                        fields.pop("dram_limit_gb") * _GiB)
                requests.append(AdvisoryRequest(**fields))
            except (ValueError, TypeError) as exc:
                raise SystemExit(
                    f"{args.requests}:{lineno}: bad request: {exc}")
    if not requests:
        raise SystemExit(f"no requests in {args.requests}")

    try:
        server = PlacementServer(
            workers=args.workers,
            batch_window_ms=args.batch_window_ms,
            max_batch=args.max_batch,
            artifact_store=args.artifact_dir,
            report_store=args.report_dir,
        )
        with server:
            reports = server.query_many(requests)
    except ReproError as exc:
        raise SystemExit(str(exc))

    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for report in reports:
            out.write(json.dumps(encode(report), sort_keys=True))
            out.write("\n")
    finally:
        if args.out:
            out.close()
    stats = server.stats
    errors = sum(1 for r in reports if not r.ok)
    print(f"served {stats.requests} requests in {stats.batches} batch(es), "
          f"{stats.profile_loads} profile load(s), "
          f"largest group {stats.max_group}, {errors} error(s)",
          file=sys.stderr)
    return 0 if errors == 0 else 1


def _load_candidates(path: str):
    """Read candidate placements: a JSON list or JSONL, one per entry.

    Each entry is either a bare ``{site: subsystem}`` mapping or a
    ``{"label": ..., "placement": {...}}`` object.  Returns parallel
    (labels, placements) lists.
    """
    import json
    from pathlib import Path

    text = Path(path).read_text()
    if text.lstrip().startswith("["):
        entries = json.loads(text)
    else:
        entries = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                entries.append(json.loads(line))
            except ValueError as exc:
                raise SystemExit(f"{path}:{lineno}: bad candidate: {exc}")
    labels, placements = [], []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SystemExit(
                f"{path}: candidate {i} is not a JSON object")
        if "placement" in entry:
            labels.append(str(entry.get("label", f"candidate-{i}")))
            placements.append(dict(entry["placement"]))
        else:
            labels.append(f"candidate-{i}")
            placements.append(dict(entry))
    return labels, placements


def cmd_whatif(args: argparse.Namespace) -> int:
    """Score K candidate placements in one fused engine pass."""
    import json

    from repro.apps import get_workload
    from repro.errors import ReproError
    from repro.pipeline.whatif import evaluate_placements, rank_placements
    from repro.service import system_for_name

    labels, placements = _load_candidates(args.candidates)
    if not placements:
        raise SystemExit(f"no candidate placements in {args.candidates}")
    try:
        workload = get_workload(args.workload)
        system = system_for_name(args.system)
        times = [float(t) for t in evaluate_placements(
            workload, system, placements)]
    except (ReproError, KeyError) as exc:
        raise SystemExit(str(exc))
    ranking = rank_placements(times)

    if args.json:
        print(json.dumps({
            "workload": args.workload,
            "system": args.system,
            "labels": labels,
            "predicted_times": times,
            "ranking": ranking,
        }, sort_keys=True))
        return 0
    print(f"what-if   : {args.workload} on {args.system}, "
          f"{len(placements)} candidate(s)")
    width = max(len(label) for label in labels)
    for pos, idx in enumerate(ranking, 1):
        marker = "*" if pos == 1 else " "
        print(f"  {marker} #{pos:<3d}{labels[idx]:<{width}s}  "
              f"predicted {times[idx]:.6f} s")
    return 0


def cmd_online(args: argparse.Namespace) -> int:
    """Run the phase-aware online re-advisory loop against static placement."""
    import json

    from repro.errors import ReproError
    from repro.pipeline.online import run_online_pipeline
    from repro.runtime.online import OnlineParams

    try:
        outcome = run_online_pipeline(
            args.workload, args.system,
            dram_frac=args.dram_frac,
            params=OnlineParams(
                epochs=args.epochs,
                shift_threshold=args.shift_threshold,
            ),
            use_incremental=not args.full,
        )
    except (ReproError, KeyError) as exc:
        raise SystemExit(str(exc))
    report = outcome.report

    if args.json:
        print(json.dumps({
            "workload": outcome.workload_name,
            "system": args.system,
            "dram_limit": outcome.dram_limit,
            "static_time": report.static_time,
            "online_time": report.total_time,
            "engine_time": report.engine_time,
            "migration_time": report.migration_total_s,
            "migrations": report.migrations,
            "candidate_evaluations": report.candidate_evaluations,
            "shift_boundaries": report.shift_boundaries,
            "events": [
                {
                    "epoch": e.epoch,
                    "boundary_seg": e.boundary_seg,
                    "switch_time": e.switch_time,
                    "sites_moved": e.sites_moved,
                    "cost_s": e.cost_s,
                    "predicted_saving_s": e.predicted_saving_s,
                }
                for e in report.events
            ],
        }, sort_keys=True))
        return 0

    print(f"online    : {outcome.workload_name} on {args.system}, "
          f"DRAM budget {outcome.dram_limit} B/rank")
    print(f"  static  : {report.static_time:.6f} s")
    print(f"  online  : {report.total_time:.6f} s "
          f"({report.engine_time:.6f} s engine + "
          f"{report.migration_total_s:.6f} s migration)")
    saved = report.static_time - report.total_time
    pct = 100.0 * saved / report.static_time if report.static_time else 0.0
    print(f"  saved   : {saved:.6f} s ({pct:.2f}%)")
    print(f"  shifts  : {len(report.shift_boundaries)} detected, "
          f"{report.migrations} migration(s) accepted, "
          f"{report.candidate_evaluations} candidate(s) evaluated")
    for e in report.events:
        print(f"    epoch {e.epoch} @ t={e.switch_time:.3f}s: moved "
              f"{e.sites_moved} site(s), cost {e.cost_s:.6f} s, "
              f"saving {e.predicted_saving_s:.6f} s")
    return 0


def _corpus_spec(args: argparse.Namespace):
    from repro.apps.dsl import default_corpus_spec, load_corpus_yaml

    return load_corpus_yaml(args.spec) if args.spec else default_corpus_spec()


def cmd_corpus(args: argparse.Namespace) -> int:
    """Workload-DSL tooling: generate / export / check."""
    from pathlib import Path

    from repro.apps.corpus import corpus_digest, generate_cell, generate_corpus
    from repro.apps.dsl import dumps_workload_yaml, loads_workload_yaml
    from repro.errors import WorkloadError

    if args.corpus_command == "generate":
        try:
            spec = _corpus_spec(args)
            cells = generate_corpus(spec, args.corpus_seed, args.cells,
                                    start=args.start)
        except WorkloadError as exc:
            raise SystemExit(str(exc))
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for cell in cells:
                path = out / f"cell_{cell.cell_index:06d}.yaml"
                path.write_text(dumps_workload_yaml(cell.workload))
            print(f"wrote {len(cells)} workloads to {out}")
        rows = [[c.cell_index, c.workload.name, len(c.jobs),
                 fmt_size(c.workload.heap_high_water()), c.digest()[:12]]
                for c in cells]
        print(render_table(["cell", "workload", "jobs", "node HWM", "digest"],
                           rows, title=f"corpus {spec.name!r} "
                                       f"seed {args.corpus_seed}"))
        print(f"corpus digest: {corpus_digest(cells)}")
        return 0

    if args.corpus_command == "export":
        if args.show_spec:
            from repro.apps.dsl import corpus_to_dict
            from repro.apps.dsl.yamlio import dump_canonical_yaml

            sys.stdout.write(dump_canonical_yaml(
                corpus_to_dict(_corpus_spec(args))))
            return 0
        names = args.workloads or list_workloads()
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for name in names:
                (out / f"{name}.yaml").write_text(
                    dumps_workload_yaml(get_workload(name)))
            print(f"exported {len(names)} workload(s) to {out}")
        else:
            for name in names:
                sys.stdout.write(dumps_workload_yaml(get_workload(name)))
        return 0

    # check: DSL round-trip on every registered model + generator integrity
    failures = 0
    for name in list_workloads():
        wl = get_workload(name)
        text = dumps_workload_yaml(wl)
        try:
            reloaded = loads_workload_yaml(text, source=name)
        except WorkloadError as exc:  # pragma: no cover - the failure path
            print(f"FAIL {name}: reload error: {exc}", file=sys.stderr)
            failures += 1
            continue
        if reloaded != wl:  # pragma: no cover - the failure path
            print(f"FAIL {name}: reloaded workload differs", file=sys.stderr)
            failures += 1
        elif dumps_workload_yaml(reloaded) != text:  # pragma: no cover
            print(f"FAIL {name}: YAML not byte-stable", file=sys.stderr)
            failures += 1
        elif not args.quiet:
            print(f"OK   {name}: round-trips byte-identically")
    spec = _corpus_spec(args)
    for index in range(args.start, args.start + args.cells):
        a = generate_cell(spec, args.corpus_seed, index)
        b = generate_cell(spec, args.corpus_seed, index)
        text = dumps_workload_yaml(a.workload)
        if a.digest() != b.digest():  # pragma: no cover - the failure path
            print(f"FAIL cell {index}: generation not deterministic",
                  file=sys.stderr)
            failures += 1
        elif loads_workload_yaml(text) != a.workload:  # pragma: no cover
            print(f"FAIL cell {index}: round-trip differs", file=sys.stderr)
            failures += 1
        elif not args.quiet:
            print(f"OK   cell {index}: deterministic, round-trips "
                  f"({a.digest()[:12]})")
    if failures:
        print(f"{failures} corpus check failure(s)", file=sys.stderr)
        return 1
    if not args.quiet:
        print("corpus check passed")
    return 0


def _add_advisory_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dram-limit-gb", type=float, default=12.0)
    p.add_argument("--system", default="pmem6",
                   help="memory system: pmem6, pmem2, hbm-dram-pmem")
    p.add_argument("--algorithm", default="density",
                   choices=("density", "bw-aware"))
    p.add_argument("--loads-only", action="store_true")
    p.add_argument("--human-stacks", action="store_true")
    p.add_argument("--seed", type=int, default=11)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecohmem", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and experiments")

    run_p = sub.add_parser("run", help="run the pipeline on one workload")
    run_p.add_argument("workload")
    run_p.add_argument("--dram-limit-gb", type=float, default=12.0)
    run_p.add_argument("--pmem", type=int, default=6, choices=(2, 6))
    run_p.add_argument("--algorithm", default="density",
                       choices=("density", "bw-aware"))
    run_p.add_argument("--loads-only", action="store_true")
    run_p.add_argument("--human-stacks", action="store_true")

    rep_p = sub.add_parser("report", help="print the placement report")
    rep_p.add_argument("workload")
    rep_p.add_argument("--dram-limit-gb", type=float, default=12.0)
    rep_p.add_argument("--pmem", type=int, default=6, choices=(2, 6))
    rep_p.add_argument("--algorithm", default="density",
                       choices=("density", "bw-aware"))

    val_p = sub.add_parser("validate-trace",
                           help="check a trace file and report degradation")
    val_p.add_argument("path", help="trace file (.jsonl or .npz)")
    val_p.add_argument("--strict", action="store_true",
                       help="fail on the first malformed record instead of "
                            "skipping and counting")
    val_p.add_argument("--oracle", action="store_true",
                       help="also run the scalar analyzer and require "
                            "bit-identical behaviour")

    exp_p = sub.add_parser("experiment", help="regenerate a table/figure")
    exp_p.add_argument("name", choices=EXPERIMENTS)
    exp_p.add_argument("--apps", nargs="*", default=None)
    add_jobs_argument(exp_p)
    exp_p.add_argument("--manifest", default=None,
                       help="JSONL sweep manifest: journal completed cells "
                            "and resume a killed sweep from it (default: "
                            "REPRO_SWEEP_MANIFEST or off)")
    exp_p.add_argument("--results", default=None,
                       help="cross-run result database directory to append "
                            "finished tables to (default: REPRO_RESULT_DB "
                            "or off)")

    qry_p = sub.add_parser("query", help="one advisory query (no server)")
    qry_src = qry_p.add_mutually_exclusive_group(required=True)
    qry_src.add_argument("--workload", help="registered workload name")
    qry_src.add_argument("--trace", help="trace file (.jsonl or .npz)")
    _add_advisory_arguments(qry_p)
    qry_p.add_argument("--report", action="store_true",
                       help="print the raw FlexMalloc report instead of "
                            "the summary")

    srv_p = sub.add_parser("serve",
                           help="serve a JSONL advisory request file")
    srv_p.add_argument("--requests", required=True,
                       help="JSONL file: one AdvisoryRequest object per line")
    srv_p.add_argument("--out", default=None,
                       help="JSONL output file (default: stdout)")
    srv_p.add_argument("--workers", type=int, default=None,
                       help="worker threads (default: REPRO_SERVICE_WORKERS "
                            "or 4)")
    srv_p.add_argument("--batch-window-ms", type=float, default=None,
                       help="coalescing window in ms (default: "
                            "REPRO_SERVICE_BATCH_WINDOW_MS or 5)")
    srv_p.add_argument("--max-batch", type=int, default=None,
                       help="max requests per batch (default: "
                            "REPRO_SERVICE_MAX_BATCH or 64)")
    srv_p.add_argument("--artifact-dir", default=None,
                       help="content-addressed artifact store (default: "
                            "REPRO_ARTIFACT_DIR or off)")
    srv_p.add_argument("--report-dir", default=None,
                       help="persistent report store (default: "
                            "REPRO_SERVICE_REPORT_DIR or off)")

    wif_p = sub.add_parser("whatif",
                           help="score candidate placements in one fused "
                                "engine pass")
    wif_p.add_argument("workload", help="registered workload name")
    wif_p.add_argument("--candidates", required=True,
                       help="JSON list or JSONL of {site: subsystem} "
                            "mappings (or {label, placement} objects)")
    wif_p.add_argument("--system", default="pmem6",
                       help="memory system: pmem6, pmem2, hbm-dram-pmem")
    wif_p.add_argument("--json", action="store_true",
                       help="emit one machine-readable JSON object instead "
                            "of the ranking table")

    onl_p = sub.add_parser("online",
                           help="phase-aware online re-advisory vs the "
                                "static placement (incremental delta engine)")
    onl_p.add_argument("workload", help="registered workload name")
    onl_p.add_argument("--system", default="pmem6",
                       help="memory system: pmem6, pmem2, hbm-dram-pmem")
    onl_p.add_argument("--dram-frac", type=float, default=0.25,
                       help="DRAM budget as a fraction of the heap "
                            "high-water mark (default 0.25)")
    onl_p.add_argument("--epochs", type=int, default=8,
                       help="phase-detector epochs (default 8)")
    onl_p.add_argument("--shift-threshold", type=float, default=0.10,
                       help="total-variation shift threshold in [0,1] "
                            "(default 0.10)")
    onl_p.add_argument("--full", action="store_true",
                       help="use the full-recompute oracle path instead of "
                            "the incremental delta engine (same answers, "
                            "much slower — for validation)")
    onl_p.add_argument("--json", action="store_true",
                       help="emit one machine-readable JSON object instead "
                            "of the summary")

    cor_p = sub.add_parser("corpus", help="workload-DSL corpus tooling")
    cor_sub = cor_p.add_subparsers(dest="corpus_command", required=True)

    gen_p = cor_sub.add_parser("generate",
                               help="generate seeded corpus cells")
    exp2_p = cor_sub.add_parser("export",
                                help="export registered workloads to YAML")
    chk_p = cor_sub.add_parser("check",
                               help="round-trip + determinism integrity check")
    for p in (gen_p, chk_p):
        p.add_argument("--spec", default=None,
                       help="corpus spec YAML (default: built-in family)")
        p.add_argument("--corpus-seed", type=int, default=2026)
        p.add_argument("--cells", type=int, default=8)
        p.add_argument("--start", type=int, default=0)
    gen_p.add_argument("--out", default=None,
                       help="directory to write one YAML per cell")
    exp2_p.add_argument("workloads", nargs="*",
                        help="workload names (default: all registered)")
    exp2_p.add_argument("--out", default=None,
                        help="directory to write one YAML per workload "
                             "(default: concatenated to stdout)")
    exp2_p.add_argument("--spec", default=None,
                        help="with --show-spec: corpus spec YAML to echo")
    exp2_p.add_argument("--show-spec", action="store_true",
                        help="print the corpus spec (canonical YAML) instead "
                             "of workloads — a starting point for editing")
    chk_p.add_argument("--quiet", action="store_true")

    res_p = sub.add_parser("results",
                           help="inspect the cross-run result ledger")
    res_p.add_argument("--db", default=None,
                       help="result database directory (default: "
                            "REPRO_RESULT_DB)")
    res_p.add_argument("--experiment", default=None,
                       help="render the latest record for this experiment")
    res_p.add_argument("--label", default="default")
    res_p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "report": cmd_report,
        "experiment": cmd_experiment,
        "validate-trace": cmd_validate_trace,
        "results": cmd_results,
        "query": cmd_query,
        "serve": cmd_serve,
        "whatif": cmd_whatif,
        "online": cmd_online,
        "corpus": cmd_corpus,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
