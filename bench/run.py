"""Run the benchmark: ``python3 bench/run.py [--workload NAME ...] [options]``.

Each workload runs in a fresh child process with ``PYTHONHASHSEED=0``,
BLAS/OpenMP threads set to 1 and every ``REPRO_*`` variable cleared, so
the host environment cannot change what is measured.  The command prints
``workload metric value unit`` for every metric and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` (default) reports the end-to-end metrics; ``--trace 1``
runs a separate traced measurement and reports the per-layer metrics.
Times are counted at reference host speed (``bench/hostspeed.py``), so
that the shared host's speed steps do not read as the program's.
Every output is checked against ``bench/golden.json``; a mismatch or an
error exits 1.  ``--pin`` regenerates the golden file from the current
code; pin only from the commit whose outputs are the reference, never
from a change that claims a speed-up.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
# run as a script, this directory is sys.path[0]; the package is imported
# from the repository root instead (bench/trace.py would shadow the
# standard library's ``trace`` otherwise)
if sys.path and Path(sys.path[0] or ".").resolve() == BENCH_DIR:
    sys.path[0] = str(REPO)

WORKLOAD_NAMES = ("cold-pipeline", "paper-sweep", "serve-advisory",
                  "serve-whatif")

#: a child that has not answered in this many seconds is killed
CHILD_TIMEOUT_S = 175.0
PIN_TIMEOUT_S = 1800.0

#: environment variables that pin the numeric libraries to one thread
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({name: "1" for name in ONE_THREAD})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def run_child(args: argparse.Namespace, workload: str, pin: bool = False) -> dict:
    """One workload in a fresh isolated process; its result dict."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.golden:
        cmd += ["--golden", str(Path(args.golden).resolve())]
    if args.trace_out:
        cmd.append("--keep-spans")
    if pin:
        cmd.append("--pin")
    proc = subprocess.Popen(cmd, env=child_env(), cwd=REPO,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(
            timeout=PIN_TIMEOUT_S if pin else CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: {workload} did not finish in time")
    finally:
        # on a timeout, an interrupt or SIGTERM the child goes down with us
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(
            f"bench: {workload} child exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench: {workload} child printed no result")
    return json.loads(lines[-1])


def git_head() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def child_main(args: argparse.Namespace) -> int:
    from bench import golden, workloads

    (name,) = args.workload
    if args.pin:
        entries = workloads.WORKLOADS[name]().pin()
        print(json.dumps({"workload": name, "entries": entries}))
        return 0
    result = workloads.run_workload(
        name, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        smoke=args.smoke, keep_spans=args.keep_spans,
        golden_entries=golden.load(Path(args.golden)) if args.golden else None,
    )
    print(json.dumps(result))
    return 0


def pin_main(args: argparse.Namespace) -> int:
    from bench import golden

    entries = golden.load() if golden.GOLDEN_PATH.exists() else {}
    for name in args.workload:
        result = run_child(args, name, pin=True)
        entries = {k: v for k, v in entries.items()
                   if not _owned_by(k, name)}
        entries.update(result["entries"])
        print(f"bench: pinned {len(result['entries'])} {name} entries",
              file=sys.stderr)
    golden.write(entries)
    return 0


#: golden key prefixes each workload pins
_PREFIXES = {
    "cold-pipeline": ("cold/", "mm/"),
    "paper-sweep": ("fig6/", "tab8/"),
    "serve-advisory": ("adv/",),
    "serve-whatif": ("whatif/", "online/", "bw/"),
}


def _owned_by(key: str, workload: str) -> bool:
    return key.startswith(_PREFIXES[workload])


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: order, mix and arrival times")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--trace-out", help="write the recorded spans here")
    parser.add_argument("--json", help="write the full results here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the tests")
    parser.add_argument("--golden", help="golden file to check against")
    parser.add_argument("--pin", action="store_true",
                        help="regenerate bench/golden.json from this code")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--keep-spans", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.workload = args.workload or list(WORKLOAD_NAMES)

    if args.child:
        return child_main(args)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (REPO / "src" / "repro").is_dir():
        print(f"bench: no program sources under {REPO / 'src'}",
              file=sys.stderr)
        return 2
    if args.pin:
        return pin_main(args)

    results = {name: run_child(args, name) for name in args.workload}
    single = len(results) == 1
    metrics = {}
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']!r} {m['unit']}")
            metrics[metric if single else f"{name}.{metric}"] = m
        info = result["info"]
        if "sim_speedup_geomean" in info:
            print(f"{name} sim_speedup_geomean "
                  f"{info['sim_speedup_geomean']!r} x (informational)")
        for key in info["golden_mismatch_keys"]:
            print(f"{name} golden mismatch: {key}", file=sys.stderr)
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps(
            {name: r["spans"] for name, r in results.items()}))
    if args.json:
        Path(args.json).write_text(json.dumps({
            "git_head": git_head(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "workloads": {name: {k: v for k, v in r.items() if k != "spans"}
                          for name, r in results.items()},
        }, indent=2))
    print(json.dumps(summary))
    return 0 if summary["correct"] and summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
