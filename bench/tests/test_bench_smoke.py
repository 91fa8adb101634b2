"""End to end through ``bench/run.py``: smoke runs, the golden gate, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from bench import golden
from bench.workloads import END_TO_END_UNITS, TIME_LAYERS, WORKLOADS

RUN = Path(__file__).resolve().parents[1] / "run.py"


def _run(*args, timeout=170):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seconds", "1", *args],
        capture_output=True, text=True, timeout=timeout)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc, last


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_is_correct(workload):
    proc, last = _run("--workload", workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END_UNITS[name]
        assert metric["value"] > 0
    lines = proc.stdout.splitlines()[:-1]
    assert {line.split()[1] for line in lines
            if line.startswith(workload)} >= set(END_TO_END_UNITS)


def test_traced_smoke_run_reports_layers(tmp_path):
    spans = tmp_path / "spans.json"
    proc, last = _run("--workload", "serve-advisory", "--trace", "1",
                      "--trace-out", str(spans))
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(last)["metrics"]
    assert set(TIME_LAYERS) <= set(metrics)
    # the advisory workload never reaches the engine or the profiler
    for name in ("engine.build_s", "engine.run_s", "engine.predict_s",
                 "engine.incremental_s", "profiling.trace_s"):
        assert metrics[name]["value"] == 0.0
    assert metrics["advisor.density_s"]["value"] > 0
    assert metrics["advisor.queries"]["value"] > 0
    assert metrics["profiling.cache_hit_ratio"]["value"] == 1.0
    recorded = json.loads(spans.read_text())["serve-advisory"]
    assert recorded and {"name", "layer", "self_s"} <= set(recorded[0])


def test_tampered_golden_fails_the_run(tmp_path):
    entries = golden.load()
    tampered = {k: (v if not k.startswith("cold/minife/") else ["x", 0.0])
                for k, v in entries.items()}
    path = tmp_path / "golden.json"
    golden.write(tampered, path)
    proc, last = _run("--workload", "cold-pipeline", "--golden", str(path))
    assert proc.returncode == 1
    result = json.loads(last)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert "golden mismatch: cold/minife/" in proc.stderr


def test_missing_program_sources_exit_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in RUN.parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "cold-pipeline"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
