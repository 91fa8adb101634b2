"""Section selection in tools/perf_bench.py must reject typos loudly.

A typo'd ``--section`` that silently benches nothing is how performance
floors rot: CI would keep passing while the guarded section never runs.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import perf_bench  # noqa: E402


def test_online_section_is_registered():
    assert "online" in perf_bench.SECTIONS
    assert "whatif" in perf_bench.SECTIONS


def test_baselines_section_is_registered():
    assert "baselines" in perf_bench.SECTIONS


def test_unknown_section_exits_loudly(capsys):
    with pytest.raises(SystemExit) as exc:
        perf_bench.main(["--quick", "--section", "onlin"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "onlin" in err


def test_unknown_section_among_known_still_exits(capsys):
    with pytest.raises(SystemExit):
        perf_bench.main(["--quick", "--section", "kernel",
                         "--section", "not-a-section"])
    assert "not-a-section" in capsys.readouterr().err


def test_profiling_section_times_the_direct_profile(tmp_path):
    """The profiling section checks ``ExtraeTracer.profile`` against
    ``run`` + ``analyze`` at the production 100 Hz (it asserts
    identical profiles) and reports both times, which the full-mode
    floor reads; it also reports every registered app's cold
    ``profile()`` time."""
    out = tmp_path / "bench.json"
    assert perf_bench.main(
        ["--quick", "--section", "profiling", "-o", str(out)]) == 0
    prof = json.loads(out.read_text())["profiling"]
    direct = prof["direct"]
    assert direct["pebs_hz"] == 100.0
    assert direct["run_analyze_s"] > 0 and direct["profile_s"] > 0
    assert direct["speedup"] > 0
    cold = prof["cold_profile_s"]
    assert set(cold) == set(perf_bench.list_workloads()) | {"total"}
    assert all(t > 0 for t in cold.values())


def test_plan_section_times_cold_and_warm_builds(tmp_path):
    """The plan section builds a LULESH engine from an empty registry and
    from a warm one (it asserts both run bit-identical) and records both
    construction times."""
    assert "plan" in perf_bench.SECTIONS
    out = tmp_path / "bench.json"
    assert perf_bench.main(
        ["--quick", "--section", "plan", "-o", str(out)]) == 0
    plan = json.loads(out.read_text())["plan"]
    assert plan["workload"] == "lulesh"
    assert plan["plan_cold_s"] > 0 and plan["plan_warm_s"] > 0
