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
    ``profile()`` time and LULESH's cold ``run_ecohmem`` time per
    algorithm."""
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
    onboard = prof["onboard_s"]
    assert onboard["workload"] == "lulesh"
    assert onboard["density"] > 0 and onboard["bw-aware"] > 0


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


def test_section_run_records_its_own_mode(tmp_path):
    """A ``--section`` run merged over a file from another mode stamps
    ``"quick"`` on the sections it ran, and the top-level ``"quick"``
    reads ``"mixed"`` instead of the subset run's mode."""
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({
        "quick": False,
        "kernel": {"speedup": 18.0, "quick": False},
        "plan": {"speedup": 3.0},
    }))
    assert perf_bench.main(
        ["--quick", "--section", "plan", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["plan"]["quick"] is True
    assert data["kernel"] == {"speedup": 18.0, "quick": False}
    assert data["quick"] == "mixed"

    # once every section in the file ran in one mode, that mode is the
    # file's; a section without a record of its own counts as unknown
    assert perf_bench._file_mode({"quick": "mixed", "kernel": {"quick": True},
                                  "plan": {"quick": True}}) is True
    assert perf_bench._file_mode({"kernel": {"quick": False}}) is False
    assert perf_bench._file_mode({"kernel": {"quick": True},
                                  "plan": {}}) == "mixed"
