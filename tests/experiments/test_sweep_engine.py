"""The sweep scheduler (repro.experiments.sweep.scheduler).

The headline guarantee under dynamic dispatch: a scheduled sweep is
*bit-identical* to the serial oracle ``[fn(s) for s in specs]`` — same
functions, same inputs, results reassembled in spec order — across
jobs ∈ {1, 2, all}, with worker exceptions propagating and dead workers
retried in a fresh pool.  Parallel workers share profiles through the
artifact store.
"""

import os
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ConfigError
from repro.experiments.fig6_sweep import _cell_group_task, compute_fig6
from repro.experiments.sweep import (
    SweepManifest,
    SweepWorkerDied,
    run_scheduled,
    scheduler,
)
from repro.experiments.tab8_full_apps import (
    DRAM_LIMITS,
    _tab8_baseline_task,
    _tab8_group_task,
    compute_tab8,
)


def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


def _die_unless_marked(spec):
    """Worker suicide until a marker file exists (simulated OOM kill)."""
    index, marker = spec
    if os.path.exists(marker):
        return index * 10
    with open(marker, "w") as fh:
        fh.write("attempted\n")
    os._exit(1)


def _always_die(spec):
    os._exit(1)


class TestSyntheticIdentity:
    @pytest.mark.parametrize("jobs", [1, 2, 0])
    def test_matches_serial_oracle(self, jobs):
        oracle = [_square(x) for x in range(12)]
        assert run_scheduled(_square, range(12), jobs=jobs) == oracle

    def test_empty_specs(self):
        assert run_scheduled(_square, [], jobs=4) == []

    def test_exception_propagates_serial_and_parallel(self):
        with pytest.raises(ValueError):
            run_scheduled(_raise_on_three, range(5), jobs=1)
        with pytest.raises(ValueError):
            run_scheduled(_raise_on_three, range(5), jobs=2)

    def test_progress_sees_every_cell(self):
        seen = []
        run_scheduled(_square, range(6), jobs=1,
                      progress=lambda p: seen.append((p.index, p.status)))
        assert sorted(i for i, _ in seen) == list(range(6))
        assert {s for _, s in seen} == {"ok"}
        assert all(p in range(6) for p, _ in seen)


class TestExperimentIdentity:
    """The acceptance grid: real experiment cells, every dispatch mode."""

    @pytest.fixture(scope="class")
    def fig6_oracle(self):
        kwargs = dict(apps=["minife"], pmem_configs=(6,),
                      dram_limits_gb=[12], include_baseline_rows=False)
        return kwargs, compute_fig6(jobs=1, **kwargs)

    @pytest.mark.parametrize("jobs", [2, 0])
    def test_fig6_scheduled_bit_identical(self, fig6_oracle, jobs):
        kwargs, serial = fig6_oracle
        scheduled = compute_fig6(jobs=jobs, **kwargs)
        assert scheduled.cells == serial.cells  # full float precision

    @pytest.fixture(scope="class")
    def tab8_specs(self):
        base = _tab8_baseline_task("openfoam")
        return [("openfoam", (("density", 11),), 11, base),
                ("openfoam", (("bw-aware", 11),), 11, base)]

    @pytest.mark.parametrize("jobs", [1, 2, 0])
    def test_tab8_scheduled_bit_identical(self, tab8_specs, jobs):
        oracle = [_tab8_group_task(spec) for spec in tab8_specs]
        assert run_scheduled(_tab8_group_task, tab8_specs, jobs=jobs) == oracle

    def test_fig6_cell_scheduled_equals_run_sweep(self):
        specs = [("minife", 6, (12,), ("loads",), 11, 100.0),
                 ("minife", 6, (12,), ("loads+stores",), 11, 100.0)]
        assert run_scheduled(_cell_group_task, specs, jobs=2) == \
            [_cell_group_task(spec) for spec in specs]


class TestArtifactSharing:
    def test_tab8_parallel_shares_profile_artifacts(self, tmp_path,
                                                    monkeypatch):
        """``jobs=2`` under ``REPRO_ARTIFACT_DIR`` equals ``jobs=1`` and
        leaves exactly one profile artifact per app."""
        from repro.apps import get_workload
        from repro.binary.callstack import StackFormat
        from repro.pipeline import artifact_key, reset_default_artifact_store
        from repro.profiling.cache import ProfileKey, reset_default_store

        for var in ("REPRO_ARTIFACT_DIR", "REPRO_SWEEP_MANIFEST",
                    "REPRO_RESULT_DB"):
            monkeypatch.delenv(var, raising=False)
        reset_default_store()
        serial = compute_tab8(jobs=1)
        root = tmp_path / "artifacts"
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(root))
        # workers fork from here: an empty memory LRU makes every profile
        # go through the artifact layer
        reset_default_store()
        reset_default_artifact_store()
        try:
            parallel = compute_tab8(jobs=2)
        finally:
            reset_default_artifact_store()
            reset_default_store()
        assert parallel == serial
        expected = {
            artifact_key("profile", ProfileKey.for_workload(
                get_workload(app), seed=11, stack_format=StackFormat.BOM,
                pebs_hz=100.0, profile_ranks=1, rank_jitter=0.0))
            for app in DRAM_LIMITS
        }
        published = {p.parent.name for p in root.glob("*/*/payload.json")}
        assert published == expected


class TestWorkerDeath:
    def test_dead_worker_retried_in_fresh_pool(self, tmp_path):
        """A cell whose worker dies once is retried and completes."""
        specs = [(i, str(tmp_path / f"marker-{i}")) for i in range(3)]
        # jobs=2 with 3 cells: at least one worker dies mid-queue.  Every
        # round marks at least one new cell, so 3 retries always suffice
        # regardless of which subset a broken pool managed to finish.
        result = run_scheduled(_die_unless_marked, specs, jobs=2, retries=3)
        assert result == [0, 10, 20]

    def test_worker_dies_while_cells_are_submitted(self, tmp_path,
                                                   monkeypatch):
        """A pool that breaks before every cell is submitted: the cell
        whose submission finds the pool broken, and every cell after it,
        are retried in a fresh pool like the ones already submitted."""
        broke = []

        class BreaksDuringSubmission(ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                if not broke:
                    # the first pool's first cell kills its worker before
                    # the next cell is submitted
                    broke.append(True)
                    wait([future])
                    assert isinstance(future.exception(), BrokenProcessPool)
                return future

        monkeypatch.setattr(scheduler, "ProcessPoolExecutor",
                            BreaksDuringSubmission)
        specs = [(i, str(tmp_path / f"marker-{i}")) for i in range(3)]
        result = run_scheduled(_die_unless_marked, specs, jobs=2, retries=3)
        assert result == [0, 10, 20]
        assert broke

    def test_retry_budget_exhausted_raises(self, tmp_path):
        manifest = SweepManifest(tmp_path / "manifest.jsonl")
        with pytest.raises(SweepWorkerDied):
            run_scheduled(_always_die, [1, 2], jobs=2, retries=1,
                          experiment="death-test", manifest=manifest)
        # the failure is journaled, not recorded as reusable
        assert manifest.completed() == {}
        failed = [e for e in manifest.entries().values()
                  if e["status"] == "failed"]
        assert failed and all("worker process died" in e["error"]
                              for e in failed)

    def test_unserializable_result_fails_loudly_with_manifest(self, tmp_path):
        manifest = SweepManifest(tmp_path / "manifest.jsonl")
        with pytest.raises(ConfigError):
            run_scheduled(_make_unserializable, [1], jobs=1,
                          experiment="codec-test", manifest=manifest)


def _make_unserializable(spec):
    return object()
