"""Parallel sweeps: worker-count resolution and the sweep runner.

The headline guarantee: a sweep dispatched over worker processes by
:func:`repro.experiments.sweep.run_scheduled` is *bit-identical* to the
serial loop ``[fn(s) for s in specs]`` — same functions, same inputs,
results reassembled in spec order.  Verified on a synthetic task and on
a reduced Figure 6 sweep end to end.
"""

import pytest

from repro.experiments.fig6_sweep import compute_fig6
from repro.experiments.parallel import (
    JOBS_ENV,
    add_jobs_argument,
    resolve_jobs,
)
from repro.experiments.sweep import run_scheduled


def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs() == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "4")
        assert resolve_jobs() == 4

    def test_zero_means_all_cores(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(0) >= 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_garbage_env_message_names_the_knob(self, monkeypatch):
        """The error must say which variable is bad and what it accepts."""
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ValueError) as exc:
            resolve_jobs()
        message = str(exc.value)
        assert JOBS_ENV in message
        assert "'many'" in message
        assert "integer" in message
        assert "all cores" in message


class TestAddJobsArgument:
    """One shared --jobs definition for every sweep entry point."""

    def _parser(self):
        import argparse
        parser = argparse.ArgumentParser()
        add_jobs_argument(parser)
        return parser

    def test_default_defers_to_resolve_jobs(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "6")
        args = self._parser().parse_args([])
        assert args.jobs is None          # CLI default never masks the env
        assert resolve_jobs(args.jobs) == 6

    def test_explicit_value_parsed_as_int(self):
        assert self._parser().parse_args(["--jobs", "3"]).jobs == 3
        assert self._parser().parse_args(["--jobs", "0"]).jobs == 0

    def test_help_mentions_env_and_all_cores(self):
        parser = self._parser()
        help_text = " ".join(parser.format_help().split())  # unwrap
        assert JOBS_ENV in help_text
        assert "all cores" in help_text


class TestRunSweep:
    def test_serial_matches_map(self):
        assert run_scheduled(_square, range(10), jobs=1) == \
            [_square(x) for x in range(10)]

    def test_parallel_preserves_order(self):
        assert run_scheduled(_square, range(20), jobs=4) == \
            [_square(x) for x in range(20)]

    def test_empty_specs(self):
        assert run_scheduled(_square, [], jobs=4) == []

    def test_single_spec_skips_pool(self):
        assert run_scheduled(_square, [6], jobs=8) == [36]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError):
            run_scheduled(_raise_on_three, range(5), jobs=2)
        with pytest.raises(ValueError):
            run_scheduled(_raise_on_three, range(5), jobs=1)


class TestFig6Parallel:
    def test_parallel_fig6_bit_identical_to_serial(self):
        """The acceptance check: jobs=2 reproduces the serial sweep exactly."""
        kwargs = dict(apps=["minife"], pmem_configs=(6,),
                      dram_limits_gb=[8, 12], include_baseline_rows=True)
        serial = compute_fig6(jobs=1, **kwargs)
        parallel = compute_fig6(jobs=2, **kwargs)
        assert parallel.cells == serial.cells  # full float precision
        assert parallel.tiering == serial.tiering
        assert parallel.profdp == serial.profdp
        assert parallel.profdp_variant == serial.profdp_variant

    def test_lookup_on_parallel_result(self):
        result = compute_fig6(apps=["minife"], pmem_configs=(6,),
                              dram_limits_gb=[12],
                              include_baseline_rows=False, jobs=2)
        assert result.lookup("minife", 6, 12, "loads") > 0
        with pytest.raises(KeyError):
            result.lookup("minife", 6, 4, "loads")
