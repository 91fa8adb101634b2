"""API-contract tests: the public surface and the error hierarchy."""

import inspect

import pytest

import repro
from repro.errors import (
    AddressError, AllocationError, CapacityError, ConfigError, MatchError,
    PlacementError, ReproError, SimulationError, TraceError, WorkloadError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        AddressError, AllocationError, CapacityError, ConfigError,
        MatchError, PlacementError, SimulationError, TraceError,
        WorkloadError,
    ])
    def test_single_base(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_catch_all(self):
        """A single except clause covers every library failure."""
        from repro.units import parse_size
        from repro.memsim.latency import LoadedLatencyCurve
        with pytest.raises(ReproError):
            LoadedLatencyCurve("x", idle_ns=-1, peak_bw=1, scale_ns=1, shape=1)


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_symbols(self):
        # the README's quickstart imports must exist
        from repro import (  # noqa: F401
            GiB, get_workload, pmem6_system, run_ecohmem, run_memory_mode,
        )

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_every_export_imports_by_name(self):
        """``from repro import <name>`` works for every lazy export, and
        gives the object its home module defines."""
        import importlib
        for name in repro.__all__:
            namespace = {}
            exec(f"from repro import {name}", namespace)
            if name != "__version__":
                home = importlib.import_module(repro._EXPORTS[name])
                assert namespace[name] is getattr(home, name), name
        with pytest.raises(ImportError):
            exec("from repro import no_such_export", {})

    def test_import_does_not_load_the_experiments(self):
        """The top-level exports are lazy: ``import repro`` alone loads
        no subpackage, so the CLI and tools start fast."""
        import os
        import subprocess
        import sys
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import sys, repro; "
                "print(sorted(m for m in sys.modules if m.startswith('repro')))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "['repro']"

    def test_workload_registry_complete(self):
        assert set(repro.list_workloads()) >= {
            "minife", "minimd", "lulesh", "hpcg", "cloverleaf3d",
            "lammps", "openfoam",
        }

    def test_public_callables_documented(self):
        """Every public callable in the top-level API has a docstring."""
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not isinstance(obj, type(repro.GiB)):
                assert inspect.getdoc(obj), f"{name} lacks a docstring"

    def test_subpackage_modules_documented(self):
        import importlib
        import pkgutil
        import repro as pkg
        undocumented = []
        for mod in pkgutil.walk_packages(pkg.__path__, prefix="repro."):
            module = importlib.import_module(mod.name)
            if not module.__doc__:
                undocumented.append(mod.name)
        assert not undocumented, f"modules without docstrings: {undocumented}"
