"""Shared fixtures: small synthetic workloads and systems for fast tests."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps.workload import AccessStats, AllocationSite, ObjectSpec, Phase, Workload
from repro.memsim.subsystem import pmem6_system
from repro.units import MiB


def make_site(name: str, image: str = "toy.x", depth: int = 2) -> AllocationSite:
    return AllocationSite(
        name=name, image=image,
        stack=tuple(f"{name}_frame{i}" for i in range(depth)),
    )


def make_toy_workload(
    *,
    ranks: int = 2,
    hot_rate: float = 2_000_000.0,
    cold_rate: float = 50_000.0,
    store_rate: float = 300_000.0,
    iterations: int = 5,
) -> Workload:
    """Three-object workload: a hot array, a cold array, a temp site.

    Small enough that the full pipeline runs in milliseconds, rich enough
    (repeated allocations, stores, two phases) to exercise every stage.
    """
    hot = ObjectSpec(
        site=make_site("toy::hot"),
        size=8 * MiB,
        access={
            "compute": AccessStats(load_rate=hot_rate, store_rate=store_rate,
                                   accessor="hot_kernel"),
        },
    )
    cold = ObjectSpec(
        site=make_site("toy::cold"),
        size=64 * MiB,
        access={
            "compute": AccessStats(load_rate=cold_rate, accessor="cold_kernel"),
        },
    )
    temp = ObjectSpec(
        site=make_site("toy::temp"),
        size=4 * MiB,
        alloc_count=iterations,
        first_alloc=1.0,
        lifetime=0.5,
        period=1.0,
        access={
            "compute": AccessStats(load_rate=hot_rate / 4,
                                   store_rate=store_rate * 2,
                                   accessor="temp_kernel"),
        },
    )
    return Workload(
        name="toy",
        phases=[Phase("compute", compute_time=1.0, repeat=iterations)],
        objects=[hot, cold, temp],
        ranks=ranks,
        mlp=4.0,
        locality=0.8,
        conflict_pressure=0.3,
    )


def with_serial_fraction(workload: Workload, fraction: float) -> Workload:
    """``workload`` with its first object's ``serial_fraction`` set."""
    first, *rest = workload.objects
    return workload.replace(
        objects=(replace(first, serial_fraction=fraction), *rest))


@pytest.fixture
def toy_workload() -> Workload:
    return make_toy_workload()


@pytest.fixture
def system6():
    return pmem6_system()
