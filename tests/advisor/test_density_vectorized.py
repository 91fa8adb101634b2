"""Exactness of the vectorized density ranking against the scalar oracle.

The vectorized path (stacked feature arrays + one ``np.lexsort`` per
knapsack) must reproduce the retained per-object Python path bit for bit:
same assignments, same insertion order, same report text.  The grid spans
every registered workload, three memory systems, several DRAM limits, and
the loads-only policy.
"""

import pytest

from repro.advisor import (
    AdvisorConfig,
    HMemAdvisor,
    KnapsackItem,
    density_batch,
    density_placement,
    density_placement_scalar,
    greedy_knapsack,
    greedy_knapsack_scalar,
)
from repro.advisor.config import config_for_system
from repro.apps import get_workload, list_workloads
from repro.binary.callstack import StackFormat
from repro.experiments import profile_workload
from repro.memsim.subsystem import (
    hbm_dram_pmem_system,
    pmem2_system,
    pmem6_system,
)
from repro.units import GiB, MiB


SYSTEMS = {
    "pmem6": pmem6_system,
    "pmem2": pmem2_system,
    "hbm": hbm_dram_pmem_system,
}
DRAM_LIMITS = [2 * GiB, 8 * GiB, 14 * GiB]


@pytest.fixture(scope="module")
def workload_objects():
    """One profile per registered workload, converted to MemObjects."""
    objects = {}
    for name in list_workloads():
        wl = get_workload(name)
        profiles = profile_workload(wl, seed=11, stack_format=StackFormat.BOM,
                                    profile_store=None)
        objects[name] = (wl, HMemAdvisor.objects_from_profiles(profiles))
    return objects


def assert_same_placement(fast, oracle):
    assert fast.subsystems == oracle.subsystems
    assert fast.fallback == oracle.fallback
    # items() order is the assignment insertion order — part of the
    # contract because it fixes the emitted report's row order
    assert list(fast.items()) == list(oracle.items())


class TestWorkloadGrid:
    @pytest.mark.parametrize("sysname", sorted(SYSTEMS))
    def test_every_workload_every_limit(self, workload_objects, sysname):
        system = SYSTEMS[sysname]()
        for name, (wl, objects) in workload_objects.items():
            for limit in DRAM_LIMITS:
                cfg = config_for_system(system, limit, ranks=wl.ranks)
                fast = density_placement(objects, system, cfg)
                oracle = density_placement_scalar(objects, system, cfg)
                assert_same_placement(fast, oracle)

    def test_loads_only_policy(self, workload_objects):
        system = pmem6_system()
        for name, (wl, objects) in workload_objects.items():
            cfg = config_for_system(system, 8 * GiB, ranks=wl.ranks).loads_only()
            assert_same_placement(
                density_placement(objects, system, cfg),
                density_placement_scalar(objects, system, cfg),
            )

    def test_facade_scalar_matches(self, workload_objects):
        wl, objects = workload_objects["minife"]
        system = pmem6_system()
        cfg = config_for_system(system, 8 * GiB, ranks=wl.ranks)
        advisor = HMemAdvisor(system, cfg)
        assert_same_placement(
            advisor.advise_density(objects),
            advisor.advise_density_scalar(objects),
        )

    def test_report_text_identical(self, workload_objects):
        wl, objects = workload_objects["lulesh"]
        system = pmem6_system()
        cfg = config_for_system(system, 4 * GiB, ranks=wl.ranks)
        advisor = HMemAdvisor(system, cfg)
        fast = advisor.to_report(advisor.advise_density(objects), StackFormat.BOM)
        oracle = advisor.to_report(
            advisor.advise_density_scalar(objects), StackFormat.BOM)
        assert fast.dumps() == oracle.dumps()


class TestBatch:
    def test_batch_matches_sequential(self, workload_objects):
        wl, objects = workload_objects["minife"]
        queries = []
        for sysname, mk in sorted(SYSTEMS.items()):
            system = mk()
            for limit in DRAM_LIMITS:
                cfg = config_for_system(system, limit, ranks=wl.ranks)
                queries.append((system, cfg))
        batch = density_batch(objects, queries)
        assert len(batch) == len(queries)
        for (system, cfg), placement in zip(queries, batch):
            assert_same_placement(
                placement, density_placement_scalar(objects, system, cfg))

    def test_empty_batch(self, workload_objects):
        _, objects = workload_objects["minife"]
        assert density_batch(objects, []) == []


class TestKnapsackTies:
    def test_density_ties_break_toward_value_then_position(self):
        # equal densities, distinct values; then a full three-way tie
        items = [
            KnapsackItem(key="a", value=10.0, weight=10),
            KnapsackItem(key="b", value=20.0, weight=20),
            KnapsackItem(key="c", value=10.0, weight=10),
            KnapsackItem(key="d", value=0.0, weight=5),
        ]
        for cap in (0, 10, 25, 45, 100):
            fast = greedy_knapsack(items, cap)
            oracle = greedy_knapsack_scalar(items, cap)
            assert fast == oracle

    def test_negative_zero_value_never_taken(self):
        # -0.0 survives the max() clamp in the scalar path; the predicate
        # `value > 0` must agree on it in both implementations
        items = [KnapsackItem(key="z", value=-0.0, weight=1),
                 KnapsackItem(key="p", value=1.0, weight=1)]
        fast = greedy_knapsack(items, 10)
        oracle = greedy_knapsack_scalar(items, 10)
        assert fast == oracle
        assert [i.key for i in fast[0]] == ["p"]
