"""Differential suite: the batched replay against its scalar oracle.

``replay_allocations`` must reproduce ``replay_allocations_scalar`` bit
for bit — placements in the same insertion order, every interposer,
matcher, resolver and heap statistic equal, floats compared with ``==`` —
across workloads, memory systems, report formats, and capacity-squeezed
configurations that force fragmentation and fallback.  The building
blocks (vectorized first-fit, matcher memoization, edge tie order) each get
their own exactness test so a regression points at the layer that broke.
"""

import random

import pytest

from repro.alloc import (
    BOMMatcher,
    FlexMalloc,
    FreeListHeap,
    HeapRegistry,
    HumanReadableMatcher,
    build_heaps,
)
from repro.alloc.report import PlacementEntry, PlacementReport
from repro.apps.registry import get_workload
from repro.apps.sites import SiteRegistry
from repro.apps.workload import AccessStats, ObjectSpec, Phase, Workload
from repro.binary.callstack import StackFormat
from repro.errors import AllocationError, SimulationError
from repro.memsim.subsystem import (
    hbm_dram_pmem_system,
    pmem2_system,
    pmem6_system,
)
from repro.runtime.replay import (
    replay_allocations,
    replay_allocations_scalar,
    replay_results_identical,
)
from repro.units import GiB, MiB

from tests.conftest import make_site, make_toy_workload


def checkerboard_report(workload, profiling, fmt, names):
    """Cycle the workload's sites over the system's tiers."""
    report = PlacementReport(fmt)
    for i, obj in enumerate(workload.objects):
        report.add(
            PlacementEntry(
                site=profiling.site_key(obj.site, fmt),
                subsystem=names[i % len(names)],
            )
        )
    return report


def build_side(registry, report, system_factory, fmt, dram_limit, *, memoize):
    """One fresh production environment (process + heaps + matcher)."""
    production = registry.make_process(rank=0, aslr_seed=777)
    heaps = build_heaps(system_factory(), dram_limit=dram_limit)
    if fmt is StackFormat.BOM:
        matcher = BOMMatcher(report, production.space, memoize=memoize)
    else:
        matcher = HumanReadableMatcher(report, production.space, memoize=memoize)
    return production, FlexMalloc(heaps, matcher, fallback=report.fallback)


def assert_replays_identical(workload, system_factory, fmt, dram_limit):
    """Fast replay vs the scalar oracle on fresh sides; demand [] diffs.

    The oracle side runs with ``memoize=False`` matchers and
    ``replay_allocations_scalar`` (scalar heap scans, address-probe
    subsystem lookup), so the entire reference stack is exercised.
    """
    registry = SiteRegistry(workload)
    profiling = registry.make_process(rank=0, aslr_seed=500)
    names = system_factory().names
    report = checkerboard_report(workload, profiling, fmt, names)

    proc_f, flex_f = build_side(
        registry, report, system_factory, fmt, dram_limit, memoize=True
    )
    proc_s, flex_s = build_side(
        registry, report, system_factory, fmt, dram_limit, memoize=False
    )
    fast = replay_allocations(workload, proc_f, flex_f)
    scalar = replay_allocations_scalar(workload, proc_s, flex_s)
    assert replay_results_identical(fast, scalar) == []


def squeezed(workload):
    """A DRAM budget well under the footprint: fallback + fragmentation."""
    return max(workload.heap_high_water() // 4, 1 * MiB)


class TestToyGrid:
    @pytest.mark.parametrize("system_factory", [
        pmem6_system, pmem2_system, hbm_dram_pmem_system,
    ])
    @pytest.mark.parametrize("fmt", [StackFormat.BOM, StackFormat.HUMAN])
    def test_generous_dram(self, system_factory, fmt):
        assert_replays_identical(
            make_toy_workload(), system_factory, fmt, 1 * GiB
        )

    @pytest.mark.parametrize("system_factory", [
        pmem6_system, pmem2_system, hbm_dram_pmem_system,
    ])
    @pytest.mark.parametrize("fmt", [StackFormat.BOM, StackFormat.HUMAN])
    def test_squeezed_dram(self, system_factory, fmt):
        wl = make_toy_workload()
        assert_replays_identical(wl, system_factory, fmt, squeezed(wl))


class TestAppGrid:
    @pytest.mark.parametrize("fmt", [StackFormat.BOM, StackFormat.HUMAN])
    def test_minife(self, fmt):
        wl = get_workload("minife")
        assert_replays_identical(wl, pmem6_system, fmt, squeezed(wl))

    def test_minife_three_tier(self):
        wl = get_workload("minife")
        assert_replays_identical(
            wl, hbm_dram_pmem_system, StackFormat.BOM, squeezed(wl)
        )

    def test_lulesh_squeezed(self):
        """2634 instances with a DRAM budget forcing capacity fallback:
        the perf-bench configuration, held to bit-identity here."""
        wl = get_workload("lulesh")
        assert_replays_identical(wl, pmem6_system, StackFormat.BOM, squeezed(wl))

    def test_lulesh_three_tier_human(self):
        wl = get_workload("lulesh")
        assert_replays_identical(
            wl, hbm_dram_pmem_system, StackFormat.HUMAN, squeezed(wl)
        )

    def test_openfoam_pmem2(self):
        wl = get_workload("openfoam")
        assert_replays_identical(wl, pmem2_system, StackFormat.BOM, squeezed(wl))

    def test_openfoam_human(self):
        wl = get_workload("openfoam")
        assert_replays_identical(wl, pmem6_system, StackFormat.HUMAN, squeezed(wl))


class TestEdgeTieOrder:
    def test_end_equals_start_frees_first(self):
        """lifetime == period makes instance *i*'s end coincide with
        instance *i+1*'s start; both paths must free before allocating so
        a DRAM budget fitting exactly one instance suffices."""
        spec = ObjectSpec(
            site=make_site("tie::obj"),
            size=8 * MiB,
            alloc_count=4,
            first_alloc=0.5,
            lifetime=1.0,
            period=1.0,
            access={"compute": AccessStats(load_rate=1e6, accessor="k")},
        )
        wl = Workload(
            name="tie",
            phases=[Phase("compute", compute_time=1.0, repeat=5)],
            objects=[spec],
            ranks=1,
            mlp=4.0,
            locality=0.8,
            conflict_pressure=0.3,
        )
        assert_replays_identical(wl, pmem6_system, StackFormat.BOM, 8 * MiB)

        registry = SiteRegistry(wl)
        profiling = registry.make_process(rank=0, aslr_seed=500)
        report = checkerboard_report(
            wl, profiling, StackFormat.BOM, ["dram"]
        )
        proc, flex = build_side(
            registry, report, pmem6_system, StackFormat.BOM, 8 * MiB,
            memoize=True,
        )
        result = replay_allocations(wl, proc, flex)
        assert set(result.instance_placement.values()) == {"dram"}


def prefragment(heap, holes):
    """Pin ``holes`` 16 B holes at the heap's base (the perf-bench setup)."""
    blocks = [heap.allocate(16) for _ in range(2 * holes)]
    for alloc in blocks[::2]:
        heap.free(alloc.address)


def replay_both(workload, report, make_heaps, *, fmt=StackFormat.BOM):
    """Fast replay and scalar oracle on fresh, equal sides."""
    registry = SiteRegistry(workload)
    sides = []
    for memoize in (True, False):
        production = registry.make_process(rank=0, aslr_seed=777)
        if fmt is StackFormat.BOM:
            matcher = BOMMatcher(report, production.space, memoize=memoize)
        else:
            matcher = HumanReadableMatcher(report, production.space,
                                           memoize=memoize)
        sides.append((production, FlexMalloc(make_heaps(), matcher,
                                             fallback=report.fallback)))
    (proc_f, flex_f), (proc_s, flex_s) = sides
    fast = replay_allocations(workload, proc_f, flex_f)
    scalar = replay_allocations_scalar(workload, proc_s, flex_s)
    assert replay_results_identical(fast, scalar) == []
    return fast, scalar


def report_for(workload, placement, fmt=StackFormat.BOM):
    """A report sending each named site to its subsystem."""
    profiling = SiteRegistry(workload).make_process(rank=0, aslr_seed=500)
    report = PlacementReport(fmt)
    for obj in workload.objects:
        if obj.site.name in placement:
            report.add(PlacementEntry(
                site=profiling.site_key(obj.site, fmt),
                subsystem=placement[obj.site.name]))
    return report


class TestWalkGuard:
    """Which heaps the replay walks, and that the answer never moves."""

    @pytest.mark.parametrize("system_factory, walked", [
        (pmem2_system, ("pmem",)),
        (pmem6_system, ()),
    ])
    def test_lulesh_fallback_heap(self, system_factory, walked):
        """All of LULESH in the fallback heap: 1 537 GiB of cumulative
        demand exceeds PMem-2's 1 TiB heap but not PMem-6's 3 TiB."""
        wl = get_workload("lulesh")
        fast, _ = replay_both(
            wl, PlacementReport(StackFormat.BOM),
            lambda: build_heaps(system_factory(), dram_limit=12 * GiB))
        assert fast.walked == walked
        assert fast.flexmalloc.heaps.get("pmem").stats.allocations == len(
            wl.instances())

    def test_heap_that_can_fill_but_never_does(self):
        """Four sequential 8 MiB temps in a 9 MiB DRAM heap: their 32 MiB
        of demand fails the guard, yet first-fit reuses the space, so the
        walk spills nothing and matches the oracle."""
        wl = make_toy_workload()
        fast, scalar = replay_both(
            wl, report_for(wl, {"toy::temp": "dram"}),
            lambda: build_heaps(pmem6_system(), dram_limit=9 * MiB))
        assert fast.walked == ("dram",)
        assert fast.flexmalloc.stats.fallback_capacity == 0
        assert {v for (s, _), v in fast.instance_placement.items()
                if s == "toy::temp"} == {"dram"}

    def test_prefragmented_heaps(self):
        """The perf-bench setup: both heaps start with hundreds of pinned
        holes.  The squeezed DRAM heap is walked; the fallback heap is
        accounted in bulk and its fragmented free list ends unchanged."""
        wl = get_workload("minife")
        dram_limit = squeezed(wl)

        def make_heaps():
            heaps = build_heaps(pmem6_system(), dram_limit=dram_limit)
            for heap in heaps:
                prefragment(heap, 512)
            return heaps

        report = report_for(
            wl, {o.site.name: "dram" for o in wl.objects[::2]})
        fast, _ = replay_both(wl, report, make_heaps)
        assert fast.walked == ("dram",)
        assert fast.flexmalloc.stats.fallback_capacity > 0
        pmem = fast.flexmalloc.heaps.get("pmem")
        assert len(pmem.free_blocks()) == 513

    def test_second_replay_through_one_interposer(self):
        """A replay adds to the interposer's running accounts: a second
        replay through the same FlexMalloc starts from a nonzero
        ``overhead_ns`` and existing ``bytes_by_subsystem`` keys."""
        wl = make_toy_workload()
        report = report_for(wl, {"toy::hot": "dram", "toy::temp": "dram"})
        registry = SiteRegistry(wl)
        results = []
        for replay, memoize in ((replay_allocations, True),
                                (replay_allocations_scalar, False)):
            production = registry.make_process(rank=0, aslr_seed=777)
            flex = FlexMalloc(
                build_heaps(pmem6_system(), dram_limit=12 * MiB),
                BOMMatcher(report, production.space, memoize=memoize))
            replay(wl, production, flex)
            results.append(replay(wl, production, flex))
        assert replay_results_identical(*results) == []

    def test_overhead_added_in_call_order(self):
        """Heap-call charges that do not add exactly in any order: the
        bulk-accounted overhead must be added left to right in call
        order, as the interposer's repeated ``+=`` does."""
        wl = get_workload("openfoam")
        costs = {"dram": (0.1, 0.7), "pmem": (0.3, 1.1)}

        def make_heaps():
            heaps = []
            for i, sub in enumerate(pmem6_system()):
                capacity = 64 * MiB if sub.name == "dram" else sub.capacity
                alloc_ns, free_ns = costs[sub.name]
                heaps.append(FreeListHeap(
                    f"heap-{sub.name}", base=(i + 1) << 44,
                    capacity=capacity, subsystem=sub.name,
                    alloc_cost_ns=alloc_ns, free_cost_ns=free_ns))
            return HeapRegistry(heaps)

        report = report_for(
            wl, {o.site.name: "dram" for o in wl.objects[::3]})
        fast, _ = replay_both(wl, report, make_heaps)
        assert fast.walked == ("dram",)

    @pytest.mark.parametrize("placement", [
        {"toy::hot": "dram"},
        # the fallback's own 56 MiB fit its 100 MiB; cold's spill does not
        {"toy::cold": "dram"},
    ])
    def test_fallback_overflow_raises_the_same_error(self, placement):
        """A fallback heap too small for the workload fails the same
        allocation, with the same message, as the interposer does."""
        wl = make_toy_workload()

        def make_heaps():
            return HeapRegistry([
                FreeListHeap("small-dram", base=1 << 44, capacity=8 * MiB,
                             subsystem="dram"),
                FreeListHeap("small-pmem", base=2 << 44, capacity=100 * MiB,
                             subsystem="pmem"),
            ])

        report = report_for(wl, placement)
        registry = SiteRegistry(wl)
        messages = []
        for replay, memoize in ((replay_allocations, True),
                                (replay_allocations_scalar, False)):
            production = registry.make_process(rank=0, aslr_seed=777)
            flex = FlexMalloc(make_heaps(),
                              BOMMatcher(report, production.space,
                                         memoize=memoize))
            with pytest.raises(AllocationError) as err:
                replay(wl, production, flex)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_shared_key_has_no_free_edge(self):
        """Two specs with one site name give two instances the key
        (site, 0): the second free could not tell them apart."""
        base = make_toy_workload()
        twin = base.objects[0]
        wl = Workload(
            name="twins", phases=base.phases,
            objects=list(base.objects) + [twin],
            ranks=base.ranks,
        )
        process = SiteRegistry(wl).make_process(rank=0, aslr_seed=777)
        flex = FlexMalloc(build_heaps(pmem6_system()))
        with pytest.raises(SimulationError, match="no free edge"):
            replay_allocations(wl, process, flex)


class TestIndexedHeapAgainstScan:
    def test_random_traffic_same_addresses(self):
        """Vectorized and scan heaps fed the same alloc/free sequence hand
        out identical addresses, stats and free lists throughout."""
        rng = random.Random(42)
        fast = FreeListHeap("fast", base=0, capacity=1 << 20)
        slow = FreeListHeap("slow", base=0, capacity=1 << 20)
        live = []
        for _ in range(2000):
            if live and rng.random() < 0.45:
                addr = live.pop(rng.randrange(len(live)))
                assert fast.free(addr) == slow.free(addr)
            else:
                size = rng.randrange(1, 4096)
                try:
                    a = fast.allocate(size)
                except AllocationError:
                    with pytest.raises(AllocationError):
                        slow.allocate_scalar(size)
                    continue
                b = slow.allocate_scalar(size)
                assert (a.address, a.padded_size) == (b.address, b.padded_size)
                live.append(a.address)
        assert fast.free_blocks() == slow.free_blocks()
        for f in ("allocations", "frees", "failed", "bytes_allocated",
                  "high_water"):
            assert getattr(fast.stats, f) == getattr(slow.stats, f)


    def test_pinned_holes_same_addresses_until_full(self):
        """Over 4096 pinned 16 B holes — a free list far longer than any
        Hypothesis run builds — both paths hand out the same addresses and
        leave the same free list, then both fail on the exhausted heap."""
        holes = 4096
        capacity = 2 * holes * 16 + (256 << 10)
        fast = FreeListHeap("fast", base=1 << 20, capacity=capacity)
        slow = FreeListHeap("slow", base=1 << 20, capacity=capacity)

        def both(size):
            try:
                a = fast.allocate(size)
            except AllocationError:
                with pytest.raises(AllocationError):
                    slow.allocate_scalar(size)
                return None
            b = slow.allocate_scalar(size)
            assert (a.address, a.padded_size) == (b.address, b.padded_size)
            return a.address

        pins = [both(16) for _ in range(2 * holes)]
        for addr in pins[::2]:
            assert fast.free(addr) == slow.free(addr)
        assert len(fast.free_blocks()) == holes + 1

        rng = random.Random(2026)
        live = []
        for _ in range(1500):
            if live and rng.random() < 0.4:
                addr = live.pop(rng.randrange(len(live)))
                assert fast.free(addr) == slow.free(addr)
            else:
                # small requests fill the holes lowest first; larger ones
                # pass every hole on the way to the tail
                size = rng.choice([rng.randrange(1, 17),
                                   rng.randrange(17, 8192)])
                addr = both(size)
                if addr is not None:
                    live.append(addr)
        assert fast.free_blocks() == slow.free_blocks()

        # every free block is a multiple of 16 B: 16 B requests fill them all
        for _ in range((capacity - fast.used) // 16):
            assert both(16) is not None
        assert fast.used == slow.used == capacity
        assert fast.free_blocks() == slow.free_blocks() == []
        assert fast.largest_free_block() == slow.largest_free_block() == 0
        for size in (1, 16, 4096):
            with pytest.raises(AllocationError):
                fast.allocate(size)
            with pytest.raises(AllocationError):
                slow.allocate_scalar(size)
        for f in ("allocations", "frees", "failed", "bytes_allocated",
                  "high_water"):
            assert getattr(fast.stats, f) == getattr(slow.stats, f)

class TestMemoizedMatcherStats:
    def _stack(self, memoize):
        wl = make_toy_workload()
        registry = SiteRegistry(wl)
        profiling = registry.make_process(rank=0, aslr_seed=500)
        production = registry.make_process(rank=0, aslr_seed=777)
        return wl, profiling, production

    @pytest.mark.parametrize("fmt", [StackFormat.BOM, StackFormat.HUMAN])
    def test_repeat_lookups_charge_identically(self, fmt):
        """100 repeat matches: the memoized matcher's stats (and the
        resolver's cost account, for HUMAN) equal the uncached run's,
        float for float."""
        wl, profiling, production = self._stack(True)
        report = checkerboard_report(wl, profiling, fmt, ["dram", "pmem"])

        def run(memoize):
            prod = SiteRegistry(wl).make_process(rank=0, aslr_seed=777)
            if fmt is StackFormat.BOM:
                m = BOMMatcher(report, prod.space, memoize=memoize)
            else:
                m = HumanReadableMatcher(report, prod.space, memoize=memoize)
            outcomes = []
            for obj in wl.objects:
                stack = prod.callstack(obj.site)
                for _ in range(100):
                    outcomes.append(m.match(stack))
            return m, outcomes

        memo, out_a = run(True)
        ref, out_b = run(False)
        assert out_a == out_b
        for f in ("lookups", "matches", "time_ns", "init_time_ns",
                  "resident_bytes"):
            assert getattr(memo.stats, f) == getattr(ref.stats, f), f
        if fmt is StackFormat.HUMAN:
            for f in ("frames_resolved", "cache_hits", "time_ns",
                      "debug_info_bytes_loaded"):
                assert (getattr(memo.resolver.cost, f)
                        == getattr(ref.resolver.cost, f)), f

    def test_unseen_stack_object_bypasses_memo(self):
        """The memo pins stack identity: an equal-valued but distinct
        stack object takes the full lookup and matches the same."""
        wl, profiling, production = self._stack(True)
        report = checkerboard_report(
            wl, profiling, StackFormat.BOM, ["dram"]
        )
        m = BOMMatcher(report, production.space)
        site = wl.objects[0].site
        first = production.callstack(site)
        assert m.match(first) == "dram"
        other = SiteRegistry(wl).make_process(rank=0, aslr_seed=777)
        clone = other.callstack(site)
        assert clone == first and clone is not first
        assert m.match(clone) == "dram"
        assert m.stats.matches == 2
