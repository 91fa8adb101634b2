"""Tests for the workload DSL."""

import pytest

from repro.apps import get_workload
from repro.errors import WorkloadError
from repro.apps.workload import (
    AccessStats, AllocationSite, ObjectSpec, Phase, Workload, _content_hash,
    workload_fingerprint,
)
from repro.units import MiB

from tests.conftest import make_site, make_toy_workload


class TestPhaseUnrolling:
    def test_repeat_unrolls(self):
        wl = Workload(
            "w", [Phase("a", 1.0, repeat=3), Phase("b", 2.0)],
            [ObjectSpec(site=make_site("s"), size=1,
                        access={"a": AccessStats(load_rate=1)})],
        )
        assert [s.name for s in wl.spans] == ["a", "a", "a", "b"]
        assert wl.nominal_duration == 5.0

    def test_interleaved_phases_get_occurrence_indices(self):
        phases = [Phase("a", 1.0), Phase("b", 1.0), Phase("a", 1.0)]
        wl = Workload("w", phases,
                      [ObjectSpec(site=make_site("s"), size=1,
                                  access={"a": AccessStats(load_rate=1)})])
        a_spans = [s for s in wl.spans if s.name == "a"]
        assert [s.iteration for s in a_spans] == [0, 1]

    def test_unknown_phase_reference_rejected(self):
        with pytest.raises(WorkloadError):
            Workload("w", [Phase("a", 1.0)],
                     [ObjectSpec(site=make_site("s"), size=1,
                                 access={"ghost": AccessStats(load_rate=1)})])


class TestInstances:
    def test_singleton_lives_whole_run(self, toy_workload):
        insts = [i for i in toy_workload.instances()
                 if i.spec.site.name == "toy::hot"]
        assert len(insts) == 1
        assert insts[0].start == 0.0
        assert insts[0].end == toy_workload.nominal_duration

    def test_repeated_instances_scheduled(self, toy_workload):
        insts = [i for i in toy_workload.instances()
                 if i.spec.site.name == "toy::temp"]
        assert [i.start for i in insts] == [1.0, 2.0, 3.0, 4.0]
        assert all(i.lifetime == pytest.approx(0.5) for i in insts)

    def test_instance_clipped_at_run_end(self):
        spec = ObjectSpec(site=make_site("s"), size=1, alloc_count=3,
                          first_alloc=0.0, lifetime=10.0, period=2.0,
                          access={"p": AccessStats(load_rate=1)})
        wl = Workload("w", [Phase("p", 5.0)], [spec])
        insts = wl.instances()
        assert all(i.end <= 5.0 for i in insts)

    def test_instance_starting_after_end_dropped(self):
        spec = ObjectSpec(site=make_site("s"), size=1, alloc_count=5,
                          first_alloc=1.0, lifetime=0.5, period=2.0,
                          access={"p": AccessStats(load_rate=1)})
        wl = Workload("w", [Phase("p", 4.0)], [spec])
        assert len([i for i in wl.instances()]) == 2

    def test_no_instance_fits_rejected(self):
        spec = ObjectSpec(site=make_site("s"), size=1, first_alloc=100.0,
                          access={"p": AccessStats(load_rate=1)})
        wl_ok = Workload("w", [Phase("p", 5.0)],
                         [ObjectSpec(site=make_site("other"), size=1,
                                     access={"p": AccessStats(load_rate=1)})])
        with pytest.raises(WorkloadError):
            spec.instances(wl_ok.nominal_duration)

    def test_overlap_helper(self, toy_workload):
        inst = next(i for i in toy_workload.instances()
                    if i.spec.site.name == "toy::temp")
        assert inst.overlap(0.0, 10.0) == pytest.approx(0.5)
        assert inst.overlap(1.25, 10.0) == pytest.approx(0.25)
        assert inst.overlap(2.0, 3.0) == 0.0


class TestDerived:
    def test_high_water_counts_overlap(self):
        specs = [
            ObjectSpec(site=make_site("a"), size=10 * MiB,
                       access={"p": AccessStats(load_rate=1)}),
            ObjectSpec(site=make_site("b"), size=5 * MiB, first_alloc=1.0,
                       lifetime=1.0, access={"p": AccessStats(load_rate=1)}),
        ]
        wl = Workload("w", [Phase("p", 5.0)], specs)
        assert wl.heap_high_water() == 15 * MiB

    def test_high_water_sequential_not_summed(self):
        specs = [
            ObjectSpec(site=make_site("a"), size=10 * MiB, first_alloc=0.0,
                       lifetime=1.0, access={"p": AccessStats(load_rate=1)}),
            ObjectSpec(site=make_site("b"), size=10 * MiB, first_alloc=2.0,
                       lifetime=1.0, access={"p": AccessStats(load_rate=1)}),
        ]
        wl = Workload("w", [Phase("p", 5.0)], specs)
        assert wl.heap_high_water() == 10 * MiB

    def test_working_set_only_accessed_objects(self, toy_workload):
        ws = toy_workload.working_set(0.0, 0.5)
        # temp not alive yet; hot + cold both accessed in `compute`
        assert ws == 8 * MiB + 64 * MiB

    def test_object_by_site(self, toy_workload):
        assert toy_workload.object_by_site("toy::hot").size == 8 * MiB
        with pytest.raises(KeyError):
            toy_workload.object_by_site("ghost")

    def test_images_listed(self, toy_workload):
        assert toy_workload.images() == ["toy.x"]


class TestValidation:
    def test_repeated_alloc_needs_lifetime(self):
        with pytest.raises(WorkloadError):
            ObjectSpec(site=make_site("s"), size=1, alloc_count=2,
                       access={"p": AccessStats(load_rate=1)})

    def test_sampled_store_rate_defaults_to_true(self):
        a = AccessStats(load_rate=1, store_rate=5)
        assert a.sampled_store_rate == 5

    def test_sampled_store_rate_override(self):
        a = AccessStats(load_rate=1, store_rate=5, l1d_store_rate=50)
        assert a.sampled_store_rate == 50

    def test_read_only_flag(self):
        ro = ObjectSpec(site=make_site("s"), size=1,
                        access={"p": AccessStats(load_rate=1)})
        rw = ObjectSpec(site=make_site("s"), size=1,
                        access={"p": AccessStats(load_rate=1, store_rate=1)})
        assert ro.is_read_only and not rw.is_read_only

    @pytest.mark.parametrize("kwargs", [
        {"size": 0},
        {"size": 1, "alloc_count": 0},
        {"size": 1, "first_alloc": -1.0},
        {"size": 1, "lifetime": 0.0},
        {"size": 1, "sampling_visibility": 0.0},
        {"size": 1, "serial_fraction": 1.5},
    ])
    def test_objectspec_validation(self, kwargs):
        with pytest.raises(WorkloadError):
            ObjectSpec(site=make_site("s"),
                       access={"p": AccessStats(load_rate=1)}, **kwargs)

    def test_workload_validation(self):
        spec = ObjectSpec(site=make_site("s"), size=1,
                          access={"p": AccessStats(load_rate=1)})
        with pytest.raises(WorkloadError):
            Workload("w", [], [spec])
        with pytest.raises(WorkloadError):
            Workload("w", [Phase("p", 1.0)], [])
        with pytest.raises(WorkloadError):
            Workload("w", [Phase("p", 1.0)], [spec], mlp=0.5)
        with pytest.raises(WorkloadError):
            Workload("w", [Phase("p", 1.0)], [spec], ws_factor=0.0)


class TestImmutableWorkload:
    """A workload is a value: sealed after construction, derived once."""

    def test_assignment_raises(self, toy_workload):
        with pytest.raises(AttributeError):
            toy_workload.mlp = 2.0
        with pytest.raises(AttributeError):
            toy_workload.objects = ()
        with pytest.raises(AttributeError):
            del toy_workload.name
        assert toy_workload.mlp == 4.0

    def test_sequences_are_tuples(self, toy_workload):
        assert isinstance(toy_workload.phases, tuple)
        assert isinstance(toy_workload.objects, tuple)

    def test_replace_builds_a_variant(self, toy_workload):
        variant = toy_workload.replace(mlp=2.0)
        assert variant.mlp == 2.0 and toy_workload.mlp == 4.0
        assert variant.objects == toy_workload.objects
        assert variant != toy_workload
        assert toy_workload.replace() == toy_workload

    def test_fingerprint_cached_and_fresh(self):
        a, b = get_workload("lulesh"), get_workload("lulesh")
        assert workload_fingerprint(a) is workload_fingerprint(a)
        assert workload_fingerprint(a) == _content_hash(a)
        assert workload_fingerprint(a) == workload_fingerprint(b)

    def test_instances_fresh_list_over_one_build(self, toy_workload):
        first = toy_workload.instances()
        first.clear()
        again = toy_workload.instances()
        assert again and again is not toy_workload.instances()
        assert all(x is y for x, y in zip(again, toy_workload.instances()))

    def test_heap_high_water_cached(self, toy_workload):
        hwm = toy_workload.heap_high_water()
        assert toy_workload.heap_high_water() is hwm  # not recomputed
        assert hwm == toy_workload.replace().heap_high_water()
        assert hwm == 8 * MiB + 64 * MiB + 4 * MiB
