"""Tests for multi-rank profiling and cross-rank aggregation."""

import pytest

from repro.profiling.paramedir import Paramedir
from repro.profiling.tracer import ExtraeTracer, TracerConfig

from tests.conftest import make_toy_workload


def profiles_for(ranks=3, jitter=0.0, seed=9):
    wl = make_toy_workload()
    tracer = ExtraeTracer(wl, TracerConfig(seed=seed, rank_jitter=jitter))
    traces = tracer.run_all_ranks(ranks=ranks)
    pd = Paramedir()
    return wl, [pd.analyze(t) for t in traces]


class TestMultiRankTracing:
    def test_one_trace_per_rank(self):
        _, per_rank = profiles_for(ranks=3)
        assert len(per_rank) == 3

    def test_ranks_see_same_sites(self):
        _, per_rank = profiles_for(ranks=2)
        assert set(per_rank[0]) == set(per_rank[1])

    def test_jitter_perturbs_counts(self):
        _, calm = profiles_for(ranks=2, jitter=0.0)
        _, noisy = profiles_for(ranks=2, jitter=0.6)
        def spread(per_rank):
            key = max(per_rank[0], key=lambda k: per_rank[0][k].load_misses)
            vals = [p[key].load_misses for p in per_rank]
            return abs(vals[0] - vals[1]) / max(vals)
        assert spread(noisy) > spread(calm)


class TestMerge:
    def test_sum_scales_with_ranks(self):
        _, per_rank = profiles_for(ranks=3)
        merged = Paramedir().merge(per_rank, mode="sum")
        key = max(merged, key=lambda k: merged[k].load_misses)
        single = per_rank[0][key].load_misses
        assert merged[key].load_misses == pytest.approx(3 * single, rel=0.25)

    def test_average_near_single_rank(self):
        _, per_rank = profiles_for(ranks=3)
        merged = Paramedir().merge(per_rank, mode="average")
        key = max(merged, key=lambda k: merged[k].load_misses)
        single = per_rank[0][key].load_misses
        assert merged[key].load_misses == pytest.approx(single, rel=0.25)

    def test_sum_equals_ranks_times_average_for_symmetric_sites(self):
        _, per_rank = profiles_for(ranks=4)
        s = Paramedir().merge(per_rank, mode="sum")
        a = Paramedir().merge(per_rank, mode="average")
        for key in s:
            assert s[key].load_misses == pytest.approx(
                4 * a[key].load_misses, rel=1e-9)

    def test_structural_fields_per_process(self):
        wl, per_rank = profiles_for(ranks=3)
        merged = Paramedir().merge(per_rank)
        counts = sorted(p.alloc_count for p in merged.values())
        expected = sorted({o.site.name: len([
            i for i in wl.instances() if i.spec.site.name == o.site.name
        ]) for o in wl.objects}.values())
        assert counts == expected

    def test_largest_alloc_is_max(self):
        _, per_rank = profiles_for(ranks=2)
        merged = Paramedir().merge(per_rank)
        for key, prof in merged.items():
            assert prof.largest_alloc == max(
                p[key].largest_alloc for p in per_rank)

    def test_spans_pooled_and_sorted(self):
        _, per_rank = profiles_for(ranks=3)
        merged = Paramedir().merge(per_rank)
        for key, prof in merged.items():
            pooled = sorted(sp for p in per_rank for sp in p[key].spans)
            assert prof.spans == tuple(pooled)

    def test_bad_mode(self):
        _, per_rank = profiles_for(ranks=1)
        with pytest.raises(ValueError):
            Paramedir().merge(per_rank, mode="median")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Paramedir().merge([])
