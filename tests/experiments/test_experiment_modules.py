"""Tests for the cheaper experiment modules (the heavyweight sweeps are
exercised by the benchmark suite)."""

import numpy as np
import pytest

from repro.experiments.fig2_latency import (
    compute_fig2, latency_gap_at, paper_anchor_checks,
)
from repro.experiments.fig6_sweep import Fig6Cell, Fig6Result, compute_fig6, fig6_rows
from repro.experiments.tab1_callstack import compute_tab1
from repro.units import GB, GiB


class TestFig2:
    def test_four_curves(self):
        curves = compute_fig2(points=5)
        assert len(curves) == 4
        for bw, lat in curves.values():
            assert bw.shape == lat.shape == (5,)

    def test_anchor_checks_pass(self):
        for label, _bw, got, paper in paper_anchor_checks():
            assert got == pytest.approx(paper, abs=0.01), label

    def test_pmem_curves_above_dram(self):
        curves = compute_fig2(points=5)
        assert np.all(curves["PMem (R)"][1] > curves["DRAM (R)"][1])


class TestFig6Plumbing:
    def test_lookup_roundtrip(self):
        r = Fig6Result(cells=[Fig6Cell("x", 6, 12, "loads", 1.5)])
        assert r.lookup("x", 6, 12, "loads") == 1.5
        with pytest.raises(KeyError):
            r.lookup("x", 2, 12, "loads")

    def test_lookup_sees_in_place_replacement(self):
        """Regression: the old ``len(cells) != len(index)`` staleness
        guard missed same-length mutations — a replaced cell kept
        serving the stale speedup."""
        r = Fig6Result(cells=[Fig6Cell("x", 6, 12, "loads", 1.5)])
        assert r.lookup("x", 6, 12, "loads") == 1.5
        r.cells[0] = Fig6Cell("x", 6, 12, "loads", 2.5)
        assert r.lookup("x", 6, 12, "loads") == 2.5

    def test_lookup_sees_field_edit_and_reorder(self):
        a = Fig6Cell("a", 6, 12, "loads", 1.0)
        b = Fig6Cell("b", 6, 12, "loads", 2.0)
        r = Fig6Result(cells=[a, b])
        assert r.lookup("a", 6, 12, "loads") == 1.0
        a.speedup = 3.0  # in-place field edit, same object identity
        assert r.lookup("a", 6, 12, "loads") == 3.0
        # a reorder that also rebinds a key must win over the stale map
        r.cells.reverse()
        r.cells.append(Fig6Cell("c", 2, 8, "loads+stores", 4.0))
        assert r.lookup("c", 2, 8, "loads+stores") == 4.0
        assert r.lookup("b", 6, 12, "loads") == 2.0

    def test_lookup_last_duplicate_wins_after_mutation(self):
        first = Fig6Cell("x", 6, 12, "loads", 1.0)
        r = Fig6Result(cells=[first, Fig6Cell("x", 6, 12, "loads", 2.0)])
        assert r.lookup("x", 6, 12, "loads") == 2.0
        r.cells[1].speedup = 5.0
        assert r.lookup("x", 6, 12, "loads") == 5.0
        r.cells[1].dram_limit_gb = 8  # rekeyed: the first cell answers now
        assert r.lookup("x", 6, 12, "loads") == 1.0
        assert r.lookup("x", 6, 8, "loads") == 5.0
        with pytest.raises(KeyError) as err:
            r.lookup("x", 6, 4, "loads")
        assert err.value.args == (("x", 6, 4, "loads"),)

    def test_subset_sweep_runs(self):
        """A minimal one-app, one-limit sweep exercises the machinery."""
        result = compute_fig6(apps=["minife"], pmem_configs=(6,),
                              dram_limits_gb=[12], include_baseline_rows=False)
        assert len(result.cells) == 2  # loads + loads+stores
        assert result.lookup("minife", 6, 12, "loads") > 1.5

    def test_rows_flattening(self):
        r = Fig6Result(cells=[Fig6Cell("x", 6, 12, "loads", 1.5)])
        r.tiering["x"] = 0.9
        r.profdp["x"] = None
        r.profdp_variant["x"] = None
        rows = fig6_rows(r)
        assert len(rows) == 3


class TestTab1:
    def test_three_formats(self):
        rows = compute_tab1()
        assert [r.fmt for r in rows] == ["raw", "human", "bom"]

    def test_stability_pattern(self):
        rows = {r.fmt: r.stable_across_runs for r in compute_tab1()}
        assert rows == {"raw": False, "human": True, "bom": True}

    def test_custom_site(self):
        rows = compute_tab1(app="minife",
                            site_name="minife::impl_matrix::allocate_values",
                            subsystem="dram")
        assert all(r.subsystem == "dram" for r in rows)
