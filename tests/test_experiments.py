"""Smoke + shape tests for every experiment harness at reduced scale.

The benchmarks run the full-scale versions; these tests confirm each
experiment reproduces the paper's qualitative shape quickly.
"""

import numpy as np
import pytest

from repro.experiments import (  # noqa: F401  (package docstring import)
    common,
)
from repro.experiments.common import PAPER


class TestGangliaCompare:
    def test_shape(self):
        from repro.experiments.ganglia_compare import run

        res = run(sweeps=30)
        assert res.ldms_us_per_metric > 0
        assert res.ratio > 3.0  # Ganglia is several times costlier


class TestFootprint:
    def test_chama(self):
        from repro.experiments.footprint import run_chama

        fp = run_chama()
        assert fp.n_sets == 8
        assert 400 <= fp.n_metrics <= 500
        assert 0.5 * PAPER.chama_set_bytes < fp.set_bytes < 1.5 * PAPER.chama_set_bytes
        assert fp.sampler_arena_bytes < PAPER.sampler_mem_limit
        assert 0.05 < fp.data_fraction < 0.2

    def test_blue_waters(self):
        from repro.experiments.footprint import run_blue_waters

        fp = run_blue_waters()
        assert fp.n_metrics == PAPER.bw_metrics
        assert 30e6 < fp.wire_bytes_per_interval < 70e6  # ~44 MB


class TestFanin:
    def test_transport_ordering_scaled(self):
        from repro.experiments.fanin import max_fanin, sweep_transport

        sock = max_fanin(sweep_transport("sock", [96, 144, 192],
                                         duration=20.0, scale=64))
        ugni = max_fanin(sweep_transport("ugni", [192, 256, 320],
                                         duration=20.0, scale=64))
        assert sock == 144
        assert ugni == 256
        assert ugni > sock

    def test_point_rows_do_not_depend_on_earlier_points(self):
        """A sweep point's rows are a function of the point alone, not
        of what ran before it in the same process (module-level caches,
        interned layouts)."""
        from repro.experiments.fanin import _build, _rows_digest

        def rows(n):
            eng, _, _, _, store = _build(n, "sock", 5.0, 10, 20.0, scale=64)
            eng.run(until=20.0)
            assert store.rows
            return _rows_digest(store)

        first = rows(96)
        rows(192)
        assert rows(96) == first

    def test_aggregator_utilization_small(self):
        from repro.experiments.fanin import aggregator_utilization

        util = aggregator_utilization(n_samplers=8, interval=10.0,
                                      duration=60.0)
        assert 0 < util.core_pct < 5.0


class TestFig5:
    def test_tail_matches_expectation(self):
        from repro.experiments.fig5_psnap_bw import run

        res = run(n_nodes=16, iterations=200_000)
        assert res.extra_tail_fraction == pytest.approx(
            res.expected_tail_fraction, rel=0.4)
        assert 50 <= res.extra_delay_lo_us <= 150
        assert 350 <= res.extra_delay_hi_us <= 480


class TestFig6:
    def test_no_significant_impact(self):
        from repro.experiments.fig6_bw_benchmarks import run

        res = run(scale=0.02)
        assert res.any_significant() == []
        assert len(res.series) == 11


class TestFig7:
    def test_no_significant_impact(self):
        from repro.experiments.fig7_chama_apps import run

        res = run(scale=0.125)
        assert res.any_significant() == []
        for summaries in res.series.values():
            for s in summaries:
                assert 0.85 < s.normalized_mean < 1.15


class TestFig8:
    def test_tail_ordering(self):
        from repro.experiments.fig8_psnap_chama import run

        res = run(n_nodes=60, iterations=100_000)
        fracs = res.tail_fractions()
        assert fracs["HM"] > 3.0 * fracs["HM_HALF"]
        assert fracs["HM_HALF"] < 2.0 * max(fracs["NM"], 1e-12)


class TestFig9:
    def test_features_small_torus(self):
        from repro.experiments.fig9_credit_stalls import run

        res = run(dims=(8, 8, 8))
        assert abs(res.max_stall_pct - PAPER.fig9_max_stall_pct) < 6.0
        assert res.band_20_45_hours >= 15.0
        assert 1.0 <= res.band_60_hours <= 3.0
        assert res.wrap_region_found


class TestFig10:
    def test_max_bandwidth_small_torus(self):
        from repro.experiments.fig10_bandwidth import run

        res = run(dims=(8, 8, 8))
        assert abs(res.max_bw_pct - PAPER.fig10_max_bw_pct) < 10.0
        assert res.stands_out


class TestFig11:
    def test_features_detected(self):
        from repro.experiments.fig11_lustre_opens import run

        res = run(n_nodes=256)
        assert res.bands_match
        assert res.events_match
        # Display threshold keeps the picture sparse.
        assert (np.nan_to_num(res.opens) >= 1.0).mean() < 0.6


class TestFig12:
    def test_oom_profile_small(self):
        from repro.experiments.fig12_oom_profile import run

        res = run(job_nodes=16, machine_nodes=20, interval=10.0)
        assert res.oom_killed
        assert res.imbalance_visible
        assert res.peak_node_kb > 0.8 * res.mem_total_kb
