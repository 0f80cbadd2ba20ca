"""Unit tests for repro.util: units, stats, rng tools, errors."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util import (
    ConfigError,
    GIB,
    KIB,
    MIB,
    format_interval,
    format_size,
    parse_interval,
    parse_size,
    spawn_rng,
    stable_seed,
)
from repro.util.stats import Histogram, normalized, percentile


class TestParseSize:
    def test_plain_int_passthrough(self):
        assert parse_size(4096) == 4096

    def test_kb(self):
        assert parse_size("512kB") == 512 * KIB

    def test_mb(self):
        assert parse_size("2MB") == 2 * MIB

    def test_gb_fractional(self):
        assert parse_size("1.5GB") == int(1.5 * GIB)

    def test_bare_number_string(self):
        assert parse_size("1000") == 1000

    def test_case_insensitive(self):
        assert parse_size("1mib") == MIB

    def test_negative_int_rejected(self):
        with pytest.raises(ConfigError):
            parse_size(-1)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_size("lots")

    def test_unknown_suffix_rejected(self):
        with pytest.raises(ConfigError):
            parse_size("5parsecs")


class TestFormatSize:
    def test_bytes(self):
        assert format_size(100) == "100B"

    def test_kb(self):
        assert format_size(45056) == "44.0kB"

    def test_mb(self):
        assert format_size(2 * MIB) == "2.0MB"

    def test_roundtrip_order(self):
        # format then parse lands within rounding error
        n = 37 * MIB
        assert abs(parse_size(format_size(n)) - n) / n < 0.05


class TestParseInterval:
    def test_number_is_seconds(self):
        assert parse_interval(2.5) == 2.5

    def test_seconds_suffix(self):
        assert parse_interval("20s") == 20.0

    def test_microseconds(self):
        assert parse_interval("400us") == pytest.approx(400e-6)

    def test_milliseconds(self):
        assert parse_interval("100ms") == pytest.approx(0.1)

    def test_minutes(self):
        assert parse_interval("1min") == 60.0

    def test_hours(self):
        assert parse_interval("24h") == 86400.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            parse_interval(-3)

    def test_format_roundtrip(self):
        for s in (0.0004, 0.02, 1.0, 20.0, 90.0, 7200.0):
            assert parse_interval(format_interval(s)) == pytest.approx(s)


def _hist(samples, lo, hi, nbins):
    """``nbins`` equal bins over ``[lo, hi]`` holding ``samples``."""
    h = Histogram(edges=np.linspace(lo, hi, nbins + 1))
    h.add(samples)
    return h


class TestHistogram:
    def test_from_samples_counts(self):
        h = _hist([1.0, 1.5, 2.0, 9.0], lo=0, hi=10, nbins=10)
        assert h.total == 4

    def test_out_of_range_clipped_not_dropped(self):
        h = _hist([-5.0, 50.0], lo=0, hi=10, nbins=10)
        assert h.total == 2
        assert h.counts[0] == 1 and h.counts[-1] == 1

    def test_tail_count(self):
        h = _hist([1, 2, 3, 98, 99], lo=0, hi=100, nbins=100)
        assert h.tail_count(90) == 2

    def test_tail_fraction(self):
        h = _hist([1] * 99 + [99], lo=0, hi=100, nbins=10)
        assert h.tail_fraction(90) == pytest.approx(0.01)

    def test_add_accumulates(self):
        h = _hist([1.0], lo=0, hi=10, nbins=5)
        h.add([2.0, 3.0])
        assert h.total == 3

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram(edges=np.array([1.0, 1.0, 2.0]))

    def test_rows_shape(self):
        h = _hist([5.0], lo=0, hi=10, nbins=10)
        rows = h.rows()
        assert len(rows) == 10
        assert sum(c for _, c in rows) == 1

    @given(st.lists(st.floats(min_value=0, max_value=100,
                              allow_nan=False), min_size=1, max_size=200))
    def test_total_always_equals_sample_count(self, samples):
        h = _hist(samples, lo=0, hi=100, nbins=17)
        assert h.total == len(samples)


class TestNormalized:
    def test_values(self):
        assert normalized([10.0, 11.0], 10.0).tolist() == [1.0, 1.1]

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            normalized([1.0], 0.0)


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3], 50) == 2.0


class TestRngTools:
    def test_stable_seed_deterministic(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)

    def test_stable_seed_key_sensitivity(self):
        assert stable_seed("a") != stable_seed("b")

    def test_spawn_rng_reproducible(self):
        a = spawn_rng(42, "x").integers(0, 1 << 30, 10)
        b = spawn_rng(42, "x").integers(0, 1 << 30, 10)
        assert (a == b).all()

    def test_spawn_rng_independent_streams(self):
        a = spawn_rng(42, "x").integers(0, 1 << 30, 10)
        b = spawn_rng(42, "y").integers(0, 1 << 30, 10)
        assert (a != b).any()

    @given(st.integers(min_value=0, max_value=2**31))
    def test_stable_seed_in_u32_range(self, n):
        assert 0 <= stable_seed(n) < 2**32


class TestTimeutil:
    def test_sleep_exists_and_sleeps(self):
        from repro.util import timeutil

        t0 = timeutil.monotonic()
        timeutil.sleep(0.01)
        assert timeutil.monotonic() - t0 >= 0.005

    def test_clock_functions_return_floats(self):
        from repro.util import timeutil

        assert isinstance(timeutil.monotonic(), float)
        assert isinstance(timeutil.perf_counter(), float)
        assert isinstance(timeutil.wall_clock(), float)
