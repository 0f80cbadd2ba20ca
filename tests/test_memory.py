"""Unit tests for the arena memory manager."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.memory import Arena
from repro.util.errors import OutOfMemory


class TestArenaBasics:
    def test_alloc_returns_aligned_offsets(self):
        a = Arena(1024)
        assert a.alloc(10) % 8 == 0
        assert a.alloc(10) % 8 == 0

    def test_alloc_distinct_regions(self):
        a = Arena(1024)
        o1, o2 = a.alloc(100), a.alloc(100)
        assert abs(o1 - o2) >= 100

    def test_used_and_available(self):
        a = Arena(1024)
        a.alloc(100)
        assert a.used == 104  # aligned to 8
        assert a.available == 1024 - 104

    def test_exhaustion_raises(self):
        a = Arena(256)
        a.alloc(200)
        with pytest.raises(OutOfMemory):
            a.alloc(200)

    def test_free_enables_reuse(self):
        a = Arena(256)
        off = a.alloc(200)
        a.free(off)
        assert a.alloc(200) == off

    def test_free_unknown_offset_rejected(self):
        a = Arena(256)
        with pytest.raises(ValueError):
            a.free(8)

    def test_double_free_rejected(self):
        a = Arena(256)
        off = a.alloc(64)
        a.free(off)
        with pytest.raises(ValueError):
            a.free(off)

    def test_zero_size_alloc_rejected(self):
        with pytest.raises(ValueError):
            Arena(256).alloc(0)

    def test_bad_arena_size_rejected(self):
        with pytest.raises(ValueError):
            Arena(0)

    def test_coalescing_allows_large_realloc(self):
        a = Arena(300)
        offs = [a.alloc(64) for _ in range(4)]
        for off in offs:
            a.free(off)
        # All memory coalesced back into one hole.
        a.alloc(256)

    def test_freed_memory_is_zeroed(self):
        a = Arena(256)
        off = a.alloc(16)
        a.view(off, 16)[:] = b"X" * 16
        a.free(off)
        off2 = a.alloc(16)
        assert bytes(a.view(off2, 16)) == bytes(16)

    def test_peak_tracking(self):
        a = Arena(1024)
        o = a.alloc(512)
        a.free(o)
        a.alloc(8)
        assert a.peak_used == 512

    def test_view_bounds_checked(self):
        a = Arena(256)
        off = a.alloc(16)
        with pytest.raises(ValueError):
            a.view(off, 64)

    def test_view_of_unallocated_rejected(self):
        with pytest.raises(ValueError):
            Arena(256).view(0, 8)

    def test_view_writes_visible(self):
        a = Arena(256)
        off = a.alloc(8)
        a.view(off, 8)[:4] = b"abcd"
        assert bytes(a.view(off, 8))[:4] == b"abcd"


class TestArenaPropertyBased:
    @given(st.lists(st.integers(min_value=1, max_value=128), min_size=1, max_size=50))
    def test_alloc_free_conserves_capacity(self, sizes):
        a = Arena(64 * 1024)
        offs = [a.alloc(s) for s in sizes]
        assert a.used == sum((s + 7) & ~7 for s in sizes)
        for off in offs:
            a.free(off)
        assert a.used == 0
        assert a.available == a.size
        # Whole arena is one hole again.
        a.alloc(a.size)

    @given(st.lists(st.tuples(st.integers(1, 64), st.booleans()),
                    min_size=1, max_size=60))
    def test_interleaved_alloc_free_no_overlap(self, ops):
        a = Arena(16 * 1024)
        live: dict[int, int] = {}
        for size, do_free in ops:
            if do_free and live:
                off = next(iter(live))
                a.free(off)
                del live[off]
            else:
                off = a.alloc(size)
                live[off] = (size + 7) & ~7
        # No two live allocations overlap.
        spans = sorted(live.items())
        for (o1, l1), (o2, _l2) in zip(spans, spans[1:]):
            assert o1 + l1 <= o2


class _RefArena:
    """Reference allocator for the model test: the obvious first-fit
    over one zero-filled buffer, holes re-sorted and re-merged on every
    free.  Slow and eager on purpose — it is what ``Arena`` must equal."""

    def __init__(self, size):
        self.size = (size + 7) & ~7
        self.buf = bytearray(self.size)
        self.holes = [(0, self.size)]
        self.live = {}
        self.peak = 0

    @property
    def used(self):
        return sum(self.live.values())

    def alloc(self, nbytes):
        need = (nbytes + 7) & ~7
        for i, (off, length) in enumerate(self.holes):
            if length >= need:
                self.holes[i:i + 1] = [(off + need, length - need)] if length > need else []
                self.live[off] = need
                self.peak = max(self.peak, self.used)
                return off
        return None

    def free(self, off):
        length = self.live.pop(off)
        self.buf[off:off + length] = bytes(length)
        merged = []
        for o, ln in sorted(self.holes + [(off, length)]):
            if merged and merged[-1][0] + merged[-1][1] == o:
                merged[-1] = (merged[-1][0], merged[-1][1] + ln)
            else:
                merged.append((o, ln))
        self.holes = merged


_MODEL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 600)),
        st.tuples(st.just("free"), st.integers(0, 10_000)),
        st.tuples(st.just("write"), st.integers(0, 10_000)),
        st.tuples(st.just("bad"), st.integers(0, 10_000)),
    ),
    min_size=1, max_size=120,
)


class TestArenaModel:
    """Random alloc/free/view sequences against :class:`_RefArena`."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(64, 4096), _MODEL_OPS)
    def test_matches_reference_allocator(self, size, ops):
        a, ref = Arena(size), _RefArena(size)
        freed: list[int] = []
        for op, arg in ops:
            offs = sorted(ref.live)
            if op == "alloc":
                want = ref.alloc(arg)
                if want is None:
                    with pytest.raises(OutOfMemory) as exc:
                        a.alloc(arg)
                    assert str(exc.value) == (
                        f"arena exhausted: need {(arg + 7) & ~7}B, "
                        f"{ref.size - ref.used}B free (fragmented into "
                        f"{len(ref.holes)} holes) of {ref.size}B total")
                else:
                    assert a.alloc(arg) == want
                    # Fresh (or re-allocated) regions read all-zero.
                    n = ref.live[want]
                    assert bytes(a.view(want, n)) == bytes(n)
            elif op == "free" and offs:
                off = offs[arg % len(offs)]
                a.free(off)
                ref.free(off)
                freed.append(off)
            elif op == "write" and offs:
                off = offs[arg % len(offs)]
                n = ref.live[off]
                fill = bytes([arg % 251 + 1]) * n
                a.view(off, n)[:] = fill
                ref.buf[off:off + n] = fill
            elif op == "bad":
                if freed and freed[-1] not in ref.live:
                    with pytest.raises(ValueError):
                        a.free(freed[-1])       # double free
                    with pytest.raises(ValueError):
                        a.view(freed[-1], 8)    # view of a freed region
                if offs:
                    off = offs[arg % len(offs)]
                    with pytest.raises(ValueError):
                        a.view(off, ref.live[off] + 1)  # oversize view
            assert a.used == ref.used
            assert a.available == ref.size - ref.used
            assert a.peak_used == ref.peak
            assert a.n_allocs == len(ref.live)
        for off, n in ref.live.items():
            assert bytes(a.view(off, n)) == bytes(ref.buf[off:off + n])

    def test_free_out_of_address_order_is_not_quadratic(self):
        # A discovery-mode aggregator prunes mirrors in DIR order, not
        # address order, and their holes do not coalesce.  Re-sorting and
        # re-merging the whole hole list per free made this loop take
        # ~10 s; a bisect insert with a two-neighbour merge takes ~20 ms.
        import random
        import time

        n = 12_000
        a = Arena(n * 64)
        offs = [a.alloc(64) for _ in range(n)]
        victims = offs[::2]
        random.Random(7).shuffle(victims)
        t0 = time.process_time()
        for off in victims:
            a.free(off)
        assert time.process_time() - t0 < 1.5
        assert a.used == (n - len(victims)) * 64
        for off in offs[1::2]:
            a.free(off)
        assert a.alloc(a.size) == 0  # everything coalesced back
