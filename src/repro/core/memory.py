"""Arena memory manager for metric-set storage.

The paper (§IV-D): "A custom memory manager is employed to manage memory
allocation."  ldmsd pre-allocates a fixed region at start (the ``-m``
option) and carves metric-set metadata and data chunks out of it; an
aggregator sizes its region for every set it collects.

This implementation is a first-fit free-list allocator that *reserves
by arithmetic and commits on touch*, as ``ldmsd -m`` does on a real
host (``malloc`` reserves; a page is resident once written).  Offsets,
``used``/``peak`` accounting and the exhaustion point are those of one
contiguous ``size``-byte region; backing bytes exist only for live
allocations that have been viewed.  It exists for behavioural fidelity:
daemon memory footprint is a *measured quantity* in the reproduction, and
set creation must fail when the configured region is exhausted, as it
does in ldmsd.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.util.errors import OutOfMemory

__all__ = ["Arena"]

_ALIGN = 8


def _align(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


class Arena:
    """First-fit allocator over a reserved region, committed on touch.

    >>> a = Arena(1024)
    >>> off = a.alloc(100)
    >>> mv = a.view(off, 100)
    >>> a.free(off)
    """

    __slots__ = ("size", "_free", "_live", "used", "peak_used", "committed")

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("arena size must be positive")
        self.size = _align(size)
        # Free list: sorted list of (offset, length) holes.
        self._free: list[tuple[int, int]] = [(0, self.size)]
        # Live allocations: offset -> aligned length while only reserved;
        # the first view() replaces it by the zero-filled backing.
        self._live: dict[int, int | bytearray] = {}
        self.used = 0  # incremental live-byte total (alloc is hot)
        self.peak_used = 0
        #: Bytes of backing currently allocated (<= ``used``).
        self.committed = 0

    @property
    def available(self) -> int:
        return self.size - self.used

    @property
    def n_allocs(self) -> int:
        return len(self._live)

    def alloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` (rounded up to 8-byte alignment); return offset."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        need = _align(nbytes)
        for i, (off, length) in enumerate(self._free):
            if length >= need:
                if length == need:
                    del self._free[i]
                else:
                    self._free[i] = (off + need, length - need)
                self._live[off] = need
                self.used += need
                if self.used > self.peak_used:
                    self.peak_used = self.used
                return off
        raise OutOfMemory(
            f"arena exhausted: need {need}B, {self.available}B free "
            f"(fragmented into {len(self._free)} holes) of {self.size}B total"
        )

    def free(self, offset: int) -> None:
        """Return an allocation to the free list, coalescing neighbours."""
        try:
            entry = self._live.pop(offset)
        except KeyError:
            raise ValueError(f"free of unallocated offset {offset}") from None
        if type(entry) is int:
            length = entry
        else:
            # Hygiene: whatever is allocated here next commits fresh zeros.
            length = len(entry)
            self.committed -= length
        self.used -= length
        # Sorted and fully coalesced: only the two neighbours can merge.
        holes = self._free
        i = bisect_left(holes, (offset, length))
        end = offset + length
        if i < len(holes) and holes[i][0] == end:
            end += holes.pop(i)[1]
        if i:
            prev_off, prev_len = holes[i - 1]
            if prev_off + prev_len == offset:
                offset = prev_off
                i -= 1
                del holes[i]
        holes.insert(i, (offset, end - offset))

    def view(self, offset: int, nbytes: int) -> memoryview:
        """A writable view of an allocated region."""
        entry = self._live.get(offset)
        if entry is None:
            raise ValueError(f"view of unallocated offset {offset}")
        reserved = type(entry) is int
        length = entry if reserved else len(entry)
        if nbytes > length:
            raise ValueError(f"view of {nbytes}B exceeds allocation of {length}B")
        if reserved:
            entry = self._live[offset] = bytearray(length)
            self.committed += length
        return memoryview(entry)[:nbytes]
