"""Columnar metric-set arenas: the vectorized data-plane backing store.

A :class:`SetArenaPool` backs every same-layout metric set of a
simulated node population with rows of one contiguous numpy block
(rows = sets, columns = bytes of the data chunk).  Individually
allocated :class:`~repro.core.metric_set.MetricSet` objects remain the
API — each set's ``_data`` chunk simply becomes a memoryview of its
arena row — but the hot loops gain whole-population sweeps:

* **sampling** — a :class:`SampleCohort` fires every same-phase
  synthetic sampler with one periodic timer and one finish event,
  writing values / DGN / timestamp / consistent-flag columns for all
  member rows in single numpy ops (paper §IV-A: the per-metric collect
  cost amortized across the node class);
* **store flush** — staged arena-row snapshots decode as one 2-D
  ``frombuffer`` per flush batch instead of one struct unpack per row
  (§IV-D: the aggregator's store cost);
* **update validation** — MGN/DGN/consistent peeks over a producer
  batch run as one vectorized compare against the shadow-DGN column.

Everything is DES-pure: cohort members replicate the exact per-member
accounting (worker-pool grants, busy time, transaction flags, sanitizer
commits) of the scalar path, so same-seed runs are byte-identical to
the scalar reference the tier-1 identity tests build with
``SimEnv(engine, arena=False)``.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core import sanitize
from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ldmsd import Ldmsd
    from repro.core.sampler import SamplerPlugin

__all__ = ["SetArenaPool", "ArenaBlock", "SampleCohort", "CohortScheduler"]

# Data-chunk header geometry (mirrors repro.core.metric_set).
_MGN_OFF = 0
_DGN_OFF = 4
_CONSISTENT_OFF = 12
_TS_OFF = 16
_DATA_HDR_SIZE = 24
_U64_MASK = 0xFFFFFFFFFFFFFFFF

#: Row capacities of successive blocks of one arena.  Blocks are never
#: reallocated (live memoryviews alias their rows); growth chains new
#: blocks, so a 9,216-set population lands in four allocations.
_BLOCK_CAPS = (256, 1024, 4096, 8192)


class ArenaBlock:
    """One fixed-capacity 2-D byte block plus its header column views.

    ``block[r]`` is the data chunk of the set occupying row ``r``; the
    column views decode the shared header fields for all rows at once
    (the unaligned-offset views are legal because the trailing axis of a
    row-major slice stays contiguous).
    """

    __slots__ = ("arena", "block", "capacity", "data_size", "mgn", "dgn",
                 "flags", "ts", "values_mat", "n_values", "_free", "_next",
                 "flat")

    def __init__(self, arena: "_SetArena", capacity: int):
        self.arena = arena
        self.capacity = capacity
        self.data_size = ds = arena.data_size
        self.block = block = np.zeros((capacity, ds), dtype=np.uint8)
        #: Flat view of ``block`` made by the first MetricSet backed here
        #: (raw views belong to the set layer); data chunks are its slices.
        self.flat: Optional[memoryview] = None
        self.mgn = block[:, _MGN_OFF:_MGN_OFF + 4].view("<u4")[:, 0]
        self.dgn = block[:, _DGN_OFF:_DGN_OFF + 8].view("<u8")[:, 0]
        self.flags = block[:, _CONSISTENT_OFF]
        self.ts = block[:, _TS_OFF:_TS_OFF + 8].view("<f8")[:, 0]
        # Value matrix: only homogeneous contiguous layouts decode as a
        # typed 2-D view; mixed layouts still get row-backed storage and
        # header sweeps, just not whole-column value writes.
        dtype = arena.array_dtype
        if dtype is not None:
            first = arena.first_offset
            n = self.n_values = arena.n_values
            width = n * np.dtype(dtype).itemsize
            self.values_mat = block[:, first:first + width].view(dtype)
        else:
            self.n_values = 0
            self.values_mat = None
        self._free: list[int] = []
        self._next = 0

    def alloc_row(self) -> int:
        if self._free:
            return self._free.pop()
        r = self._next
        if r >= self.capacity:
            return -1
        self._next = r + 1
        return r

    def free_row(self, row: int) -> None:
        # Zero the row (matching Arena.free's scrub) so a recycled row
        # never leaks a previous set's values.
        self.block[row] = 0
        self._free.append(row)


class _SetArena:
    """All blocks backing one (layout, data_size) set population."""

    __slots__ = ("data_size", "array_dtype", "first_offset", "n_values",
                 "blocks", "rows_allocated")

    def __init__(self, data_size: int, array_dtype: Optional[str],
                 first_offset: int, n_values: int):
        self.data_size = data_size
        self.array_dtype = array_dtype
        self.first_offset = first_offset
        self.n_values = n_values
        self.blocks: list[ArenaBlock] = []
        self.rows_allocated = 0

    def acquire(self) -> tuple[ArenaBlock, int]:
        for blk in self.blocks:
            row = blk.alloc_row()
            if row >= 0:
                self.rows_allocated += 1
                return blk, row
        cap = _BLOCK_CAPS[min(len(self.blocks), len(_BLOCK_CAPS) - 1)]
        blk = ArenaBlock(self, cap)
        self.blocks.append(blk)
        self.rows_allocated += 1
        return blk, blk.alloc_row()


class SetArenaPool:
    """Per-environment registry of columnar arenas, keyed by compiled
    schema (layout identity), so every same-layout set of the simulated
    population shares one block family."""

    __slots__ = ("_arenas",)

    def __init__(self):
        self._arenas: dict[object, _SetArena] = {}

    def acquire_row(self, compiled, data_size: int) -> tuple[ArenaBlock, int]:
        arena = self._arenas.get(compiled)
        if arena is None:
            dtype = compiled.array_dtype
            n_values = len(compiled.offsets) if dtype is not None else 0
            arena = _SetArena(data_size, dtype, compiled.first_offset, n_values)
            self._arenas[compiled] = arena
        return arena.acquire()

    def stats(self) -> dict:
        return {
            "arenas": len(self._arenas),
            "blocks": sum(len(a.blocks) for a in self._arenas.values()),
            "rows": sum(a.rows_allocated for a in self._arenas.values()),
        }


# ---------------------------------------------------------------------------
# sampler cohorts
# ---------------------------------------------------------------------------


class _CohortMember:
    """One (daemon, plugin) pair riding a cohort sweep.

    Binds everything the sweep touches per member once at registration,
    so the per-tick cost is attribute reads, not dict lookups.
    """

    __slots__ = ("daemon", "plugin", "mset", "pool", "core", "cost",
                 "h_sample", "c_samples", "c_rows", "removed")

    def __init__(self, daemon: "Ldmsd", plugin: "SamplerPlugin", cost: float):
        self.daemon = daemon
        self.plugin = plugin
        self.mset = plugin._sets[0]
        self.pool = daemon.worker_pool
        self.core = daemon.core
        self.cost = cost
        self.h_sample = daemon._h_sample
        self.c_samples = daemon._c_samples
        self.c_rows = daemon.obs.counter("arena.rows_vectorized")
        self.removed = False


class _CohortHandle:
    """Duck-types ``TaskHandle`` for ``Ldmsd._schedules``."""

    __slots__ = ("cohort", "member", "cancelled")

    def __init__(self, cohort: "SampleCohort", member: _CohortMember):
        self.cohort = cohort
        self.member = member
        self.cancelled = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self.cohort.remove(self.member)


class _CohortFinish:
    """The single engine item closing a sweep's busy window (duck-types
    the engine's ``_fire`` protocol, like ``_PoolTask`` phase 2)."""

    __slots__ = ("cohort",)

    def __init__(self, cohort: "SampleCohort"):
        self.cohort = cohort

    def _fire(self) -> None:
        self.cohort._finish()


class SampleCohort:
    """All same-phase, same-cost, same-pattern samplers of a node class.

    One periodic timer fires the whole cohort; one finish event closes
    every member's busy window.  Per member and per tick the cohort
    replicates exactly what the scalar path does — worker-pool inline
    grant accounting, transaction begin/end, DGN shadow bump, duration
    telemetry, worker release — while the data writes (values, DGN,
    timestamp, consistent flag) run as whole-column numpy sweeps over
    the member rows of each arena block.
    """

    def __init__(self, scheduler: "CohortScheduler", key: tuple,
                 interval: float, synchronous: bool, offset: float):
        self.scheduler = scheduler
        self.engine = scheduler.engine
        self.key = key
        self.interval = interval
        self.members: list[_CohortMember] = []
        self._pending: list[_CohortMember] = []
        #: cached (block, row-index array) groups covering all members;
        #: invalidated on membership change, reused by full-cohort
        #: sweeps so the numpy fancy indices are built once, not per tick
        self._row_cache: Optional[list] = None
        self._finish_item = _CohortFinish(self)
        self._cost = key[-1]
        self._timer = self.engine.schedule_periodic(
            interval, self._sweep, synchronous=synchronous, offset=offset
        )

    def add(self, member: _CohortMember) -> _CohortHandle:
        self.members.append(member)
        self._row_cache = None
        return _CohortHandle(self, member)

    def remove(self, member: _CohortMember) -> None:
        member.removed = True
        try:
            self.members.remove(member)
        except ValueError:
            pass
        self._row_cache = None
        if not self.members:
            self._timer.cancel()
            self.scheduler._drop(self)

    def _row_groups(self) -> list:
        """(block, row-index array) pairs covering the full membership."""
        groups = self._row_cache
        if groups is None:
            by_block: dict[ArenaBlock, list[int]] = {}
            for m in self.members:
                by_block.setdefault(m.mset._ab, []).append(m.mset._arow)
            groups = self._row_cache = [
                (blk, np.asarray(rows, dtype=np.intp))
                for blk, rows in by_block.items()
            ]
        return groups

    # -- phase 1: the tick ------------------------------------------------
    def _sweep(self) -> None:
        engine = self.engine
        now = engine._now
        members = self.members
        cost = self._cost
        # The scalar path delivered one zero-alloc periodic tick per
        # member; keep the engine's fastpath counter equivalent.
        engine.timer_fastpath_ticks += len(members) - 1
        pending = self._pending
        pending.clear()
        for m in members:
            pool = m.pool
            if not pool.resource.try_acquire():
                # Worker busy: this member rides the scalar queue for
                # this tick (identical to a queued _PoolTask grant).
                d = m.daemon
                d.obs.counter("arena.fallback_sets").inc()
                pool.submit(partial(d._finish_sample, m.plugin), cost=cost,
                            core=m.core, tag="sampler",
                            on_start=partial(d._begin_sample, m.plugin))
                continue
            # Inline-grant accounting, replicated from _SimPool.submit.
            if m.core is not None:
                m.core.add_noise(now, cost, "sampler")
            pool.busy_time += cost
            pool.tasks_run += 1
            plugin = m.plugin
            plugin._sample_t0 = now
            mset = m.mset
            if mset._in_transaction:
                raise ReproError(f"nested transaction on set {mset.name!r}")
            if mset._shadow is not None:
                sanitize.check(mset, "begin_transaction")
            mset._in_transaction = True
            pending.append(m)
        # Logical-event accounting: this one sweep fire replaced the
        # per-member timer fires the scalar path would heap-process.
        # (The finish side accounts its own replacement, so horizon
        # truncation of the final completion cancels exactly and
        # processed + vectorized equals the scalar processed count.)
        engine.vectorized_events += len(members) - 1
        if not pending:
            return
        # Open every member's sampling transaction in one flag sweep.
        if len(pending) == len(members):
            for blk, rows in self._row_groups():
                blk.flags[rows] = 0
        else:
            rows_by_block: dict[ArenaBlock, list[int]] = {}
            for m in pending:
                rows_by_block.setdefault(m.mset._ab, []).append(m.mset._arow)
            for blk, rows in rows_by_block.items():
                blk.flags[rows] = 0
        engine._push(self._finish_item, cost)

    # -- phase 2: the cost horizon ---------------------------------------
    def _finish(self) -> None:
        now = self.engine._now
        cost = self._cost
        pending = self._pending
        # This one finish fire replaced the per-member pool-task
        # completion events of the scalar path.
        self.engine.vectorized_events += len(pending) - 1
        proto = pending[0].plugin
        # Members normally tick in lockstep, so the common case is one
        # uniform tick across the full membership — served straight from
        # the cached row-index arrays.  A member whose counter drifted
        # (stop/start churn) or a partial tick (fallbacks) takes the
        # general per-(block, tick) grouping.
        ticks = [m.plugin.cohort_advance() for m in pending]
        t0 = ticks[0]
        full = len(pending) == len(self.members)
        if full and all(t == t0 for t in ticks):
            groups = self._row_groups()
            row = proto.cohort_row(t0, groups[0][0].values_mat.dtype)
            for blk, rows in groups:
                blk.values_mat[rows] = row
                # One transaction-scoped DGN bump of `card` per member —
                # the same final DGN the scalar set_values path produces.
                blk.dgn[rows] += blk.n_values
                blk.ts[rows] = now
            ngroups = len(groups)
            flag_groups = groups
        else:
            gdict: dict[tuple, list[int]] = {}
            for m, t in zip(pending, ticks):
                gdict.setdefault((m.mset._ab, t), []).append(m.mset._arow)
            for (blk, t), rows in gdict.items():
                vm = blk.values_mat
                vm[rows] = proto.cohort_row(t, vm.dtype)
                blk.dgn[rows] += blk.n_values
                blk.ts[rows] = now
            ngroups = len(gdict)
            flags_by_block: dict[ArenaBlock, list[int]] = {}
            for m in pending:
                flags_by_block.setdefault(m.mset._ab, []).append(m.mset._arow)
            flag_groups = list(flags_by_block.items())
        pending[0].daemon.obs.counter("arena.sweeps").inc(ngroups)
        card = pending[0].mset._ab.n_values
        for m in pending:
            mset = m.mset
            plugin = m.plugin
            mset._dgn = (mset._dgn + card) & _U64_MASK
            plugin.samples_taken += 1
            if mset._shadow is not None:
                sanitize.commit(mset)
                sanitize.check(mset, "end_transaction")
            mset._in_transaction = False
            plugin.last_sample_ts = now
            plugin.sample_time_total += cost
            m.h_sample.observe(cost)
            m.c_samples.inc()
            m.c_rows.inc()
            m.pool.resource.release()
        # Close every transaction in one consistent-flag sweep.
        for blk, rows in flag_groups:
            blk.flags[rows] = 1
        pending.clear()


class CohortScheduler:
    """Groups eligible samplers into :class:`SampleCohort` sweeps.

    The cohort key pins everything that must match for two samplers to
    share a tick: registration instant (so the shared periodic timer
    fires at exactly the instants each member's private timer would
    have), interval/phase, the simulated sample cost, and the plugin's
    vectorization key (pattern and layout).
    """

    def __init__(self, engine):
        self.engine = engine
        self._cohorts: dict[tuple, SampleCohort] = {}

    def register(self, daemon: "Ldmsd", plugin: "SamplerPlugin",
                 interval: float, synchronous: bool, offset: float,
                 cost: float, veckey: tuple) -> _CohortHandle:
        key = (self.engine._now, interval, synchronous, offset, veckey, cost)
        cohort = self._cohorts.get(key)
        if cohort is None:
            cohort = SampleCohort(self, key, interval, synchronous, offset)
            self._cohorts[key] = cohort
        return cohort.add(_CohortMember(daemon, plugin, cost))

    def _drop(self, cohort: SampleCohort) -> None:
        if self._cohorts.get(cohort.key) is cohort:
            del self._cohorts[cohort.key]
