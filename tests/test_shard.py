"""Disjoint-shard fan-out: order, error propagation, toggles, identity.

The contract under test: running self-contained worlds (sweep points,
fleet time slices) across forked workers must leave every observable
output byte-identical to the inline run — same points, same row
digests, same arrays — for any ``REPRO_SHARDS`` worker count, and
results come back in payload order however the workers were packed.
"""

import os
import signal
import time

import numpy as np
import pytest

import repro.plugins  # noqa: F401
from repro.core import sanitize
from repro.experiments.bw_day import run_day, run_day_sharded
from repro.experiments.fanin import run_point, sweep_transport
from repro.network.torus import GeminiTorus
from repro.sim.fleet import HsnFleetTrace, RateFleet
from repro.sim.shard import maybe_parallel, run_parallel, shards_default
from repro.util.errors import ConfigError, SimulationError


class TestShardsToggle:
    def test_shards_default_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert shards_default() == 0
        for raw, want in (("0", 0), ("1", 0), ("2", 2), ("8", 8)):
            monkeypatch.setenv("REPRO_SHARDS", raw)
            assert shards_default() == want
        monkeypatch.setenv("REPRO_SHARDS", "nope")
        with pytest.raises(ConfigError):
            shards_default()
        monkeypatch.setenv("REPRO_SHARDS", "-2")
        with pytest.raises(ConfigError):
            shards_default()

    def test_sweep_identical_across_shard_counts(self):
        """REPRO_SHARDS=0/2/4 under the sanitizer: same points, same
        per-point row digests (forked workers inherit the mode)."""
        prev = sanitize.configure("raise")
        try:
            sizes = [4, 6, 9]

            def job(n):
                pt, info = run_point(n, "sock", interval=1.0, duration=5.0,
                                     scale=1024, digest=True)
                return pt, info["digest"]

            inline = [job(n) for n in sizes]
            for nshards in (2, 4):
                assert run_parallel(job, sizes, nshards) == inline
        finally:
            sanitize.configure(prev)

    def test_sweep_transport_respects_env_toggle(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        sharded = sweep_transport("sock", sizes=[4, 6], interval=1.0,
                                  duration=5.0, scale=1024)
        monkeypatch.setenv("REPRO_SHARDS", "0")
        inline = sweep_transport("sock", sizes=[4, 6], interval=1.0,
                                 duration=5.0, scale=1024)
        assert sharded == inline


class TestParallelRunner:
    def test_results_in_payload_order(self):
        res = run_parallel(lambda x: x * 10, list(range(7)), 3)
        assert res == [x * 10 for x in range(7)]

    def test_empty_payloads(self):
        assert run_parallel(lambda x: x, [], 4) == []
        assert maybe_parallel(lambda x: x, [], 4) == []

    def test_largest_first_packing_returns_payload_order(self):
        """Payloads are handed out in order, each to the next free
        worker: passed largest-first, the two biggest jobs start on
        different workers, the small ones pack behind whichever
        finishes first, and results still line up with the payloads."""
        def job(cost):
            time.sleep(cost / 100.0)
            return cost, os.getpid()

        costs = [50, 10, 3, 2, 1]
        res = run_parallel(job, costs, 2)
        assert [r[0] for r in res] == costs
        pids = [r[1] for r in res]
        assert pids[0] != pids[1]
        assert len(set(pids)) == 2
        # 10 finishes long before 50: its worker takes all the small
        # jobs before the other worker is free (10+3+2+1 << 50).
        assert pids[2] == pids[3] == pids[4] == pids[1]

    def test_every_payload_runs_exactly_once_when_oversubscribed(self, tmp_path):
        """More workers than cores racing for the shared hand-out
        cursor: a lost update would run a payload twice."""
        log = tmp_path / "ran.log"

        def job(x):
            with open(log, "a") as f:
                f.write(f"{x}\n")
            return x

        payloads = list(range(300))
        assert run_parallel(job, payloads, 6) == payloads
        assert sorted(int(x) for x in log.read_text().split()) == payloads

    def test_more_workers_than_payloads(self):
        assert run_parallel(lambda x: -x, [1, 2], 8) == [-1, -2]

    def test_worker_error_propagates(self):
        def boom(x):
            if x == 2:
                raise ValueError("shard job exploded")
            return x

        with pytest.raises(SimulationError, match="shard job exploded"):
            run_parallel(boom, [1, 2, 3], 2)

    def test_worker_error_beside_large_result_does_not_hang(self):
        """One worker fails while its sibling is blocked sending a result
        far larger than the pipe buffer: nobody will read that pipe, so
        joining the sibling as it stands would never return."""
        def job(x):
            if x == 0:
                raise ValueError("shard job exploded")
            return b"x" * (4 << 20)

        def on_alarm(signum, frame):
            # Not an OSError: Process.join() swallows those around waitpid.
            pytest.fail("run_parallel still joining after 20 s")

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(20)
        try:
            with pytest.raises(SimulationError) as err:
                run_parallel(job, [0, 1], 2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert "Traceback" in str(err.value)
        assert "ValueError: shard job exploded" in str(err.value)

    def test_maybe_parallel_inline_when_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "0")
        calls = []

        def job(x):
            calls.append(x)
            return x

        assert maybe_parallel(job, [1, 2, 3]) == [1, 2, 3]
        assert calls == [1, 2, 3]  # ran inline, in order


class TestFleetSlices:
    def test_hsn_trace_slices_are_bit_identical(self):
        torus = GeminiTorus(dims=(4, 4, 4))
        t = HsnFleetTrace(torus, sample_interval=60.0)
        t.add_flow_window(30.0, 290.0, 0, 9, 2e9)
        t.add_flow_window(120.0, 240.0, 4, 20, 3e9)
        full = t.run(600.0)
        for s0, s1 in ((0, 3), (3, 7), (7, 10)):
            part = t.run(600.0, sample_range=(s0, s1))
            assert np.array_equal(part.times, full.times[s0:s1])
            for d in ("X+", "Y+"):
                assert np.array_equal(part.stall_pct[d], full.stall_pct[d][s0:s1])
                assert np.array_equal(part.bw_pct[d], full.bw_pct[d][s0:s1])

    def test_hsn_bad_slice_rejected(self):
        t = HsnFleetTrace(GeminiTorus(dims=(4, 4, 4)))
        with pytest.raises(SimulationError, match="sample_range"):
            t.run(600.0, sample_range=(5, 99))

    def test_rate_fleet_slice_burns_jitter_stream(self):
        def fleet():
            f = RateFleet(8, sample_interval=10.0, seed=7)
            f.base_rate = 3.0
            f.add_rate_window(20.0, 70.0, [1, 3], 5.0)
            return f

        times, deltas = fleet().run(100.0)
        t_s, d_s = fleet().run(100.0, sample_range=(4, 8))
        assert np.array_equal(times[4:8], t_s)
        assert np.array_equal(deltas[4:8], d_s)

    def test_run_day_sharded_matches_single_process(self):
        kw = dict(dims=(4, 4, 4), sample_interval=3600.0, background_jobs=4)
        r0, _ = run_day(**kw)
        r1, _ = run_day_sharded(nshards=3, **kw)
        assert np.array_equal(r0.times, r1.times)
        for d in ("X+", "Y+"):
            assert np.array_equal(r0.stall_pct[d], r1.stall_pct[d])
            assert np.array_equal(r0.bw_pct[d], r1.bw_pct[d])

    def test_run_day_identical_across_shard_counts(self):
        """REPRO_SHARDS=0/2/4 under the sanitizer: the same day."""
        prev = sanitize.configure("raise")
        try:
            kw = dict(dims=(4, 4, 4), sample_interval=3600.0,
                      background_jobs=4)
            r0, _ = run_day(nshards=0, **kw)
            for nshards in (2, 4):
                r1, _ = run_day(nshards=nshards, **kw)
                assert np.array_equal(r0.times, r1.times)
                for d in r0.stall_pct:
                    assert np.array_equal(r0.stall_pct[d], r1.stall_pct[d])
                    assert np.array_equal(r0.bw_pct[d], r1.bw_pct[d])
        finally:
            sanitize.configure(prev)

    def test_run_day_env_toggle_routes_to_sharded(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        kw = dict(dims=(4, 4, 4), sample_interval=3600.0, background_jobs=4)
        r_sharded, _ = run_day(**kw)
        monkeypatch.setenv("REPRO_SHARDS", "0")
        r_plain, _ = run_day(**kw)
        assert np.array_equal(r_sharded.stall_pct["X+"], r_plain.stall_pct["X+"])
