"""The ledger's four workloads.

Each workload is a class with the same small surface —
``setup()`` (topology build + connect/lookup storm up to the first
stored sample), ``warmup()``, ``run_slice()`` (one fixed piece of steady
work, returning ``(sets stored, operations attempted, operations
failed)``), ``snapshot()`` (cumulative counters through public
accessors), ``close()`` (shutdown + output checks) — so ``run.py`` can
time them with one loop.  ``paced`` says whether the calling thread only
paces a real-time run (then it takes host-speed ``pulses`` while it
waits) or runs the program itself.  Why these four, and what each
stresses, is in README.md.

The seed feeds one ``random.Random`` in :func:`make_config`; a workload
receives only the generated configuration.  Every draw is cost-neutral
(which producers get which value pattern, in what order they register,
how the query windows and client phases jitter), so seeds change the
inputs but not the amount of work.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import random
import time

from repro.core import Ldmsd, SimEnv
from repro.core.aggregator import SetState
from repro.core.env import RealEnv
from repro.query.clients import ClientMix, build_population
from repro.sim.engine import Engine
from repro.transport.base import get_transport_profile
from repro.transport.simfabric import SimFabric, SimTransport
from repro.transport.sock import SockTransport
from repro.util.stats import percentile

from hostspeed import PULSE, slowness
from probes import RawRecorder

__all__ = ["SIZES", "make_config", "make_workload", "CheckFailed"]

#: Full sizes (ISSUE 12).  ``--smoke`` divides the population sizes by
#: ~16 for the self-test.
SIZES = {
    "fanin_knee": dict(samplers=9216, metrics=10, interval=5.0, xprt="sock",
                       slice_intervals=1),
    "wide_store": dict(samplers=512, metrics=194, interval=1.0, xprt="ugni",
                       slice_intervals=8),
    "sock_loopback": dict(samplers=2, sets=32, metrics=64, interval=0.02,
                          slice_seconds=1.0, warmup_seconds=2.0),
    "query_mix": dict(samplers=64, metrics=8, interval=1.0, xprt="sock",
                      slice_intervals=30, warmup_slices=3,
                      pollers=64, evaluators=16, scanners=8),
}
_SMOKE_DIVIDED = ("samplers", "sets", "pollers", "evaluators", "scanners")
#: A DES slice ends this far into a collection interval: pulls fire in
#: the first quarter of it, so by then every sample of the interval has
#: been flushed to the store and the stored count is exact.
_EDGE = 0.75
#: Rows covered by the fan-in row digest: the first 8 steady intervals,
#: so same-seed runs compare even when a faster host completes more.
_DIGEST_INTERVALS = 8


class CheckFailed(Exception):
    """An output check failed: the run is wrong, not slow."""


def make_config(name: str, seed: int, smoke: bool = False) -> dict:
    cfg = dict(SIZES[name])
    if smoke:
        for key in _SMOKE_DIVIDED:
            if key in cfg:
                cfg[key] = max(cfg[key] // 16, 1)
        if name == "sock_loopback":
            cfg["samplers"] = SIZES[name]["samplers"]
            cfg["warmup_seconds"] = 0.3
            cfg["slice_seconds"] = 0.25
    rng = random.Random(seed)
    nsets = cfg["samplers"] * cfg.get("sets", 1)
    order = list(range(cfg["samplers"]))
    rng.shuffle(order)
    patterns = ["counter"] * (nsets // 2) + ["constant"] * (nsets - nsets // 2)
    rng.shuffle(patterns)
    cfg.update(name=name, seed=seed, order=order, patterns=patterns)
    if name == "query_mix":
        nclients = cfg["pollers"] + cfg["evaluators"] + cfg["scanners"]
        cfg.update(
            poll_window=rng.uniform(9.8, 10.2),
            eval_window=rng.uniform(118.0, 122.0),
            scan_span=rng.uniform(118.0, 122.0),
            client_delays=[rng.uniform(0.0, 1.0) for _ in range(nclients)],
        )
    return cfg


def make_workload(cfg: dict, tmpdir: str):
    cls = {"fanin_knee": FaninKnee, "wide_store": WideStore,
           "sock_loopback": SockLoopback, "query_mix": QueryMix}[cfg["name"]]
    return cls(cfg, tmpdir)


def _pct(values: list, q: float) -> float:
    """``percentile`` of the samples, 0.0 when there are none."""
    return percentile(values, q) if values else 0.0


def _producer_totals(agg) -> dict:
    fields = ("updates_completed", "updates_coalesced", "updates_failed",
              "skipped_stale", "skipped_inconsistent", "stored",
              "lookups_failed")
    out = dict.fromkeys(fields, 0)
    for prod in agg.producers.values():
        stats = prod.stats
        for f in fields:
            out[f] += getattr(stats, f)
    return out


def _sha256_dir(path: str) -> str:
    h = hashlib.sha256()
    for fname in sorted(os.listdir(path)):
        h.update(fname.encode())
        with open(os.path.join(path, fname), "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# DES workloads
# ---------------------------------------------------------------------------


class _DesWorkload:
    """N sampler daemons -> one aggregator -> one store, under SimEnv."""

    paced = False  # run_slice() runs the whole program on the calling thread

    def __init__(self, cfg: dict, tmpdir: str):
        self.cfg = cfg
        self.tmpdir = tmpdir
        self.n = cfg["samplers"]
        self.metrics = cfg["metrics"]
        self.interval = cfg["interval"]
        self.slice_intervals = cfg["slice_intervals"]
        self.slices_run = 0
        self.info: dict = {}

    # -- topology ----------------------------------------------------------
    def _add_store(self, agg):
        raise NotImplementedError

    def _after_build(self) -> None:
        """Hook: extra topology (the query tier) after the pipeline."""

    def _agg_mem(self) -> int:
        """Aggregator arena: room for one mirror of every sampler's set."""
        one = self.samplers[0].get_set("n0/syn").total_size
        return max(4 * 1024 * 1024, self.n * max(4096, one + 1024))

    def setup(self) -> None:
        cfg = self.cfg
        xprt = cfg["xprt"]
        interval = self.interval
        metrics = self.metrics
        # Thousands of daemons allocate enough to trigger dozens of full
        # collections that free nothing (see experiments/fanin.py).
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            eng = self.eng = Engine()
            env = self.env = SimEnv(eng)
            fabric = self.fabric = SimFabric(eng)
            profile = get_transport_profile(xprt)
            self.samplers = []
            for i in range(self.n):
                x = SimTransport(fabric, profile, node_id=i)
                d = Ldmsd(f"n{i}", env=env, transports={xprt: x},
                          mem=max(8 * 1024, 4096 + metrics * 256),
                          workers=1, conn_threads=1, flush_threads=1)
                d.load_sampler("synthetic", instance=f"n{i}/syn",
                               component_id=i + 1, num_metrics=metrics,
                               pattern=cfg["patterns"][i])
                d.start_sampler(f"n{i}/syn", interval=interval)
                d.listen(xprt, f"n{i}:411")
                self.samplers.append(d)
            self.agg_x = SimTransport(fabric, profile, node_id="agg")
            agg = self.agg = Ldmsd(
                "agg", env=env, transports={xprt: self.agg_x},
                mem=self._agg_mem(), workers=8, conn_threads=4,
                flush_threads=2)
            self.store = self._add_store(agg)
            for i in cfg["order"]:
                agg.add_producer(f"n{i}", xprt, f"n{i}:411",
                                 interval=interval, sets=(f"n{i}/syn",))
            self._after_build()
            # Ramp-up: connect storm, lookups, first samples; ends when
            # the first sample of every producer is in the store.
            eng.run(until=(1.0 + _EDGE) * interval)
        finally:
            if paused:
                gc.enable()
        if self.store.records_stored != self.n:
            raise CheckFailed(
                f"{cfg['name']}: {self.store.records_stored} sets stored "
                f"after ramp-up, expected {self.n}")

    def warmup(self) -> None:
        """DES workloads are steady from the first stored sample."""

    # -- steady phase --------------------------------------------------------
    def run_slice(self) -> tuple[int, int, int]:
        before = self.store.records_stored
        self.slices_run += 1
        until = (1.0 + _EDGE + self.slices_run * self.slice_intervals)
        self.eng.run(until=until * self.interval)
        stored = self.store.records_stored - before
        expected = self.n * self.slice_intervals
        return stored, expected, expected - stored

    def finish_window(self) -> tuple[int, int]:
        """Nothing to settle: every slice is exact against the schedule."""
        return 0, 0

    def window_counts(self, start: dict, end: dict) -> dict:
        """Counts only this workload has, between two snapshots."""
        return {}

    def snapshot(self) -> dict:
        snap = _producer_totals(self.agg)
        eng = self.eng
        snap.update(
            events=eng.events_processed + eng.vectorized_events,
            vectorized=eng.vectorized_events,
            rows_stored=self.store.records_stored,
            bytes_written=self.store.bytes_written(),
            refused_connections=self.agg_x.refused_connections,
        )
        return snap

    # -- checks + teardown ---------------------------------------------------
    def check_live(self) -> None:
        """Checks that need the live topology (before shutdown)."""
        name = self.cfg["name"]
        connected = sum(1 for p in self.agg.producers.values() if p.connected)
        if connected != self.n:
            raise CheckFailed(f"{name}: {connected} of {self.n} connected")
        if self.agg_x.refused_connections:
            raise CheckFailed(
                f"{name}: {self.agg_x.refused_connections} refused connections")
        tracker = self.agg.freshness.fleet(self.env.now())["completeness"]
        if tracker != 1.0:
            raise CheckFailed(f"{name}: tracker completeness {tracker}")

    def check_output(self) -> None:
        """Checks on what the store wrote (after shutdown)."""

    def close(self, check: bool = True) -> None:
        if check:
            self.check_live()
        self.agg.shutdown()
        if check:
            self.check_output()


class FaninKnee(_DesWorkload):
    """9,216 x 10-metric sets @ 5 s over ``sock`` -> memory store."""

    def _add_store(self, agg):
        return agg.add_store("memory")

    def check_output(self) -> None:
        rows = self.store.rows
        if len(rows) != self.store.records_stored:
            raise CheckFailed("fanin_knee: memory store lost rows")
        h = hashlib.sha256()
        for r in rows[: self.n * (_DIGEST_INTERVALS + 1)]:
            h.update(repr((r.timestamp, r.producer, r.set_name,
                           tuple(r.values))).encode())
        self.info["digest"] = h.hexdigest()
        self.info["digest_slices"] = min(self.slices_run, _DIGEST_INTERVALS)


class WideStore(_DesWorkload):
    """512 x 194-metric sets @ 1 s over ``ugni`` -> store_csv files."""

    def _add_store(self, agg):
        return agg.add_store("store_csv", path=self.tmpdir)

    def check_live(self) -> None:
        super().check_live()
        # What the last CSV row must say: the sampler that produced it
        # still holds that sample (the run ends mid-interval).
        self._live_sets = {
            d.name: d.get_set(f"{d.name}/syn") for d in self.samplers}

    def check_output(self) -> None:
        path = os.path.join(self.tmpdir, "synthetic.csv")
        lines = 0
        last = b""
        with open(path, "rb") as f:
            header = f.readline()
            for line in f:
                lines += 1
                last = line
        stored = self.store.records_stored
        if lines != stored:
            raise CheckFailed(f"wide_store: {lines} CSV rows, {stored} stored")
        ncols = 3 + self.metrics
        if len(header.rstrip(b"\n").split(b",")) != ncols:
            raise CheckFailed("wide_store: CSV header column count")
        cells = last.decode().rstrip("\n").split(",")
        if len(cells) != ncols:
            raise CheckFailed(f"wide_store: last row has {len(cells)} columns")
        mset = self._live_sets[cells[1]]
        want = [f"{mset.timestamp:.6f}", cells[1], str(mset.component_ids()[0])]
        want += [str(v) for v in mset.values_tuple()]
        if cells != want:
            raise CheckFailed("wide_store: last CSV row differs from the "
                              "sample it should hold")
        self.info["digest"] = _sha256_dir(self.tmpdir)
        self.info["digest_slices"] = self.slices_run


class QueryMix(_DesWorkload):
    """64 samplers -> aggregator with SOS + rollups + query tier, under
    the CMS client mix (pollers / evaluators / scanners)."""

    def _add_store(self, agg):
        return agg.add_store("sos", path=self.tmpdir, rollups="10,60")

    def _after_build(self) -> None:
        cfg = self.cfg
        xprt = cfg["xprt"]
        self.agg.enable_query(hot_window=30, cache_entries=256)
        self.agg.listen(xprt, "agg:412")
        mix = ClientMix(
            pollers=cfg["pollers"], evaluators=cfg["evaluators"],
            scanners=cfg["scanners"], poll_window=cfg["poll_window"],
            eval_window=cfg["eval_window"], scan_span=cfg["scan_span"])
        self.recorder = RawRecorder()
        self.clients = build_population(
            self.env,
            lambda i: SimTransport(self.fabric, xprt, node_id=f"client{i}"),
            "agg:412", "synthetic", mix, self.recorder)
        for client, delay in zip(self.clients, cfg["client_delays"]):
            self.env.call_later(delay, client.start)

    def warmup(self) -> None:
        # Until the first 10 s / 60 s rollup buckets seal, queries on
        # those levels answer E_NOENT (README, known limits): warm up
        # past them so no operation of the timed window fails.
        errors = self._client_totals()["error_replies"]
        for _ in range(self.cfg["warmup_slices"]):
            super().run_slice()
        self.info["warmup_error_replies"] = (
            self._client_totals()["error_replies"] - errors)

    def _client_totals(self) -> dict:
        clients = self.clients
        return dict(
            sent=sum(c.sent for c in clients),
            replies=sum(c.replies for c in clients),
            error_replies=sum(c.errors for c in clients),
        )

    def run_slice(self) -> tuple[int, int, int]:
        before = self._client_totals()
        stored, expected, missing = super().run_slice()
        after = self._client_totals()
        sent = after["sent"] - before["sent"]
        errors = after["error_replies"] - before["error_replies"]
        return stored, expected + sent, missing + errors

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap.update(self._client_totals())
        obs = self.agg.obs
        snap.update(
            query_requests=obs.counter("query.requests").value,
            cache_hits=obs.counter("query.cache_hits").value,
            rows_served=obs.counter("query.rows_served").value,
        )
        # Raw RTT sample counts, so a window's quantiles can be cut out.
        snap["rtt_seen"] = {
            kind: len(self.recorder.histogram(f"client.{kind}.rtt").values)
            for kind in ("poller", "evaluator", "scanner")}
        return snap

    def window_counts(self, start: dict, end: dict) -> dict:
        """Simulated RTT quantiles (us) of the replies between two
        snapshots, from the raw samples."""
        out = {}
        everything: list[float] = []
        for kind in ("poller", "evaluator", "scanner"):
            vals = self.recorder.histogram(f"client.{kind}.rtt").values
            window = vals[start["rtt_seen"][kind]:end["rtt_seen"][kind]]
            everything.extend(window)
            out[f"sim_rtt_us_p50.{kind}"] = _pct(window, 50) * 1e6
            out[f"sim_rtt_us_p99.{kind}"] = _pct(window, 99) * 1e6
        out["sim_rtt_us_p50"] = _pct(everything, 50) * 1e6
        out["sim_rtt_us_p99"] = _pct(everything, 99) * 1e6
        self.info["rtt_samples"] = len(everything)
        return out

    def check_live(self) -> None:
        super().check_live()
        totals = self._client_totals()
        if totals["replies"] < totals["sent"] - len(self.clients):
            raise CheckFailed(
                f"query_mix: {totals['sent']} requests, only "
                f"{totals['replies']} replies")
        self._fingerprint = hashlib.sha256(repr((
            sorted(self.snapshot().items(), key=lambda kv: kv[0]),
            [self.recorder.histogram(f"client.{k}.rtt").values
             for k in ("poller", "evaluator", "scanner")],
        )).encode())

    def check_output(self) -> None:
        self._fingerprint.update(_sha256_dir(self.tmpdir).encode())
        self.info["digest"] = self._fingerprint.hexdigest()
        self.info["digest_slices"] = self.slices_run


# ---------------------------------------------------------------------------
# Real-TCP workload
# ---------------------------------------------------------------------------


class SockLoopback:
    """2 sampler daemons x 32 sets -> one aggregator over real TCP on
    127.0.0.1 -> store_csv + the tap store; open loop in real time."""

    paced = True  # the daemons' threads do the work; run_slice() only waits
    #: Seconds between host-speed pulses: 43 ms steps through every phase
    #: of the 20 ms tick, so the pulses see busy and idle moments alike.
    _PULSE_EVERY = 0.043

    def __init__(self, cfg: dict, tmpdir: str):
        self.cfg = cfg
        self.tmpdir = tmpdir
        self.interval = cfg["interval"]
        self.nsets = cfg["samplers"] * cfg["sets"]
        self.info: dict = {}
        self.pulses: list[float] = []
        self._tick0 = None

    def setup(self) -> None:
        cfg = self.cfg
        interval = self.interval
        # All daemons on one core, as a production ldmsd is bound to one
        # (the process is this workload's own).  The interpreter lock
        # lets one thread run Python at a time anyway; a second core only
        # adds cross-core wake-ups and cache misses whose number differs
        # from run to run (CPU per set spread 9 % unbound, 3 % bound).
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        # One shared RealEnv: every daemon stamps with the same clock,
        # so the tap can subtract a sampler's timestamp from its own.
        env = self.env = RealEnv()
        self.samplers = []
        ports = []
        k = 0
        for s in range(cfg["samplers"]):
            d = Ldmsd(f"s{s}", env=env, transports={"sock": SockTransport()},
                      mem="4MB", workers=1, conn_threads=1, flush_threads=1)
            for j in range(cfg["sets"]):
                d.load_sampler("synthetic", instance=f"s{s}/syn{j}",
                               component_id=k + 1,
                               num_metrics=cfg["metrics"],
                               pattern=cfg["patterns"][k])
                d.start_sampler(f"s{s}/syn{j}", interval=interval, offset=0.0)
                k += 1
            ports.append(d.listen("sock", ("127.0.0.1", 0)).port)
            self.samplers.append(d)
        agg = self.agg = Ldmsd(
            "agg", env=env, transports={"sock": SockTransport()}, mem="16MB",
            workers=2, conn_threads=2, flush_threads=2)
        self.csv = agg.add_store("store_csv", path=self.tmpdir)
        self.tap = agg.add_store("bench_tap", clock=env.now,
                                 interval=interval, offset=interval / 2)
        for s in cfg["order"]:
            agg.add_producer(
                f"s{s}", "sock", ("127.0.0.1", ports[s]), interval=interval,
                offset=interval / 2,
                sets=tuple(f"s{s}/syn{j}" for j in range(cfg["sets"])))
        # Set-up ends when every set is looked up and ready to be pulled
        # (connect + lookup storm done).  The first *stored* record comes
        # with the next pull, an instant the 20 ms clock quantises (32 or
        # 52 ms, flipping with host speed); warmup() waits for it.
        updaters = [u for p in agg.producers.values()
                    for u in p.updaters.values()]
        self._wait(lambda: all(u.state is SetState.READY for u in updaters),
                   0.0002, "sets not looked up")

    @staticmethod
    def _wait(done, poll: float, what: str) -> None:
        deadline = time.monotonic() + 10.0
        while not done():
            if time.monotonic() > deadline:
                raise CheckFailed(f"sock_loopback: {what} within 10 s")
            time.sleep(poll)

    def warmup(self) -> None:
        self._wait(lambda: self.tap.records_stored > 0, 0.0005,
                   "nothing stored")
        time.sleep(self.cfg["warmup_seconds"])

    def run_slice(self) -> tuple[int, int, int]:
        if self._tick0 is None:
            # Open the window on a whole tick a little ahead of now.
            self._tick0 = math.floor(self.env.now() / self.interval) + 1
            self._next = time.monotonic()
            self._seen = self.tap.records_stored
            self._pulls0 = self.snapshot()
        # Wait out the slice, taking a host-speed pulse every 43 ms.
        self._next += self.cfg["slice_seconds"]
        pulse_at = time.monotonic()
        while True:
            pulse_at += self._PULSE_EVERY
            if pulse_at >= self._next:
                break
            time.sleep(max(pulse_at - time.monotonic(), 0.0))
            self.pulses.append(slowness(PULSE))
        time.sleep(max(self._next - time.monotonic(), 0.0))
        seen = self.tap.records_stored
        stored = seen - self._seen
        self._seen = seen
        # Attempted/failed are settled once, in finish_window(); a slice
        # only reports what arrived in it.
        return stored, 0, 0

    def finish_window(self) -> tuple[int, int]:
        """Close the window: (attempted, failed) pulls, and the lag
        distributions and lost sets of its ticks.

        An operation is one pull of one set.  It fails if it errors, or
        if it fetched a fresh sample that then did not reach the stores.
        A pull that finds nothing new is wasted work (``stored_per_update``),
        not a failure; a tick the *schedule* lost — the host stalled past
        the 10 ms between sample and pull, so the sample was overwritten
        unread — is ``lost_sets``: no pull ever saw it.
        """
        tick1 = math.floor(self.env.now() / self.interval) - 1
        time.sleep(0.2)  # grace: let the last due pulls land
        lags, lates = self.tap.window(self._tick0, tick1)
        due = (tick1 - self._tick0) * self.nsets
        self.info["intervals"] = tick1 - self._tick0
        self.info["due_sets"] = due
        self._tick_counts = {
            "store_lag_ms_p50": _pct(lags, 50) * 1e3,
            "store_lag_ms_p95": _pct(lags, 95) * 1e3,
            "store_lag_ms_p99": _pct(lags, 99) * 1e3,
            "sample_late_ms_p50": _pct(lates, 50) * 1e3,
            "lost_sets": due - len(lags),
        }
        self.info["ticks"] = dict(self._tick_counts, n=len(lags))
        p0, p1 = self._pulls0, self.snapshot()
        d = {k: p1[k] - p0[k] for k in p0}
        fresh = (d["updates_completed"] - d["skipped_stale"]
                 - d["skipped_inconsistent"])
        failed = d["updates_failed"] + d["lookups_failed"] + fresh - d["stored"]
        return d["updates_completed"] + d["updates_failed"], failed

    def window_counts(self, start: dict, end: dict) -> dict:
        """Lag and losses of the tick window finish_window() closed."""
        return self._tick_counts

    def snapshot(self) -> dict:
        # Under the aggregator's lock, which every update completes
        # under: ``stored`` is never read one behind ``updates_completed``.
        with self.agg.lock:
            snap = _producer_totals(self.agg)
        snap.update(
            events=0, vectorized=0,
            rows_stored=self.csv.records_stored,
            bytes_written=self.csv.bytes_written(),
            refused_connections=0,
        )
        return snap

    def close(self, check: bool = True) -> None:
        totals = _producer_totals(self.agg)
        self.agg.shutdown()
        for d in self.samplers:
            d.shutdown()
        self.env.shutdown()
        if not check:
            return
        for field in ("updates_failed", "lookups_failed"):
            if totals[field]:
                raise CheckFailed(f"sock_loopback: {field} = {totals[field]}")
        # An overrun open-loop run is invalid, not slow.
        lost, due = self._tick_counts["lost_sets"], self.info["due_sets"]
        if lost > 0.10 * due:
            raise CheckFailed(
                f"sock_loopback: {lost} of {due} due sets never stored")
        with open(os.path.join(self.tmpdir, "synthetic.csv"), "rb") as f:
            rows = sum(1 for _ in f) - 1
        if not (rows == self.csv.records_stored == self.tap.records_stored):
            raise CheckFailed(
                f"sock_loopback: {rows} CSV rows, {self.csv.records_stored} "
                f"stored, {self.tap.records_stored} tapped")
