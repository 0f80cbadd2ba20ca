"""§IV-B failover: aggregator loss under the fast-failover config.

Blue Waters' configuration (Fig. 3): first-level aggregators store
directly, and each holds *standby* connections to the next aggregator's
collection targets — "in the case of an aggregator failure, another
aggregator can then take over servicing the failed aggregator's nodes",
with failover "driven by an external watchdog".

This experiment stands that loop up end to end in the DES and measures
the quantity the design bounds: **samples lost across an aggregator
kill**.  One first-level aggregator is crashed mid-run by a scheduled
:class:`~repro.faults.FaultPlan`; the watchdog notices its collection
heartbeat stall, declares it dead after ``k`` missed check intervals,
and promotes the neighbour's standby producers.  Collection for the
victim's node group resumes on the neighbour; the gap in each node
set's stored timeline is the cost of the failure.

Detection is bounded by ``(k + 1)`` check intervals (one to notice the
stall, ``k`` to confirm), so with the check interval equal to the
collection interval the promotion latency must come in at or under the
watchdog threshold (``k`` intervals) plus one collection interval —
the acceptance bar reported below.  Everything runs on the simulation
clock from seeded state: two runs with the same seed must produce the
identical timeline, which ``main()`` verifies; run as a module, it
exits 1 when any check it prints or the replay comes out NO.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from repro.cluster.machine import blue_waters
from repro.experiments.common import print_header, print_table
from repro.faults import FaultPlan
from repro.obs.spans import causal_chains, chrome_trace_events, validate_chrome_trace

__all__ = ["FailoverResult", "run_failover", "main", "passed"]


@dataclass(frozen=True)
class FailoverResult:
    """Measured outcome of one aggregator-kill run."""

    n_nodes: int
    interval: float
    k: int
    kill_time: float
    #: Watchdog declared the victim dead (standbys promoted) at this
    #: sim time; inf if it never fired.
    detect_time: float
    promote_latency: float
    #: The acceptance bound: watchdog threshold (k intervals) plus one
    #: collection interval.
    latency_bound: float
    within_bound: bool
    promotions: int
    #: Longest per-set gap between stored rows of the victim group.
    max_gap_s: float
    #: Collection intervals lost across the whole victim group
    #: (gap-implied missing rows, summed over its sets).
    samples_lost: int
    #: Victim-group rows actually stored (victim + neighbour stores).
    rows_victim_group: int
    #: Observability plane (PR 7): causal chains stitched from the
    #: fleet's span rings that cover >= 4 distinct hops
    #: (sample/serve/update/store), the exported Chrome trace_event
    #: count + validity, and whether the watchdog-triggered postmortem
    #: dump's window covers the injected crash.
    chains_4hop: int = 0
    trace_events: int = 0
    trace_valid: bool = False
    postmortem_ok: bool = False

    def key(self) -> tuple:
        """Determinism fingerprint: every measured number."""
        return (self.kill_time, self.detect_time, self.promotions,
                self.max_gap_s, self.samples_lost, self.rows_victim_group,
                self.chains_4hop, self.trace_events)


def run_failover(
    n_nodes: int = 16,
    fanin: int = 8,
    interval: float = 1.0,
    k: int = 2,
    kill_at: float = 20.0,
    duration: float = 60.0,
    seed: int = 0,
    export_dir: Optional[str] = None,
) -> FailoverResult:
    """Deploy the Fig. 3 standby topology, kill one L1 aggregator at
    ``kill_at``, and measure promotion latency and samples lost.

    With ``export_dir`` the run also writes ``failover_trace.json``
    (Chrome ``trace_event`` — load in Perfetto) and
    ``failover_postmortem.json`` (the watchdog's promotion dump of the
    victim's and the standby owner's span rings) — the artifacts CI uploads."""
    m = blue_waters(n_nodes, seed=seed)
    dep = m.deploy_ldms(
        interval=interval,
        collect_interval=interval,
        fanin=fanin,
        second_level=False,  # Fig. 3: aggregators store directly
        standby=True,
        store="memory",
    )
    wd = m.attach_watchdog(dep, check_interval=interval, k=k)
    victim = dep.level1[-1]
    victim_idx = len(dep.level1) - 1
    inj = m.fault_injector(dep)
    inj.arm(FaultPlan().crash(victim.name, kill_at))
    m.run(until=duration)

    # --- promotion latency -------------------------------------------------
    detect_time = next(
        (e.time for e in wd.events
         if e.target == victim.name and e.kind == "dead"),
        float("inf"),
    )
    owner_name, _standbys = dep.standby_plan[victim.name]
    owner = dep.by_name(owner_name)
    promotions = owner.obs.counter("watchdog.promotions").value
    promote_latency = detect_time - kill_at
    latency_bound = k * interval + interval

    # --- samples lost over the victim's node group -------------------------
    lo, hi = victim_idx * fanin, min((victim_idx + 1) * fanin, n_nodes)
    group = {f"n{i}" for i in range(lo, hi)}
    # Rows for the group land in the victim's store before the kill and
    # in the neighbour's store after promotion (producer "standby-n<i>").
    times: dict[str, list[float]] = {}
    for store in dep.stores:
        for r in store.rows:
            if r.producer in group or r.producer.removeprefix("standby-") in group:
                times.setdefault(r.set_name, []).append(r.timestamp)
    max_gap = 0.0
    lost = 0
    rows_total = 0
    for ts in times.values():
        ts.sort()
        rows_total += len(ts)
        for a, b in zip(ts, ts[1:]):
            gap = b - a
            max_gap = max(max_gap, gap)
            if gap > 1.5 * interval:
                lost += int(round(gap / interval)) - 1

    # --- observability plane: causal chains + postmortem -------------------
    recorders = [d.spans for d in dep.all_daemons()]
    trace_doc = chrome_trace_events(recorders)
    trace_valid = validate_chrome_trace(trace_doc) is None
    chains = causal_chains(recorders, min_hops=4)
    pm = next((p for p in wd.postmortems
               if p["reason"] == f"watchdog_promotion:{victim.name}"), None)
    postmortem_ok = False
    if pm is not None:
        for drec in pm["daemons"]:
            if drec["daemon"] != victim.name:
                continue
            lo_t, hi_t = drec["window"]
            crashed = any(
                ev["category"] == "fault" and ev["event"] == "crash"
                and abs(ev["t"] - kill_at) < 1e-6
                for ev in drec["events"])
            postmortem_ok = crashed and lo_t <= kill_at <= hi_t
    if export_dir is not None:
        os.makedirs(export_dir, exist_ok=True)
        with open(os.path.join(export_dir, "failover_trace.json"), "w") as fh:
            json.dump(trace_doc, fh, indent=1)
        if pm is not None:
            with open(os.path.join(export_dir,
                                   "failover_postmortem.json"), "w") as fh:
                json.dump(pm, fh, indent=1)
    return FailoverResult(
        n_nodes=n_nodes,
        interval=interval,
        k=k,
        kill_time=kill_at,
        detect_time=detect_time,
        promote_latency=promote_latency,
        latency_bound=latency_bound,
        within_bound=promote_latency <= latency_bound + 1e-9,
        promotions=promotions,
        max_gap_s=max_gap,
        samples_lost=lost,
        rows_victim_group=rows_total,
        chains_4hop=len(chains),
        trace_events=len(trace_doc["traceEvents"]),
        trace_valid=trace_valid,
        postmortem_ok=postmortem_ok,
    )


def main(argv=None) -> dict:
    import argparse

    parser = argparse.ArgumentParser(
        description="§IV-B aggregator failover experiment")
    parser.add_argument(
        "--export-dir", default=None,
        help="write failover_trace.json (Chrome trace_event) and "
             "failover_postmortem.json here")
    args = parser.parse_args(argv)

    print_header("Aggregator failover (paper §IV-B, Fig. 3 standby config)")
    r = run_failover(export_dir=args.export_dir)
    print_table(
        ["nodes", "interval", "k", "killed at", "promoted at",
         "latency", "bound", "ok"],
        [[r.n_nodes, r.interval, r.k, r.kill_time, r.detect_time,
          r.promote_latency, r.latency_bound, "yes" if r.within_bound else "NO"]],
    )
    print_table(
        ["victim-group rows", "max gap (s)", "samples lost", "promotions"],
        [[r.rows_victim_group, r.max_gap_s, r.samples_lost, r.promotions]],
    )
    print_table(
        ["4-hop chains", "trace events", "trace valid", "postmortem ok"],
        [[r.chains_4hop, r.trace_events,
          "yes" if r.trace_valid else "NO",
          "yes" if r.postmortem_ok else "NO"]],
    )

    # Same seed, same timeline: the whole fault schedule runs on the
    # simulation clock, so a replay must reproduce every number.
    r2 = run_failover()
    deterministic = r.key() == r2.key()
    print(f"\nsame-seed replay identical: {'yes' if deterministic else 'NO'}")
    return {"run": r, "replay": r2, "deterministic": deterministic}


def passed(out: dict) -> bool:
    """Every check :func:`main` prints as yes/NO came out yes."""
    r = out["run"]
    return (r.within_bound and r.chains_4hop > 0 and r.trace_valid
            and r.postmortem_ok and out["deterministic"])


if __name__ == "__main__":
    sys.exit(0 if passed(main()) else 1)
