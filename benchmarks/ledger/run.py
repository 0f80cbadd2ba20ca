"""The performance ledger: one command, every metric by name.

Two ways in, one measuring path:

``run.py --workload W --seed N --seconds S --trace 0|1``
    Measure one workload in this process.  ``--trace 0`` prints the
    end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer
    ones (microbenches, counts from an untraced window, self-time shares
    from a traced one).  The last line of stdout is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.

``run.py [--workload W] [--seed N] [--repeats K] [--traced] [--micro]``
    The ledger: runs the first form in a fresh interpreter per workload
    and repeat (so ``peak_rss_mb`` and GC state are per workload),
    prints ``median [min,max]`` per metric, checks same-seed digests, and
    writes ``out/ledger.json`` for ``compare.py``.

Everything the run leaves behind goes under ``benchmarks/ledger/out/``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Set-ups timed per end-to-end run (``setup_s`` is their median).  The
#: first is the measured world's own; the rest are built and torn down
#: after the timed window so they cannot disturb it.  The cheap ones
#: (tens of ms) repeat more, so one burst of host noise cannot move the
#: median.
SETUPS = {"fanin_knee": 3, "wide_store": 5, "sock_loopback": 15, "query_mix": 15}
#: Share of ``--seconds`` a traced run spends on its untraced window.
UNTRACED_SHARE = 1 / 3


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def refuse_toggles() -> None:
    """The ledger measures the default code paths only: ``REPRO_*``
    switches select the slow twins (or reroute output)."""
    toggles = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if toggles:
        sys.exit(f"ledger: refusing to run with {', '.join(toggles)} set; "
                 "the ledger measures defaults only")


# ---------------------------------------------------------------------------
# Worker: one workload, in this process
# ---------------------------------------------------------------------------


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(cfg: dict, tmpdir: str):
    """Build one world; returns it with its set-up time, divided by the
    host's slowness just before and after (hostspeed.py), and raw."""
    from hostspeed import BURST, slowness
    from workloads import make_workload

    os.makedirs(tmpdir)
    wl = make_workload(cfg, tmpdir)
    slow = slowness(BURST)
    t0 = time.perf_counter()
    wl.setup()
    raw = time.perf_counter() - t0
    slow = (slow + slowness(BURST)) / 2
    return wl, raw / slow, raw


def _window(wl, seconds: float, max_slices: float) -> dict:
    """Run steady slices for ``seconds`` (or ``max_slices``, whichever
    comes first) between two counter snapshots.

    Each slice is ``(sets stored, wall s, program CPU s, host slowness)``.
    Slowness is the mean of the calibration samples beside the slice: one
    burst before and one after it, or, on a paced workload, the pulses
    its pacing thread took while it waited (whose CPU is the
    benchmark's own, so it is taken out of the program's).
    """
    from hostspeed import BURST, slowness

    start = wl.snapshot()
    slices = []
    attempted = failed = 0
    paced = wl.paced
    t_end = time.perf_counter() + seconds
    after = None if paced else slowness(BURST)
    while len(slices) < max_slices and time.perf_counter() < t_end:
        before = after
        wl.pulses = []
        m0 = time.thread_time()
        c0 = time.process_time()
        t0 = time.perf_counter()
        stored, att, fail = wl.run_slice()
        t1 = time.perf_counter()
        c1 = time.process_time()
        m1 = time.thread_time()
        if not paced:
            after = slowness(BURST)
        cpu = c1 - c0 - (m1 - m0 if paced else 0.0)
        slow = statistics.fmean(wl.pulses if paced else (before, after))
        slices.append((stored, t1 - t0, cpu, slow))
        attempted += att
        failed += fail
    att, fail = wl.finish_window()
    end = wl.snapshot()
    if not slices or min(s[0] for s in slices) <= 0:
        sys.exit(f"ledger: {wl.cfg['name']}: a steady slice stored nothing")
    # A paced workload's rate is set by its schedule, not by the host.
    return {
        "start": start, "end": end, "slices": slices,
        "attempted": attempted + att, "failed": failed + fail,
        "sets_per_s": statistics.median(
            s / dt * (1.0 if paced else slow) for s, dt, _, slow in slices),
        "cpu_us_per_set": statistics.median(
            1e6 * dc / s / slow for s, _, dc, slow in slices),
        "raw_sets_per_s": statistics.median(s / dt for s, dt, _, _ in slices),
        "raw_cpu_us_per_set": statistics.median(
            1e6 * dc / s for s, _, dc, _ in slices),
        "host_slowness": statistics.median(s[3] for s in slices),
        "wall_s": sum(s[1] for s in slices),
        "cpu_s": sum(s[2] for s in slices),
    }


def _close(wl, errors: list) -> None:
    from workloads import CheckFailed

    try:
        wl.close(check=True)
    except CheckFailed as exc:
        errors.append(str(exc))


def _check_failed_share(name: str, win: dict, errors: list) -> None:
    # A run that fails a tenth of its operations is invalid, not slow.
    if win["failed"] > 0.10 * win["attempted"]:
        errors.append(f"{name}: failed share "
                      f"{win['failed'] / win['attempted']:.3f} > 0.10")


def run_end_to_end(cfg: dict, tmp: str, seconds: float, max_slices: float,
                   setups: int) -> dict:
    name = cfg["name"]
    errors: list[str] = []
    wl, setup_s, raw_setup_s = _timed_setup(cfg, os.path.join(tmp, "w0"))
    setup_times = [setup_s]
    raw_setup_times = [raw_setup_s]
    wl.warmup()
    # Read when the timed window opens: the topology's footprint, not
    # how many rows a faster host then piles into the memory store.
    rss = _rss_mb()
    win = _window(wl, seconds, max_slices)
    _check_failed_share(name, win, errors)
    _close(wl, errors)
    info = dict(wl.info)
    for i in range(1, setups):
        del wl
        gc.collect()
        wl, setup_s, raw_setup_s = _timed_setup(cfg, os.path.join(tmp, f"w{i}"))
        setup_times.append(setup_s)
        raw_setup_times.append(raw_setup_s)
        wl.close(check=False)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "sets_per_s": win["sets_per_s"],
        "cpu_us_per_set": win["cpu_us_per_set"],
        "peak_rss_mb": rss,
    }
    info.update(setup_times=setup_times, slices=len(win["slices"]),
                steady_wall_s=win["wall_s"],
                host_slowness=win["host_slowness"],
                raw={"setup_s": statistics.median(raw_setup_times),
                     "sets_per_s": win["raw_sets_per_s"],
                     "cpu_us_per_set": win["raw_cpu_us_per_set"]})
    return {"metrics": metrics, "attempted": win["attempted"],
            "failed": win["failed"], "errors": errors, "info": info}


#: ``count.*`` that a single workload supplies (``window_counts``).
_WORKLOAD_COUNTS = (
    ["sim_rtt_us_p50", "sim_rtt_us_p99"]
    + [f"sim_rtt_us_{q}.{kind}" for kind in ("poller", "evaluator", "scanner")
       for q in ("p50", "p99")]
    + ["store_lag_ms_p50", "store_lag_ms_p95", "store_lag_ms_p99",
       "sample_late_ms_p50", "lost_sets"])


def _counts(wl, win: dict) -> dict:
    """``count.*``: window deltas of public counters, and their ratios."""
    start, end = win["start"], win["end"]

    def delta(key: str) -> float:
        return end.get(key, 0) - start.get(key, 0)

    cfg = wl.cfg
    rows = delta("rows_stored")
    sets = sum(s[0] for s in win["slices"])
    out = {
        "intervals": wl.info.get(
            "intervals", len(win["slices"]) * cfg.get("slice_intervals", 0)),
        "events": delta("events"),
        "events_per_set": delta("events") / sets,
        "vectorized_share": (delta("vectorized") / delta("events")
                             if delta("events") else 0.0),
        "refused_connections": end["refused_connections"],
        "rows_stored": rows,
        "bytes_written": delta("bytes_written"),
        "store_bytes_per_value": (delta("bytes_written") / (rows * cfg["metrics"])
                                  if rows else 0.0),
        "stored_per_update": (delta("stored") / delta("updates_completed")
                              if delta("updates_completed") else 0.0),
        "cpu_util": win["cpu_s"] / win["wall_s"],
    }
    for key in ("updates_completed", "updates_coalesced", "updates_failed",
                "skipped_stale", "skipped_inconsistent"):
        out[key] = delta(key)
    # Query tier (zeros where no query runs).
    requests = delta("query_requests")
    out.update(
        query_requests=requests,
        queries_per_s=delta("replies") / win["wall_s"],
        cache_hit_share=delta("cache_hits") / requests if requests else 0.0,
        rows_served=delta("rows_served"),
        error_replies=delta("error_replies"),
    )
    # What only one workload has (zeros on the others: no query runs,
    # no host lag exists under the DES).
    out.update(dict.fromkeys(_WORKLOAD_COUNTS, 0.0))
    out.update(wl.window_counts(start, end))
    return {f"count.{k}": float(v) for k, v in out.items()}


def run_per_layer(cfg: dict, tmp: str, seconds: float, max_slices: float,
                  micro_batches: int) -> dict:
    from micro import run_micro
    from tracing import LAYERS, Tracer

    name = cfg["name"]
    errors: list[str] = []
    os.makedirs(os.path.join(tmp, "micro"))
    metrics = dict(run_micro(os.path.join(tmp, "micro"), micro_batches))

    wl, _, _ = _timed_setup(cfg, os.path.join(tmp, "untraced"))
    wl.warmup()
    plain = _window(wl, seconds * UNTRACED_SHARE, max_slices)
    _check_failed_share(name, plain, errors)
    metrics.update(_counts(wl, plain))
    _close(wl, errors)
    info = {"untraced": dict(wl.info)}
    del wl
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        wl, _, _ = _timed_setup(cfg, os.path.join(tmp, "traced"))
        wl.warmup()
        tracer.reset()
        traced = _window(wl, seconds * (1 - UNTRACED_SHARE), max_slices)
        shares = tracer.shares()
        _close(wl, errors)
    finally:
        tracer.uninstall()
    info["traced"] = dict(wl.info)
    trace_path = os.path.join(OUT, f"trace_{name}.json")
    tracer.dump(trace_path, run_id=f"{name}/seed{cfg['seed']}")
    for layer in LAYERS:
        metrics[f"trace.{layer}.self_share"] = shares[layer]
    # Host CPU per stored set, traced over untraced: the open-loop
    # workload's wall is pinned by its schedule, its CPU is not.
    metrics["trace.overhead_share"] = (
        traced["cpu_us_per_set"] / plain["cpu_us_per_set"] - 1.0)
    info.update(trace_file=os.path.relpath(trace_path, ROOT),
                untraced_slices=len(plain["slices"]),
                traced_slices=len(traced["slices"]))
    return {"metrics": metrics, "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"], "errors": errors,
            "info": info}


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"host_cpus": os.cpu_count(), "python": platform.python_version(),
            "git_commit": commit}


def result_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(OUT, f"run_{workload}.seed{seed}.trace{trace}.json")


def worker(args) -> int:
    spec = load_spec()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:  # no src/ beside the benchmark
        sys.exit(f"ledger: cannot import the program under {ROOT}/src: {exc}")
    from micro import BATCHES

    import_s = time.perf_counter() - _T_START
    os.makedirs(OUT, exist_ok=True)
    cfg = workloads.make_config(args.workload, args.seed, smoke=args.smoke)
    max_slices = args.intervals if args.intervals else float("inf")
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        if args.trace:
            res = run_per_layer(cfg, tmp, args.seconds, max_slices,
                                micro_batches=1 if args.smoke else BATCHES)
            named = spec["per_layer"]
        else:
            setups = 2 if args.smoke else SETUPS[args.workload]
            res = run_end_to_end(cfg, tmp, args.seconds, max_slices, setups)
            named = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in named}
    if set(units) != set(res["metrics"]):
        sys.exit("ledger: metrics emitted and BENCHMARK.json differ: "
                 f"{sorted(set(units) ^ set(res['metrics']))}")
    metrics = {k: {"value": res["metrics"][k], "unit": units[k]} for k in units}
    for err in res["errors"]:
        print(f"ledger: CHECK FAILED: {err}", file=sys.stderr)
    contract = {"correct": not res["errors"], "attempted": int(res["attempted"]),
                "failed": int(res["failed"]), "metrics": metrics}
    doc = dict(contract, workload=args.workload, seed=args.seed,
               trace=args.trace, seconds=args.seconds, smoke=args.smoke,
               intervals=args.intervals, import_s=import_s,
               errors=res["errors"], info=res["info"], **provenance())
    with open(result_path(args.workload, args.seed, args.trace), "w",
              encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
    for k, m in metrics.items():
        print(f"{k:56s} {m['value']:>16.6g} {m['unit']}")
    for k, v in res["info"].get("raw", {}).items():
        print(f"{'raw.' + k + ' (not divided by host slowness)':56s} "
              f"{v:>16.6g} {units[k]}")
    print(f"{'failed / attempted':56s} {contract['failed']:>7d} / "
          f"{contract['attempted']}")
    print(json.dumps(contract))
    return 0


# ---------------------------------------------------------------------------
# Ledger: every workload, fresh interpreter each, repeats, digests
# ---------------------------------------------------------------------------


def _spawn(workload: str, args, trace: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.intervals:
        cmd += ["--intervals", str(args.intervals)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"ledger: {workload} (trace {trace}) exited "
                 f"{proc.returncode}")
    sys.stderr.write(proc.stderr)
    with open(result_path(workload, args.seed, trace), encoding="utf-8") as f:
        doc = json.load(f)
    doc["process_wall_s"] = wall
    return doc


def ledger(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = [args.workload] if args.workload else names
    if any(w not in names for w in chosen):
        sys.exit(f"ledger: unknown workload; BENCHMARK.json names {names}")
    os.makedirs(OUT, exist_ok=True)
    book = {"provenance": dict(provenance(), seed=args.seed,
                               repeats=args.repeats, seconds=args.seconds,
                               smoke=args.smoke, intervals=args.intervals),
            "workloads": {}}
    ok = True
    for w in chosen:
        runs = [_spawn(w, args, trace=0) for _ in range(args.repeats)]
        entry = {"end_to_end": {}, "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "import_s": [r["import_s"] for r in runs],
                 "process_wall_s": [r["process_wall_s"] for r in runs],
                 "digests": [(r["info"].get("digest"),
                              r["info"].get("digest_slices")) for r in runs]}
        print(f"\n== {w} (seed {args.seed}, {args.repeats} run(s), "
              f"interpreter+import {statistics.median(entry['import_s']):.2f} s)")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "values": values,
                "median": statistics.median(values)}
            print(f"{m['name']:56s} {statistics.median(values):>14.6g} "
                  f"[{min(values):.6g}, {max(values):.6g}] {m['unit']}")
        share = [f / a for f, a in zip(entry["failed"], entry["attempted"])]
        entry["failed_share"] = statistics.median(share)
        print(f"{'failed_share':56s} {entry['failed_share']:>14.6g} "
              f"(failed {entry['failed']} of attempted {entry['attempted']})")
        if not all(r["correct"] for r in runs):
            ok = False
            print("   OUTPUT CHECK FAILED:", [r["errors"] for r in runs])
        # Same seed, same digested length: the outputs must be
        # byte-identical.  (Time-bounded runs of different length do not
        # compare; fanin_knee digests a fixed prefix of its rows.)
        digests = {d for d, _ in entry["digests"]}
        if len({n for _, n in entry["digests"]}) == 1 and None not in digests:
            if len(digests) > 1:
                ok = False
                print("   DIGEST MISMATCH across repeats:", sorted(digests))
            else:
                print(f"   digest {digests.pop()[:16]} "
                      f"(identical over {args.repeats} run(s))")
        if args.traced:
            doc = _spawn(w, args, trace=1)
            entry["per_layer"] = doc["metrics"]
            entry["traced_info"] = info = doc["info"]
            if not doc["correct"]:
                ok = False
                print("   OUTPUT CHECK FAILED (traced):", doc["errors"])
            if args.intervals and (info["untraced"].get("digest")
                                   != info["traced"].get("digest")):
                ok = False
                print("   TRACED RUN DIGEST DIFFERS from untraced")
            for k, m in doc["metrics"].items():
                if not k.startswith("micro."):
                    print(f"{k:56s} {m['value']:>14.6g} {m['unit']}")
        book["workloads"][w] = entry
    if args.micro:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "micro.py")], cwd=ROOT,
            capture_output=True, text=True, timeout=300, check=True)
        book["micro"] = json.loads(proc.stdout)["micro"]
        print("\n== microbenches")
        for k, m in book["micro"].items():
            print(f"{k:56s} {m['value']:>14.6g} {m['unit']}")
    out_path = args.out or os.path.join(OUT, "ledger.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(book, f, indent=1)
    print(f"\nledger written to {os.path.relpath(out_path)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed window per run (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="measure one workload in this process: 0 prints "
                         "the end-to-end metrics, 1 the per-layer ones")
    ap.add_argument("--intervals", type=int, default=0,
                    help="stop the timed window after this many steady "
                         "slices (fixed-size runs: exact counts, comparable "
                         "digests)")
    ap.add_argument("--smoke", action="store_true",
                    help="divide every population size by ~16 (self-test)")
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--traced", action="store_true",
                    help="add the per-layer pass (counts and trace shares)")
    ap.add_argument("--micro", action="store_true",
                    help="add the microbenches")
    ap.add_argument("--out", help="ledger file (default out/ledger.json)")
    args = ap.parse_args(argv)
    refuse_toggles()
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.trace is not None:
        if not args.workload:
            ap.error("--trace needs --workload")
        return worker(args)
    return ledger(args)


if __name__ == "__main__":
    sys.exit(main())
