"""``repro-top``: live fleet view of a monitored cluster.

Polls a daemon (usually the top aggregator, which republishes every
``ldmsd_self`` set it collects from the tree) and renders one row per
daemon: sample/update/store rates, collection completeness and
staleness from the freshness tracker, p95 pipeline latencies, and the
arena/coalescing fast-path counters.  Rates are deltas of count
columns between polls; the first frame shows cumulative totals, and so
does a count that fell (its daemon restarted and counts from 0 again).

    repro-top --host 127.0.0.1 --port 10411
    repro-top --host 127.0.0.1 --port 10411 --once
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.client import SyncClient
from repro.obs import SELF_SCHEMA
from repro.util import timeutil

__all__ = ["main", "collect_fleet", "render_fleet"]

_HEADER = (f"{'daemon':<20} {'samp/s':>8} {'upd/s':>8} {'stor/s':>8} "
           f"{'compl%':>7} {'stale':>5} {'lag_ms':>7} {'upd_p95':>8} "
           f"{'coalesce':>9} {'arena':>9} {'spans':>7}")

#: Count columns (``COUNT_COLUMNS``) rendered as per-second rates.
_RATED = ("samples", "updates_completed", "updates_stored")


def collect_fleet(client: SyncClient) -> dict[str, dict[str, int]]:
    """One poll: every ``ldmsd_self`` set visible on the peer, as
    ``{set_name: {metric: value}}``."""
    fleet: dict[str, dict[str, int]] = {}
    for info in client.dir():
        if info.schema == SELF_SCHEMA:
            mirror = client.fetch(info)
            if not isinstance(mirror, str):
                fleet[info.name] = mirror.as_dict()
    return fleet


def render_fleet(fleet: dict[str, dict[str, int]],
                 prev: dict[str, dict[str, int]] | None,
                 dt: float) -> list[str]:
    """Format one frame.  ``prev``/``dt`` turn counts into rates; with
    ``prev=None`` (first poll), or for a count below its previous value
    (a restart), the cumulative value is shown."""
    lines = [_HEADER]
    for name in sorted(fleet):
        v = fleet[name]
        last = prev.get(name) if prev else None

        def rate(key: str) -> str:
            if last is None or dt <= 0 or v[key] < last[key]:
                return str(v[key])
            return f"{(v[key] - last[key]) / dt:8.1f}"

        samples, updates, stored = map(rate, _RATED)
        daemon = name.rsplit("/", 1)[0]
        lines.append(
            f"{daemon:<20} {samples:>8} {updates:>8} {stored:>8} "
            f"{v['completeness_permille'] / 10:7.1f} "
            f"{v['stale_producers']:>5} {v['max_staleness_ms']:>7} "
            f"{v['update_us_p95']:>8} {v['updates_coalesced']:>9} "
            f"{v['arena_rows_vectorized']:>9} {v['spans_recorded']:>7}")
    if not fleet:
        lines.append("(no ldmsd_self sets visible -- is the "
                     "ldmsd_self sampler loaded?)")
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="repro-top",
        description="Live per-daemon fleet view from streamed "
                    "ldmsd_self sets.")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--interval", type=float, default=2.0,
                   help="poll period in seconds (default 2)")
    p.add_argument("--iterations", type=int, default=0,
                   help="stop after N frames (default: run until ^C)")
    p.add_argument("--once", action="store_true",
                   help="print a single frame of cumulative totals")
    args = p.parse_args(argv)
    if args.once:
        args.iterations = 1

    client = SyncClient(args.host, args.port)
    prev: dict[str, dict[str, int]] | None = None
    t_prev = timeutil.monotonic()
    frames = 0
    try:
        while True:
            fleet = collect_fleet(client)
            now = timeutil.monotonic()
            print("\n".join(render_fleet(fleet, prev, now - t_prev)))
            sys.stdout.flush()
            prev, t_prev = fleet, now
            frames += 1
            if args.iterations and frames >= args.iterations:
                break
            timeutil.sleep(args.interval)
            print()
    except KeyboardInterrupt:
        pass
    finally:
        client.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
