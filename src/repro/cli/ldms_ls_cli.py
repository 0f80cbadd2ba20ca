"""``ldms-ls-repro``: list a daemon's metric sets over TCP.

Mirrors LDMS's ``ldms_ls``: bare invocation prints set names and
geometry; ``-l`` also performs a lookup + data read and prints current
metric values; ``-v`` additionally prints each set's age (time since
its last transaction, on the *daemon's* clock via the HELLO anchor)
and renders ``ldmsd_self`` sets as a grouped pipeline-health block
(sampling/lookup/update/store latency quantiles) instead of a flat
value dump.

    ldms-ls-repro --host 127.0.0.1 --port 10411 -l
    ldms-ls-repro --host 127.0.0.1 --port 10411 -v
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.cli.client import SyncClient

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="ldms-ls-repro",
                                description="List a daemon's metric sets.")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("-l", "--long", action="store_true",
                   help="also read and print current metric values")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="like -l, and render ldmsd_self sets as a "
                        "pipeline-health summary")
    args = p.parse_args(argv)
    if args.verbose:
        args.long = True

    client = SyncClient(args.host, args.port)
    try:
        infos = client.dir()
        if not infos:
            print("(no metric sets)")
            return 0
        for info in infos:
            print(f"{info.name}  schema={info.schema}  card={info.card}  "
                  f"meta={info.meta_size}B data={info.data_size}B")
            if not args.long:
                continue
            mirror = client.fetch(info)
            if isinstance(mirror, str):
                print(f"  ({mirror})")
                continue
            flag = "consistent" if mirror.is_consistent else "INCONSISTENT"
            line = f"  ts={mirror.timestamp:.6f} dgn={mirror.dgn} [{flag}]"
            if args.verbose:
                # Staleness on the daemon's own clock: the sock HELLO
                # anchored its monotonic clock against ours at connect.
                age = client.peer_age(mirror.timestamp)
                line += f" age={age:.3f}s" if age is not None else " age=?"
            print(line)
            if args.verbose and info.schema == obs.SELF_SCHEMA:
                print(obs.render(mirror.as_dict()))
                continue
            for name, value in mirror.as_dict().items():
                print(f"    {name:40s} {value}")
    finally:
        client.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
