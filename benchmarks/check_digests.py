#!/usr/bin/env python
"""CI: the three DES ledger workloads replay the same simulated history.

Runs each workload for a fixed number of steady slices —

    python3 benchmarks/ledger/run.py --workload W --seed 1 --intervals 12 \\
        --seconds 120 --trace 0

— and compares the digest its result file records (``info.digest``, a
hash of what the run stored) with the full hash pinned below.  At a fixed
``--intervals`` the digest is a function of the simulated history alone
(``--seconds 120`` only keeps a slow host from cutting the window short),
so a change that only makes the host faster must leave all three
unchanged; one that moves a digest changed behaviour, and pins the new
hash here deliberately.  ``sock_loopback`` runs real sockets in real time
and has no fixed-size digest.

    python benchmarks/check_digests.py          # ~20 s
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "benchmarks", "ledger", "run.py")
OUT = os.path.join(ROOT, "benchmarks", "ledger", "out")

#: Full ``info.digest`` per workload (seed 1, 12 intervals).
DIGESTS = {
    "fanin_knee":
        "cd7d5ddb74068a5cef48b84f62b594c2899e3be3881f146d2687e4419655ea96",
    "wide_store":
        "3f7d1b562996f3ee5c0b10abf62c900399b0fa9725890add287093d9d7161d70",
    "query_mix":
        "3fd7aa5d9fb88865d974dd3e0f2d34f38dc2e9f11ab7281bc3b39310222eea64",
}


def digest_of(workload: str) -> str | None:
    subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--intervals", "12", "--seconds", "120", "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(OUT, f"run_{workload}.seed1.trace0.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)["info"].get("digest")


def main() -> int:
    failed = 0
    for workload, want in DIGESTS.items():
        got = digest_of(workload)
        ok = got == want
        failed += not ok
        print(f"{workload:12s} {'ok' if ok else 'MISMATCH'}  {got}"
              + ("" if ok else f"\n{'':12s} want      {want}"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
