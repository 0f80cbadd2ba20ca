"""Compare two ledgers: ``compare.py A.json B.json`` (A = base, B = change).

One row per (end-to-end metric, workload): both medians, the ratio B/A
with its base, the bound from BENCHMARK.json, and a verdict —

* ``better`` / ``worse``: B's median moved past the bound in that
  direction;
* ``same``: within the bound, and the run-to-run spread is no wider
  than the bound;
* ``unresolved``: the spread of either side exceeds the bound and the
  two ranges overlap, so the runs cannot tell (choosing-metrics §6.5).

``failed_share`` is compared beside them (worse when it grows by more
than 0.02 absolute).  Exits 1 on any ``worse``, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
#: Absolute growth of failed/attempted that counts as a regression.
FAILED_SHARE_SLACK = 0.02


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """Judge B's runs against A's for one metric on one workload."""
    a_med, b_med = median(a), median(b)
    # Worsening relative to the base, positive = worse.
    worse_by = ((b_med - a_med) if better == "lower" else (a_med - b_med)) / a_med
    spread = max(_rel_range(a), _rel_range(b))
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if spread > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def _rel_range(values: list[float]) -> float:
    return (max(values) - min(values)) / median(values)


def compare(base: dict, change: dict, spec: dict) -> tuple[list[tuple], bool]:
    rows = []
    any_worse = False
    for w in (x["name"] for x in spec["workloads"]):
        a_w = base["workloads"].get(w)
        b_w = change["workloads"].get(w)
        if a_w is None or b_w is None:
            continue
        for m in spec["end_to_end"]:
            a = a_w["end_to_end"][m["name"]]["values"]
            b = b_w["end_to_end"][m["name"]]["values"]
            v = verdict(a, b, m["better"], m["bound"])
            any_worse |= v == "worse"
            rows.append((m["name"], w, median(a), median(b), m["unit"],
                         m["bound"], v))
        fa, fb = a_w["failed_share"], b_w["failed_share"]
        v = ("worse" if fb > fa + FAILED_SHARE_SLACK
             else "better" if fb < fa - FAILED_SHARE_SLACK else "same")
        any_worse |= v == "worse"
        rows.append(("failed_share", w, fa, fb, "ratio", FAILED_SHARE_SLACK, v))
    return rows, any_worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: compare.py A.json B.json")
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    with open(SPEC_PATH, encoding="utf-8") as f:
        spec = json.load(f)
    rows, any_worse = compare(docs[0], docs[1], spec)
    print(f"{'metric @ workload':34s} {'A (base)':>12s} {'B':>12s} "
          f"{'B/A':>8s} {'bound':>6s}  verdict")
    for name, w, a, b, unit, bound, v in rows:
        ratio = f"{b / a:8.4f}" if a else "     n/a"
        print(f"{name + ' @ ' + w:34s} {a:12.6g} {b:12.6g} {ratio} "
              f"{bound:6.2f}  {v}  [{unit}; ratio base = A]")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
