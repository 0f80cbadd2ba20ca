"""Self-test of the ledger (picked up by ``pytest benchmarks/``).

Runs all four workloads at ``--smoke`` scale through the same command
the driver uses, validates what they print against BENCHMARK.json, and
unit-tests the probes and the comparison rule.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import probes  # noqa: E402
from tracing import LAYERS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _env() -> dict:
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def _start(workload: str, trace: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "60", "--intervals", "3", "--smoke",
         "--trace", str(trace)],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


@pytest.fixture(scope="module")
def smoke() -> dict:
    """(workload, trace) -> (contract object, result-file document).

    The untraced and the per-layer run of one workload go side by side;
    workloads go one after another so the real-time one is not starved.
    """
    out = {}
    for w in WORKLOADS:
        procs = {trace: _start(w, trace) for trace in (0, 1)}
        for trace, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr
            with open(os.path.join(
                    HERE, "out", f"run_{w}.seed7.trace{trace}.json")) as f:
                out[w, trace] = (json.loads(stdout.strip().splitlines()[-1]),
                                 json.load(f))
    return out


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert {f"trace.{layer}.self_share" for layer in LAYERS} <= set(names)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_output_matches_spec(smoke, workload, trace):
    contract, _doc = smoke[workload, trace]
    assert set(contract) == {"correct", "attempted", "failed", "metrics"}
    assert contract["correct"] is True
    assert contract["attempted"] >= 1 and contract["failed"] >= 0
    named = SPEC["per_layer" if trace else "end_to_end"]
    # Every named metric present, no unnamed one emitted.
    assert set(contract["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = contract["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_shares_sum_to_one(smoke, workload):
    metrics = smoke[workload, 1][0]["metrics"]
    total = sum(metrics[f"trace.{layer}.self_share"]["value"] for layer in LAYERS)
    assert abs(total - 1.0) <= 0.02


def test_layers_separate_the_workloads(smoke):
    def share(workload, *layers):
        metrics = smoke[workload, 1][0]["metrics"]
        return sum(metrics[f"trace.{layer}.self_share"]["value"] for layer in layers)

    for w in ("fanin_knee", "wide_store", "query_mix"):
        assert share(w, "transport.sock") == 0
    assert share("sock_loopback", "transport.sock", "core.wire") > 0
    assert share("sock_loopback", "sim.engine", "transport.simfabric") == 0
    for w in WORKLOADS:
        assert (share(w, "query.engine") > 0) == (w == "query_mix")
    assert (share("wide_store", "plugins.stores")
            > 2 * share("fanin_knee", "plugins.stores"))


@pytest.mark.parametrize("workload", ("fanin_knee", "wide_store", "query_mix"))
def test_traced_run_reproduces_the_untraced_digest(smoke, workload):
    # rows SHA-256 / CSV SHA-256 / counters + raw RTTs + SOS containers
    info = smoke[workload, 1][1]["info"]
    again = smoke[workload, 0][1]["info"]
    assert (info["untraced"]["digest"] == info["traced"]["digest"]
            == again["digest"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_operation_fails(smoke, workload):
    # Also on the real-time workload: a tick the host's stalls lose is
    # count.lost_sets, not a failed pull.
    assert smoke[workload, 0][0]["failed"] == 0
    assert smoke[workload, 1][0]["failed"] == 0


def test_exact_counts_on_the_des_workloads(smoke):
    for w in ("fanin_knee", "wide_store", "query_mix"):
        metrics = smoke[w, 1][0]["metrics"]
        assert metrics["count.lost_sets"]["value"] == 0
        assert metrics["count.refused_connections"]["value"] == 0
        assert metrics["count.stored_per_update"]["value"] == 1.0


def test_refuses_repro_toggles():
    env = dict(_env(), REPRO_ARENA="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "fanin_knee", "--smoke", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "REPRO_ARENA" in proc.stderr


# -- probes -----------------------------------------------------------------


def test_raw_recorder_keeps_every_sample():
    rec = probes.RawRecorder()
    h = rec.histogram("client.poller.rtt")
    assert rec.histogram("client.poller.rtt") is h
    for v in (3e-6, 1e-6, 2e-6):
        h.observe(v)
    rec.histogram("client.scanner.rtt").observe(9e-6)
    assert h.values == [3e-6, 1e-6, 2e-6]
    assert rec.histogram("client.scanner.rtt").values == [9e-6]


def test_bench_tap_charges_lag_from_the_due_pull(tmp_path):
    from repro.core.store import StoreRecord, store_registry

    assert store_registry["bench_tap"] is probes.BenchTapStore
    now = [0.0]
    tap = probes.BenchTapStore()
    with pytest.raises(ValueError):
        tap.config()
    tap.config(clock=lambda: now[0], interval=0.02, offset=0.01)

    def record(ts: float) -> StoreRecord:
        return StoreRecord(timestamp=ts, producer="s0", set_name="s0/syn",
                           schema="synthetic", names=("m",),
                           component_ids=(1,), values=(1,))

    # Sample 5 closed 1 ms after it was due (0.100); its pull was due at
    # 0.110 and the record reached the store at 0.113.
    now[0] = 0.113
    tap.submit(record(0.101))
    # Sample 6 ran so late (0.135 > pull at 0.130) that the *next* pull
    # carried it: charged from the pull that should have.
    now[0] = 0.152
    tap.submit_many([record(0.135)])
    assert tap.records_stored == 2 and tap.bytes_written() == 0
    assert tap.ticks == [5, 6]
    assert tap.lags == pytest.approx([0.003, 0.022])
    assert tap.lates == pytest.approx([0.001, 0.015])
    lags, lates = tap.window(6, 7)
    assert lags == pytest.approx([0.022]) and lates == pytest.approx([0.015])
    assert not list(tmp_path.iterdir())  # never writes


# -- compare ----------------------------------------------------------------


def test_compare_verdicts():
    v = compare.verdict
    assert v([100, 101, 99], [100, 102, 98], "higher", 0.10) == "same"
    assert v([100, 101, 99], [80, 81, 79], "higher", 0.10) == "worse"
    assert v([100, 101, 99], [80, 81, 79], "lower", 0.10) == "better"
    assert v([100, 101, 99], [120, 121, 119], "lower", 0.10) == "worse"
    # Spread wider than the bound and overlapping ranges: cannot tell.
    assert v([100, 130, 90], [95, 125, 85], "higher", 0.10) == "unresolved"
    # Wide spread but every run of B beats every run of A: resolved.
    assert v([100, 130, 90], [200, 260, 180], "higher", 0.10) == "better"


def test_compare_flags_worse_and_failed_share():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "sets_per_s", "unit": "1/s",
                            "better": "higher", "bound": 0.10}]}

    def book(values, failed_share):
        return {"workloads": {"w": {
            "end_to_end": {"sets_per_s": {"values": values}},
            "failed_share": failed_share}}}

    rows, worse = compare.compare(book([100, 101], 0.0), book([100, 99], 0.01), spec)
    assert not worse and [r[-1] for r in rows] == ["same", "same"]
    rows, worse = compare.compare(book([100, 101], 0.0), book([70, 71], 0.0), spec)
    assert worse and rows[0][-1] == "worse"
    rows, worse = compare.compare(book([100, 101], 0.0), book([100, 101], 0.05), spec)
    assert worse and rows[1][-1] == "worse"
