"""The identity-oracle scripts never overwrite their oracle on failure.

``benchmarks/check_query.py`` and ``benchmarks/check_fanin.py`` compare
a regenerated artifact with the committed ``BENCH_*.json``.  Run from
the repo root, their output path *is* the committed file, so a failing
run must leave it byte-identical (and put the regenerated artifact
beside it), or the next run would compare against its own output and
pass.  The expensive runs are stubbed.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
from types import SimpleNamespace

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_check_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _point_oracle(tmp_path, monkeypatch, mod, doc: dict):
    """Commit ``doc`` in ``tmp_path`` and aim the script's committed and
    output paths at it, as a run from the repo root does."""
    committed = tmp_path / "BENCH.json"
    committed.write_text(json.dumps(doc, indent=1))
    monkeypatch.setattr(mod, "COMMITTED_PATH", str(committed))
    monkeypatch.setattr(mod, "OUT_PATH", str(committed))
    return committed


# -- check_query --------------------------------------------------------

_QUERY_DOC = {
    "aggregator": {"cache_hit_permille": 917, "rows_served": 10},
    "deterministic": True,
}


def _stub_query_load(monkeypatch, doc: dict) -> None:
    from repro.experiments import query_load

    def main(argv):
        out = argv[argv.index("--out") + 1]
        with open(out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
        cls = SimpleNamespace(replies=4, sent=4, clients=1)
        run = SimpleNamespace(
            poller=cls, evaluator=cls, scanner=cls,
            cache_hit_permille=doc["aggregator"]["cache_hit_permille"],
            serve_us_p50=1, serve_us_p95=2, serve_us_p99=3,
            rows_served=doc["aggregator"]["rows_served"], query_requests=4)
        return {"run": run, "deterministic": True}

    monkeypatch.setattr(query_load, "main", main)


def test_check_query_failure_leaves_committed_file(tmp_path, monkeypatch,
                                                    capsys):
    mod = _load("check_query")
    committed = _point_oracle(tmp_path, monkeypatch, mod, _QUERY_DOC)
    before = committed.read_bytes()
    moved = json.loads(json.dumps(_QUERY_DOC))
    moved["aggregator"]["cache_hit_permille"] = 918
    _stub_query_load(monkeypatch, moved)

    assert mod.main() == 1
    assert committed.read_bytes() == before
    sibling = tmp_path / "BENCH.new.json"
    assert json.loads(sibling.read_text()) == moved
    assert str(sibling) in capsys.readouterr().out
    # The second run still compares against the untouched oracle.
    assert mod.main() == 1


def test_check_query_pass_writes_output(tmp_path, monkeypatch):
    mod = _load("check_query")
    committed = _point_oracle(tmp_path, monkeypatch, mod, _QUERY_DOC)
    out = tmp_path / "out.json"
    monkeypatch.setattr(mod, "OUT_PATH", str(out))
    _stub_query_load(monkeypatch, _QUERY_DOC)

    assert mod.main() == 0
    assert json.loads(out.read_text()) == _QUERY_DOC
    assert json.loads(committed.read_text()) == _QUERY_DOC
    assert not (tmp_path / "out.new.json").exists()


# -- check_fanin --------------------------------------------------------

def _fanin_row(n: int, completeness: float) -> dict:
    return {"n_samplers": n, "events": 10 * n, "vectorized_events": n,
            "completeness": completeness,
            "tracker_completeness": completeness, "tracker_exact": True,
            "rows_sha256": f"{n:064x}"}


@pytest.fixture
def fanin(monkeypatch):
    """check_fanin with a four-point sweep around a capacity of 100."""
    mod = _load("check_fanin")
    from repro.experiments import fanin as fanin_exp
    from repro.transport import base

    sizes = [35, 70, 100, 111]
    monkeypatch.setattr(fanin_exp, "default_sizes", lambda xprt: sizes)
    monkeypatch.setattr(base, "get_transport_profile",
                        lambda xprt: SimpleNamespace(max_connections=100))
    rows = {n: _fanin_row(n, 1.0 if n <= 100 else 0.9) for n in sizes}
    monkeypatch.setattr(mod, "_measure", lambda n: dict(rows[n]))
    return mod, rows


def test_check_fanin_failure_leaves_committed_file(tmp_path, monkeypatch,
                                                    capsys, fanin):
    mod, rows = fanin
    doc = mod.check_full_scale()
    doc["points"][0]["events"] += 1  # the committed history differs
    committed = _point_oracle(tmp_path, monkeypatch, mod, doc)
    before = committed.read_bytes()

    assert mod.main() == 1
    assert committed.read_bytes() == before
    sibling = tmp_path / "BENCH.new.json"
    assert json.loads(sibling.read_text())["points"][0] == rows[35]
    assert str(sibling) in capsys.readouterr().out
    assert mod.main() == 1


def test_check_fanin_pass_writes_output(tmp_path, monkeypatch, fanin):
    mod, _ = fanin
    doc = mod.check_full_scale()
    _point_oracle(tmp_path, monkeypatch, mod, doc)
    out = tmp_path / "out.json"
    monkeypatch.setattr(mod, "OUT_PATH", str(out))

    assert mod.main() == 0
    assert json.loads(out.read_text()) == doc
    assert not (tmp_path / "out.new.json").exists()
