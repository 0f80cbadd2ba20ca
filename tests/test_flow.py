"""Tests for reprolint's whole-program passes (repro.analysis.flow).

Coverage follows the layers: module summary extraction, call-graph
resolution + effect propagation (multi-module ``Engine.lint_sources``
runs), wire-protocol conformance, the ``repro-lint`` CLI against the
deliberately-broken fixture projects under ``tests/flow_fixtures/``,
and a self-host pass asserting the shipped tree is clean under the
repo's own ``pyproject.toml``.  The engine itself (suppressions,
config, reporters, per-file rules) is covered by ``test_reprolint.py``.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.flow import EFFECTS, FlowConfig, effect_of, extract_module
from repro.analysis.lint import Engine, LintConfig, LintConfigError, all_rules
from repro.analysis.lint.cli import main as lint_main

FIXTURES = Path(__file__).parent / "flow_fixtures"
REPO_ROOT = Path(__file__).parent.parent


def des_config(**overrides) -> FlowConfig:
    """A config scoped to a synthetic DES-pure package ``p``."""
    base = dict(
        des_pure_packages=("p",),
        boundary_modules=(),
        ordered_packages=("p",),
        wire_modules=(),
        transport_modules=(),
        dispatch_roots=(),
    )
    base.update(overrides)
    return FlowConfig(**base)


def analyze_sources(sources, flow: FlowConfig):
    """Lint in-memory modules as one program under flow scope ``flow``."""
    return Engine(LintConfig(flow=flow)).lint_sources(sources)


def rule_ids(report):
    return [v.rule for v in report.violations]


FLOW_RULE_IDS = [r for r, cls in all_rules().items() if cls.whole_program]


class TestCatalog:
    def test_lattice_atoms(self):
        assert len(EFFECTS) == 6
        assert "wall_clock" in EFFECTS and "allocates" in EFFECTS

    def test_effect_of_known_calls(self):
        assert effect_of("time.time") == "wall_clock"
        assert effect_of("time.sleep") == "blocking_io"
        assert effect_of("os.urandom") == "ambient_rng"
        assert effect_of("random.random") == "ambient_rng"
        assert effect_of("os.listdir") == "unordered_iteration"

    def test_seeded_numpy_generator_is_sanctioned(self):
        # default_rng(seed) is the reproducible path; ambient module-level
        # numpy.random.* is not.
        assert effect_of("numpy.random.default_rng") is None
        assert effect_of("numpy.random.shuffle") == "ambient_rng"

    def test_unknown_is_none(self):
        assert effect_of("math.sqrt") is None


class TestSummaryExtraction:
    def test_import_alias_expansion(self):
        src = "import numpy as np\n\ndef f(x):\n    np.random.shuffle(x)\n"
        summary = extract_module(src, "m", "<m>")
        names = [c.name for c in summary.functions["f"].calls]
        assert "numpy.random.shuffle" in names

    def test_set_iteration_flagged_and_sorted_sanctioned(self):
        src = textwrap.dedent(
            """
            def bad(s: set):
                out = []
                for x in s:
                    out.append(x)
                return out

            def good(s: set):
                out = []
                for x in sorted(s):
                    out.append(x)
                return out
            """
        )
        summary = extract_module(src, "m", "<m>")
        bad = [e for e in summary.functions["bad"].effects
               if e.effect == "unordered_iteration"]
        good = [e for e in summary.functions["good"].effects
                if e.effect == "unordered_iteration"]
        assert bad and not good

    def test_setcomp_order_free_but_listcomp_flagged(self):
        src = textwrap.dedent(
            """
            def shrink(s: set):
                return {x for x in s if x}

            def leak(s: set):
                return [x for x in s if x]
            """
        )
        summary = extract_module(src, "m", "<m>")
        assert not [e for e in summary.functions["shrink"].effects
                    if e.effect == "unordered_iteration"]
        assert [e for e in summary.functions["leak"].effects
                if e.effect == "unordered_iteration"]

    def test_getattr_prefix_dispatch_recorded(self):
        src = textwrap.dedent(
            """
            class Control:
                def handle(self, verb, arg):
                    fn = getattr(self, f"_cmd_{verb}")
                    return fn(arg)

                def _cmd_start(self, arg):
                    return arg
            """
        )
        summary = extract_module(src, "m", "<m>")
        assert ["handle", "_cmd_"] in [
            list(p) for p in summary.classes["Control"].prefix_dispatch
        ]

    def test_syntax_error_raises(self):
        with pytest.raises(SyntaxError):
            extract_module("def f(:\n", "m", "<m>")


class TestPropagation:
    def test_transitive_chain_across_modules(self):
        report = analyze_sources(
            {
                "p": "",
                "p.engine": "from p import helper\n\ndef tick():\n    return helper.stamp()\n",
                "p.helper": "import ext\n\ndef stamp():\n    return ext.wallclock()\n",
                "ext": "import time\n\ndef wallclock():\n    return time.time()\n",
            },
            des_config(),
        )
        purity = [v for v in report.violations if v.rule == "flow-des-purity"]
        assert len(purity) == 1
        v = purity[0]
        assert "p.helper.stamp" in v.message and "wall_clock" in v.message
        # the chain walks out of the DES scope down to the clock read
        assert any("ext.wallclock" in fr.note for fr in v.chain)
        assert any("time.time" in fr.note for fr in v.chain)

    def test_frontier_only_no_duplicate_per_chain(self):
        # p.a -> p.b -> time.time(): only the frontier function (p.b,
        # which owns the intrinsic site) reports; p.a inherits silently.
        report = analyze_sources(
            {
                "p": "",
                "p.a": "from p import b\n\ndef outer():\n    return b.inner()\n",
                "p.b": "import time\n\ndef inner():\n    return time.time()\n",
            },
            des_config(),
        )
        purity = [v for v in report.violations if v.rule == "flow-des-purity"]
        assert len(purity) == 1
        assert "p.b.inner" in purity[0].message

    def test_boundary_module_strips_effects(self):
        report = analyze_sources(
            {
                "p": "",
                "p.engine": "import clockutil\n\ndef now():\n    return clockutil.monotonic()\n",
                "clockutil": "import time\n\ndef monotonic():\n    return time.monotonic()\n",
            },
            des_config(boundary_modules=("clockutil",)),
        )
        assert "flow-des-purity" not in rule_ids(report)

    def test_virtual_dispatch_reaches_override(self):
        # Base.run() calls self.hook(); the subclass override iterates a
        # set, so calling run() from DES-pure code is a violation.
        report = analyze_sources(
            {
                "p": "",
                "p.base": textwrap.dedent(
                    """
                    class Base:
                        def run(self):
                            return self.hook()

                        def hook(self):
                            return 0
                    """
                ),
                "p.sub": textwrap.dedent(
                    """
                    from p.base import Base

                    class Sub(Base):
                        def hook(self):
                            acc = 0
                            for x in self.pending:
                                acc += x
                            return acc

                        def __init__(self):
                            self.pending: set = set()
                    """
                ),
            },
            des_config(),
        )
        purity = [v for v in report.violations if v.rule == "flow-des-purity"]
        assert any("Sub.hook" in v.message for v in purity)

    def test_ambient_numpy_flagged_seeded_generator_clean(self):
        report = analyze_sources(
            {
                "p": "",
                "p.bad": "import numpy as np\n\ndef jitter():\n    return np.random.random()\n",
                "p.good": (
                    "import numpy as np\n\n"
                    "def jitter(seed):\n"
                    "    rng = np.random.default_rng(seed)\n"
                    "    return rng.random()\n"
                ),
            },
            des_config(),
        )
        purity = [v for v in report.violations if v.rule == "flow-des-purity"]
        assert any("p.bad" in v.path or "p.bad" in v.message for v in purity)
        assert not any("p.good" in v.path or "p.good" in v.message for v in purity)

    def test_suppression_requires_justification(self):
        src = (
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()  # reprolint: ignore[flow-des-purity] -- sim boot only\n"
        )
        report = analyze_sources({"p": "", "p.x": src}, des_config())
        assert "flow-des-purity" not in rule_ids(report)
        assert any(v.rule == "flow-des-purity" for v in report.suppressed)

        # a bare ignore is itself the error, reported exactly once
        bare = src.replace(" -- sim boot only", "")
        report2 = analyze_sources({"p": "", "p.x": bare}, des_config())
        assert rule_ids(report2) == ["suppression"]
        assert report2.exit_code == 1


class TestShardIsolation:
    def config(self):
        return des_config(
            des_pure_packages=(),
            ordered_packages=(),
            shard_entry_points=("p.worker.run_shard",),
            shard_allowed_modules=("p.plane",),
        )

    def test_mutation_outside_allowed_modules_flagged_with_chain(self):
        report = analyze_sources(
            {
                "p": "",
                "p.worker": (
                    "from p import helper\n"
                    "def run_shard(s):\n"
                    "    return helper.record(s)\n"
                ),
                "p.helper": (
                    "CACHE = {}\n"
                    "def record(s):\n"
                    "    CACHE[s] = True\n"
                    "    return s\n"
                ),
            },
            self.config(),
        )
        assert rule_ids(report) == ["flow-shard-isolation"]
        v = report.violations[0]
        assert "p.helper.record" in v.message
        assert "p.worker.run_shard" in v.message
        notes = [f.note for f in v.chain]
        assert notes[0] == "calls p.helper.record"
        assert "CACHE" in notes[-1]

    def test_allowed_module_mutation_is_sanctioned(self):
        report = analyze_sources(
            {
                "p": "",
                "p.worker": (
                    "from p import plane\n"
                    "def run_shard(s):\n"
                    "    plane.bump()\n"
                ),
                "p.plane": (
                    "N = 0\n"
                    "def bump():\n"
                    "    global N\n"
                    "    N += 1\n"
                ),
            },
            self.config(),
        )
        assert rule_ids(report) == []

    def test_unreachable_mutation_not_flagged(self):
        report = analyze_sources(
            {
                "p": "",
                "p.worker": "def run_shard(s):\n    return s\n",
                "p.helper": (
                    "SEEN = []\n"
                    "def poison():\n"
                    "    SEEN.append(1)\n"
                ),
            },
            self.config(),
        )
        assert rule_ids(report) == []

    def test_rule_off_without_entry_points(self):
        report = analyze_sources(
            {
                "p": "",
                "p.worker": (
                    "from p import helper\n"
                    "def run_shard(s):\n"
                    "    return helper.record(s)\n"
                ),
                "p.helper": (
                    "CACHE = {}\n"
                    "def record(s):\n"
                    "    CACHE[s] = True\n"
                    "    return s\n"
                ),
            },
            des_config(des_pure_packages=(), ordered_packages=()),
        )
        assert rule_ids(report) == []


class TestWireConformance:
    def wire_config(self):
        return FlowConfig(
            des_pure_packages=(),
            boundary_modules=(),
            ordered_packages=(),
            wire_modules=("w",),
            transport_modules=("w",),
            dispatch_roots=(),
        )

    def test_matching_pair_is_clean(self):
        src = textwrap.dedent(
            """
            import struct

            class MsgType:
                DATA = 1

            def pack_data(seq, val):
                return struct.pack("<IQ", seq, val)

            def unpack_data(payload):
                return struct.unpack_from("<IQ", payload, 0)
            """
        )
        report = analyze_sources({"w": src}, self.wire_config())
        assert not [v for v in report.violations
                    if v.rule == "flow-wire-conformance" and v.severity == "error"]

    def test_format_mismatch_reports_frame_layout(self):
        src = (FIXTURES / "bad_wire" / "src" / "badwire.py").read_text()
        report = analyze_sources({"w": src}, self.wire_config())
        wire = [v for v in report.violations if v.rule == "flow-wire-conformance"]
        mismatch = [v for v in wire if "disagrees" in v.message]
        assert mismatch and mismatch[0].chain  # both frame layouts in the trace
        offsets = [v for v in wire if "slices the payload" in v.message]
        assert offsets and "16 bytes" in offsets[0].message

    def test_row_group_of_a_cached_struct_is_in_the_symmetry_check(self):
        # The real wire module: QUERY_REPLY's rows go through a cached
        # per-width Struct (bound ``pack`` on one side, ``iter_unpack``
        # on the other).  The gate must read that layout — a decoder
        # that narrows comp_id is an error, not an unresolvable format.
        path = Path(__file__).parent.parent / "src/repro/core/wire.py"
        src = path.read_text()
        report = analyze_sources({"w": src}, self.wire_config())
        assert not [v for v in report.violations
                    if v.rule == "flow-wire-conformance"
                    and v.severity == "error"]
        anchor = "    row = query_row_struct(ncols)\n"
        assert src.count(anchor) == 1
        drifted = src.replace(
            anchor, '    row = struct.Struct(f"<dH{ncols}d")\n')
        report = analyze_sources({"w": drifted}, self.wire_config())
        (v,) = [v for v in report.violations
                if v.rule == "flow-wire-conformance"
                and v.severity == "error"]
        assert "unpack_query_reply" in v.message
        assert ("decoder reads [i B I loop[H] I loop[d H {n}d]] but encoder "
                "writes [i B I loop[H] I loop[d I {n}d]]") in v.message


class TestCliFixtures:
    def run_fixture(self, name, capsys, extra=()):
        fixture = FIXTURES / name
        code = lint_main(
            [str(fixture / "src"), "--config", str(fixture / "pyproject.toml"),
             *extra]
        )
        return code, capsys.readouterr().out

    def test_bad_des_traces_the_full_chain(self, capsys):
        code, out = self.run_fixture("bad_des", capsys)
        assert code == 1
        assert "flow-des-purity" in out
        assert "despkg.helper.stamp" in out
        # the chain must cross the package boundary down to the clock read
        assert "in despkg.helper.stamp: calls extutil.wallclock" in out
        assert "in extutil.wallclock: calls time.time()" in out

    def test_bad_wire_reports_format_and_offset(self, capsys):
        code, out = self.run_fixture("bad_wire", capsys)
        assert code == 1
        assert "flow-wire-conformance" in out
        assert "decoder reads [I I] but encoder writes [I Q]" in out
        assert ("decoder reads [I loop[d H {n}d]] but encoder writes "
                "[I loop[d I {n}d]]") in out
        assert "slices the payload at byte 12" in out
        assert "'<iQI' is 16 bytes" in out

    def test_bad_hello_gate_can_never_open(self, capsys):
        code, out = self.run_fixture("bad_hello", capsys)
        assert code == 1
        assert "flow-hello-symmetry" in out
        assert "never advertised" in out
        assert "trace-ctx-v2" in out

    def test_bad_shard_traces_worker_to_registry(self, capsys):
        code, out = self.run_fixture("bad_shard", capsys)
        assert code == 1
        assert "flow-shard-isolation" in out
        assert "shardpkg.registry.record_result" in out
        assert ("in shardpkg.worker.run_shard: "
                "calls shardpkg.registry.record_result") in out
        assert "mutates module global 'RESULTS'" in out
        # the shard plane's own counters are sanctioned
        assert "note_window" not in out

    def test_json_report_schema(self, capsys):
        code, out = self.run_fixture("bad_des", capsys, extra=("--format", "json"))
        assert code == 1
        doc = json.loads(out)
        assert doc["version"] == 2
        assert doc["tool"] == "reprolint"
        assert doc["summary"]["by_rule"] == {
            "flow-clock-boundary": 1, "flow-des-purity": 1}
        assert doc["stats"]["flow_modules_analyzed"] == 4
        (v,) = [v for v in doc["violations"] if v["rule"] == "flow-des-purity"]
        assert [f["func"] for f in v["chain"]] == [
            "despkg.helper.stamp", "extutil.wallclock"]

    def test_sarif_output(self, capsys, tmp_path):
        sarif_file = tmp_path / "flow.sarif"
        code, out = self.run_fixture(
            "bad_wire", capsys,
            extra=("--format", "sarif", "--sarif-out", str(sarif_file)),
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["version"] == "2.1.0"
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert any(r["id"] == "flow-wire-conformance" for r in driver["rules"])
        assert doc == json.loads(sarif_file.read_text())

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert len(FLOW_RULE_IDS) == 8
        for rule_id in FLOW_RULE_IDS:
            assert rule_id in out

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "pyproject.toml"
        bad.write_text("[tool.reprolint.flow]\nno-such-key = []\n")
        (tmp_path / "src").mkdir()
        code = lint_main([str(tmp_path / "src"), "--config", str(bad)])
        assert code == 2
        assert "no-such-key" in capsys.readouterr().err


class TestConfig:
    def test_from_table_rejects_unknown_keys(self):
        with pytest.raises(LintConfigError):
            FlowConfig.from_table({"wat": []})
        with pytest.raises(LintConfigError):
            LintConfig.from_table({"flow": {"wat": []}})

    def test_package_scoping(self):
        cfg = FlowConfig(des_pure_packages=("repro.sim",))
        assert cfg.in_des_pure("repro.sim")
        assert cfg.in_des_pure("repro.sim.des")
        assert not cfg.in_des_pure("repro.simx")


class TestSelfHost:
    def test_tree_is_flow_clean(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        cfg = LintConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
        cfg.select = tuple(FLOW_RULE_IDS)
        report = Engine(cfg).lint_paths(["src"])
        assert report.errors == []
        assert report.warnings == []
        # The reserved wire numbers 5/6 (test_reprolint.py pins which).
        assert {v.rule for v in report.suppressed} == {"flow-msgtype-coverage"}
        assert report.exit_code == 0
        assert report.stats["flow_modules_analyzed"] > 100
        assert report.stats["flow_edges"] > 0
