"""Tests for the reprolint engine (repro.analysis.lint).

Each per-file rule is exercised against a good/bad fixture pair under
``tests/lint_fixtures/``: the bad snippet must fire the rule, the good
snippet must stay silent.  Engine behaviours (suppressions, config,
reporters, exit codes, module scoping, the one-parse pass) are covered
directly — through the whole-program determinism rules where the case
was written for the per-file ``des-purity`` rule they replaced — and
one self-host test asserts the shipped tree lints clean under the
repo's own ``pyproject.toml``.  The whole-program passes themselves
are covered by ``test_flow.py``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Engine,
    LintConfig,
    LintConfigError,
    all_rules,
)
from repro.analysis.lint.cli import main as lint_main
from repro.analysis.lint.engine import (
    JSON_SCHEMA_VERSION,
    scan_suppression_comments,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent

#: fixture pair -> module name it is linted as (must fall inside the
#: default scope of the rule it exercises).  A pair is named after the
#: per-file rule it was written for.
FIXTURE_MODULES = {
    "arena-sweep-discipline": "repro.core.set_arena.fixture",
    "des-purity": "repro.core.fixture",
    "sampler-contract": "repro.plugins.samplers.fixture",
    "swallowed-except": "repro.core.fixture",
    "control-verb-registry": "repro.core.control",
    "no-blocking-io-in-hot-path": "repro.plugins.samplers.fixture",
    "obs-hotpath-discipline": "repro.core.fixture",
    "mutable-default-arg": "repro.anywhere.fixture",
}


#: The determinism pair outlived the per-file ``des-purity`` rule: the
#: whole-program rules report it.
FIXTURE_RULES = {
    "des-purity": ("flow-des-purity", "flow-clock-boundary", "flow-ambient-rng"),
}

DETERMINISM = FIXTURE_RULES["des-purity"]


def lint_one(source: str, module: str, *select: str, config=None):
    """Lint ``source`` as module ``module`` (path ``<module>``)."""
    config = config or LintConfig(select=select or None)
    return Engine(config).lint_sources({module: source})


def lint_fixture(name: str, kind: str, module=None):
    """Lint one fixture file with only its pair's rule(s) selected."""
    fname = name.replace("-", "_") + f"_{kind}.py"
    source = (FIXTURES / fname).read_text()
    rules = FIXTURE_RULES.get(name, (name,))
    report = lint_one(source, module or FIXTURE_MODULES[name], *rules)
    return report, [v for v in report.violations if v.rule in rules]


class TestFixturePairs:
    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_MODULES))
    def test_bad_fixture_fires(self, rule_id):
        _report, hits = lint_fixture(rule_id, "bad")
        assert hits, f"{rule_id}: bad fixture produced no violations"
        for v in hits:
            assert v.line > 0
            assert v.severity == "error"
            assert v.message

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_MODULES))
    def test_good_fixture_silent(self, rule_id):
        report, hits = lint_fixture(rule_id, "good")
        assert hits == [], f"{rule_id}: good fixture fired: {hits}"
        assert report.violations == []

    def test_every_registered_rule_has_a_fixture_pair(self):
        for rule_id, cls in all_rules().items():
            if cls.whole_program:
                continue  # tests/flow_fixtures/ + test_flow.py
            assert rule_id in FIXTURE_MODULES
            base = rule_id.replace("-", "_")
            assert (FIXTURES / f"{base}_bad.py").exists()
            assert (FIXTURES / f"{base}_good.py").exists()
        assert set(FIXTURE_MODULES) - set(all_rules()) == set(FIXTURE_RULES)

    def test_determinism_fixture_reports_every_site_in_des_scope(self):
        # What the per-file rule reported — the clock read and both RNG
        # draws, each at its own line — flow-des-purity reports too.
        _report, hits = lint_fixture("des-purity", "bad")
        assert [(v.line, v.rule) for v in hits] == [
            (10, "flow-des-purity"),
            (11, "flow-des-purity"),
            (12, "flow-des-purity"),
        ]
        assert "wall_clock" in hits[0].message
        assert "ambient_rng" in hits[1].message
        assert "numpy.random.normal" in hits[2].chain[-1].note

    def test_determinism_fixture_outside_the_des_pure_packages(self):
        # repro.experiments is not DES-pure, so no transitive contract
        # looks there: the direct calls are still reported, the clock
        # read by flow-clock-boundary, random.random() and
        # np.random.normal() by flow-ambient-rng.
        _report, hits = lint_fixture(
            "des-purity", "bad", module="repro.experiments.fixture")
        assert [(v.line, v.rule) for v in hits] == [
            (10, "flow-clock-boundary"),
            (11, "flow-ambient-rng"),
            (12, "flow-ambient-rng"),
        ]
        assert "random.random()" in hits[1].message
        assert "numpy.random.normal()" in hits[2].message
        _report, good = lint_fixture(
            "des-purity", "good", module="repro.experiments.fixture")
        assert good == []


class TestSamplerContractLayout:
    """Plugins compile a layout with ``set_template`` and instantiate it
    with ``create_set``: both are layout work, due once at config()."""

    SOURCE = """
from repro.core import metric_set
from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, register_sampler

TEMPLATE = set_template(("m0", "m1"), MetricType.U64)


@register_sampler("fixture_layout")
class LayoutSampler(SamplerPlugin):
    def config(self, instance, component_id=0, **kwargs):
        super().config(instance, component_id, **kwargs)
        self.set = self.create_set(instance, "fixture",
                                   set_template(("a",), MetricType.U64))

    def do_sample(self, now):
        self.create_set(self.instance, "fixture", TEMPLATE)
        set_template(("m0",), MetricType.U64)
        metric_set.set_template(("m1",), MetricType.U64)
        self.set.set_values([1, 2])
"""

    def test_layout_calls_flagged_in_sample_only(self):
        report = lint_one(self.SOURCE, "repro.plugins.samplers.fixture",
                          "sampler-contract")
        assert [(v.line, v.message.split("(")[0])
                for v in report.violations] == [
            (18, "create_set"), (19, "set_template"), (20, "set_template")]


class TestModuleScoping:
    def test_rule_ignores_out_of_scope_module(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        report = lint_one(source, "scripts.helper", "flow-des-purity")
        assert report.violations == []
        source = "def f():\n    try:\n        g()\n    except Exception:\n        pass\n"
        assert lint_one(source, "scripts.helper", "swallowed-except").violations == []
        assert [v.rule for v in lint_one(
            source, "repro.transport.x", "swallowed-except").violations
        ] == ["swallowed-except"]

    def test_allowed_module_is_exempt(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        cfg = LintConfig.from_table({
            "select": list(DETERMINISM),
            "flow": {"boundary-modules": ["repro.util.timeutil"]},
        })
        report = lint_one(source, "repro.util.timeutil", config=cfg)
        assert report.violations == []
        report2 = lint_one(source, "repro.util.other", config=cfg)
        assert [v.rule for v in report2.violations] == ["flow-clock-boundary"]
        cfg = LintConfig.from_table({
            "select": ["swallowed-except"],
            "rules": {"swallowed-except": {"allowed-modules": ["repro.core.x"]}},
        })
        source = "def f():\n    try:\n        g()\n    except Exception:\n        pass\n"
        assert lint_one(source, "repro.core.x", config=cfg).violations == []

    def test_module_name_mapping(self):
        engine = Engine(LintConfig())
        assert engine.module_name(
            Path("src/repro/core/metric_set.py")) == "repro.core.metric_set"
        assert engine.module_name(
            Path("src/repro/analysis/lint/__init__.py")) == "repro.analysis.lint"

    def test_import_alias_resolution(self):
        # `from time import time as clock` must still resolve.
        source = "from time import time as clock\n\ndef f():\n    return clock()\n"
        report = lint_one(source, "repro.core.x", *DETERMINISM)
        assert [v.rule for v in report.violations] == ["flow-des-purity"]
        # the per-file resolver is the same one
        source = ("from struct import pack as p\n\n"
                  "def sweep(blk):\n    return p('<I', 1)\n")
        report = lint_one(source, "repro.core.set_arena.x",
                          "arena-sweep-discipline")
        assert [v.rule for v in report.violations] == ["arena-sweep-discipline"]


class TestSuppressions:
    SOURCE = (
        "import time\n"
        "\n"
        "def f():\n"
        "    return time.time()  # reprolint: ignore[flow-des-purity] -- fixture timing\n"
    )

    def lint(self, source):
        return lint_one(source, "repro.core.x", *DETERMINISM)

    def test_justified_suppression_moves_to_suppressed(self):
        report = self.lint(self.SOURCE)
        assert report.violations == []
        assert len(report.suppressed) == 1
        s = report.suppressed[0]
        assert s.rule == "flow-des-purity"
        assert s.suppressed
        assert s.justification == "fixture timing"
        assert report.exit_code == 0

    def test_unjustified_suppression_is_a_violation(self):
        src = self.SOURCE.replace(" -- fixture timing", "")
        report = self.lint(src)
        # Reported exactly once: as the bare ignore, not also as the
        # finding it covers (that one is still suppressed, not doubled).
        assert [v.rule for v in report.violations] == ["suppression"]
        assert len(report.suppressed) == 1
        assert report.exit_code == 1

    def test_unknown_rule_id_is_a_violation(self):
        src = self.SOURCE.replace("flow-des-purity]", "no-such-rule]")
        report = self.lint(src)
        rules = sorted(v.rule for v in report.violations)
        assert rules == ["flow-des-purity", "suppression"]

    def test_misspelled_flow_rule_id_is_a_violation(self):
        # One registry: an id is known or it is not.  A typo behind the
        # ``flow-`` prefix used to pass both analyzers unreported.
        report = lint_one(
            "x = 1  # reprolint: ignore[flow-des-purty] -- typo\n",
            "repro.core.x")
        (v,) = report.violations
        assert (v.rule, v.severity, v.line) == ("suppression", "error", 1)
        assert "flow-des-purty" in v.message
        assert report.exit_code == 1
        src = self.SOURCE.replace("flow-des-purity]", "flow-des-purty]")
        assert sorted(v.rule for v in self.lint(src).violations) == [
            "flow-des-purity", "suppression"]

    def test_suppression_comment_inside_string_is_inert(self):
        src = (
            'DOC = "# reprolint: ignore[flow-des-purity]"\n'
            "import time\n"
            "\n"
            "def f():\n"
            "    return time.time()\n"
        )
        report = self.lint(src)
        assert [v.rule for v in report.violations] == ["flow-des-purity"]
        assert report.suppressed == []


class TestConfig:
    BAD_DEFAULT = "def f(x=[]):\n    return x\n"

    def test_unknown_rule_id_in_config_rejected(self):
        with pytest.raises(LintConfigError):
            LintConfig.from_table({"rules": {"nope": {}}})
        # the per-file rule this table used to configure is gone
        with pytest.raises(LintConfigError):
            LintConfig.from_table({"rules": {"des-purity": {}}})

    def test_whole_program_rule_options_rejected(self):
        # flow-* rules are scoped by [tool.reprolint.flow], not by a
        # per-rule option table
        with pytest.raises(LintConfigError, match=r"tool\.reprolint\.flow"):
            LintConfig.from_table(
                {"rules": {"flow-des-purity": {"severity": "warning"}}})

    def test_unknown_table_key_rejected(self):
        with pytest.raises(LintConfigError):
            LintConfig.from_table({"bogus": 1})

    def test_unknown_rule_option_rejected(self):
        cfg = LintConfig.from_table(
            {"rules": {"mutable-default-arg": {"frobnicate": True}}})
        with pytest.raises(LintConfigError):
            Engine(cfg)

    def test_bad_severity_rejected(self):
        cfg = LintConfig.from_table(
            {"rules": {"mutable-default-arg": {"severity": "fatal"}}})
        with pytest.raises(LintConfigError):
            Engine(cfg)

    def test_severity_off_disables_rule(self):
        cfg = LintConfig.from_table(
            {"select": ["mutable-default-arg"],
             "rules": {"mutable-default-arg": {"severity": "off"}}})
        report = lint_one(self.BAD_DEFAULT, "repro.core.x", config=cfg)
        assert report.violations == []

    def test_warning_severity_does_not_gate(self):
        cfg = LintConfig.from_table(
            {"select": ["mutable-default-arg"],
             "rules": {"mutable-default-arg": {"severity": "warning"}}})
        report = lint_one(self.BAD_DEFAULT, "repro.core.x", config=cfg)
        assert len(report.warnings) == 1
        assert report.exit_code == 0
        assert "[mutable-default-arg] (warning)" in report.render_text()

    def test_select_unknown_rule_rejected(self):
        with pytest.raises(LintConfigError):
            Engine(LintConfig(select=("no-such-rule",)))
        with pytest.raises(LintConfigError):
            Engine(LintConfig(select=("des-purity",)))

    def test_select_limits_the_run_to_the_named_rules(self):
        src = "import time\n\ndef f(x=[]):\n    return time.time()\n"
        assert sorted(v.rule for v in lint_one(src, "repro.core.x").violations
                      ) == ["flow-des-purity", "mutable-default-arg"]
        for rule in ("flow-des-purity", "mutable-default-arg"):
            report = lint_one(src, "repro.core.x", rule)
            assert [v.rule for v in report.violations] == [rule]


class TestReporters:
    def make_report(self):
        return lint_one("import time\nx = time.time()\n",
                        "repro.core.x", *DETERMINISM)

    def test_text_format(self):
        text = self.make_report().render_text()
        assert "<repro.core.x>:2:0: [flow-des-purity] " in text
        # the call chain down to the clock read, indented under it
        assert ("\n    <repro.core.x>:2: in repro.core.x (module body): "
                "calls time.time()\n") in text
        assert text.endswith(
            "reprolint: 1 files, 1 errors, 0 warnings, 0 suppressed")

    def test_show_suppressed_lists_the_justification(self):
        report = lint_one(TestSuppressions.SOURCE, "repro.core.x", *DETERMINISM)
        assert "fixture timing" not in report.render_text()
        text = report.render_text(show_suppressed=True)
        assert "suppressed:\n<repro.core.x>:4:0: [flow-des-purity] " in text
        assert " -- fixture timing\n" in text

    def test_json_schema(self):
        doc = json.loads(self.make_report().render_json())
        assert doc["tool"] == "reprolint"
        assert doc["version"] == JSON_SCHEMA_VERSION == 2
        assert doc["files_scanned"] == 1
        assert doc["summary"] == {
            "errors": 1,
            "warnings": 0,
            "suppressed": 0,
            "by_rule": {"flow-des-purity": 1},
        }
        assert doc["stats"]["flow_modules_analyzed"] == 1
        assert doc["exit_code"] == 1
        (v,) = doc["violations"]
        assert set(v) == {"path", "line", "col", "rule", "severity",
                          "message", "chain"}
        assert v["rule"] == "flow-des-purity"
        assert v["line"] == 2
        assert set(v["chain"][0]) == {"path", "line", "func", "note"}
        # per-file findings carry no chain; suppressed ones say why
        doc = json.loads(lint_one(
            "def f(x=[]):  # reprolint: ignore[mutable-default-arg] -- shared\n"
            "    return lambda y={}: y\n", "repro.core.x").render_json())
        (v,) = doc["violations"]
        assert set(v) == {"path", "line", "col", "rule", "severity", "message"}
        (s,) = doc["suppressed"]
        assert s["justification"] == "shared"

    def test_parse_error_reported_not_raised(self):
        report = lint_one("def broken(:\n", "repro.core.x")
        assert [v.rule for v in report.violations] == ["parse-error"]
        assert report.exit_code == 1
        # the rest of the program is still analyzed
        report = Engine(LintConfig()).lint_sources({
            "repro.core.x": "def broken(:\n",
            "repro.core.y": "import time\nx = time.time()\n",
        })
        assert [v.rule for v in report.violations] == [
            "parse-error", "flow-des-purity"]


class TestCli:
    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in all_rules():
            assert rule_id in out
        # per-file and whole-program ids in one listing
        assert "mutable-default-arg" in out and "flow-des-purity" in out

    def test_module_entry_point_runs_once_with_clean_stderr(self):
        # `python -m repro.analysis.lint.cli` used to warn that the CLI
        # module was already in sys.modules (the package imported it).
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint.cli", "--list-rules"],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "flow-unordered-iteration" in proc.stdout

    def test_bad_select_exits_2(self, capsys):
        assert lint_main(["--select", "no-such-rule", str(FIXTURES)]) == 2
        assert "repro-lint" in capsys.readouterr().err

    def test_missing_path_exits_2(self, capsys):
        assert lint_main(["definitely_missing.txt"]) == 2

    def test_missing_python_file_exits_2(self, tmp_path, capsys):
        # A .py path that does not exist is a usage error, not an
        # uncaught FileNotFoundError (exit 1 means "violations found").
        missing = tmp_path / "nope.py"
        assert lint_main([str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_directory_without_python_files_exits_2(self, tmp_path, capsys):
        # A gate that checked nothing must not pass: a CI path that
        # resolves to a directory with no .py files is a usage error.
        (tmp_path / "notes.txt").write_text("not python\n")
        assert lint_main([str(tmp_path)]) == 2
        assert "no python files" in capsys.readouterr().err

    def test_json_output_on_fixture(self, capsys):
        bad = str(FIXTURES / "mutable_default_arg_bad.py")
        code = lint_main(["--format", "json",
                          "--config", str(REPO_ROOT / "pyproject.toml"), bad])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["summary"]["errors"] >= 1

    def test_select_on_the_command_line(self, capsys):
        bad = str(FIXTURES / "des_purity_bad.py")
        args = ["--config", str(REPO_ROOT / "pyproject.toml"), bad]
        assert lint_main(["--select", "flow-ambient-rng", *args]) == 1
        out = capsys.readouterr().out
        assert "[flow-ambient-rng]" in out
        assert "[flow-clock-boundary]" not in out
        assert lint_main(["--select", "mutable-default-arg", *args]) == 0


class TestOnePass:
    """Every file is read once, tokenized once and parsed once, however
    many passes consume it (per-file rules, flow summary)."""

    def write_project(self, root):
        pkg = root / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "wire.py").write_text(
            "import struct\n\n"
            "def pack_data(seq, out=[]):\n    return struct.pack('<I', seq)\n"
        )
        (pkg / "peer.py").write_text(
            "import time\n"
            "from pkg.wire import pack_data\n\n"
            "def on_frame(t, x=[]):  # reprolint: ignore[mutable-default-arg] -- test\n"
            "    return pack_data(t) and time.time()\n"
        )
        (root / "pyproject.toml").write_text(
            "[tool.reprolint.flow]\n"
            'des-pure-packages = ["pkg"]\n'
        )
        return sorted(str(f) for f in pkg.glob("*.py"))

    def test_one_parse_and_one_tokenize_per_file(self, tmp_path, monkeypatch):
        files = self.write_project(tmp_path)
        parsed, tokenized = [], []
        real_parse, real_tokens = ast.parse, tokenize.generate_tokens

        def counting_parse(source, *args, **kwargs):
            parsed.append(kwargs.get("filename"))
            return real_parse(source, *args, **kwargs)

        def counting_tokens(readline):
            tokenized.append(readline)
            return real_tokens(readline)

        cfg = LintConfig.from_pyproject(tmp_path / "pyproject.toml")
        with monkeypatch.context() as m:
            m.setattr(ast, "parse", counting_parse)
            m.setattr(tokenize, "generate_tokens", counting_tokens)
            report = Engine(cfg).lint_paths([tmp_path / "src"])

        assert sorted(report.files) == files
        assert sorted(parsed) == files  # nothing parsed twice, or behind our back
        assert len(tokenized) == len(files)
        # ... and both consumers (per-file rules, flow summary) saw
        # each tree
        assert [(Path(v.path).name, v.rule) for v in report.violations] == [
            ("peer.py", "flow-des-purity"),
            ("wire.py", "mutable-default-arg"),
        ]
        assert [v.rule for v in report.suppressed] == ["mutable-default-arg"]


class TestSelfHost:
    def test_shipped_tree_is_clean(self, monkeypatch):
        """`repro-lint src/` exits 0 on the repo: no errors, no warnings
        and no suppressions, per-file and whole-program rules alike, with
        the call graph built over the whole tree."""
        monkeypatch.chdir(REPO_ROOT)
        cfg = LintConfig.from_pyproject("pyproject.toml")
        engine = Engine(cfg)
        assert {r.rule_id for r in engine.rules} | engine.program_rules == set(
            all_rules())
        report = engine.lint_paths(["src"])
        assert len(report.files) > 100, "no files linted — wrong repo root?"
        assert [v.format() for v in report.violations] == []
        assert report.suppressed == []
        assert report.exit_code == 0
        assert report.stats["flow_modules_analyzed"] > 100
        assert report.stats["flow_edges"] > 0


class TestSuppressionEdgeCases:
    """Scanner corner cases: multi-line statements, reprolint-lookalike
    text inside f-strings, decorated defs, and per-file and ``flow-``
    ids validated against the one registry."""

    def lint(self, src, *rules):
        return lint_one(src, "repro.core.x", *(rules or DETERMINISM))

    def test_multiline_statement_suppressed_on_call_line(self):
        # The violation is reported at the offending call's physical
        # line, so that is where the suppression must sit — even when
        # the statement spans several lines.
        src = (
            "import time\n\n"
            "def f():\n"
            "    return (\n"
            "        time.time()  # reprolint: ignore[flow-des-purity] -- boot stamp\n"
            "    )\n"
        )
        report = self.lint(src)
        assert report.violations == []
        assert [s.line for s in report.suppressed] == [5]

    def test_multiline_statement_opening_line_comment_does_not_apply(self):
        # Suppressions are line-scoped: a comment on the statement's
        # opening line does not cover a call on a continuation line.
        src = (
            "import time\n\n"
            "def f():\n"
            "    return (  # reprolint: ignore[flow-des-purity] -- wrong line\n"
            "        time.time()\n"
            "    )\n"
        )
        report = self.lint(src)
        assert [v.rule for v in report.violations] == ["flow-des-purity"]
        assert report.violations[0].line == 5

    def test_fstring_lookalike_is_inert_and_not_malformed(self):
        # An f-string *containing* suppression syntax is data, not a
        # live comment: it must neither suppress nor be flagged as a
        # malformed suppression.
        src = (
            "import time\n"
            "def g(rule):\n"
            '    return f"# reprolint: ignore[{rule}]"\n'
            "def f():\n"
            "    return time.time()\n"
        )
        report = self.lint(src)
        assert [v.rule for v in report.violations] == ["flow-des-purity"]
        assert report.suppressed == []

    def test_decorated_def_suppression_on_def_line(self):
        # mutable-default-arg reports on the signature line; the def
        # line carries the suppression even under a decorator.
        src = (
            "import functools\n"
            "@functools.lru_cache\n"
            "def f(x=[]):  # reprolint: ignore[mutable-default-arg] -- interned\n"
            "    return x\n"
        )
        report = self.lint(src, "mutable-default-arg")
        assert report.violations == []
        assert [s.rule for s in report.suppressed] == ["mutable-default-arg"]

    def test_decorated_def_suppression_on_decorator_line_does_not_apply(self):
        src = (
            "import functools\n"
            "@functools.lru_cache  # reprolint: ignore[mutable-default-arg] -- nope\n"
            "def f(x=[]):\n"
            "    return x\n"
        )
        report = self.lint(src, "mutable-default-arg")
        assert [v.rule for v in report.violations] == ["mutable-default-arg"]

    def test_flow_rule_ids_are_known_to_the_lint_engine(self):
        # flow- ids sit in the same registry as the per-file ids: a
        # registered one is accepted (and still needs a justification),
        # anything else behind the prefix is unknown.
        known = set(all_rules())
        supp, problems = scan_suppression_comments(
            "x = 1  # reprolint: ignore[flow-des-purity] -- sim boot\n", known)
        assert supp[1] == ({"flow-des-purity"}, "sim boot")
        assert problems == []

        _supp, problems = scan_suppression_comments(
            "x = 1  # reprolint: ignore[flow-des-purity]\n", known)
        assert len(problems) == 1 and "justification" in problems[0][2]

        _supp, problems = scan_suppression_comments(
            "x = 1  # reprolint: ignore[flow-no-such-rule] -- why\n", known)
        assert len(problems) == 1 and "flow-no-such-rule" in problems[0][2]

    def test_mixed_known_and_flow_ids_in_one_comment(self):
        src = (
            "import time\n\n"
            "def f(x=[]): return time.time()  "
            "# reprolint: ignore[mutable-default-arg, flow-des-purity] -- fixture\n"
        )
        report = self.lint(src, "mutable-default-arg", "flow-des-purity")
        assert report.violations == []
        assert sorted(s.rule for s in report.suppressed) == [
            "flow-des-purity", "mutable-default-arg"]
