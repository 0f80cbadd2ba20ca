"""Tests for the reprolint engine (repro.analysis.lint).

The determinism fixture pair under ``tests/lint_fixtures/`` must fire
the ``flow-*`` contracts (bad) or stay silent (good).  Engine
behaviours (suppressions, config, reporters, exit codes, module
scoping, the one-parse pass) are covered directly, and the self-host
tests assert the shipped tree lints clean under the repo's own
``pyproject.toml`` and holds no mutable default argument.  The
whole-program passes themselves are covered by ``test_flow.py``.
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
#: DES-pure packages).  The pair is named after the per-file rule it was
#: written for; the whole-program rules report it.
FIXTURE_MODULES = {"des-purity": "repro.core.fixture"}

#: fixture pair -> the rules it exercises
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
    rules = FIXTURE_RULES[name]
    report = lint_one(source, module or FIXTURE_MODULES[name], *rules)
    return report, [v for v in report.violations if v.rule in rules]


class TestFixturePairs:
    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_MODULES))
    def test_bad_fixture_fires(self, rule_id):
        _report, hits = lint_fixture(rule_id, "bad")
        assert hits, f"{rule_id}: bad fixture produced no violations"
        for v in hits:
            assert v.line > 0
            assert v.message

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_MODULES))
    def test_good_fixture_silent(self, rule_id):
        report, hits = lint_fixture(rule_id, "good")
        assert hits == [], f"{rule_id}: good fixture fired: {hits}"
        assert report.violations == []

    def test_every_registered_rule_has_a_fixture_pair(self):
        # The pair covers three of the four contracts; the fourth,
        # flow-unordered-iteration, fires on tests/flow_fixtures/.
        assert set(all_rules()) == {*DETERMINISM, "flow-unordered-iteration"}
        for name in FIXTURE_MODULES:
            base = name.replace("-", "_")
            assert (FIXTURES / f"{base}_bad.py").exists()
            assert (FIXTURES / f"{base}_good.py").exists()
        assert sorted(p.name for p in FIXTURES.glob("*.py")) == [
            "des_purity_bad.py", "des_purity_good.py"]

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


class TestModuleScoping:
    def test_rule_ignores_out_of_scope_module(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        # flow-des-purity looks only inside the DES-pure packages
        for module, rules in (("scripts.helper", []),
                              ("repro.transport.x", []),
                              ("repro.core.x", ["flow-des-purity"])):
            report = lint_one(source, module, "flow-des-purity")
            assert [v.rule for v in report.violations] == rules, module

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
        assert (v.rule, v.line) == ("suppression", 1)
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
    def test_unknown_rule_id_in_config_rejected(self):
        # there is no per-rule option table any more: [tool.reprolint.rules]
        # is an unknown key, whatever rule it names
        with pytest.raises(LintConfigError):
            LintConfig.from_table({"rules": {"nope": {}}})
        with pytest.raises(LintConfigError):
            LintConfig.from_table({"rules": {"mutable-default-arg": {}}})

    def test_whole_program_rule_options_rejected(self):
        # flow-* rules are scoped by [tool.reprolint.flow], not by a
        # per-rule option table
        with pytest.raises(LintConfigError, match=r"rules"):
            LintConfig.from_table(
                {"rules": {"flow-des-purity": {"severity": "warning"}}})

    def test_unknown_table_key_rejected(self):
        with pytest.raises(LintConfigError):
            LintConfig.from_table({"bogus": 1})

    def test_unknown_rule_option_rejected(self):
        with pytest.raises(LintConfigError, match="frobnicate"):
            LintConfig.from_table({"flow": {"frobnicate": True}})

    def test_select_unknown_rule_rejected(self):
        with pytest.raises(LintConfigError):
            Engine(LintConfig(select=("no-such-rule",)))
        with pytest.raises(LintConfigError):
            Engine(LintConfig(select=("des-purity",)))
        with pytest.raises(LintConfigError):
            Engine(LintConfig(select=("mutable-default-arg",)))

    def test_select_limits_the_run_to_the_named_rules(self):
        src = "import random\nimport time\n\ndef f():\n    return time.time() + random.random()\n"
        module = "repro.experiments.x"
        assert sorted(v.rule for v in lint_one(src, module).violations
                      ) == ["flow-ambient-rng", "flow-clock-boundary"]
        for rule in ("flow-ambient-rng", "flow-clock-boundary"):
            report = lint_one(src, module, rule)
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
        # direct findings carry no chain; suppressed ones say why
        doc = json.loads(lint_one(
            "import random, time\n"
            "x = time.time()  # reprolint: ignore[flow-clock-boundary] -- shared\n"
            "y = random.random()\n", "repro.experiments.x").render_json())
        (v,) = doc["violations"]
        assert set(v) == {"path", "line", "col", "rule", "severity", "message"}
        assert v["rule"] == "flow-ambient-rng"
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
        assert len(all_rules()) == 4
        assert "mutable-default-arg" not in out

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
        bad = str(FIXTURES / "des_purity_bad.py")
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
        assert lint_main(["--select", "flow-unordered-iteration", *args]) == 0


class TestOnePass:
    """Every file is read once, tokenized once and parsed once: the
    suppression scan reads the tokens, the flow summary the tree."""

    def write_project(self, root):
        pkg = root / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "wire.py").write_text(
            "import random\n\n"
            "def pack_data(seq):\n    return seq, random.random()\n"
        )
        (pkg / "peer.py").write_text(
            "import time\n"
            "from pkg.wire import pack_data\n\n"
            "def on_frame(t):\n"
            "    return pack_data(t) and time.time()  "
            "# reprolint: ignore[flow-des-purity] -- test\n"
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
        # ... and both consumers (suppression scan, flow summary) saw
        # each file
        assert [(Path(v.path).name, v.rule) for v in report.violations] == [
            ("wire.py", "flow-des-purity"),
        ]
        assert [(Path(v.path).name, v.rule) for v in report.suppressed] == [
            ("peer.py", "flow-des-purity"),
        ]


class TestSelfHost:
    def test_shipped_tree_is_clean(self, monkeypatch):
        """`repro-lint src/` exits 0 on the repo: no violations and no
        suppressions, with the call graph built over the whole tree."""
        monkeypatch.chdir(REPO_ROOT)
        cfg = LintConfig.from_pyproject("pyproject.toml")
        engine = Engine(cfg)
        assert engine.rules == set(all_rules())
        report = engine.lint_paths(["src"])
        assert len(report.files) > 100, "no files linted — wrong repo root?"
        assert [v.format() for v in report.violations] == []
        assert report.suppressed == []
        assert report.exit_code == 0
        assert report.stats["flow_modules_analyzed"] > 100
        assert report.stats["flow_edges"] > 0

    def test_no_mutable_default_arguments(self):
        """A ``[]``/``{}``/``set()``/``list()``/``dict()``/``bytearray()``
        default is one object shared by every call — across daemons, in
        a multi-daemon DES run.  Default to None and build per call."""
        mutable = (ast.List, ast.Dict, ast.Set)
        factories = {"list", "dict", "set", "bytearray"}
        found = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.Lambda)):
                    continue
                for d in [*node.args.defaults, *node.args.kw_defaults]:
                    if isinstance(d, mutable) or (
                            isinstance(d, ast.Call)
                            and isinstance(d.func, ast.Name)
                            and d.func.id in factories):
                        found.append(f"{path.relative_to(REPO_ROOT)}:{d.lineno}")
        assert found == []


class TestSuppressionEdgeCases:
    """Scanner corner cases: multi-line statements, reprolint-lookalike
    text inside f-strings, decorated defs, and ``flow-`` ids validated
    against the registry."""

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
        # A one-line def reports its body's clock read on the def line,
        # which carries the suppression even under a decorator.
        src = (
            "import functools, time\n"
            "@functools.lru_cache\n"
            "def f(): return time.time()  # reprolint: ignore[flow-des-purity] -- boot\n"
        )
        report = self.lint(src)
        assert report.violations == []
        assert [s.rule for s in report.suppressed] == ["flow-des-purity"]

    def test_decorated_def_suppression_on_decorator_line_does_not_apply(self):
        src = (
            "import functools, time\n"
            "@functools.lru_cache  # reprolint: ignore[flow-des-purity] -- nope\n"
            "def f(): return time.time()\n"
        )
        report = self.lint(src)
        assert [v.rule for v in report.violations] == ["flow-des-purity"]

    def test_flow_rule_ids_are_known_to_the_lint_engine(self):
        # flow- ids sit in the rule registry: a registered one is
        # accepted (and still needs a justification), anything else
        # behind the prefix is unknown.
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
        # One comment naming two rules suppresses both findings on its line.
        src = (
            "import random, time\n\n"
            "def f(): return time.time() + random.random()  "
            "# reprolint: ignore[flow-clock-boundary, flow-ambient-rng] -- fixture\n"
        )
        report = lint_one(src, "repro.experiments.x", *DETERMINISM)
        assert report.violations == []
        assert sorted(s.rule for s in report.suppressed) == [
            "flow-ambient-rng", "flow-clock-boundary"]
