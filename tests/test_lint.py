"""The ``repro.lint`` meta-suite.

Three layers:

* every rule fires on its bad fixture and stays silent on its good one
  (``tests/lint_fixtures/``),
* the selection machinery behaves (``--select`` / ``--ignore``, rule
  scopes),
* ``src/repro`` itself is lint-clean — the repo must always pass its own
  static analysis (this is what CI enforces via ``profess lint``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest

from repro import cli
from repro.lint import RULES, Finding, LintError, lint_paths, lint_sources

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(__file__).parent.parent / "src" / "repro"

NO_HOT = frozenset()


@dataclass(frozen=True)
class Case:
    """How to lint one rule's fixture pair."""

    #: Module name the fixture is linted under (rule scopes depend on it).
    module: str
    #: Hot-class manifest entries (qualnames, relative to ``module``).
    bad_classes: tuple[str, ...] = ()
    good_classes: tuple[str, ...] = ()
    #: Hot-function manifest entries (qualnames, relative to ``module``).
    bad_functions: tuple[str, ...] = ()
    good_functions: tuple[str, ...] = ()
    def manifests(self, kind: str) -> tuple[frozenset, frozenset]:
        classes = self.bad_classes if kind == "bad" else self.good_classes
        functions = self.bad_functions if kind == "bad" else self.good_functions
        return (
            frozenset(f"{self.module}.{name}" for name in classes),
            frozenset(f"{self.module}.{name}" for name in functions),
        )


CASES: dict[str, Case] = {
    "H200": Case(
        module="repro.sim.fixture",
        bad_classes=("Missing",),
        good_classes=("Present",),
    ),
    "H201": Case(
        module="repro.sim.fixture",
        bad_classes=("HotThing",),
        good_classes=("HotThing",),
    ),
    "H202": Case(module="repro.sim.fixture"),
    "H203": Case(
        module="repro.sim.fixture",
        bad_functions=("Loop.run",),
        good_functions=("Loop.run",),
    ),
    "C301": Case(module="repro.analysis.fixture"),
    "C303": Case(module="repro.analysis.fixture"),
    "C305": Case(module="repro.experiments.fixture"),
    "C306": Case(module="repro.analysis.fixture"),
    "E999": Case(module="repro.analysis.fixture"),
}


def lint_fixture(
    name: str,
    module: str,
    select: Optional[str] = None,
    ignore: Optional[str] = None,
    hot_classes: frozenset = NO_HOT,
    hot_functions: frozenset = NO_HOT,
) -> list[Finding]:
    path = FIXTURES / f"{name}.py"
    return lint_sources(
        {module: (str(path), path.read_text(encoding="utf-8"))},
        select=select,
        ignore=ignore,
        hot_classes=hot_classes,
        hot_functions=hot_functions,
    )


def lint_case(rule: str, kind: str) -> list[Finding]:
    case = CASES[rule]
    hot_classes, hot_functions = case.manifests(kind)
    return lint_fixture(
        f"{rule.lower()}_{kind}",
        case.module,
        select=rule,
        hot_classes=hot_classes,
        hot_functions=hot_functions,
    )


class TestRegistry:
    def test_every_rule_has_a_case(self):
        assert set(CASES) == set(RULES)

    def test_every_case_has_fixture_files(self):
        for rule in RULES:
            assert (FIXTURES / f"{rule.lower()}_bad.py").exists(), rule
            if rule != "E999":  # a "good" parse failure cannot exist
                assert (FIXTURES / f"{rule.lower()}_good.py").exists(), rule


class TestRulesFire:
    """Each rule fires on its bad fixture and is silent on its good one."""

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_bad_fixture_fires(self, rule):
        findings = lint_case(rule, "bad")
        assert findings, f"{rule} did not fire on its bad fixture"
        assert all(f.rule == rule for f in findings)
        assert all(f.line >= 1 and f.col >= 1 for f in findings)

    @pytest.mark.parametrize("rule", sorted(set(RULES) - {"E999"}))
    def test_good_fixture_silent(self, rule):
        findings = lint_case(rule, "good")
        assert findings == [], (
            f"{rule} fired on its good fixture: "
            + "; ".join(f.render() for f in findings)
        )

    def test_bad_fixture_counts(self):
        # Spot-check multiplicity: every banned site is reported, not
        # just the first one per file.
        assert len(lint_case("H202", "bad")) == 2  # __init__ + method
        assert len(lint_case("H203", "bad")) == 3  # print, f-string, try
        assert len(lint_case("C303", "bad")) == 2  # local class + builtin
        assert len(lint_case("C305", "bad")) == 2  # MDMPolicy + PoMPolicy
        assert len(lint_case("C306", "bad")) == 2  # plain + inside tuple


class TestSelection:
    def test_select_family_prefix(self):
        assert lint_fixture("c301_bad", "repro.analysis.fixture", select="C")
        assert (
            lint_fixture("c301_bad", "repro.analysis.fixture", select="H")
            == []
        )

    def test_ignore_specific_rule(self):
        assert (
            lint_fixture("c301_bad", "repro.analysis.fixture", ignore="C301")
            == []
        )

    def test_policy_packages_may_construct_policies(self):
        # The registry and the defining modules build policies directly.
        for module in ("repro.policies.fixture", "repro.core.fixture"):
            assert lint_fixture("c305_bad", module, select="C305") == []


class TestFindingShape:
    def test_render(self):
        finding = lint_case("C301", "bad")[0]
        assert finding.path.endswith("c301_bad.py")
        assert finding.render() == (
            f"{finding.path}:{finding.line}:{finding.col}: C301 "
            f"{finding.message}"
        )


class TestCli:
    def test_findings_exit_1(self, capsys):
        path = FIXTURES / "c301_bad.py"
        assert cli.main(["lint", str(path)]) == 1
        captured = capsys.readouterr()
        (line,) = captured.out.splitlines()
        assert line.startswith(f"{path}:") and " C301 " in line
        assert captured.err == "1 finding(s): C301 x1\n"

    def test_clean_file_exits_0(self, capsys):
        code = cli.main(["lint", str(FIXTURES / "c301_good.py")])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_select_filters_cli(self, capsys):
        code = cli.main(
            ["lint", str(FIXTURES / "c301_bad.py"), "--select", "H"]
        )
        assert code == 0
        capsys.readouterr()

    def test_missing_path_exits_2(self, capsys):
        # Usage errors share the exit code: a missing path, and a
        # --select/--ignore entry that prefixes no rule code (removed
        # rules such as D101 and K401 included), each reported on one
        # line.
        good = str(FIXTURES / "c301_good.py")
        for argv in (
            [str(FIXTURES / "does_not_exist.py")],
            [good, "--select", "D101"],
            [good, "--select", "K401"],
            [good, "--select", "D999"],
            [good, "--select", "C,D999"],
            [good, "--ignore", "D999"],
        ):
            assert cli.main(["lint", *argv]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("lint:") and err.count("\n") == 1, argv

    def test_list_rules(self, capsys):
        assert cli.main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_lint_error_from_api(self):
        with pytest.raises(LintError):
            lint_paths([FIXTURES / "does_not_exist.py"])


class TestRepoClean:
    def test_src_repro_is_lint_clean(self):
        findings = lint_paths([SRC])
        assert findings == [], "src/repro must stay lint-clean:\n" + "\n".join(
            f.render() for f in findings
        )
