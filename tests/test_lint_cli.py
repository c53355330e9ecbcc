"""CLI surface tests for ``profess lint --exclude``."""

from __future__ import annotations

from repro import cli
from repro.lint import lint_paths

BARE_EXCEPT = "try:\n    VALUE = 1\nexcept:\n    VALUE = 0\n"


class TestExclude:
    def test_exclude_prunes_subtree(self, tmp_path):
        good = tmp_path / "ok.py"
        good.write_text("VALUE = 1\n", encoding="utf-8")
        bad_dir = tmp_path / "fixtures"
        bad_dir.mkdir()
        (bad_dir / "bad.py").write_text(BARE_EXCEPT, encoding="utf-8")
        assert lint_paths([tmp_path], select="C301")
        assert lint_paths([tmp_path], select="C301", exclude=[bad_dir]) == []

    def test_exclude_single_file_via_cli(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BARE_EXCEPT, encoding="utf-8")
        code = cli.main(
            [
                "lint",
                str(tmp_path),
                "--select",
                "C301",
                "--exclude",
                str(tmp_path / "bad.py"),
            ]
        )
        assert code == 0
        capsys.readouterr()
