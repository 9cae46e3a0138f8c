"""Tests for the linter driver, report rendering, and the CLI."""

import json
import os

import pytest

import repro
from repro.analysis import lint_file, lint_paths, lint_source
from repro.analysis.cli import main as cli_main
from repro.analysis.report import Finding, Report
from repro.errors import LintError

UNSAFE = "import os, threading\nthreading.Thread()\nos.fork()\n"
SAFE = "import os\nos.posix_spawn('/bin/true', ['true'], {})\n"


class TestDriver:
    def test_clean_source_yields_no_findings(self):
        assert lint_source(SAFE).findings == []

    def test_our_own_source_is_clean_at_warning_and_above(self):
        """Every intentional fork site in the library says so with
        ``# lint-ok: <ids>`` and why; anything else is a finding."""
        report = lint_paths([os.path.dirname(repro.__file__)])
        assert report.files_scanned > 50
        assert [f.format() for f in report.by_severity("warning")] == []

    def test_syntax_error_becomes_finding(self):
        report = lint_source("def broken(:\n", "bad.py")
        (finding,) = report.findings
        assert finding.rule_id == "SYNTAX"
        assert finding.severity == "error"

    def test_select_restricts_rules(self):
        report = lint_source(UNSAFE, only_rules=["F001"])
        assert {f.rule_id for f in report.findings} == {"F001"}

    def test_lint_file(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(UNSAFE)
        report = lint_file(str(target))
        assert report.files_scanned == 1
        assert any(f.rule_id == "F001" for f in report.findings)
        assert report.findings[0].path == str(target)

    def test_lint_missing_file_raises(self):
        with pytest.raises(LintError):
            lint_file("/no/such/file.py")

    def test_lint_directory_recurses(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text(UNSAFE)
        (tmp_path / "pkg" / "b.py").write_text(SAFE)
        (tmp_path / "pkg" / "not_python.txt").write_text("os.fork()")
        report = lint_paths([str(tmp_path)])
        assert report.files_scanned == 2

    def test_pycache_skipped(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "x.py").write_text(UNSAFE)
        (tmp_path / "ok.py").write_text(SAFE)
        report = lint_paths([str(tmp_path)])
        assert report.files_scanned == 1


class TestReport:
    def _report(self):
        r = Report(files_scanned=2)
        r.findings = [
            Finding("F002", "warning", "w", "b.py", 3),
            Finding("F001", "error", "e", "a.py", 1),
            Finding("F011", "info", "i", "a.py", 9),
        ]
        return r

    def test_sorted_by_path_then_line(self):
        ordered = self._report().sorted()
        assert [(f.path, f.line) for f in ordered] == [
            ("a.py", 1), ("a.py", 9), ("b.py", 3)]

    def test_by_severity_filters(self):
        assert len(self._report().by_severity("error")) == 1
        assert len(self._report().by_severity("warning")) == 2
        assert len(self._report().by_severity("info")) == 3

    def test_counts(self):
        assert self._report().counts() == {
            "info": 1, "warning": 1, "error": 1}

    def test_worst_severity(self):
        assert self._report().worst_severity == "error"
        assert Report().worst_severity is None

    def test_text_rendering_has_summary(self):
        text = self._report().render_text()
        assert "2 file(s) scanned" in text
        assert "1 error(s), 1 warning(s), 1 info" in text

    def test_json_rendering_parses(self):
        data = json.loads(self._report().render_json())
        assert data["counts"]["error"] == 1
        assert len(data["findings"]) == 3

    def test_finding_format(self):
        f = Finding("F001", "error", "bad fork", "x.py", 10, 4)
        assert f.format() == "x.py:10:4: error [F001] bad fork"


class TestCli:
    def test_exit_one_on_findings(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(UNSAFE)
        code = cli_main([str(target)])
        out = capsys.readouterr().out
        assert code == 1
        assert "F001" in out

    def test_exit_zero_on_clean(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text(SAFE)
        assert cli_main([str(target)]) == 0

    def test_min_severity_gate(self, tmp_path):
        target = tmp_path / "warnish.py"
        # pid captured (no F012), no threads/ssl: warnings only.
        target.write_text("import os\npid = os.fork()\n")
        assert cli_main([str(target), "--min-severity", "error"]) == 0
        assert cli_main([str(target), "--min-severity", "warning"]) == 1

    def test_json_flag(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(UNSAFE)
        cli_main(["--json", str(target)])
        data = json.loads(capsys.readouterr().out)
        assert data["files_scanned"] == 1

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "F001" in out and "F011" in out

    def test_explain_known_rule(self, capsys):
        assert cli_main(["--explain", "F001"]) == 0
        assert "threads" in capsys.readouterr().out

    def test_explain_unknown_rule(self, capsys):
        assert cli_main(["--explain", "F999"]) == 2

    def test_no_paths_is_usage_error(self, capsys):
        assert cli_main([]) == 2

    def test_select_flag(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(UNSAFE)
        cli_main([str(target), "--select", "F003"])
        out = capsys.readouterr().out
        assert "F003" in out and "F001" not in out


class TestSuppression:
    def test_bare_lint_ok_waives_everything_on_line(self):
        code = "import os\npid = os.fork()  # lint-ok\n"
        assert lint_source(code).findings == []

    def test_targeted_waiver_drops_only_named_rule(self):
        code = "import os\npid = os.fork()  # lint-ok: F003\n"
        rules = {f.rule_id for f in lint_source(code).findings}
        assert "F003" not in rules
        assert "F002" in rules  # still reported

    def test_comma_separated_waivers(self):
        code = "import os\npid = os.fork()  # lint-ok: F002, F003\n"
        rules = {f.rule_id for f in lint_source(code).findings}
        assert not {"F002", "F003"} & rules

    def test_waiver_on_other_line_does_not_apply(self):
        code = "import os  # lint-ok\npid = os.fork()\n"
        assert lint_source(code).findings  # fork's line has no waiver

    def test_waiver_does_not_hide_other_lines(self):
        code = ("import os\n"
                "pid = os.fork()  # lint-ok\n"
                "pid2 = os.fork()\n")
        lines = {f.line for f in lint_source(code).findings}
        assert lines == {3}
