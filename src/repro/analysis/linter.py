"""The analyzer driver: parse sources, run every rule, build a report.

Suppression: a finding whose anchor line carries a ``# lint-ok`` comment
is dropped — bare ``# lint-ok`` waives every rule on that line,
``# lint-ok: F003`` (comma-separated ids allowed) waives only those.
The library's own intentional fork sites (the ``fork_exec`` strategy,
the helper's two forks, ``fork_with_handlers``, ``guarded_fork`` and the
bench's fork baselines) use exactly this, each with its reason, and a
tier-1 test holds ``src/repro`` to no finding at ``warning`` or above.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from ..errors import LintError
from . import checks  # noqa: F401  (importing registers the rules)
from .report import Finding, Report
from .rules import ModuleContext, all_rules

#: Matches "# lint-ok" and "# lint-ok: F001, F003" trailers.
_SUPPRESS_RE = re.compile(
    r"#\s*lint-ok\b\s*(?::\s*(?P<rules>[A-Z0-9,\s]+))?")

#: Sentinel for "every rule waived on this line".
_ALL_RULES: FrozenSet[str] = frozenset({"*"})


def _suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Line number -> waived rule ids (or the all-rules sentinel)."""
    out: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            out[lineno] = _ALL_RULES
        else:
            out[lineno] = frozenset(
                r.strip() for r in rules.split(",") if r.strip())
    return out


def _apply_suppressions(findings: List[Finding],
                        waivers: Dict[int, FrozenSet[str]]) -> List[Finding]:
    if not waivers:
        return findings
    kept = []
    for finding in findings:
        waived = waivers.get(finding.line, frozenset())
        if waived is _ALL_RULES or finding.rule_id in waived:
            continue
        kept.append(finding)
    return kept


def lint_source(source: str, path: str = "<string>",
                only_rules: Optional[Sequence[str]] = None) -> Report:
    """Lint one source string; returns a :class:`Report`.

    Syntax errors become a single ``SYNTAX`` error finding rather than an
    exception, so directory scans keep going.  ``# lint-ok`` comments
    suppress findings on their line (see the module docstring).
    """
    report = Report(files_scanned=1)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        report.findings.append(Finding(
            rule_id="SYNTAX", severity="error",
            message=f"cannot parse: {err.msg}",
            path=path, line=err.lineno or 1, col=err.offset or 0))
        return report
    module = ModuleContext(tree, source, path)
    wanted = set(only_rules) if only_rules is not None else None
    findings: List[Finding] = []
    for rule_cls in all_rules():
        if wanted is not None and rule_cls.ID not in wanted:
            continue
        findings.extend(rule_cls().check(module))
    report.extend(_apply_suppressions(findings, _suppressions(source)))
    return report


def lint_file(path: str,
              only_rules: Optional[Sequence[str]] = None) -> Report:
    """Lint one file on disk."""
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            source = handle.read()
    except OSError as err:
        raise LintError(f"cannot read {path}: {err}") from err
    return lint_source(source, path, only_rules)


def iter_python_files(root: str) -> Iterable[str]:
    """Yield ``.py`` paths under ``root`` (or ``root`` itself if a file)."""
    if os.path.isfile(root):
        yield root
        return
    if not os.path.isdir(root):
        raise LintError(f"no such path: {root}")
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames
                       if d not in (".git", "__pycache__", ".venv", "venv")]
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def lint_paths(paths: Sequence[str],
               only_rules: Optional[Sequence[str]] = None) -> Report:
    """Lint every Python file under the given paths, merged."""
    merged = Report()
    for root in paths:
        for path in iter_python_files(root):
            sub = lint_file(path, only_rules)
            merged.findings.extend(sub.findings)
            merged.files_scanned += sub.files_scanned
    return merged
