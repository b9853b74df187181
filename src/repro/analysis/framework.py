"""The rule framework behind ``python -m repro.analysis``.

A :class:`Rule` inspects parsed source and yields :class:`Finding`\\ s; the
runner (:func:`run_check`) collects the project's files, parses each one
once, applies every rule and renders the result as a text report.

There is no suppression comment: every finding fails the check, so a
rule that flags correct code is fixed (or its exemption table, such as
``RESET_EXEMPT``, is extended with a justification) rather than silenced
at the call site.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    hint: str = ""

    def format(self) -> str:
        """``path:line:col: RULE message (hint: ...)`` — one line."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text


@dataclass
class SourceFile:
    """One parsed file: its repo-relative path and AST."""

    rel: str
    tree: ast.AST

    @classmethod
    def parse(cls, path: Path, rel: str) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        return cls(rel=rel, tree=ast.parse(text, filename=rel))


class Project:
    """Every parsed file of one check run."""

    def __init__(self, files: Sequence[SourceFile]):
        self.files = list(files)

    def __iter__(self) -> Iterator[SourceFile]:
        return iter(self.files)


class Rule:
    """Base class: one invariant, one stable id.

    Subclasses override :meth:`check_file` (per-file rules) and/or
    :meth:`check_project` (cross-file rules that need the whole
    :class:`Project`, e.g. the reset-completeness family).  ``scope``
    decides which files a per-file rule sees; project rules receive
    everything and scope themselves.
    """

    rule_id: str = "XX000"
    name: str = "unnamed"
    description: str = ""
    #: Default fix hint attached to findings (subclasses set it).
    hint: str = ""

    def scope(self, rel: str) -> bool:
        """Whether this rule applies to the file at repo-relative ``rel``."""
        return True

    def check_file(self, src: SourceFile, project: Project) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()

    def finding(self, src_rel: str, node: ast.AST | None, message: str,
                *, hint: str | None = None, line: int | None = None,
                col: int | None = None) -> Finding:
        """Build a :class:`Finding` for ``node`` (or an explicit line)."""
        return Finding(
            path=src_rel,
            line=line if line is not None else getattr(node, "lineno", 1),
            col=col if col is not None else getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
            hint=self.hint if hint is None else hint,
        )


@dataclass
class CheckResult:
    """Outcome of one check run."""

    findings: list[Finding]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts

    def format_text(self) -> str:
        """The report: one line per finding plus a summary."""
        lines = [finding.format() for finding in self.findings]
        counts = self.counts_by_rule()
        if counts:
            breakdown = ", ".join(
                f"{rule} x{count}" for rule, count in sorted(counts.items())
            )
            lines.append(
                f"\n{len(self.findings)} finding(s) in {self.files_checked} "
                f"file(s) [{breakdown}]"
            )
        else:
            lines.append(
                f"clean: 0 findings in {self.files_checked} file(s)"
            )
        return "\n".join(lines)


def collect_files(paths: Sequence[Path], root: Path) -> list[SourceFile]:
    """Parse every ``*.py`` under ``paths`` (files or directories)."""
    seen: dict[str, Path] = {}
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            try:
                rel = str(candidate.resolve().relative_to(root.resolve()))
            except ValueError:
                rel = str(candidate)
            seen[rel] = candidate
    return [SourceFile.parse(path, rel) for rel, path in sorted(seen.items())]


def run_check(paths: Sequence[Path | str] | None = None,
              root: Path | str | None = None,
              rule_ids: Sequence[str] | None = None) -> CheckResult:
    """Run the registered rules over ``paths`` and return the result.

    ``paths`` defaults to the package's own source tree (``src/repro``
    resolved relative to this installation), so the CLI and the
    meta-test need no arguments.  Findings are reported relative to
    ``root`` (default: the checkout root).  ``rule_ids`` restricts the
    run to a subset of rule ids.
    """
    from repro.analysis.rules import all_rules

    root = default_root() if root is None else Path(root)
    if paths is None:
        paths = [default_source_tree()]
    rules = all_rules()
    if rule_ids is not None:
        wanted = set(rule_ids)
        unknown = wanted - {rule.rule_id for rule in rules}
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        rules = [rule for rule in rules if rule.rule_id in wanted]
    files = collect_files([Path(p) for p in paths], root)
    project = Project(files)

    findings: list[Finding] = []
    for rule in rules:
        for src in project:
            if rule.scope(src.rel):
                findings.extend(rule.check_file(src, project))
        findings.extend(rule.check_project(project))
    findings.sort()
    return CheckResult(findings=findings, files_checked=len(files))


def default_source_tree() -> Path:
    """The installed package's own source directory (``src/repro``)."""
    return Path(__file__).resolve().parent.parent


def default_root() -> Path:
    """The directory repo-relative paths are reported against.

    ``src``'s parent when running from a checkout (reports read
    ``src/repro/...``); the package parent otherwise.
    """
    src_dir = default_source_tree().parent
    return src_dir.parent if src_dir.name == "src" else src_dir
