"""Argument parsing and exit codes for the ``repro check`` pass.

Shared by ``repro check`` (the simulator CLI subcommand) and
``python -m repro.analysis``.  Exit codes: 0 clean, 1 findings,
2 usage error (argparse's own convention).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from collections.abc import Sequence
from dataclasses import replace
from pathlib import Path

from repro.analysis.framework import CheckResult, default_root, run_check


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=("project-specific static analysis, 27 rules: "
                     "determinism, unit-consistency, hook-contract, "
                     "hot-path and stateful-invariant (reset/cache-key/"
                     "serialization) rules (see docs/static-analysis.md)"),
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to check (default: the repro package)")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--rules", metavar="ID[,ID...]", default=None,
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--root", type=Path, default=None,
        help="directory findings are reported relative to")
    parser.add_argument(
        "--output", type=Path, default=None,
        help="also write the report to this file")
    parser.add_argument(
        "--changed", nargs="?", const="HEAD", default=None,
        metavar="BASE",
        help=("report only findings in files changed vs. the git ref "
              "BASE (default HEAD), for pre-commit use; cross-file "
              "rules still see the whole tree"))
    return parser


def changed_files(base: str, root: Path) -> set[str] | None:
    """Repo-relative paths changed vs. ``base`` (plus untracked files).

    Returns ``None`` when git cannot answer (not a repository, unknown
    ref) — the caller reports the error and exits with a usage error
    rather than silently checking nothing.
    """
    changed: set[str] = set()
    for args in (["diff", "--name-only", base, "--"],
                 ["ls-files", "--others", "--exclude-standard"]):
        proc = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            return None
        changed.update(
            line.strip() for line in proc.stdout.splitlines()
            if line.strip()
        )
    return changed


def _filter_changed(result: CheckResult, base: str,
                    root: Path) -> CheckResult | None:
    changed = changed_files(base, root)
    if changed is None:
        return None
    return replace(
        result,
        findings=[f for f in result.findings if f.path in changed],
    )


def run(args: argparse.Namespace) -> int:
    rule_ids = None
    if args.rules:
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]
    try:
        result = run_check(
            paths=args.paths or None,
            root=args.root,
            rule_ids=rule_ids,
        )
    except ValueError as exc:  # unknown rule id
        print(f"repro check: {exc}", file=sys.stderr)
        return 2
    if args.changed is not None:
        filtered = _filter_changed(
            result, args.changed, args.root or default_root())
        if filtered is None:
            print(f"repro check: cannot diff against {args.changed!r} "
                  f"(not a git checkout, or unknown ref)", file=sys.stderr)
            return 2
        result = filtered
    if args.format == "json":
        report = result.to_json()
    elif args.format == "sarif":
        from repro.analysis.rules import all_rules
        from repro.analysis.sarif import to_sarif_json

        rules = all_rules()
        if rule_ids is not None:
            wanted = set(rule_ids)
            rules = [rule for rule in rules if rule.rule_id in wanted]
        report = to_sarif_json(result, rules)
    else:
        report = result.format_text()
    print(report)
    if args.output is not None:
        args.output.write_text(report + "\n", encoding="utf-8")
    return 0 if result.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    return run(parser.parse_args(argv))
