"""``python -m repro.analysis [paths]`` — run the checker.

Prints the text report for ``paths`` (default: the ``repro`` package).
Exit codes: 0 clean, 1 findings, 2 usage error (argparse's own).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.framework import run_check


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=("project-specific static analysis: determinism, "
                     "unit-consistency and reset-completeness rules "
                     "(see docs/static-analysis.md)"),
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to check (default: the repro package)")
    args = parser.parse_args(argv)
    result = run_check(paths=args.paths or None)
    print(result.format_text())
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
