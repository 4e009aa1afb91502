"""Command-line front end: ``python -m repro.lint`` / ``repro-stash lint``.

Exit codes: 0 — clean (no active findings, or only warnings without
``--error-on-findings``); 1 — active error findings (or any active
finding under ``--error-on-findings``); 2 — usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import LintResult, all_rules, run_lint
from .findings import Severity


def find_root(start: Path) -> Path:
    """The enclosing repo root: nearest ancestor with pyproject.toml or
    .git (falling back to `start` itself)."""
    start = start.resolve()
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").exists() or (
            candidate / ".git"
        ).exists():
            return candidate
    return start


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stash lint",
        description=(
            "Static determinism & invariant analysis for the repro tree "
            "(rule catalogue: DESIGN.md §10)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: <root>/src)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="project root anchoring module names and relative paths "
        "(default: auto-detected from pyproject.toml/.git)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE",
        help="only run these rules: exact codes (DET001), family "
        "prefixes (CONC), or comma-joined lists (CONC,DET003); "
        "repeatable",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULE",
        help="skip these rule codes (repeatable)",
    )
    parser.add_argument(
        "--error-on-findings",
        action="store_true",
        help="exit 1 on ANY active finding, warnings included (CI mode)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _print_rules() -> None:
    for code, rule in sorted(all_rules().items()):
        print(f"{code}  [{rule.severity}]  {rule.name}")
        print(f"       {rule.description}")


def _report_text(result: LintResult) -> None:
    for finding in result.findings:
        print(finding.render())
    bits: List[str] = [
        f"{len(result.findings)} finding(s)",
        f"{result.modules_checked} module(s) checked",
    ]
    if result.suppressed:
        bits.append(f"{len(result.suppressed)} suppressed by noqa")
    print(f"repro-lint: {', '.join(bits)}")


def _report_json(result: LintResult) -> None:
    print(
        json.dumps(
            {
                "findings": [f.to_json() for f in result.findings],
                "suppressed": [f.to_json() for f in result.suppressed],
                "modules_checked": result.modules_checked,
            },
            indent=2,
        )
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rules()
        return 0

    root = (
        Path(args.root).resolve()
        if args.root
        else find_root(Path(args.paths[0]) if args.paths else Path.cwd())
    )
    paths = (
        [Path(p) for p in args.paths] if args.paths else [root / "src"]
    )
    for path in paths:
        if not path.exists():
            print(f"repro-lint: no such path: {path}", file=sys.stderr)
            return 2

    try:
        result = run_lint(
            paths,
            root=root,
            select=args.select,
            ignore=args.ignore,
        )
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        _report_json(result)
    else:
        _report_text(result)

    if args.error_on_findings:
        return 1 if result.findings else 0
    return 1 if any(
        f.severity is Severity.ERROR for f in result.findings
    ) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
