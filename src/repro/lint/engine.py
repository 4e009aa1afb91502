"""Rule registry, suppression, and the lint runner.

Rules register themselves (via :func:`register`) with a code, severity
and description; the runner parses the target tree once into a
:class:`~repro.lint.project.Project`, applies every selected rule to
every module, then sets aside as suppressed each finding whose line
carries a matching ``# repro: noqa[RULE]`` / ``# repro: noqa[RULE1,RULE2]``
(intentional violations carry a justification in the same comment).
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Type,
)

from .findings import Finding, Severity
from .project import ModuleInfo, Project

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s]+)\]")


class Rule:
    """Base class for lint rules.  Subclasses set the class attributes
    and implement :meth:`check`."""

    code: str = ""
    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleInfo,
        line: int,
        col: int,
        message: str,
    ) -> Finding:
        """Build a finding for this rule at a location in `module`."""
        return Finding(
            rule=self.code,
            path=module.relpath,
            line=line,
            col=col,
            message=message,
            severity=self.severity,
            symbol=module.enclosing_function(line),
        )


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule (by its ``code``) to the registry."""
    rule = rule_cls()
    if not isinstance(rule, Rule) or not rule.code:
        raise TypeError(f"{rule_cls!r} is not a Rule with a code")
    _REGISTRY[rule.code] = rule
    return rule_cls


def all_rules() -> Dict[str, Rule]:
    """The registered rules, importing the built-in catalogue on demand."""
    from . import rules as _rules  # noqa: F401  (import registers rules)

    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# suppression


def line_suppressions(line_text: str) -> Set[str]:
    """Rule codes suppressed by a ``# repro: noqa[...]`` comment."""
    match = _NOQA_RE.search(line_text)
    if not match:
        return set()
    return {code.strip() for code in match.group(1).split(",") if code.strip()}


def apply_suppressions(
    findings: Iterable[Finding], modules: Dict[str, ModuleInfo]
) -> List[Finding]:
    """Mark findings whose source line carries a matching noqa."""
    by_path = {m.relpath: m for m in modules.values()}
    out: List[Finding] = []
    for finding in findings:
        module = by_path.get(finding.path)
        if module is not None and 1 <= finding.line <= len(module.lines):
            codes = line_suppressions(module.lines[finding.line - 1])
            if finding.rule in codes:
                finding.suppressed = True
        out.append(finding)
    return out


# ----------------------------------------------------------------------
# the runner


@dataclass(slots=True)
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding]  #: active (not suppressed)
    suppressed: List[Finding]
    modules_checked: int
    wall_s: float = 0.0  #: wall-clock spent parsing + checking

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into ``.py`` files, sorted, deduplicated."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen and resolved.suffix == ".py":
                seen.add(resolved)
                yield resolved


def run_lint(
    paths: Sequence[Path],
    root: Path,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint `paths` (files or directories) against the rule catalogue.

    `root` anchors repo-relative paths and module names (``src/`` under
    it is stripped).  `select`/`ignore` filter rules by code.
    """
    started = time.perf_counter()
    rules = all_rules()
    active = sorted(rules)
    if select:
        chosen = expand_select(select, rules)
        active = [code for code in active if code in chosen]
    if ignore:
        active = [code for code in active if code not in set(ignore)]

    project = Project.load(root, iter_python_files(paths))
    collected: List[Finding] = []
    for modname in sorted(project.modules):
        module = project.modules[modname]
        for code in active:
            collected.extend(rules[code].check(module, project))

    collected = apply_suppressions(collected, project.modules)
    collected.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintResult(
        findings=[f for f in collected if not f.suppressed],
        suppressed=[f for f in collected if f.suppressed],
        modules_checked=len(project.modules),
        wall_s=time.perf_counter() - started,
    )


def expand_select(
    select: Sequence[str], rules: Dict[str, Rule]
) -> Set[str]:
    """Expand ``--select`` items into concrete rule codes.

    An item may be an exact code (``DET001``), a rule family prefix
    (``CONC`` selects CONC001–CONC002), or a comma-joined list of
    either (``CONC,DET003``).  An item matching neither raises
    ``ValueError`` so typos fail the run instead of silently selecting
    nothing.
    """
    chosen: Set[str] = set()
    for item in select:
        for part in item.split(","):
            code = part.strip()
            if not code:
                continue
            if code in rules:
                chosen.add(code)
                continue
            family = {c for c in rules if c.startswith(code)}
            if not family:
                raise ValueError(f"unknown rule or family: {code!r}")
            chosen |= family
    return chosen
