"""Finding and severity types for the ``repro.lint`` engine.

A :class:`Finding` is one rule violation at one source location.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How a finding affects the exit code.

    ``ERROR`` findings always gate (exit 1); ``WARNING`` findings gate
    only under ``--error-on-findings`` (the CI mode).
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  #: repo-relative posix path
    line: int  #: 1-based
    col: int  #: 0-based
    message: str
    severity: Severity = Severity.ERROR
    symbol: str = "<module>"  #: enclosing function qualname
    suppressed: bool = field(default=False, compare=False)

    def render(self) -> str:
        """The one-line human report format."""
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": str(self.severity),
            "symbol": self.symbol,
            "message": self.message,
        }
