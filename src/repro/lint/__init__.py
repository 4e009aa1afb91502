"""``repro.lint``: determinism & invariant static analysis.

An AST-based lint pass encoding the invariants the rest of the repo can
only check dynamically (DESIGN.md §10):

* **DET001** — calls to nondeterministic sources (``random.*``, global
  ``np.random.*``, wall-clock time, OS entropy) in row-producing code;
* **DET002** — module-state mutation reachable from a
  :class:`repro.parallel.ParallelRunner` work unit (race detector);
* **DET003** — iteration over sets of str/bytes (hash-randomized order);
* **CONC001/CONC002** — unguarded writes in lock-disciplined modules and
  lock-order cycles;
* **OBS001** — raw metrics-registry updates bypassing the ``REPRO_OBS=0``
  flag check;
* **NUM001** — dtype-widening hazards in the ``repro.ecc`` kernels.

DET001, DET002 and the CONC rules are judged over one alias-aware call
graph and its reachability sets (:mod:`repro.lint.callgraph`).  Run it
as ``repro-stash lint`` or ``python -m repro.lint``.  Intentional
violations carry ``# repro: noqa[RULE]`` plus a justification; every
other finding is active.
"""

from .engine import (
    LintResult,
    Rule,
    all_rules,
    line_suppressions,
    register,
    run_lint,
)
from .findings import Finding, Severity
from .project import Project

__all__ = [
    "Finding",
    "LintResult",
    "Project",
    "Rule",
    "Severity",
    "all_rules",
    "line_suppressions",
    "register",
    "run_lint",
]
