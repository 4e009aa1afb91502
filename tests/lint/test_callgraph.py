"""Property tests for the call graph and the DET rules built on it.

Two obligations that fixture tests can't establish: the lint verdict is
independent of module iteration order (shuffling the project's module
dict must not change a single finding or reachable function), and on
arbitrary call graphs, self-loops and cycles included, DET001 and
DET002 fire at exactly the sites that reachability predicts.
"""

import textwrap
from pathlib import Path
from typing import Dict, List, Set, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lint.engine import all_rules, iter_python_files, run_lint
from repro.lint.project import Project


def src(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


#: A fixture project with a cross-module leak: the source lives two
#: modules away from the work unit that reaches it, so resolution order
#: genuinely matters.
FILES = {
    "src/repro/experiments/seeds.py": src(
        """
        import time

        def stamp():
            return time.time()

        def clean():
            return 42
        """
    ),
    "src/repro/experiments/middle.py": src(
        """
        from .seeds import clean, stamp

        _CACHE = {}

        def laundered(x):
            value = stamp()
            _CACHE[x] = value
            return value

        def honest(x):
            return clean() + x
        """
    ),
    "src/repro/experiments/driver.py": src(
        """
        from repro.parallel import run_units

        from .middle import honest, laundered

        def _unit(x):
            return laundered(x)

        def _pure_unit(x):
            return honest(x)

        def run():
            run_units(_unit, [(1,)])
            run_units(_pure_unit, [(2,)])
        """
    ),
}


def write_files(root: Path) -> None:
    for relpath, source in FILES.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")


def snapshot(project: Project) -> Tuple[object, object]:
    """Order-insensitive digest of everything the lint decides."""
    rules = all_rules()
    findings = sorted(
        (f.rule, f.path, f.line, f.col, f.message)
        for code in sorted(rules)
        for module in project.modules.values()
        for f in rules[code].check(module, project)
    )
    return findings, sorted(project.parallel_reachable())


def test_fixture_project_reports_the_leak(tmp_path):
    write_files(tmp_path)
    result = run_lint([tmp_path / "src"], root=tmp_path, select=["DET001"])
    assert [(f.path, f.line, f.symbol) for f in result.findings] == [
        ("src/repro/experiments/seeds.py", 4, "stamp")
    ]
    assert "time.time" in result.findings[0].message


MODNAMES = (
    "repro.experiments.driver",
    "repro.experiments.middle",
    "repro.experiments.seeds",
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(order=st.permutations(MODNAMES))
def test_module_order_independence(tmp_path, order: List[str]) -> None:
    root = tmp_path / "proj"
    if not root.exists():
        root.mkdir()
        write_files(root)
    baseline = Project.load(root, iter_python_files([root / "src"]))
    assert sorted(baseline.modules) == sorted(MODNAMES)
    # Rebuild the project with modules inserted in the permuted order;
    # dict iteration order follows insertion, so an analysis that
    # depended on it would reach different functions.
    shuffled = Project(
        root, {name: baseline.modules[name] for name in order}
    )
    digest = snapshot(shuffled)
    assert digest == snapshot(baseline)
    assert [row[0] for row in digest[0]] == ["DET001", "DET002"]


def closure(calls: Dict[int, List[int]], start: int) -> Set[int]:
    """Every function `start` calls, transitively, and `start` itself."""
    seen = {start}
    frontier = [start]
    while frontier:
        for callee in calls[frontier.pop()]:
            if callee not in seen:
                seen.add(callee)
                frontier.append(callee)
    return seen


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        max_size=12,
    ),
    source_at=st.integers(0, 5),
)
def test_det_findings_on_cyclic_call_graphs(
    tmp_path, edges: List[Tuple[int, int]], source_at: int
) -> None:
    """DET001 fires once, at the one source; DET002 at the `_STATE`
    write of every function the dispatched ``f0`` reaches."""
    lines = ["import time", "", "_STATE = {}", ""]
    calls: Dict[int, List[int]] = {i: [] for i in range(6)}
    for caller, callee in edges:
        calls[caller].append(callee)
    state_line: Dict[int, int] = {}
    source_line = 0
    for i in range(6):
        lines.append(f"def f{i}(x):")
        if i == source_at:
            lines.append("    value = time.time()")
            source_line = len(lines)
        else:
            lines.append("    value = x")
        for callee in calls[i]:
            lines.append(f"    value = value + f{callee}(x)")
        lines.append("    _STATE[x] = value")
        state_line[i] = len(lines)
        lines.append("    return value")
        lines.append("")
    lines.extend([
        "from repro.parallel import run_units",
        "",
        "def run():",
        "    return run_units(f0, [(1,)])",
        "",
    ])
    root = tmp_path / f"g{abs(hash((tuple(edges), source_at))) % 10**8}"
    target = root / "src" / "repro" / "experiments" / "graph.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("\n".join(lines), encoding="utf-8")
    result = run_lint([root / "src"], root=root, select=["DET001", "DET002"])
    det001 = [
        (f.line, f.symbol) for f in result.findings if f.rule == "DET001"
    ]
    assert det001 == [(source_line, f"f{source_at}")]
    det002 = [f.line for f in result.findings if f.rule == "DET002"]
    assert det002 == sorted(state_line[i] for i in closure(calls, 0))
