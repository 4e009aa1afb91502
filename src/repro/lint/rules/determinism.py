"""DET001/DET002/DET003 — the determinism rules.

The repo's headline invariant (README, DESIGN §8): experiment rows are
bit-identical across the ``process``/``thread``/``serial`` execution
backends at any worker count.  That only holds while every work unit is
a pure function of its arguments — randomness derived through
:mod:`repro.rng` substreams, no wall-clock input, no shared mutable
state, no hash-randomized iteration order.  These rules flag the
constructs that break each leg statically.

DET001 and DET002 are flow-insensitive rules over the call graph in
:mod:`repro.lint.callgraph`.  Every nondeterministic call in
row-producing code is a DET001 finding, whether or not its value is
used; a lock-guarded module-state write (the double-checked memo-cache
idiom) is exempt from DET002 only in a function that makes no
nondeterministic call.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional, Set, Tuple

from ..callgraph import (
    EXEMPT_PACKAGES,
    SCOPE_PACKAGES,
    FnKey,
    classify_nondeterministic,
    exempt as _exempt,
    in_scope_package,
    lock_guarded_lines,
)
from ..engine import Rule, register
from ..findings import Finding, Severity
from ..project import FunctionInfo, ModuleInfo, Project

__all__ = [
    "SCOPE_PACKAGES",
    "EXEMPT_PACKAGES",
    "NondeterministicSourceRule",
    "ParallelSharedStateRule",
    "StrSetIterationRule",
]


def _nondeterministic_calls(
    module: ModuleInfo, calls: Iterable[ast.Call]
) -> Iterator[Tuple[ast.Call, str, str]]:
    """``(call, dotted origin, why)`` of each nondeterministic call in
    `calls`; none in an exempt module."""
    if _exempt(module.modname):
        return
    for call in calls:
        dotted = module.dotted_source(call.func)
        if dotted is None:
            continue
        why = classify_nondeterministic(dotted)
        if why is not None:
            yield call, dotted, why


def row_producing(project: Project) -> Set[FnKey]:
    """Every function (or module body) whose values may end up in a
    produced row.

    One BFS over the call graph, seeded with the dispatched functions
    (parallel work units, fleet rounds, the ONFI wire) and with every
    function and the module body of each scope-package module, so a
    helper that computes a scope package's module constant at import
    time is covered too.  Built once per run and cached.
    """
    cached = project.analysis_cache.get("row_producing")
    if isinstance(cached, set):
        return cached
    seeds = project.dispatch_entries() + [
        (module, fn)
        for module in project.modules.values()
        if in_scope_package(module.modname)
        for fn in [module.body, *module.functions.values()]
    ]
    producing = project.call_graph().reachable(seeds)
    project.analysis_cache["row_producing"] = producing
    return producing


@register
class NondeterministicSourceRule(Rule):
    """DET001: nondeterministic call in row-producing code."""

    code = "DET001"
    name = "nondeterministic-source"
    severity = Severity.ERROR
    description = (
        "a call to random.*, global np.random.*, wall-clock time or OS "
        "entropy anywhere in experiments/, fleet/, hiding/, nand/ or "
        "onfi/ (module bodies included), or in any function reachable "
        "from that code, a repro.parallel work unit, a fleet scheduler "
        "dispatch (run_round/execute_round) or an ONFI wire dispatch "
        "(handle_frame/serve/_call/_post), whether or not its value is "
        "used; derive randomness via repro.rng substreams"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        producing = row_producing(project)
        functions = [fn for _, fn in sorted(module.functions.items())]
        for fn in [module.body, *functions]:
            if (module.modname, fn.qualname) not in producing:
                continue
            where = (
                "the module body" if fn is module.body else f"{fn.qualname}()"
            )
            calls = fn.call_nodes
            for call, dotted, why in _nondeterministic_calls(module, calls):
                yield self.finding(
                    module,
                    call.lineno,
                    call.col_offset,
                    f"call to {dotted}() draws from {why} in {where}, "
                    f"which is row-producing code; derive randomness "
                    f"from repro.rng substreams (seed + structured label)",
                )


#: Container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "setdefault",
        "extend",
        "extendleft",
        "insert",
        "remove",
        "discard",
        "clear",
        "popitem",
    }
)


def _module_state_writes(
    module: ModuleInfo, fn: FunctionInfo
) -> Iterator[Tuple[int, int, str]]:
    """(line, col, description) of shared-state writes inside `fn`."""
    assert isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef))
    shadowed = fn.local_names - fn.global_names

    def is_module_mutable(name_node: ast.AST) -> Optional[str]:
        if (
            isinstance(name_node, ast.Name)
            and name_node.id in module.module_mutables
            and name_node.id not in shadowed
        ):
            return name_node.id
        return None

    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                # rebinding a name declared ``global``
                if (
                    isinstance(target, ast.Name)
                    and target.id in fn.global_names
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"assignment to global {target.id!r}",
                    )
                # writing an attribute of an imported module
                if isinstance(target, ast.Attribute):
                    base = module.dotted_source(target.value)
                    if base is not None:
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"write to module attribute {base}.{target.attr}",
                        )
                # item-assignment into a module-level container
                if isinstance(target, ast.Subscript):
                    name = is_module_mutable(target.value)
                    if name is not None:
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"item write into module-level container "
                            f"{name!r}",
                        )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    name = is_module_mutable(target.value)
                    if name is not None:
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"item delete from module-level container "
                            f"{name!r}",
                        )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
            ):
                name = is_module_mutable(func.value)
                if name is not None:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"{func.attr}() on module-level container {name!r}",
                    )


@register
class ParallelSharedStateRule(Rule):
    """DET002: module-state mutation inside a parallel work unit.

    Exemption: a write that sits inside a ``with <lock>`` block, in a
    function that makes no nondeterministic call, is the double-checked
    memo-cache idiom — every worker that races to fill the slot computes
    the same deterministic value, so rows cannot diverge.  Those writes
    are CONC territory (lock discipline), not a determinism bug.
    """

    code = "DET002"
    name = "parallel-shared-state"
    severity = Severity.ERROR
    description = (
        "global/module-level state mutated by a function reachable from a "
        "ParallelRunner work unit, a fleet scheduler dispatch or an ONFI "
        "wire dispatch — a cross-backend race; results would depend on "
        "worker scheduling (thread) or silently diverge from the parent "
        "(process); writes inside 'with <lock>' are exempt in functions "
        "that make no nondeterministic call"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        reachable = project.parallel_reachable()
        guarded = lock_guarded_lines(module)
        for qualname, fn in sorted(module.functions.items()):
            if (module.modname, qualname) not in reachable:
                continue
            draws = any(_nondeterministic_calls(module, fn.call_nodes))
            for line, col, what in _module_state_writes(module, fn):
                if line in guarded and not draws:
                    continue  # guarded deterministic memo-cache write
                yield self.finding(
                    module,
                    line,
                    col,
                    f"{what} inside {qualname}(), which is reachable from "
                    f"a repro.parallel work unit; shared writes race under "
                    f"the thread backend and are lost under the process "
                    f"backend",
                )


#: Call contexts whose argument order is observable (``sorted`` & friends
#: are deliberately absent: they normalise the order).
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter"})


def _is_str_set_expr(module: ModuleInfo, scope_sets: Set[str], node: ast.AST) -> bool:
    from ..project import _is_str_set_literal

    if _is_str_set_literal(node):
        return True
    if isinstance(node, ast.Name) and node.id in scope_sets:
        return True
    return False


@register
class StrSetIterationRule(Rule):
    """DET003: iteration over a set of strings (hash-randomized order)."""

    code = "DET003"
    name = "str-set-iteration"
    severity = Severity.WARNING
    description = (
        "iterating a set of str/bytes: element order depends on "
        "PYTHONHASHSEED, so rows built from it differ run to run; sort it "
        "(sorted(...)) or use a tuple/dict for deterministic order"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        from ..project import _is_str_set_literal

        # names bound to str-set literals, per enclosing function scope
        # (module-level bindings are in module.str_set_names)
        fn_sets: dict[str, Set[str]] = {}
        for qualname, fn in module.functions.items():
            assert isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef))
            bound: Set[str] = set()
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Assign) and _is_str_set_literal(
                    node.value
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            bound.add(target.id)
            fn_sets[qualname] = bound

        def scope_sets(lineno: int) -> Set[str]:
            symbol = module.enclosing_function(lineno)
            local = fn_sets.get(symbol, set())
            return local | module.str_set_names

        for node in ast.walk(module.tree):
            iter_expr: Optional[ast.AST] = None
            what = "iteration over"
            if isinstance(node, ast.For):
                iter_expr = node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iter_expr = node.generators[0].iter
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_SENSITIVE_CALLS
                    and node.args
                ):
                    iter_expr = node.args[0]
                    what = f"{node.func.id}() over"
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                ):
                    iter_expr = node.args[0]
                    what = "join() over"
            if iter_expr is None:
                continue
            if _is_str_set_expr(module, scope_sets(node.lineno), iter_expr):
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"{what} a set of str/bytes: order follows "
                    f"PYTHONHASHSEED, not insertion; wrap in sorted() or "
                    f"use a tuple",
                )
