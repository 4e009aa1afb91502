"""CONC001/CONC002 — thread-safety rules.

The thread backend shares one interpreter across workers, a
thread-backed chip server (``serve_socket`` on a daemon thread) runs
beside its client in one process, and a remote fleet drain runs shard
rounds on a thread pool (``shard_workers``), so module-level caches
written from that code race unless every write sits under the module's
lock — and the locks themselves can
deadlock if two code paths acquire them in opposite orders.  CONC001
enforces the write-side discipline in any module that declares a
module-level lock; CONC002 builds a project-wide lock-order graph
(``with`` nesting plus transitive acquisitions through resolved calls)
and reports cycles, including re-acquisition of a non-reentrant
``threading.Lock``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from ..callgraph import LockId, lock_guarded_lines, resolve_lock
from ..engine import Rule, register
from ..findings import Finding, Severity
from ..project import FunctionInfo, ModuleInfo, Project
from .determinism import _module_state_writes

__all__ = ["UnguardedSharedWriteRule", "LockOrderRule"]

#: ``(modname, qualname)`` — one function in the project.
FnKey = Tuple[str, str]


@register
class UnguardedSharedWriteRule(Rule):
    """CONC001: unguarded shared write in a lock-disciplined module."""

    code = "CONC001"
    name = "unguarded-shared-write"
    severity = Severity.ERROR
    description = (
        "a module that declares a module-level lock writes module state "
        "from thread-backend- or ChipServer.serve-reachable code outside "
        "any 'with <lock>' block — the one unguarded write defeats the "
        "lock discipline every other writer observes"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        if not module.module_locks:
            return
        reachable = project.parallel_reachable()
        guarded = lock_guarded_lines(project, module)
        for qualname in sorted(module.functions):
            fn = module.functions[qualname]
            if (module.modname, qualname) not in reachable:
                continue
            for line, col, what in _module_state_writes(module, fn):
                if line in guarded:
                    continue
                locks = ", ".join(sorted(module.module_locks))
                yield self.finding(
                    module,
                    line,
                    col,
                    f"{what} inside {qualname}() without holding any of "
                    f"this module's locks ({locks}); concurrent dispatch "
                    f"can interleave with the guarded writers",
                )


@dataclass(slots=True)
class LockGraph:
    """Project-wide lock-order facts."""

    #: locks a function acquires, directly or through resolved calls
    acquires: Dict[FnKey, Set[LockId]] = field(default_factory=dict)
    #: held-lock -> acquired-lock -> (modname, line) provenance
    edges: Dict[LockId, Dict[LockId, Tuple[str, int]]] = field(
        default_factory=dict
    )


def _with_locks(
    project: Project, module: ModuleInfo, node: ast.stmt
) -> List[LockId]:
    if not isinstance(node, (ast.With, ast.AsyncWith)):
        return []
    out: List[LockId] = []
    for item in node.items:
        lock = resolve_lock(project, module, item.context_expr)
        if lock is not None:
            out.append(lock)
    return out


def lock_graph(project: Project) -> LockGraph:
    """The project's lock-order graph, built once and cached."""
    cached = project.analysis_cache.get("lock_graph")
    if isinstance(cached, LockGraph):
        return cached
    graph = _build_lock_graph(project)
    project.analysis_cache["lock_graph"] = graph
    return graph


def _build_lock_graph(project: Project) -> LockGraph:
    call_graph = project.call_graph()
    out = LockGraph()
    direct: Dict[FnKey, Set[LockId]] = {}
    callees: Dict[FnKey, List[FnKey]] = {}
    units: List[Tuple[ModuleInfo, FunctionInfo]] = []
    for modname in sorted(project.modules):
        module = project.modules[modname]
        for qualname in sorted(module.functions):
            fn = module.functions[qualname]
            units.append((module, fn))
            key: FnKey = (modname, qualname)
            acquired: Set[LockId] = set()
            if isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn.node):
                    if isinstance(node, (ast.With, ast.AsyncWith)):
                        acquired.update(_with_locks(project, module, node))
            direct[key] = acquired
            targets: List[FnKey] = []
            for call in fn.call_nodes:
                resolved = call_graph.resolve(module, fn, call)
                if resolved:
                    targets.extend(
                        (m.modname, f.qualname) for m, f in resolved
                    )
            callees[key] = targets
    # Transitive closure: a function "acquires" every lock any resolved
    # callee acquires.  Monotone over finite lock sets, so this
    # terminates.
    out.acquires = {key: set(locks) for key, locks in direct.items()}
    changed = True
    while changed:
        changed = False
        for key, targets in callees.items():
            agg = out.acquires[key]
            before = len(agg)
            for target in targets:
                agg |= out.acquires.get(target, set())
            if len(agg) != before:
                changed = True
    # Order edges: while a lock is held, any lock acquired inside the
    # body (nested ``with`` or through a resolved call) must follow it
    # in the global order.
    for module, fn in units:
        if not isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn.node):
            held = _with_locks(project, module, node)
            if not held:
                continue
            assert isinstance(node, (ast.With, ast.AsyncWith))
            inner: List[Tuple[LockId, int]] = []
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    for lock in _with_locks(project, module, sub):
                        inner.append((lock, sub.lineno))
                    if isinstance(sub, ast.Call):
                        resolved = call_graph.resolve(module, fn, sub)
                        for target_module, target_fn in resolved or []:
                            target: FnKey = (
                                target_module.modname,
                                target_fn.qualname,
                            )
                            for lock in out.acquires.get(target, set()):
                                inner.append((lock, sub.lineno))
            for src in held:
                slot = out.edges.setdefault(src, {})
                for dst, line in inner:
                    slot.setdefault(dst, (module.modname, line))
    return out


@register
class LockOrderRule(Rule):
    """CONC002: lock-order cycles and non-reentrant re-acquisition."""

    code = "CONC002"
    name = "lock-order-cycle"
    severity = Severity.ERROR
    description = (
        "lock-acquisition order forms a cycle (two paths take the same "
        "locks in opposite orders — a deadlock under concurrent "
        "dispatch), or a non-reentrant threading.Lock is re-acquired "
        "while already held (self-deadlock); RLock re-entry is exempt"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        graph = lock_graph(project)
        for src in sorted(graph.edges, key=str):
            for dst in sorted(graph.edges[src], key=str):
                provenance_module, line = graph.edges[src][dst]
                if provenance_module != module.modname:
                    continue
                if src == dst:
                    if src.kind == "rlock":
                        continue
                    yield self.finding(
                        module,
                        line,
                        0,
                        f"{src} is acquired here while already held; "
                        f"threading.Lock is not reentrant, so this path "
                        f"self-deadlocks",
                    )
                elif self._reaches(graph, dst, src):
                    yield self.finding(
                        module,
                        line,
                        0,
                        f"lock order cycle: {src} is held while acquiring "
                        f"{dst}, but another path acquires {src} while "
                        f"holding {dst}; concurrent dispatch can deadlock",
                    )

    @staticmethod
    def _reaches(graph: LockGraph, start: LockId, goal: LockId) -> bool:
        seen: Set[LockId] = set()
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(graph.edges.get(node, {}))
        return False
