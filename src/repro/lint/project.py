"""Whole-project AST model: modules, imports, call graph, reachability.

The determinism rules need more than one file at a time: DET001/DET002
apply to *any* function a :class:`repro.parallel.ParallelRunner` work
unit can reach, wherever it lives.  :class:`Project` parses every target
file once, indexes functions by bare name, records every call site's
AST node, finds the parallel dispatch sites
(``ParallelRunner.map``/``map_with_obs``/``run_units``), and exposes
the transitive *parallel-reachable* set.

Call resolution lives in :mod:`repro.lint.dataflow`: it follows
assignments (``x = Codec()``), instance attributes
(``self.codec = Codec()``) and module aliases to the one method a call
actually targets, falling back to the historical name-based
over-approximation (every project function named ``decode``) only when
no alias fact pins the receiver down.  The fallback can only make the
determinism rules look at more code; the rules themselves flag narrow,
high-signal constructs, so precision stays acceptable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .dataflow import DataflowAnalysis

#: Bound at module level to one of these constructors => a module-level
#: mutable container (DET002 watches writes to them).
_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter"}
)

#: Attribute methods treated as parallel dispatch when the module imports
#: from :mod:`repro.parallel`.
_DISPATCH_METHODS = frozenset({"map", "map_with_obs"})

#: Bare-name dispatch helpers from :mod:`repro.parallel`.
_DISPATCH_FUNCTIONS = frozenset({"run_units"})

#: Attribute methods treated as fleet dispatch when the module imports
#: from :mod:`repro.fleet`: a scheduler's ``run_round`` and the service
#: engine ``execute_round`` route tenant requests into the batch
#: kernels, so everything reachable from them is row-producing and the
#: determinism rules must cover it.  Unlike parallel dispatch (where the
#: dispatched *argument* is the entry), the called method itself is the
#: entry point.
_FLEET_DISPATCH_METHODS = frozenset({"run_round", "execute_round"})

#: Attribute methods treated as wire dispatch when the module imports
#: from :mod:`repro.onfi` (or is part of it): the server's frame
#: dispatch (``handle_frame``/``serve``) turns wire bytes into chip
#: operations, and the client's issue points (``_call``/``_post``) are
#: where every RemoteChip method crosses the socket.  Both sides are
#: row-producing boundaries, so everything reachable from them falls
#: under the determinism rules; the one sanctioned entropy use on this
#: path (the client's random initial frame tag) carries an explicit
#: ``repro: noqa[DET001]`` with its justification.
_ONFI_DISPATCH_METHODS = frozenset({"handle_frame", "serve", "_call", "_post"})


@dataclass(slots=True)
class FunctionInfo:
    """One function or method definition and its direct-call edges."""

    qualname: str
    name: str
    node: ast.AST
    lineno: int
    end_lineno: int
    #: Bare names of everything this function calls (``f()`` and ``x.f()``
    #: both contribute ``f``).
    calls: Set[str] = field(default_factory=set)
    #: Every call expression in the body, in source order, for the
    #: alias-aware resolution in :mod:`repro.lint.dataflow`.
    call_nodes: List[ast.Call] = field(default_factory=list)
    #: Parameter and locally-bound names (shadowing module state).
    local_names: Set[str] = field(default_factory=set)
    #: Names declared ``global`` inside the body.
    global_names: Set[str] = field(default_factory=set)


@dataclass(slots=True)
class ModuleInfo:
    """One parsed source file and the facts rules need about it."""

    path: Path
    relpath: str  #: posix path relative to the project root
    modname: str  #: dotted module name, e.g. ``repro.ecc.bch``
    tree: ast.Module
    lines: List[str]
    #: ``import numpy as np`` => ``{"np": "numpy"}``; relative imports
    #: are resolved against the package (``from . import obs`` in
    #: ``repro.cli`` => ``{"obs": "repro.obs"}``).
    imports: Dict[str, str] = field(default_factory=dict)
    #: ``from x import y as z`` => ``{"z": ("x", "y")}``.
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: qualname -> function/method info, for every def in the module.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Module-level names bound to mutable containers.
    module_mutables: Set[str] = field(default_factory=set)
    #: Module-level names provably bound to sets of str/bytes constants.
    str_set_names: Set[str] = field(default_factory=set)
    #: Module-level names bound to ``threading.Lock()`` / ``RLock()``,
    #: mapped to ``"lock"`` or ``"rlock"`` (the CONC rules and the
    #: flow-sensitive DET002 exemption key off these).
    module_locks: Dict[str, str] = field(default_factory=dict)

    def dotted_source(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to its imported dotted origin.

        ``np.random.seed`` (with ``import numpy as np``) resolves to
        ``"numpy.random.seed"``; ``datetime.now`` (with ``from datetime
        import datetime``) to ``"datetime.datetime.now"``.  Returns
        ``None`` when the chain does not start at an import.
        """
        if isinstance(node, ast.Name):
            if node.id in self.imports:
                return self.imports[node.id]
            if node.id in self.from_imports:
                src, orig = self.from_imports[node.id]
                return f"{src}.{orig}"
            return None
        if isinstance(node, ast.Attribute):
            base = self.dotted_source(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def enclosing_function(self, lineno: int) -> str:
        """The qualname of the innermost def containing `lineno`."""
        best = "<module>"
        best_span = float("inf")
        for info in self.functions.values():
            if info.lineno <= lineno <= info.end_lineno:
                span = info.end_lineno - info.lineno
                if span < best_span:
                    best = info.qualname
                    best_span = span
        return best


def _package_of(modname: str, is_package: bool) -> str:
    """The package a module's relative imports resolve against."""
    if is_package:
        return modname
    return modname.rpartition(".")[0]


def _is_str_set_literal(node: ast.AST) -> bool:
    """Whether `node` is provably a set whose elements are str/bytes."""
    if isinstance(node, ast.Set) and node.elts:
        return all(
            isinstance(e, ast.Constant) and isinstance(e.value, (str, bytes))
            for e in node.elts
        )
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
        and len(node.args) == 1
        and not node.keywords
    ):
        arg = node.args[0]
        if isinstance(arg, (ast.List, ast.Tuple, ast.Set)) and arg.elts:
            return all(
                isinstance(e, ast.Constant)
                and isinstance(e.value, (str, bytes))
                for e in arg.elts
            )
    return False


class _ModuleVisitor(ast.NodeVisitor):
    """Single pass extracting imports, defs, call edges, module state."""

    def __init__(self, module: ModuleInfo, package: str) -> None:
        self.module = module
        self.package = package
        self._stack: List[str] = []  #: enclosing class/function names
        self._fn_stack: List[FunctionInfo] = []

    # -- imports --------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.partition(".")[0]
            target = alias.name if alias.asname else alias.name.partition(".")[0]
            self.module.imports[local] = target
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        src = node.module or ""
        if node.level:
            parts = self.package.split(".") if self.package else []
            if node.level > 1:
                parts = parts[: len(parts) - (node.level - 1)]
            base = ".".join(parts)
            src = f"{base}.{src}" if src and base else (base or src)
        for alias in node.names:
            local = alias.asname or alias.name
            if alias.name == "*":
                continue
            self.module.from_imports[local] = (src, alias.name)
            # ``from . import obs`` imports a *module*: record it in
            # `imports` too so dotted_source follows it.
            self.module.imports.setdefault(
                local, f"{src}.{alias.name}" if src else alias.name
            )
        self.generic_visit(node)

    # -- defs -----------------------------------------------------------

    def _visit_def(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        qualname = ".".join(self._stack + [node.name])
        info = FunctionInfo(
            qualname=qualname,
            name=node.name,
            node=node,
            lineno=node.lineno,
            end_lineno=node.end_lineno or node.lineno,
        )
        args = node.args
        for a in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            info.local_names.add(a.arg)
        self.module.functions[qualname] = info
        self._stack.append(node.name)
        self._fn_stack.append(info)
        self.generic_visit(node)
        self._fn_stack.pop()
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_def(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    # -- facts recorded inside / outside functions ----------------------

    def visit_Global(self, node: ast.Global) -> None:
        if self._fn_stack:
            self._fn_stack[-1].global_names.update(node.names)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self._fn_stack:
            fn = self._fn_stack[-1]
            fn.call_nodes.append(node)
            if isinstance(node.func, ast.Name):
                fn.calls.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                fn.calls.add(node.func.attr)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_binding(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_binding(node.target, node.value)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._record_binding(node.target, None)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._record_binding(item.optional_vars, None)
        self.generic_visit(node)

    def _record_binding(self, target: ast.AST, value: Optional[ast.AST]) -> None:
        names: List[str] = []
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                names.append(sub.id)
        if self._fn_stack:
            self._fn_stack[-1].local_names.update(names)
            return
        # module level (class bodies are treated as module-ish scope and
        # simply not recorded as mutable module state)
        if self._stack:
            return
        if value is None:
            return
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_FACTORIES
        )
        if mutable:
            self.module.module_mutables.update(names)
        if _is_str_set_literal(value):
            self.module.str_set_names.update(names)
        if isinstance(value, ast.Call):
            dotted = self.module.dotted_source(value.func)
            if dotted in ("threading.Lock", "threading.RLock"):
                kind = "rlock" if dotted.endswith("RLock") else "lock"
                for name in names:
                    self.module.module_locks[name] = kind


@dataclass(slots=True)
class DispatchSite:
    """One ``ParallelRunner.map*`` / ``run_units`` call site."""

    module: str
    lineno: int
    entry_name: Optional[str]  #: bare name of the dispatched function


class Project:
    """Every parsed module plus the cross-module indexes rules consume."""

    def __init__(self, root: Path, modules: Dict[str, ModuleInfo]) -> None:
        self.root = root
        self.modules = modules
        #: scratch space for expensive cross-module analyses (the lock
        #: graph) computed lazily by the rules that need them and shared
        #: across the rule set for one run
        self.analysis_cache: Dict[str, object] = {}
        #: bare function name -> [(module, function info)]
        self.functions_by_name: Dict[
            str, List[Tuple[ModuleInfo, FunctionInfo]]
        ] = {}
        for module in modules.values():
            for info in module.functions.values():
                self.functions_by_name.setdefault(info.name, []).append(
                    (module, info)
                )
                # A constructor call is spelled with the *class* name:
                # ``PagePipeline(...)`` must link to
                # ``PagePipeline.__init__`` for reachability to follow it.
                if info.name in ("__init__", "__call__"):
                    parts = info.qualname.split(".")
                    if len(parts) >= 2:
                        self.functions_by_name.setdefault(
                            parts[-2], []
                        ).append((module, info))
        self.dispatch_sites: List[DispatchSite] = []
        for module in modules.values():
            self.dispatch_sites.extend(self._find_dispatch_sites(module))
        self._reachable: Optional[Set[Tuple[str, str]]] = None
        self._dataflow: Optional["DataflowAnalysis"] = None

    # -- construction ---------------------------------------------------

    @classmethod
    def load(cls, root: Path, files: Iterable[Path]) -> "Project":
        """Parse `files` (python sources under `root`) into a project."""
        modules: Dict[str, ModuleInfo] = {}
        for path in sorted(files):
            info = parse_module(root, path)
            if info is not None:
                modules[info.modname] = info
        return cls(root, modules)

    # -- parallel dispatch ----------------------------------------------

    def _find_dispatch_sites(self, module: ModuleInfo) -> Iterator[DispatchSite]:
        uses_parallel = any(
            src.endswith("parallel") or src == "repro.parallel"
            for src in module.imports.values()
        ) or any(
            src.endswith("parallel")
            for src, _ in module.from_imports.values()
        )
        uses_fleet = any(
            src == "repro.fleet" or src.startswith("repro.fleet.")
            for src in module.imports.values()
        ) or any(
            src == "repro.fleet" or src.startswith("repro.fleet.")
            for src, _ in module.from_imports.values()
        ) or module.modname.startswith("repro.fleet")
        uses_onfi = any(
            src == "repro.onfi" or src.startswith("repro.onfi.")
            for src in module.imports.values()
        ) or any(
            src == "repro.onfi" or src.startswith("repro.onfi.")
            for src, _ in module.from_imports.values()
        ) or module.modname.startswith("repro.onfi")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            entry: Optional[ast.AST] = None
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _DISPATCH_FUNCTIONS
            ):
                entry = node.args[0] if node.args else None
            elif (
                uses_parallel
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DISPATCH_METHODS
            ):
                entry = node.args[0] if node.args else None
            elif (
                uses_fleet
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _FLEET_DISPATCH_METHODS
            ):
                # The fleet engine itself is the entry: requests fan out
                # from here into the chip batch kernels.
                yield DispatchSite(module.modname, node.lineno, node.func.attr)
                continue
            elif (
                uses_onfi
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ONFI_DISPATCH_METHODS
            ):
                # The wire boundary: the called method itself is the
                # entry, both server-side (frame dispatch into the chip)
                # and client-side (RemoteChip issuing frames).
                yield DispatchSite(module.modname, node.lineno, node.func.attr)
                continue
            else:
                continue
            name: Optional[str] = None
            if isinstance(entry, ast.Name):
                name = entry.id
            elif isinstance(entry, ast.Attribute):
                name = entry.attr
            yield DispatchSite(module.modname, node.lineno, name)

    # -- reachability and dataflow --------------------------------------

    def dataflow(self) -> "DataflowAnalysis":
        """The project-wide :class:`repro.lint.dataflow.DataflowAnalysis`.

        Built once on first use (the taint fixpoint walks every function)
        and cached; imported lazily to keep the module graph acyclic.
        """
        if self._dataflow is None:
            from .dataflow import DataflowAnalysis

            self._dataflow = DataflowAnalysis(self)
        return self._dataflow

    def parallel_reachable(self) -> Set[Tuple[str, str]]:
        """``(modname, qualname)`` of every function a work unit may reach.

        BFS over the alias-aware call graph (see
        :mod:`repro.lint.dataflow`), seeded with the functions dispatched
        through :mod:`repro.parallel`, the fleet schedulers and the ONFI
        wire boundary.  Unresolvable calls fall back to name matching.
        """
        if self._reachable is not None:
            return self._reachable
        from .dataflow import compute_reachable

        self._reachable = compute_reachable(self)
        return self._reachable


def module_name_for(root: Path, path: Path) -> Optional[str]:
    """Dotted module name of `path` under `root` (``src/`` is stripped)."""
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        return None
    parts = list(rel.parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts or not parts[-1].endswith(".py"):
        return None
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts:
        return None
    return ".".join(parts)


def parse_module(root: Path, path: Path) -> Optional[ModuleInfo]:
    """Parse one file into a :class:`ModuleInfo` (None if unparseable)."""
    modname = module_name_for(root, path)
    if modname is None:
        return None
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError):
        return None
    rel = path.resolve().relative_to(root.resolve()).as_posix()
    module = ModuleInfo(
        path=path,
        relpath=rel,
        modname=modname,
        tree=tree,
        lines=source.splitlines(),
    )
    is_package = path.name == "__init__.py"
    visitor = _ModuleVisitor(module, _package_of(modname, is_package))
    visitor.visit(tree)
    return module
