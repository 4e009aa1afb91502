"""Interprocedural dataflow: alias-aware call resolution + taint.

Two pieces, shared by the determinism and concurrency rules:

* :class:`CallGraph` resolves call expressions to the project functions
  they actually target.  Unlike the historical name-based matching
  (``x.decode()`` reaches *every* function named ``decode``), it follows
  local assignments (``x = Codec()``), instance attributes
  (``self.codec = Codec()``), ``self``/``cls`` method calls, module
  aliases and ``from``-imports.  Calls it cannot pin down report
  ``None`` and callers fall back to name matching (reachability) or to
  argument pass-through (taint).

* :class:`DataflowAnalysis` runs a forward taint analysis over the whole
  project: every call whose dotted origin is a *nondeterministic source*
  (wall clock, OS entropy, global RNG streams) taints its result, taint
  propagates through assignments, containers and resolved calls via
  per-function summaries, and a finding is produced only when a source's
  value *reaches a sink* — a work-unit return, module or instance state,
  or a wire frame.  Summaries form a monotone set lattice (they only
  ever grow), so the worklist fixpoint terminates and its result is
  independent of module or worklist order.

The nondeterministic-source classification lives here (rather than in
``rules/determinism.py``) so the engine has no import cycle with the
rule modules; the DET rules re-export it.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Deque,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .project import FunctionInfo, ModuleInfo, Project

FnKey = Tuple[str, str]  #: ``(modname, qualname)``

#: Qualname used for a module's top-level statements, analysed as a
#: pseudo-function (module-level bindings are module state).
MODULE_BODY = "<module>"

# ----------------------------------------------------------------------
# nondeterministic-source classification (shared with rules/determinism)

#: Packages whose *entire* code is row-producing (checked even outside
#: the parallel-reachable set).
SCOPE_PACKAGES: Tuple[str, ...] = (
    "repro.experiments",
    "repro.fleet",
    "repro.hiding",
    "repro.nand",
    "repro.onfi",
)

#: Modules exempt from DET001: the crypto layer *is* the sanctioned home
#: of true entropy (key generation uses ``os.urandom`` by design).
EXEMPT_PACKAGES: Tuple[str, ...] = ("repro.crypto",)

#: ``numpy.random`` attributes that are fine: explicitly-seeded
#: generator construction, not draws from the hidden global stream.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "RandomState",
        "BitGenerator",
        "PCG64",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: Exact dotted origins that are nondeterministic inputs.
_BANNED_EXACT = {
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "datetime.datetime.now": "wall-clock time",
    "datetime.datetime.utcnow": "wall-clock time",
    "datetime.datetime.today": "wall-clock time",
    "datetime.date.today": "wall-clock time",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "host/time-derived UUID",
    "uuid.uuid4": "OS entropy",
}

#: Dotted prefixes that are nondeterministic wholesale.
_BANNED_PREFIXES = {
    "random.": "the global stdlib RNG",
    "secrets.": "OS entropy",
}

#: Container methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
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

#: Call names whose arguments become wire bytes: anything tainted that
#: reaches one of these crosses the socket and lands in another process.
_WIRE_SINK_NAMES = frozenset({"write_frame", "pack_frame", "_call", "_post"})


def in_scope_package(modname: str) -> bool:
    return modname.startswith(SCOPE_PACKAGES)


def exempt(modname: str) -> bool:
    return modname.startswith(EXEMPT_PACKAGES)


def classify_nondeterministic(dotted: str) -> Optional[str]:
    """Why a dotted call origin is nondeterministic, or None if it isn't."""
    if dotted in _BANNED_EXACT:
        return _BANNED_EXACT[dotted]
    for prefix, why in _BANNED_PREFIXES.items():
        if dotted.startswith(prefix):
            return why
    if dotted.startswith("numpy.random."):
        attr = dotted[len("numpy.random."):].partition(".")[0]
        if attr not in _NP_RANDOM_ALLOWED:
            return "the global numpy RNG stream"
    return None


# ----------------------------------------------------------------------
# lock-guard facts (shared with rules/concurrency and DET002)


def _lock_expr_name(module: ModuleInfo, node: ast.AST) -> Optional[str]:
    """The lock a ``with`` context expression acquires, if it looks like one.

    ``Name`` references to a module-level ``threading.Lock()`` binding
    (local or ``from``-imported) are identified precisely; otherwise any
    terminal identifier containing ``lock`` is accepted heuristically so
    ``with self._lock:`` still counts as a guard.
    """
    if isinstance(node, ast.Call) and not node.args and not node.keywords:
        # ``with lock:`` vs ``with lock.acquire_timeout():`` — unwrap
        # zero-argument calls so ``with _LOCK:`` and context-manager
        # helpers named like locks both register.
        node = node.func
    if isinstance(node, ast.Name):
        if node.id in module.module_locks:
            return node.id
        if node.id in module.from_imports:
            return node.id
        if "lock" in node.id.lower():
            return node.id
        return None
    if isinstance(node, ast.Attribute):
        if "lock" in node.attr.lower():
            return node.attr
        return None
    return None


def lock_guarded_lines(module: ModuleInfo) -> Set[int]:
    """Line numbers covered by a ``with <lock>`` statement in `module`."""
    lines: Set[int] = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        if any(
            _lock_expr_name(module, item.context_expr) is not None
            for item in node.items
        ):
            end = node.end_lineno or node.lineno
            lines.update(range(node.lineno, end + 1))
    return lines


@dataclass(frozen=True)
class LockId:
    """A module-level lock, identified across modules."""

    module: str
    name: str
    kind: str  #: ``lock`` | ``rlock``

    def __str__(self) -> str:
        return f"{self.module}.{self.name}"


def resolve_lock(
    project: Project, module: ModuleInfo, node: ast.AST
) -> Optional[LockId]:
    """The module-level lock a context expression names, if resolvable."""
    if isinstance(node, ast.Name):
        kind = module.module_locks.get(node.id)
        if kind is not None:
            return LockId(module.modname, node.id, kind)
        if node.id in module.from_imports:
            src, orig = module.from_imports[node.id]
            owner = project.modules.get(src)
            if owner is not None and orig in owner.module_locks:
                return LockId(src, orig, owner.module_locks[orig])
    return None


# ----------------------------------------------------------------------
# alias-aware call resolution


@dataclass(slots=True)
class ClassModel:
    """One class definition and the alias facts hung off it."""

    key: str  #: ``modname:QualName``
    module: ModuleInfo
    qualname: str
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    bases: List[ast.expr] = field(default_factory=list)
    #: ``self.<attr> = SomeClass(...)`` facts: attr -> class key.
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: Methods referenced (not called) from class-level dispatch tables
    #: like ``_HANDLERS = {Op.ERASE: _op_erase, ...}``.
    table_methods: Set[str] = field(default_factory=set)


Target = Tuple[ModuleInfo, FunctionInfo]


class CallGraph:
    """Alias- and attribute-aware call resolution over a project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.classes: Dict[str, ClassModel] = {}
        #: modname -> class qualname -> class key
        self.by_module: Dict[str, Dict[str, str]] = {}
        self._var_types: Dict[FnKey, Dict[str, str]] = {}
        for module in project.modules.values():
            self._index_classes(module)
        for model in list(self.classes.values()):
            self._extract_attr_types(model)

    # -- class indexing -------------------------------------------------

    def _index_classes(self, module: ModuleInfo) -> None:
        local: Dict[str, str] = {}

        def walk(body: Sequence[ast.stmt], prefix: str) -> None:
            for node in body:
                if not isinstance(node, ast.ClassDef):
                    continue
                qual = prefix + node.name
                key = f"{module.modname}:{qual}"
                model = ClassModel(
                    key=key, module=module, qualname=qual,
                    bases=list(node.bases),
                )
                for child in node.body:
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        info = module.functions.get(f"{qual}.{child.name}")
                        if info is not None:
                            model.methods[child.name] = info
                    # Dispatch tables: class-level dicts whose values
                    # name methods wire those methods into reachability.
                    value: Optional[ast.expr] = None
                    if isinstance(child, ast.Assign):
                        value = child.value
                    elif isinstance(child, ast.AnnAssign):
                        value = child.value
                    if isinstance(value, ast.Dict):
                        for v in value.values:
                            if isinstance(v, ast.Name):
                                model.table_methods.add(v.id)
                            elif isinstance(v, ast.Attribute):
                                model.table_methods.add(v.attr)
                self.classes[key] = model
                local[qual] = key
                walk(node.body, qual + ".")

        walk(module.tree.body, "")
        self.by_module[module.modname] = local

    def _extract_attr_types(self, model: ClassModel) -> None:
        for info in model.methods.values():
            assert isinstance(
                info.node, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                ctor = self._class_of_callable(model.module, node.value.func)
                if ctor is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        model.attr_types[target.attr] = ctor

    # -- name -> class / function resolution ----------------------------

    def class_for_name(
        self, module: ModuleInfo, name: str
    ) -> Optional[str]:
        key = self.by_module.get(module.modname, {}).get(name)
        if key is not None:
            return key
        if name in module.from_imports:
            src, orig = module.from_imports[name]
            return self.by_module.get(src, {}).get(orig)
        return None

    def _class_of_callable(
        self, module: ModuleInfo, func: ast.expr
    ) -> Optional[str]:
        """The class key a call expression constructs, if any."""
        if isinstance(func, ast.Name):
            return self.class_for_name(module, func.id)
        if isinstance(func, ast.Attribute):
            dotted = module.dotted_source(func)
            if dotted is None:
                return None
            modpath, _, cls = dotted.rpartition(".")
            return self.by_module.get(modpath, {}).get(cls)
        return None

    def _function_for_dotted(self, dotted: str) -> Optional[Target]:
        """``repro.ecc.gf.get_field`` -> that module-level function."""
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            modname = ".".join(parts[:i])
            module = self.project.modules.get(modname)
            if module is None:
                continue
            qualname = ".".join(parts[i:])
            info = module.functions.get(qualname)
            if info is not None:
                return (module, info)
            return None
        return None

    def _method_on_class(
        self, key: str, attr: str, _depth: int = 0
    ) -> Optional[Target]:
        """Look `attr` up on a class and (one level of) its bases."""
        model = self.classes.get(key)
        if model is None or _depth > 4:
            return None
        info = model.methods.get(attr)
        if info is not None:
            return (model.module, info)
        for base in model.bases:
            base_key = self._class_of_callable(model.module, base)
            if base_key is not None:
                found = self._method_on_class(base_key, attr, _depth + 1)
                if found is not None:
                    return found
        return None

    def _ctor_targets(self, key: str) -> List[Target]:
        target = self._method_on_class(key, "__init__")
        return [target] if target is not None else []

    def enclosing_class(
        self, module: ModuleInfo, fn: FunctionInfo
    ) -> Optional[str]:
        if "." not in fn.qualname:
            return None
        owner = fn.qualname.rsplit(".", 1)[0]
        return self.by_module.get(module.modname, {}).get(owner)

    def var_types(
        self, module: ModuleInfo, fn: FunctionInfo
    ) -> Dict[str, str]:
        """``x = SomeClass(...)`` facts for locals of one function."""
        fnkey = (module.modname, fn.qualname)
        cached = self._var_types.get(fnkey)
        if cached is not None:
            return cached
        types: Dict[str, str] = {}
        if isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                ctor = self._class_of_callable(module, node.value.func)
                if ctor is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        types[target.id] = ctor
        self._var_types[fnkey] = types
        return types

    # -- the resolver ---------------------------------------------------

    def resolve(
        self, module: ModuleInfo, fn: FunctionInfo, call: ast.Call
    ) -> Optional[List[Target]]:
        """Project functions `call` targets.

        ``None`` means *unknown* (callers may fall back to name
        matching); an empty list means *resolved but external* (a numpy
        or stdlib call — no project edges, and name matching would only
        add noise).
        """
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(module, fn, func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(module, fn, func)
        return None

    def _resolve_name(
        self, module: ModuleInfo, fn: FunctionInfo, name: str
    ) -> Optional[List[Target]]:
        cls = self.class_for_name(module, name)
        if cls is not None:
            return self._ctor_targets(cls)
        info = module.functions.get(name)
        if info is not None and name not in fn.local_names:
            return [(module, info)]
        if name in module.from_imports:
            src, orig = module.from_imports[name]
            owner = self.project.modules.get(src)
            if owner is not None:
                target = owner.functions.get(orig)
                if target is not None:
                    return [(owner, target)]
                return []  # project module, but not a function (constant?)
            if src:
                return []  # resolved to an external module
        return None

    def _resolve_attribute(
        self, module: ModuleInfo, fn: FunctionInfo, func: ast.Attribute
    ) -> Optional[List[Target]]:
        dotted = module.dotted_source(func)
        if dotted is not None:
            target = self._function_for_dotted(dotted)
            if target is not None:
                return [target]
            cls = self._class_of_callable(module, func)
            if cls is not None:
                return self._ctor_targets(cls)
            # The chain starts at an import: either an external package
            # (no project edges) or a project-module attribute that is
            # not a function (constant, dataclass field, ...).
            return []
        receiver = func.value
        cls_key: Optional[str] = None
        if isinstance(receiver, ast.Name):
            if receiver.id in ("self", "cls"):
                cls_key = self.enclosing_class(module, fn)
            else:
                cls_key = self.var_types(module, fn).get(receiver.id)
        elif (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
        ):
            owner = self.enclosing_class(module, fn)
            if owner is not None:
                model = self.classes.get(owner)
                if model is not None:
                    cls_key = model.attr_types.get(receiver.attr)
        if cls_key is not None:
            found = self._method_on_class(cls_key, func.attr)
            if found is not None:
                return [found]
        return None  # unknown receiver: fall back to name matching


def compute_reachable(project: Project) -> Set[FnKey]:
    """Delegate used by :meth:`Project.parallel_reachable`."""
    return project.dataflow().reachable


# ----------------------------------------------------------------------
# taint


@dataclass(frozen=True)
class Source:
    """One nondeterministic call site (where taint is born)."""

    dotted: str
    why: str
    module: str
    symbol: str
    line: int
    col: int


@dataclass(frozen=True)
class Sink:
    """Somewhere a tainted value became observable."""

    kind: str  #: ``work-unit return`` | ``module state`` | ``instance state`` | ``wire frame``
    module: str
    symbol: str
    line: int
    detail: str


class Taint(NamedTuple):
    """What a value may carry: fresh sources and/or caller parameters."""

    sources: FrozenSet[Source]
    params: FrozenSet[int]

    def union(self, other: "Taint") -> "Taint":
        if not other.sources and not other.params:
            return self
        if not self.sources and not self.params:
            return other
        return Taint(
            self.sources | other.sources, self.params | other.params
        )

    @property
    def is_empty(self) -> bool:
        return not self.sources and not self.params


EMPTY_TAINT = Taint(frozenset(), frozenset())


def _fresh_taint(source: Source) -> Taint:
    return Taint(frozenset((source,)), frozenset())


@dataclass
class FnSummary:
    """Monotone per-function facts (only ever grow across the fixpoint)."""

    ret_sources: Set[Source] = field(default_factory=set)
    ret_params: Set[int] = field(default_factory=set)
    #: Fresh sources (born here or in callees we passed them to) that
    #: reached a concrete state/wire sink.
    hits: Set[Tuple[Source, Sink]] = field(default_factory=set)
    #: Parameters whose value reaches a sink (here or transitively).
    param_sinks: Dict[int, Set[Sink]] = field(default_factory=dict)

    def snapshot(self) -> Tuple[int, int, int, int]:
        return (
            len(self.ret_sources),
            len(self.ret_params),
            len(self.hits),
            sum(len(v) for v in self.param_sinks.values()),
        )

    def add_param_sink(self, index: int, sink: Sink) -> None:
        self.param_sinks.setdefault(index, set()).add(sink)


def _param_names(node: ast.AST) -> List[str]:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    args = node.args
    return [a.arg for a in list(args.posonlyargs) + list(args.args)]


class _FnInterp:
    """One function's forward taint interpretation (flow-insensitive
    weak updates inside loops, iterated to a local fixpoint)."""

    def __init__(
        self,
        analysis: "DataflowAnalysis",
        module: ModuleInfo,
        fn: FunctionInfo,
        body: Sequence[ast.stmt],
        summary: FnSummary,
    ) -> None:
        self.analysis = analysis
        self.module = module
        self.fn = fn
        self.body = body
        self.summary = summary
        self.params: Dict[str, int] = {
            name: i for i, name in enumerate(_param_names(fn.node))
        }
        self.env: Dict[str, Taint] = {}
        self.selfenv: Dict[str, Taint] = {}
        self.deps: Set[FnKey] = set()
        self.module_level = fn.qualname == MODULE_BODY

    # -- driving --------------------------------------------------------

    def run(self) -> None:
        for _ in range(4):
            before = (dict(self.env), dict(self.selfenv),
                      self.summary.snapshot())
            for stmt in self.body:
                self._exec(stmt)
            after = (dict(self.env), dict(self.selfenv),
                     self.summary.snapshot())
            if after == before:
                break

    # -- statements -----------------------------------------------------

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Assign):
            taint = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, taint)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taint = self._eval(stmt.value).union(
                self._load(stmt.target)
            )
            self._assign(stmt.target, taint)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                taint = self._eval(stmt.value)
                self.summary.ret_sources.update(taint.sources)
                self.summary.ret_params.update(taint.params)
        elif isinstance(stmt, ast.For):
            self._assign(stmt.target, self._eval(stmt.iter))
            for s in stmt.body:
                self._exec(s)
            for s in stmt.orelse:
                self._exec(s)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            for s in stmt.body:
                self._exec(s)
            for s in stmt.orelse:
                self._exec(s)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            for s in stmt.body:
                self._exec(s)
            for s in stmt.orelse:
                self._exec(s)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taint)
            for s in stmt.body:
                self._exec(s)
        elif isinstance(stmt, ast.Try):
            for s in stmt.body:
                self._exec(s)
            for handler in stmt.handlers:
                for s in handler.body:
                    self._exec(s)
            for s in stmt.orelse:
                self._exec(s)
            for s in stmt.finalbody:
                self._exec(s)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
        # nested defs/classes are separate summaries; imports, pass,
        # break, continue, global, nonlocal and del carry no taint

    # -- expressions ----------------------------------------------------

    def _load(self, node: ast.expr) -> Taint:
        """Read a (possible) assignment target without re-binding it."""
        if isinstance(node, ast.Name):
            taint = self.env.get(node.id, EMPTY_TAINT)
            if node.id in self.params:
                taint = taint.union(
                    Taint(frozenset(), frozenset((self.params[node.id],)))
                )
            return taint
        return self._eval(node)

    def _eval(self, node: ast.expr) -> Taint:
        if isinstance(node, ast.Constant):
            return EMPTY_TAINT
        if isinstance(node, ast.Name):
            return self._load(node)
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return self.selfenv.get(node.attr, EMPTY_TAINT)
            return self._eval(node.value)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left).union(self._eval(node.right))
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.BoolOp):
            taint = EMPTY_TAINT
            for value in node.values:
                taint = taint.union(self._eval(value))
            return taint
        if isinstance(node, ast.Compare):
            taint = self._eval(node.left)
            for comp in node.comparators:
                taint = taint.union(self._eval(comp))
            return taint
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body).union(self._eval(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            taint = EMPTY_TAINT
            for elt in node.elts:
                taint = taint.union(self._eval(elt))
            return taint
        if isinstance(node, ast.Dict):
            taint = EMPTY_TAINT
            for key in node.keys:
                if key is not None:
                    taint = taint.union(self._eval(key))
            for value in node.values:
                taint = taint.union(self._eval(value))
            return taint
        if isinstance(node, ast.Subscript):
            return self._eval(node.value).union(self._eval_slice(node.slice))
        if isinstance(node, ast.JoinedStr):
            taint = EMPTY_TAINT
            for value in node.values:
                taint = taint.union(self._eval(value))
            return taint
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, ast.NamedExpr):
            taint = self._eval(node.value)
            self._assign(node.target, taint)
            return taint
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                self._assign(gen.target, self._eval(gen.iter))
                for cond in gen.ifs:
                    self._eval(cond)
            return self._eval(node.elt)
        if isinstance(node, ast.DictComp):
            for gen in node.generators:
                self._assign(gen.target, self._eval(gen.iter))
                for cond in gen.ifs:
                    self._eval(cond)
            return self._eval(node.key).union(self._eval(node.value))
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            # Yielded values are produced rows, like returns.
            if node.value is not None:
                taint = self._eval(node.value)
                self.summary.ret_sources.update(taint.sources)
                self.summary.ret_params.update(taint.params)
                return taint
            return EMPTY_TAINT
        if isinstance(node, ast.Lambda):
            return EMPTY_TAINT
        return EMPTY_TAINT

    def _eval_slice(self, node: ast.expr) -> Taint:
        if isinstance(node, ast.Slice):
            taint = EMPTY_TAINT
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    taint = taint.union(self._eval(part))
            return taint
        return self._eval(node)

    # -- calls ----------------------------------------------------------

    def _eval_call(self, call: ast.Call) -> Taint:
        arg_taints = [self._eval(arg) for arg in call.args]
        kw_taints = [
            (kw.arg, self._eval(kw.value)) for kw in call.keywords
        ]
        result = EMPTY_TAINT

        dotted = self.module.dotted_source(call.func)
        if dotted is not None and not exempt(self.module.modname):
            why = classify_nondeterministic(dotted)
            if why is not None:
                source = Source(
                    dotted=dotted,
                    why=why,
                    module=self.module.modname,
                    symbol=self.fn.qualname,
                    line=call.lineno,
                    col=call.col_offset,
                )
                result = result.union(_fresh_taint(source))

        # Intrinsic sinks: wire frames and module-container mutators.
        self._check_intrinsic_sinks(call, arg_taints)

        targets = self.analysis.graph.resolve(self.module, self.fn, call)
        if not targets:  # None (unknown) or [] (external): pass through
            for taint in arg_taints:
                result = result.union(taint)
            for _, taint in kw_taints:
                result = result.union(taint)
            return result

        bound = isinstance(call.func, ast.Attribute)
        for target_module, target_fn in targets:
            key = (target_module.modname, target_fn.qualname)
            self.deps.add(key)
            summary = self.analysis.summaries.get(key)
            if summary is None:
                continue
            result = result.union(
                Taint(frozenset(summary.ret_sources), frozenset())
            )
            names = _param_names(target_fn.node)
            is_ctor = target_fn.name == "__init__"
            offset = 1 if names[:1] in (["self"], ["cls"]) and (
                bound or is_ctor
            ) else 0
            if is_ctor:
                # The constructed instance carries its argument data.
                for taint in arg_taints:
                    result = result.union(taint)
                for _, taint in kw_taints:
                    result = result.union(taint)
            for j, taint in enumerate(arg_taints):
                if taint.is_empty:
                    continue
                index = j + offset
                if index in summary.ret_params:
                    result = result.union(taint)
                self._forward_to_sinks(taint, summary, index)
            for kw_name, taint in kw_taints:
                if taint.is_empty or kw_name is None:
                    continue
                if kw_name in names:
                    index = names.index(kw_name)
                    if index in summary.ret_params:
                        result = result.union(taint)
                    self._forward_to_sinks(taint, summary, index)
                else:
                    result = result.union(taint)
        return result

    def _forward_to_sinks(
        self, taint: Taint, summary: FnSummary, index: int
    ) -> None:
        for sink in summary.param_sinks.get(index, ()):
            self._record_sink(taint, sink)

    def _record_sink(self, taint: Taint, sink: Sink) -> None:
        for source in taint.sources:
            self.summary.hits.add((source, sink))
        for param in taint.params:
            self.summary.add_param_sink(param, sink)

    def _check_intrinsic_sinks(
        self, call: ast.Call, arg_taints: List[Taint]
    ) -> None:
        func = call.func
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _WIRE_SINK_NAMES:
            for taint in arg_taints:
                if taint.is_empty:
                    continue
                self._record_sink(
                    taint,
                    Sink(
                        kind="wire frame",
                        module=self.module.modname,
                        symbol=self.fn.qualname,
                        line=call.lineno,
                        detail=f"payload of {name}()",
                    ),
                )
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATOR_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.module.module_mutables
            and func.value.id not in self.fn.local_names
        ):
            for taint in arg_taints:
                if taint.is_empty:
                    continue
                self._record_sink(
                    taint,
                    Sink(
                        kind="module state",
                        module=self.module.modname,
                        symbol=self.fn.qualname,
                        line=call.lineno,
                        detail=(
                            f"{func.attr}() on module-level container "
                            f"{func.value.id!r}"
                        ),
                    ),
                )

    # -- assignment targets ---------------------------------------------

    def _assign(self, target: ast.expr, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            if not taint.is_empty and (
                target.id in self.fn.global_names
                or (self.module_level and isinstance(target.ctx, ast.Store))
            ):
                scope = (
                    "module binding" if self.module_level else "global"
                )
                self._record_sink(
                    taint,
                    Sink(
                        kind="module state",
                        module=self.module.modname,
                        symbol=self.fn.qualname,
                        line=target.lineno,
                        detail=f"{scope} {target.id!r}",
                    ),
                )
            merged = self.env.get(target.id, EMPTY_TAINT).union(taint)
            self.env[target.id] = merged
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, taint)
            return
        if isinstance(target, ast.Starred):
            self._assign(target.value, taint)
            return
        if isinstance(target, ast.Attribute):
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                merged = self.selfenv.get(
                    target.attr, EMPTY_TAINT
                ).union(taint)
                self.selfenv[target.attr] = merged
                if not taint.is_empty:
                    self._record_sink(
                        taint,
                        Sink(
                            kind="instance state",
                            module=self.module.modname,
                            symbol=self.fn.qualname,
                            line=target.lineno,
                            detail=f"self.{target.attr}",
                        ),
                    )
                return
            base = self.module.dotted_source(target.value)
            if base is not None and not taint.is_empty:
                self._record_sink(
                    taint,
                    Sink(
                        kind="module state",
                        module=self.module.modname,
                        symbol=self.fn.qualname,
                        line=target.lineno,
                        detail=f"module attribute {base}.{target.attr}",
                    ),
                )
            return
        if isinstance(target, ast.Subscript):
            self._eval_slice(target.slice)
            base_node = target.value
            if (
                isinstance(base_node, ast.Name)
                and base_node.id in self.module.module_mutables
                and base_node.id not in self.fn.local_names
                and not taint.is_empty
            ):
                self._record_sink(
                    taint,
                    Sink(
                        kind="module state",
                        module=self.module.modname,
                        symbol=self.fn.qualname,
                        line=target.lineno,
                        detail=(
                            f"item write into module-level container "
                            f"{base_node.id!r}"
                        ),
                    ),
                )
            if isinstance(base_node, ast.Name):
                merged = self.env.get(
                    base_node.id, EMPTY_TAINT
                ).union(taint)
                self.env[base_node.id] = merged
            return
        # anything else: evaluate for side effects, drop the binding
        self._eval(target)


def _module_body_fn(module: ModuleInfo) -> FunctionInfo:
    """A pseudo-function for a module's top-level statements."""
    return FunctionInfo(
        qualname=MODULE_BODY,
        name=MODULE_BODY,
        node=module.tree,
        lineno=1,
        end_lineno=len(module.lines) or 1,
    )


def _module_body_stmts(module: ModuleInfo) -> List[ast.stmt]:
    return [
        stmt
        for stmt in module.tree.body
        if not isinstance(
            stmt,
            (
                ast.FunctionDef,
                ast.AsyncFunctionDef,
                ast.ClassDef,
                ast.Import,
                ast.ImportFrom,
            ),
        )
    ]


class DataflowAnalysis:
    """Project-wide call graph, reachability and taint summaries."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = CallGraph(project)
        self.summaries: Dict[FnKey, FnSummary] = {}
        self._units: Dict[FnKey, Tuple[ModuleInfo, FunctionInfo,
                                       List[ast.stmt]]] = {}
        for modname in sorted(project.modules):
            module = project.modules[modname]
            for qualname in sorted(module.functions):
                fn = module.functions[qualname]
                node = fn.node
                body = (
                    list(node.body)
                    if isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    else []
                )
                key = (modname, qualname)
                self.summaries[key] = FnSummary()
                self._units[key] = (module, fn, body)
            body_stmts = _module_body_stmts(module)
            if body_stmts:
                key = (modname, MODULE_BODY)
                self.summaries[key] = FnSummary()
                self._units[key] = (
                    module, _module_body_fn(module), body_stmts
                )
        self._dependents: Dict[FnKey, Set[FnKey]] = {}
        self._run_fixpoint()
        self.reachable: Set[FnKey] = self._compute_reachable()
        self._det_hits: Optional[Dict[Source, List[Sink]]] = None
        self._tainted_writes: Optional[Set[Tuple[str, int]]] = None

    # -- the interprocedural fixpoint -----------------------------------

    def _run_fixpoint(self) -> None:
        worklist: Deque[FnKey] = deque(sorted(self._units))
        queued: Set[FnKey] = set(worklist)
        while worklist:
            key = worklist.popleft()
            queued.discard(key)
            module, fn, body = self._units[key]
            summary = self.summaries[key]
            before = summary.snapshot()
            interp = _FnInterp(self, module, fn, body, summary)
            interp.run()
            for dep in interp.deps:
                self._dependents.setdefault(dep, set()).add(key)
            if summary.snapshot() != before:
                for caller in sorted(self._dependents.get(key, ())):
                    if caller not in queued:
                        queued.add(caller)
                        worklist.append(caller)

    # -- reachability ---------------------------------------------------

    def _compute_reachable(self) -> Set[FnKey]:
        seen: Set[FnKey] = set()
        frontier: List[Tuple[ModuleInfo, FunctionInfo]] = []

        def push_target(module: ModuleInfo, info: FunctionInfo) -> None:
            key = (module.modname, info.qualname)
            if key not in seen:
                seen.add(key)
                frontier.append((module, info))

        def push_name(name: str) -> None:
            for module, info in self.project.functions_by_name.get(
                name, ()
            ):
                push_target(module, info)

        for site in self.project.dispatch_sites:
            if site.entry_name:
                push_name(site.entry_name)
        while frontier:
            module, info = frontier.pop()
            # Dispatch-table indirection: reaching any method of a class
            # with a callback table makes the table's methods reachable.
            owner = self.graph.enclosing_class(module, info)
            if owner is not None:
                model = self.graph.classes.get(owner)
                if model is not None and model.table_methods:
                    for name in sorted(model.table_methods):
                        found = self.graph._method_on_class(owner, name)
                        if found is not None:
                            push_target(*found)
            for call in info.call_nodes:
                targets = self.graph.resolve(module, info, call)
                if targets is None:
                    if isinstance(call.func, ast.Name):
                        push_name(call.func.id)
                    elif isinstance(call.func, ast.Attribute):
                        push_name(call.func.attr)
                else:
                    for target in targets:
                        push_target(*target)
        return seen

    # -- reporting ------------------------------------------------------

    def row_producing(self, key: FnKey) -> bool:
        """Whether findings in this function affect produced rows."""
        modname = key[0]
        if in_scope_package(modname) and not exempt(modname):
            return True
        return key in self.reachable

    def det_hits(self) -> Dict[Source, List[Sink]]:
        """Sources whose value reached a sink, gated by row production."""
        if self._det_hits is not None:
            return self._det_hits
        out: Dict[Source, List[Sink]] = {}

        def add(source: Source, sink: Sink) -> None:
            out.setdefault(source, []).append(sink)

        for key in sorted(self.summaries):
            summary = self.summaries[key]
            producing = self.row_producing(key)
            for source, sink in sorted(
                summary.hits,
                key=lambda pair: (pair[0].line, pair[1].line,
                                  pair[1].kind),
            ):
                if producing or self.row_producing(
                    (sink.module, sink.symbol)
                ):
                    add(source, sink)
            if producing:
                for source in sorted(
                    summary.ret_sources, key=lambda s: (s.line, s.col)
                ):
                    add(
                        source,
                        Sink(
                            kind="work-unit return",
                            module=key[0],
                            symbol=key[1],
                            line=source.line,
                            detail=f"return value of {key[1]}()",
                        ),
                    )
        self._det_hits = out
        return out

    def tainted_state_writes(self) -> Set[Tuple[str, int]]:
        """``(modname, line)`` of module-state writes fed by a source."""
        if self._tainted_writes is not None:
            return self._tainted_writes
        out: Set[Tuple[str, int]] = set()
        for summary in self.summaries.values():
            for _, sink in summary.hits:
                if sink.kind == "module state":
                    out.add((sink.module, sink.line))
        self._tainted_writes = out
        return out
