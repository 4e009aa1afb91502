"""Alias-aware call resolution and reachability, plus shared facts.

:class:`CallGraph` resolves call expressions to the project functions
they actually target.  Unlike the historical name-based matching
(``x.decode()`` reaches *every* function named ``decode``), it follows
local assignments (``x = Codec()``), instance attributes
(``self.codec = Codec()``), ``self``/``cls`` method calls, module
aliases and ``from``-imports.  Calls it cannot pin down resolve to
``None``, and :meth:`CallGraph.reachable` falls back to every project
function of that bare name, so reachability over-approximates.

The nondeterministic-source classification and the lock-guard facts
live here too, next to the reachability the rules judge them with;
the DET rules re-export the scope tuples.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .project import FunctionInfo, ModuleInfo, Project

FnKey = Tuple[str, str]  #: ``(modname, qualname)``

# ----------------------------------------------------------------------
# nondeterministic-source classification (shared with rules/determinism)

#: Packages whose *entire* code is row-producing: DET001 covers their
#: module bodies, their functions and everything those functions reach.
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


def _is_lock(project: Project, module: ModuleInfo, node: ast.AST) -> bool:
    """Whether a ``with`` context expression acquires a lock: one
    :func:`resolve_lock` names, or a name or attribute spelled ``lock``
    or ``*_lock`` (``with self._lock:``)."""
    if resolve_lock(project, module, node) is not None:
        return True
    if isinstance(node, ast.Name):
        name = node.id.lower()
    elif isinstance(node, ast.Attribute):
        name = node.attr.lower()
    else:
        return False
    return name == "lock" or name.endswith("_lock")


def lock_guarded_lines(project: Project, module: ModuleInfo) -> Set[int]:
    """Line numbers covered by a ``with <lock>`` statement in `module`."""
    lines: Set[int] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
            _is_lock(project, module, item.context_expr)
            for item in node.items
        ):
            end = node.end_lineno or node.lineno
            lines.update(range(node.lineno, end + 1))
    return lines


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

    # -- reachability ---------------------------------------------------

    def reachable(self, seeds: Iterable[Target]) -> Set[FnKey]:
        """Every function `seeds` may call, transitively, seeds included.

        A call the resolver cannot pin down reaches every project
        function of its bare name, and reaching any method of a class
        with a dispatch table reaches the table's methods too.
        """
        seen: Set[FnKey] = set()
        frontier: List[Target] = []

        def push(targets: Iterable[Target]) -> None:
            for module, info in targets:
                key = (module.modname, info.qualname)
                if key not in seen:
                    seen.add(key)
                    frontier.append((module, info))

        push(seeds)
        while frontier:
            module, info = frontier.pop()
            owner = self.enclosing_class(module, info)
            model = self.classes.get(owner) if owner is not None else None
            if model is not None:
                for name in sorted(model.table_methods):
                    found = self._method_on_class(model.key, name)
                    if found is not None:
                        push([found])
            for call in info.call_nodes:
                targets = self.resolve(module, info, call)
                if targets is None:
                    targets = self.project.functions_by_name.get(
                        _bare_name(call), []
                    )
                push(targets)
        return seen


def _bare_name(call: ast.Call) -> str:
    """``f`` for both ``f(...)`` and ``x.f(...)``; empty otherwise."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return ""
