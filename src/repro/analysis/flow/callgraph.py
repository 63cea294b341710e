"""Project call graph over ``src/repro``.

Pure-AST module indexing plus name/annotation-based call resolution — the
shared substrate under the interprocedural analyses.  Resolution is
deliberately *under*-approximate (an unresolved call contributes no edge):
the analyses that consume the graph treat unknown callees as no-ops, so a
spurious edge would manufacture false findings while a missing edge only
costs recall.  What does resolve:

* bare names — module-level functions, ``from x import f`` symbols, and
  class constructors (edge to ``Class.__init__``);
* ``self.m()`` — methods of the enclosing class and its project bases;
* ``obj.m()`` — when ``obj`` is a parameter/local whose project class is
  known from an annotation or a ``ClassName(...)`` assignment;
* ``self.attr.m()`` — when ``__init__`` binds ``self.attr`` from an
  annotated parameter or a ``ClassName(...)`` call;
* ``module.f()`` — through ``import x.y`` / ``from x import y`` bindings.

Function identity is ``"pkg.mod:Qual.name"``.  :meth:`ProjectIndex.to_dict`
serializes the whole graph for the CI artifact.
"""

from __future__ import annotations

import ast
import dataclasses

#: the package all project paths resolve under
_SRC_PREFIX = "src/"


def module_name(relpath: str) -> str:
    """``src/repro/service/server.py`` → ``repro.service.server``."""
    path = relpath.replace("\\", "/")
    if path.startswith(_SRC_PREFIX):
        path = path[len(_SRC_PREFIX):]
    if path.endswith(".py"):
        path = path[:-3]
    if path.endswith("/__init__"):
        path = path[: -len("/__init__")]
    return path.replace("/", ".")


@dataclasses.dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str  # "repro.service.server:EngineServer._register"
    path: str  # repo-relative (virtual) path of the defining module
    modname: str
    cls: str | None  # enclosing class name, None for module-level defs
    node: ast.FunctionDef | ast.AsyncFunctionDef = dataclasses.field(repr=False)

    @property
    def name(self) -> str:
        return self.node.name


@dataclasses.dataclass
class ClassInfo:
    name: str
    bases: list[str]
    methods: dict[str, FunctionInfo]
    #: self-attribute → project class qualifier ("modname:Class"), inferred
    #: from ``self.x = Class(...)`` and annotated ``__init__`` parameters
    attr_types: dict[str, str]


class ModuleInfo:
    """The indexed contents of one module."""

    def __init__(self, path: str, tree: ast.Module):
        self.path = path
        self.modname = module_name(path)
        self.tree = tree
        self.functions: dict[str, FunctionInfo] = {}  # qualname → info
        self.classes: dict[str, ClassInfo] = {}
        #: local name → ("module", modname) or ("symbol", modname, symbol)
        self.imports: dict[str, tuple] = {}
        self._index()

    def _index(self) -> None:
        for stmt in self.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = ("module", alias.name)
            elif isinstance(stmt, ast.ImportFrom):
                source = self._resolve_from(stmt)
                if source is None:
                    continue
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    self.imports[local] = ("symbol", source, alias.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(stmt, cls=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(stmt)

    def _resolve_from(self, stmt: ast.ImportFrom) -> str | None:
        """Absolute module a ``from ... import`` pulls from (or None)."""
        if stmt.level == 0:
            return stmt.module
        parts = self.modname.split(".")
        # a module's relative imports resolve against its package
        base = parts[: len(parts) - stmt.level]
        if not base:
            return None
        if stmt.module:
            base = base + stmt.module.split(".")
        return ".".join(base)

    def _add_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None
    ) -> FunctionInfo:
        qual = f"{self.modname}:{cls + '.' if cls else ''}{node.name}"
        info = FunctionInfo(qual, self.path, self.modname, cls, node)
        self.functions[qual] = info
        return info

    def _add_class(self, node: ast.ClassDef) -> None:
        methods: dict[str, FunctionInfo] = {}
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods[stmt.name] = self._add_function(stmt, cls=node.name)
        bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
        bases += [b.attr for b in node.bases if isinstance(b, ast.Attribute)]
        self.classes[node.name] = ClassInfo(node.name, bases, methods, {})


class ProjectIndex:
    """All indexed modules plus the resolved call graph."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}  # modname → info
        self.functions: dict[str, FunctionInfo] = {}
        self.edges: dict[str, list[str]] = {}  # caller qual → callee quals
        #: qualname → :meth:`_local_types`, computed once per function
        self._locals: dict[str, dict[str, str]] = {}

    # -- indexing ------------------------------------------------------- #
    def add_module(self, path: str, tree: ast.Module) -> ModuleInfo:
        mod = ModuleInfo(path, tree)
        self.modules[mod.modname] = mod
        return mod

    def finalize(self) -> None:
        """Infer attribute types, then resolve every call edge."""
        self.functions = {}
        self._locals = {}
        for mod in self.modules.values():
            self.functions.update(mod.functions)
        for mod in self.modules.values():
            for cls in mod.classes.values():
                cls.attr_types = self._infer_attr_types(mod, cls)
        self.edges = {}
        for mod in self.modules.values():
            for info in mod.functions.values():
                callees: list[str] = []
                for call in self._calls_in(info.node):
                    target = self.resolve_call(info, call)
                    if target is not None and target not in callees:
                        callees.append(target)
                self.edges[info.qualname] = callees

    @staticmethod
    def _calls_in(fn: ast.AST):
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Call):
                yield sub

    # -- type plumbing -------------------------------------------------- #
    def _class_qual(self, mod: ModuleInfo, name: str) -> str | None:
        """Resolve a class name used in ``mod`` to ``"modname:Class"``."""
        if name in mod.classes:
            return f"{mod.modname}:{name}"
        binding = mod.imports.get(name)
        if binding and binding[0] == "symbol":
            _, source, symbol = binding
            target = self.modules.get(source)
            if target is None:
                # re-exported through a package __init__ we did not index —
                # fall back to a unique project-wide class of that name
                owners = [
                    m for m in self.modules.values() if symbol in m.classes
                ]
                if len(owners) == 1:
                    return f"{owners[0].modname}:{symbol}"
                return None
            if symbol in target.classes:
                return f"{target.modname}:{symbol}"
        return None

    def _annotation_class(self, mod: ModuleInfo, ann: ast.expr | None) -> str | None:
        if ann is None:
            return None
        if isinstance(ann, ast.Name):
            return self._class_qual(mod, ann.id)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            name = ann.value.strip().split("|")[0].strip()
            if name.isidentifier():
                return self._class_qual(mod, name)
        return None

    def _infer_attr_types(self, mod: ModuleInfo, cls: ClassInfo) -> dict[str, str]:
        types: dict[str, str] = {}
        init = cls.methods.get("__init__")
        if init is None:
            return types
        params: dict[str, str] = {}
        args = init.node.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            qual = self._annotation_class(mod, a.annotation)
            if qual is not None:
                params[a.arg] = qual
        for stmt in ast.walk(init.node):
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                value = stmt.value
                if isinstance(value, ast.Name) and value.id in params:
                    types[target.attr] = params[value.id]
                elif isinstance(value, ast.Call) and isinstance(
                    value.func, ast.Name
                ):
                    qual = self._class_qual(mod, value.func.id)
                    if qual is not None:
                        types[target.attr] = qual
        return types

    def _local_types(self, mod: ModuleInfo, fn: FunctionInfo) -> dict[str, str]:
        """Parameter/local name → class qualifier within one function."""
        types = self._locals.get(fn.qualname)
        if types is not None:
            return types
        types = self._locals[fn.qualname] = {}
        args = fn.node.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            qual = self._annotation_class(mod, a.annotation)
            if qual is not None:
                types[a.arg] = qual
        for stmt in ast.walk(fn.node):
            value: ast.expr | None = None
            target: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                qual = self._annotation_class(mod, stmt.annotation)
                if isinstance(target, ast.Name) and qual is not None:
                    types[target.id] = qual
                continue
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                qual = self._class_qual(mod, value.func.id)
                if qual is not None:
                    types[target.id] = qual
        return types

    # -- resolution ----------------------------------------------------- #
    def _method_of(self, class_qual: str, name: str) -> str | None:
        """Look ``name`` up on a class and its project bases."""
        seen: set[str] = set()
        stack = [class_qual]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            modname, _, clsname = qual.partition(":")
            mod = self.modules.get(modname)
            cls = mod.classes.get(clsname) if mod else None
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name].qualname
            for base in cls.bases:
                base_qual = self._class_qual(mod, base)
                if base_qual is not None:
                    stack.append(base_qual)
        return None

    def resolve_call(self, caller: FunctionInfo, call: ast.Call) -> str | None:
        """The callee's qualname, or None when resolution is not safe."""
        mod = self.modules.get(caller.modname)
        if mod is None:
            return None
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            qual = f"{mod.modname}:{name}"
            if qual in mod.functions:
                return qual
            class_qual = self._class_qual(mod, name)
            if class_qual is not None:
                return self._method_of(class_qual, "__init__")
            binding = mod.imports.get(name)
            if binding and binding[0] == "symbol":
                _, source, symbol = binding
                target_qual = f"{source}:{symbol}"
                if target_qual in self.functions:
                    return target_qual
            return None
        if not isinstance(func, ast.Attribute):
            return None
        recv = func.value
        if isinstance(recv, ast.Name):
            if recv.id == "self" and caller.cls is not None:
                return self._method_of(
                    f"{caller.modname}:{caller.cls}", func.attr
                )
            binding = mod.imports.get(recv.id)
            if binding and binding[0] == "module":
                target_qual = f"{binding[1]}:{func.attr}"
                if target_qual in self.functions:
                    return target_qual
            local = self._local_types(mod, caller).get(recv.id)
            if local is not None:
                return self._method_of(local, func.attr)
            return None
        if (
            isinstance(recv, ast.Attribute)
            and isinstance(recv.value, ast.Name)
            and recv.value.id == "self"
            and caller.cls is not None
        ):
            cls = mod.classes.get(caller.cls)
            if cls is not None:
                attr_qual = cls.attr_types.get(recv.attr)
                if attr_qual is not None:
                    return self._method_of(attr_qual, func.attr)
        return None

    # -- serialization -------------------------------------------------- #
    def to_dict(self) -> dict:
        return {
            "functions": {
                qual: {"path": info.path, "line": info.node.lineno}
                for qual, info in sorted(self.functions.items())
            },
            "edges": {
                qual: sorted(callees)
                for qual, callees in sorted(self.edges.items())
                if callees
            },
        }


def build_project_index(
    sources: dict[str, str], extra: dict[str, ast.Module] | None = None
) -> ProjectIndex:
    """Index ``{relpath: text}`` sources (plus pre-parsed ``extra`` trees —
    the corpus-overlay hook: an extra tree *replaces* the real module at the
    same virtual path) and resolve the call graph."""
    index = ProjectIndex()
    overlay = extra or {}
    for relpath, text in sorted(sources.items()):
        if relpath in overlay:
            continue
        try:
            tree = ast.parse(text, filename=relpath)
        except SyntaxError:
            continue
        index.add_module(relpath, tree)
    for relpath, tree in sorted(overlay.items()):
        index.add_module(relpath, tree)
    index.finalize()
    return index
