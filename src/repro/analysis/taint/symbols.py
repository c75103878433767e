"""Project-wide symbol table: modules, functions, classes, imports.

This is the name-resolution substrate of the taint pass.  It answers one
question: *given a call expression in module M, which function body does
it land in?* — across import aliases, re-exports through package
``__init__`` modules, ``self`` method dispatch, dataclass constructors,
and one level of attribute chaining through annotated/inferred types
(``flock.flash.device_template()``).

Resolution is deliberately best-effort: anything it cannot resolve is
treated conservatively by the analysis (argument taint propagates to the
result unless the callee name is a sanitizer).  Python is dynamic; the
goal is precision on the idiomatic code this repo actually contains, not
soundness against ``getattr`` gymnastics.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..core import ModuleContext, terminal_name

__all__ = ["FunctionInfo", "ClassInfo", "ProjectIndex", "build_index"]

_MAX_RESOLVE_DEPTH = 8


def _resolve_relative(module: str, is_package: bool,
                      node: ast.ImportFrom) -> str | None:
    """Absolute module a relative import refers to (mirrors TB001)."""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    extra_levels = node.level - 1
    if extra_levels >= len(parts):
        return None
    if extra_levels:
        parts = parts[:-extra_levels]
    base = list(parts)
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef
                     | ast.ClassDef) -> set[str]:
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = terminal_name(target)
        if name:
            names.add(name)
    return names


@dataclass
class FunctionInfo:
    """One function or method, with everything call sites need."""

    qualname: str  # "repro.flock.module.FlockModule.open_session"
    module: str
    short_name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: ModuleContext
    class_qualname: str | None = None  # enclosing class, for methods
    params: tuple[str, ...] = ()  # positional order, incl. self/cls
    kwonly_params: tuple[str, ...] = ()
    is_property: bool = False
    is_static: bool = False
    #: param name -> class qualname, from annotations (resolved in phase 2).
    param_types: dict = field(init=False, default_factory=dict)
    #: class qualname the return annotation resolves to, if any.
    returns_type: str | None = field(init=False, default=None)

    @property
    def all_params(self) -> tuple[str, ...]:
        return self.params + self.kwonly_params

    @property
    def has_self(self) -> bool:
        return (self.class_qualname is not None and not self.is_static
                and bool(self.params))


@dataclass
class ClassInfo:
    """One class: methods, bases, attribute types, dataclass fields."""

    qualname: str  # "repro.flock.storage.ProtectedFlash"
    module: str
    name: str
    node: ast.ClassDef
    is_dataclass: bool = False
    #: Resolved dotted names, best-effort.
    bases: tuple[str, ...] = field(init=False, default=())
    #: name -> function qualname.
    methods: dict = field(init=False, default_factory=dict)
    #: Dataclass field order (AnnAssign order).
    fields: tuple[str, ...] = field(init=False, default=())
    #: attribute name -> class qualname (annotations + __init__ inference).
    attr_types: dict = field(init=False, default_factory=dict)


class ProjectIndex:
    """All modules of one analysis run, cross-linked for resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleContext] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: module -> local alias -> fully qualified dotted target.
        self.imports: dict[str, dict[str, str]] = {}

    # ------------------------------------------------------------- building
    def add_module(self, ctx: ModuleContext) -> None:
        self.modules[ctx.module] = ctx
        aliases = self.imports.setdefault(ctx.module, {})
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        # ``import a.b.c`` binds ``a``.
                        root = alias.name.split(".")[0]
                        aliases.setdefault(root, root)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = _resolve_relative(ctx.module, ctx.is_package, node)
                else:
                    base = node.module
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    aliases[local] = f"{base}.{alias.name}"
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(ctx, stmt, class_qualname=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(ctx, stmt)

    def _add_function(self, ctx: ModuleContext,
                      node: ast.FunctionDef | ast.AsyncFunctionDef,
                      class_qualname: str | None) -> FunctionInfo:
        prefix = class_qualname or ctx.module
        qualname = f"{prefix}.{node.name}"
        decorators = _decorator_names(node)
        args = node.args
        positional = tuple(a.arg for a in args.posonlyargs + args.args)
        info = FunctionInfo(
            qualname=qualname, module=ctx.module, short_name=node.name,
            node=node, ctx=ctx, class_qualname=class_qualname,
            params=positional,
            kwonly_params=tuple(a.arg for a in args.kwonlyargs),
            is_property="property" in decorators
            or "cached_property" in decorators,
            is_static="staticmethod" in decorators,
        )
        self.functions[qualname] = info
        return info

    def _add_class(self, ctx: ModuleContext, node: ast.ClassDef) -> None:
        qualname = f"{ctx.module}.{node.name}"
        info = ClassInfo(
            qualname=qualname, module=ctx.module, name=node.name, node=node,
            is_dataclass="dataclass" in _decorator_names(node),
        )
        fields: list[str] = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._add_function(ctx, stmt, class_qualname=qualname)
                info.methods[stmt.name] = fn.qualname
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                fields.append(stmt.target.id)
        info.fields = tuple(fields)
        self.classes[qualname] = info

    def finalize(self) -> None:
        """Phase 2: resolve annotations and bases across all modules."""
        for cls in self.classes.values():
            cls.bases = tuple(
                resolved for base in cls.node.bases
                if (resolved := self.qualify(cls.module, base)) is not None)
            for stmt in cls.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name):
                    target = self._resolve_annotation(cls.module,
                                                      stmt.annotation)
                    if target:
                        cls.attr_types[stmt.target.id] = target
        for fn in self.functions.values():
            fn.returns_type = self._resolve_annotation(fn.module,
                                                       fn.node.returns)
            args = fn.node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                target = self._resolve_annotation(fn.module, arg.annotation)
                if target:
                    fn.param_types[arg.arg] = target
            # ``self.x = SomeClass(...)`` / ``self.x: T = ...`` in methods
            # teaches us instance attribute types.
            if fn.class_qualname is None:
                continue
            cls = self.classes[fn.class_qualname]
            for stmt in ast.walk(fn.node):
                target_attr = None
                ann_target = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target_attr = stmt.targets[0]
                elif isinstance(stmt, ast.AnnAssign):
                    target_attr = stmt.target
                    ann_target = stmt.annotation
                if not (isinstance(target_attr, ast.Attribute)
                        and isinstance(target_attr.value, ast.Name)
                        and target_attr.value.id == "self"):
                    continue
                attr = target_attr.attr
                if ann_target is not None:
                    resolved = self._resolve_annotation(fn.module, ann_target)
                    if resolved:
                        cls.attr_types.setdefault(attr, resolved)
                value = getattr(stmt, "value", None)
                if isinstance(value, ast.Call):
                    callee = self.qualify(fn.module, value.func)
                    if callee is not None:
                        resolved_callee = self.resolve_qualname(callee)
                        if isinstance(resolved_callee, ClassInfo):
                            cls.attr_types.setdefault(
                                attr, resolved_callee.qualname)

    def _resolve_annotation(self, module: str,
                            annotation: ast.AST | None) -> str | None:
        """Class qualname an annotation denotes, or None."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(annotation, ast.BinOp) and isinstance(
                annotation.op, ast.BitOr):  # ``T | None``
            return (self._resolve_annotation(module, annotation.left)
                    or self._resolve_annotation(module, annotation.right))
        if isinstance(annotation, ast.Subscript):  # ``Optional[T]``
            if terminal_name(annotation.value) == "Optional":
                return self._resolve_annotation(module, annotation.slice)
            return None
        dotted = self.qualify(module, annotation)
        if dotted is None:
            return None
        resolved = self.resolve_qualname(dotted)
        if isinstance(resolved, ClassInfo):
            return resolved.qualname
        return None

    # ----------------------------------------------------------- resolution
    def qualify(self, module: str, node: ast.AST) -> str | None:
        """Dotted target of a Name/Attribute chain, through import aliases.

        Does *not* consult variable types — the analysis layer overlays
        those before falling back here.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        parts.reverse()
        aliases = self.imports.get(module, {})
        head = parts[0]
        if head in aliases:
            return ".".join([aliases[head], *parts[1:]])
        # A module-local symbol (function/class defined here).
        local = f"{module}.{head}"
        if local in self.functions or local in self.classes:
            return ".".join([local, *parts[1:]])
        return None

    def resolve_qualname(self, dotted: str,
                         depth: int = 0) -> FunctionInfo | ClassInfo | None:
        """Find the function/class a dotted name lands on, if any."""
        if not dotted or depth > _MAX_RESOLVE_DEPTH:
            return None
        if dotted in self.functions:
            return self.functions[dotted]
        if dotted in self.classes:
            return self.classes[dotted]
        prefix, _, last = dotted.rpartition(".")
        if prefix in self.classes:
            method = self.lookup_method(prefix, last)
            if method is not None:
                return method
        # Re-export: walk through the longest known module prefix's aliases
        # (``repro.crypto.hmac_sha256`` -> crypto/__init__ -> crypto.mac).
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:i])
            if mod in self.imports:
                rest = parts[i:]
                target = self.imports[mod].get(rest[0])
                if target is not None:
                    return self.resolve_qualname(
                        ".".join([target, *rest[1:]]), depth + 1)
                break
        return None

    def lookup_method(self, class_qualname: str, name: str,
                      depth: int = 0) -> FunctionInfo | None:
        """Resolve a method through the class and its bases."""
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        cls = self.classes.get(class_qualname)
        if cls is None:
            return None
        if name in cls.methods:
            return self.functions[cls.methods[name]]
        for base in cls.bases:
            resolved_base = self.resolve_qualname(base)
            if isinstance(resolved_base, ClassInfo):
                found = self.lookup_method(resolved_base.qualname, name,
                                           depth + 1)
                if found is not None:
                    return found
        return None

    def attr_type(self, class_qualname: str, attr: str,
                  depth: int = 0) -> str | None:
        """Type of ``instance.attr`` through the class and its bases."""
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        cls = self.classes.get(class_qualname)
        if cls is None:
            return None
        if attr in cls.attr_types:
            return cls.attr_types[attr]
        for base in cls.bases:
            found = self.attr_type(base, attr, depth + 1)
            if found is not None:
                return found
        return None


def build_index(contexts: list[ModuleContext]) -> ProjectIndex:
    """Index every module of a run (deterministic: sorted by module)."""
    index = ProjectIndex()
    for ctx in sorted(contexts, key=lambda c: c.module):
        index.add_module(ctx)
    index.finalize()
    return index
