"""Every defaulted knob under ``src/repro`` is set by some call, or a reason.

A knob is a defaulted parameter of a def or a defaulted ``__init__`` field
of a dataclass.  A call in ``src``, ``tests``, ``bench``, ``benchmarks`` or
``examples`` sets one when it passes it by keyword or by position, or
through ``dataclasses.replace``, ``functools.partial``, ``cls(...)`` in a
classmethod, ``super().__init__``, a name bound to the def (``from m
import f as g``, ``_cached = lru_cache(...)(build)``), or a ``**`` spread
that the sweep resolves: a dict literal's constant keys, a name bound to
a dict, or a ``**kwargs`` parameter that passes on what its own callers
pass (``FleetConfig(**config)``).  Calls are matched by name, as
``tests/test_callers.py`` matches them, so a knob that another call of the
same name passes counts as set.  A key of ``repro.analysis.config``'s
``_OVERRIDES`` table sets the ``AnalysisConfig`` field it maps to: that is
how a ``[tool.trust-lint]`` table in ``pyproject.toml`` reaches the field.

Every knob that no call sets sits in DESIGN.md's "Kept settable" table
with a reason, and every entry there names a knob that no call sets.
"""

import ast
import functools
from dataclasses import dataclass

from .test_callers import BLOCKS, ROOT, _module, _parse, _table

SETTER_DIRS = ("src", "tests", "bench", "benchmarks", "examples")
SWEPT = ROOT / "src" / "repro"
TABLE_HEADING = "### Kept settable"
#: The module whose ``_OVERRIDES`` table maps ``[tool.trust-lint]`` keys
#: to ``AnalysisConfig`` fields: sub-table -> key -> (field, conversion).
OVERRIDES_MODULE = SWEPT / "analysis" / "config.py"
#: Names ``dataclasses.replace`` is called by.
REPLACERS = {"replace", "dataclass_replace"}


@dataclass
class Target:
    """What a call of one name can set: a def, or a class's constructor."""

    #: Parameters a call fills by position, a bound ``self`` left out.
    positional: list[str]
    #: Defaulted parameter -> knob key (``module:Qual(name)``).
    knobs: dict[str, str]


def _trees():
    return {path: _parse(path) for directory in SETTER_DIRS
            for path in sorted((ROOT / directory).rglob("*.py"))}


def _swept(path):
    return SWEPT in path.parents


def _overridden(trees):
    """The ``AnalysisConfig`` knobs an ``_OVERRIDES`` key sets."""
    module = _module(OVERRIDES_MODULE)
    for node in trees[OVERRIDES_MODULE].body:
        if isinstance(node, ast.AnnAssign) \
                and getattr(node.target, "id", None) == "_OVERRIDES":
            return {f"{module}:AnalysisConfig({entry.elts[0].value})"
                    for table in node.value.values
                    for entry in table.values}
    return set()


def _last_name(node):
    """``b`` for ``a.b`` and for ``b``; ``None`` for anything else."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) \
        else getattr(node, "id", None)


def _def_target(qual, node, bound):
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    if bound:
        positional = positional[1:]
    defaulted += [a.arg for a, default in zip(args.kwonlyargs,
                                              args.kw_defaults)
                  if default is not None]
    return Target(positional, {name: f"{qual}({name})"
                               for name in defaulted})


def _fields(klass):
    """``[(name, defaulted)]`` for a dataclass body's ``__init__`` fields."""
    fields = []
    for stmt in klass.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)) \
                or "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _last_name(value) == "field":
            options = {k.arg: k.value for k in value.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
            defaulted = "default" in options or "default_factory" in options
        else:
            defaulted = value is not None
        fields.append((stmt.target.id, defaulted))
    return fields


def _index(trees):
    """``(by_name, by_def, dataclasses)``: call name -> targets, def node
    -> its target, and each dataclass's target."""
    by_name, by_def, classes = {}, {}, {}

    def walk(node, module, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                static = "staticmethod" in map(_last_name,
                                               child.decorator_list)
                target = _def_target(f"{module}:{qual}", child,
                                     in_class and not static)
                by_def[child] = target
                if not (in_class and child.name == "__init__"):
                    by_name.setdefault(child.name, []).append(target)
                walk(child, module, qual + ".<locals>.", False)
            elif isinstance(child, ast.ClassDef):
                classes[f"{module}:{prefix}{child.name}"] = child
                walk(child, module, prefix + child.name + ".", True)
            elif isinstance(child, BLOCKS):
                walk(child, module, prefix, in_class)

    for path, tree in trees.items():
        if _swept(path):
            walk(tree, _module(path), "", False)

    quals = {}
    for qual, klass in classes.items():
        quals.setdefault(klass.name, []).append(qual)

    @functools.lru_cache(maxsize=None)
    def constructor(qual):
        """A class's constructor: its own ``__init__``, a dataclass's
        generated one (base fields first), or a project base's."""
        klass = classes[qual]
        init = next((s for s in klass.body
                     if isinstance(s, ast.FunctionDef)
                     and s.name == "__init__"), None)
        if init is not None:
            own = by_def[init]
            own.knobs = {k: f"{qual}({k})" for k in own.knobs}
            return own
        bases = [constructor(base) for name in map(_last_name, klass.bases)
                 for base in quals.get(name, ())]
        if "dataclass" not in map(_last_name, klass.decorator_list):
            return bases[0] if bases else Target([], {})
        target = Target([], {})
        for base in bases:
            target.positional += base.positional
            target.knobs.update(base.knobs)
        for field, defaulted in _fields(klass):
            target.positional.append(field)
            if defaulted:
                target.knobs[field] = f"{qual}({field})"
        return target

    dataclasses = []
    for qual, klass in classes.items():
        target = constructor(qual)
        by_name.setdefault(klass.name, []).append(target)
        if "dataclass" in map(_last_name, klass.decorator_list):
            dataclasses.append(target)
    return by_name, by_def, dataclasses


def _aliases(trees, by_name):
    """Names bound to a def: ``import f as g``, ``g = f`` and
    ``g = wrap(...)(f)``."""
    aliases = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.asname and alias.name in by_name:
                        aliases.setdefault(alias.asname, set()).add(
                            alias.name)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                value = node.value
                wrapped = value.args if isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Call) else [value]
                for arg in wrapped:
                    if isinstance(arg, ast.Name) and arg.id in by_name:
                        aliases.setdefault(node.targets[0].id, set()).add(
                            arg.id)
    return aliases


def _dict_keys(tree):
    """``name -> keys`` for names a module binds to dict literals or
    ``dict(...)`` calls, plus the constant keys it stores under them."""
    keys = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            value = node.value
            if isinstance(value, ast.Dict):
                found = {k.value for k in value.keys
                         if isinstance(k, ast.Constant)}
            elif isinstance(value, ast.Call) and _last_name(value) == "dict":
                found = {k.arg for k in value.keywords if k.arg}
            else:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    keys.setdefault(target.id, set()).update(found)
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) \
                and isinstance(node.slice, ast.Constant):
            keys.setdefault(node.value.id, set()).add(node.slice.value)
    return keys


@functools.lru_cache(maxsize=None)
def sweep():
    """``(knobs, unset, unresolved)``: every knob key, the ones no call
    sets, and the ``**`` spreads the sweep could not resolve."""
    trees = _trees()
    by_name, by_def, dataclasses = _index(trees)
    aliases = _aliases(trees, by_name)
    knobs = {key for targets in by_name.values() for t in targets
             for key in t.knobs.values()}
    is_set, passed, forwards, unresolved = _overridden(trees), {}, [], []

    def mark(target, names):
        passed.setdefault(id(target), set()).update(names)
        is_set.update(target.knobs[n] for n in names if n in target.knobs)

    for path, tree in trees.items():
        dict_keys = _dict_keys(tree)
        scope_of = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                scope_of[child] = node if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)) else scope_of.get(node)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if _last_name(func) == "partial" and args:
                func, args = args[0], args[1:]
            name = _last_name(func)
            names = {name} | aliases.get(name, set()) \
                if isinstance(func, ast.Name) else {name}
            if name == "cls":  # a classmethod constructing its class
                names = {getattr(scope_of.get(scope_of.get(node)), "name",
                                 None)}
            targets = [t for n in names for t in by_name.get(n, ())]
            if name == "__init__" and isinstance(func, ast.Attribute) \
                    and _last_name(func.value) == "super":
                klass = scope_of.get(scope_of.get(node))
                targets = [t for base in getattr(klass, "bases", ())
                           for t in by_name.get(_last_name(base), ())]
            if names & REPLACERS:
                # ``dataclasses.replace`` sets fields by keyword only.
                targets, args = dataclasses, []
            if not targets:
                continue
            keywords = {k.arg for k in node.keywords if k.arg}
            forwarder = None
            for spread in (k.value for k in node.keywords if k.arg is None):
                scope = scope_of.get(node)
                kwarg = getattr(getattr(scope, "args", None), "kwarg", None)
                if isinstance(spread, ast.Dict):
                    keywords |= {k.value for k in spread.keys
                                 if isinstance(k, ast.Constant)}
                elif kwarg is not None and _last_name(spread) == kwarg.arg:
                    forwarder = scope
                elif _last_name(spread) in dict_keys:
                    keywords |= dict_keys[_last_name(spread)]
                else:
                    unresolved.append(
                        f"{path.relative_to(ROOT)}:{node.lineno}")
            starred = any(isinstance(a, ast.Starred) for a in args)
            for target in targets:
                count = len(target.positional) if starred else len(args)
                mark(target, set(target.positional[:count]) | keywords)
            if forwarder in by_def:
                named = {a.arg for a in forwarder.args.posonlyargs
                         + forwarder.args.args + forwarder.args.kwonlyargs}
                forwards.append((by_def[forwarder], named, targets))

    # What a ``**kwargs`` forwarder's callers pass beyond its named
    # parameters reaches every callee it spreads them into.
    while True:
        before = len(is_set), sum(map(len, passed.values()))
        for forwarder, named, targets in forwards:
            for target in targets:
                mark(target, passed.get(id(forwarder), set()) - named)
        if (len(is_set), sum(map(len, passed.values()))) == before:
            break
    return knobs, sorted(knobs - is_set), sorted(unresolved)


def _kept():
    """``{knob: reason}`` from DESIGN.md's "Kept settable" table."""
    return _table(TABLE_HEADING, r"`([\w.]+:[\w.<>]+\(\w+\))`")


def test_every_unset_knob_is_kept_with_a_reason():
    _, unset, _ = sweep()
    reasoned = {knob for knob, reason in _kept().items() if reason}
    missing = sorted(set(unset) - reasoned)
    assert not missing, (
        "no call sets these defaulted knobs: make each a constant, or add "
        f"it to DESIGN.md's {TABLE_HEADING!r} table with a reason: "
        f"{missing}")


def test_no_stale_entries():
    _, unset, _ = sweep()
    stale = sorted(set(_kept()) - set(unset))
    assert not stale, (
        f"{TABLE_HEADING!r} entries that name no unset knob (it is gone, "
        f"or a call sets it now): {stale}")


def test_every_spread_resolves():
    _, _, unresolved = sweep()
    assert not unresolved, (
        "``**`` spreads the sweep cannot resolve into keywords, so it "
        f"cannot tell which knobs they set: {unresolved}")
