"""Spans around calls into repro's public callables, recorded from outside.

A :class:`Tracer` takes one span per probed call: its layer, its parent
span and the operation it belongs to.  Operations are the calls a user
would time (a protocol client call, a gesture, a scan); a probe marked
with an ``op`` kind opens one.  Self time (a span's duration minus the
time its child spans cover) is summed per layer for every span, while full
span records are kept only for the first ``keep_ops`` operations of each
kind.  An ``idle`` callback runs between operations, outside every span.

:class:`Probes` installs the wrappers and takes them out again.  A method
is wrapped on its class; a module-level function is rebound at every
binding in the loaded ``repro.*`` modules, so ``from x import f`` callers
are probed too.  Probes never change arguments or results, which is what
lets a traced run reproduce an untraced one byte for byte.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from typing import Callable

__all__ = ["SPAN_FIELDS", "Probe", "Probes", "Tracer", "public_methods",
           "resolve"]

#: Field order of a kept span record.
SPAN_FIELDS = ("id", "name", "layer", "start", "end", "parent", "op")


class Tracer:
    """Self-time accounting, operation timings and bounded span retention."""

    def __init__(self, keep_ops: int = 200,
                 clock: Callable[[], float] = time.perf_counter,
                 idle: Callable[[], None] | None = None) -> None:
        self.keep_ops = keep_ops
        self.clock = clock
        #: Called after an operation closes with no span open around it.
        self.idle = idle
        #: ``(layer, name) -> calls``.
        self.calls: Counter = Counter()
        #: ``layer -> self seconds``.
        self.self_s: dict[str, float] = defaultdict(float)
        #: Seconds inside root spans; equals the sum of all self times.
        self.covered_s = 0.0
        #: ``(op kind, label) -> count`` from the probes' tally functions.
        self.tallies: Counter = Counter()
        #: Finished operations as ``(kind, start, end, outcome)``.
        self.ops: list[tuple[str, float, float, str]] = []
        #: Kept span records, fields as in :data:`SPAN_FIELDS`.
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._op: tuple[int | None, str | None, bool] = (None, None, False)
        self._next_span = 0
        self._next_op = 0
        self._opened: Counter = Counter()

    def enter(self, layer: str, name: str, op: str | None = None) -> list:
        """Open a span; returns the frame :meth:`exit` closes."""
        span_id = self._next_span
        self._next_span += 1
        stack = self._stack
        parent = stack[-1][2] if stack else None
        outer = self._op
        if op is not None:
            self._next_op += 1
            self._op = (self._next_op, op, self._opened[op] < self.keep_ops)
            self._opened[op] += 1
        # layer, name, id, parent id, enclosing op, op kind, child s, start
        frame = [layer, name, span_id, parent, outer, op, 0.0, 0.0]
        stack.append(frame)
        frame[7] = self.clock()
        return frame

    def exit(self, frame: list, outcome: str | None = None,
             labels=()) -> None:
        """Close the innermost span (``frame``) and account for it."""
        end = self.clock()
        layer, name, span_id, parent, outer, op, child_s, start = frame
        stack = self._stack
        stack.pop()
        duration = end - start
        self.calls[(layer, name)] += 1
        self.self_s[layer] += duration - child_s
        if stack:
            stack[-1][6] += duration
        else:
            self.covered_s += duration
        op_id, kind, keep = self._op
        if keep:
            self.spans.append((span_id, name, layer, start, end, parent,
                               op_id))
        for label in labels:
            self.tallies[(kind, label)] += 1
        if op is not None:
            self.ops.append((op, start, end, outcome or "error"))
            self._op = outer
            if not stack and self.idle is not None:
                self.idle()

    def layer_calls(self) -> Counter:
        """``layer -> calls`` summed over the layer's callables."""
        totals: Counter = Counter()
        for (layer, _), count in self.calls.items():
            totals[layer] += count
        return totals


@dataclass(frozen=True)
class Probe:
    """How calls to one callable are recorded.

    ``layer`` names the span's layer, or computes it from the call's
    positional arguments.  ``op`` marks the call as an operation of that
    kind, whose outcome label ``outcome(result)`` gives.  ``tally(result)``
    yields labels counted per enclosing operation kind.  ``callback`` names
    an argument holding a callable: instead of the call itself, each
    callable passed there is probed when it later runs.
    """

    layer: str | Callable[[tuple], str]
    op: str | None = None
    outcome: Callable[[object], str] | None = None
    tally: Callable[[object], tuple] | None = None
    callback: str | None = None


def resolve(spec: str) -> tuple[object, str]:
    """``"pkg.module:Class.attr"`` -> (owner, attribute name).

    Raises ``LookupError`` when the module, class or attribute is gone.
    """
    module_name, _, qualname = spec.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{spec}: {exc}") from exc
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{spec}: no {part!r}")
    if attr != "*" and not _lookup(owner, attr):
        raise LookupError(f"{spec}: no attribute {attr!r}")
    return owner, attr


def _lookup(owner: object, attr: str) -> bool:
    if isinstance(owner, type):
        return any(attr in klass.__dict__ for klass in owner.__mro__)
    return attr in vars(owner)


def public_methods(cls: type) -> list[str]:
    """Plain, static and class methods defined on ``cls`` itself."""
    return [name for name, raw in cls.__dict__.items()
            if not name.startswith("_")
            and (inspect.isfunction(raw)
                 or isinstance(raw, (staticmethod, classmethod)))]


class Probes:
    """Installs :class:`Probe` wrappers for one tracer; undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._class_undo: list[tuple[type, str, object]] = []
        #: wrapper -> original, for every rebound module-level function.
        self._functions: dict[int, tuple[object, object]] = {}

    # ------------------------------------------------------------ install
    def add(self, owner: object, attr: str, probe: Probe) -> None:
        """Probe ``owner.attr`` (``attr == "*"``: every public method)."""
        if attr == "*":
            for name in public_methods(owner):
                self.add(owner, name, probe)
        elif isinstance(owner, type):
            self._add_method(owner, attr, probe)
        else:
            self._add_function(getattr(owner, attr), probe)

    def _add_method(self, cls: type, attr: str, probe: Probe) -> None:
        raw = next(klass.__dict__[attr] for klass in cls.__mro__
                   if attr in klass.__dict__)
        if _is_probe(getattr(raw, "__func__", raw)):
            return  # reached through two table entries: probe once
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, name, probe))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name, probe))
        elif inspect.isfunction(raw):
            wrapped = self._wrap(raw, name, probe)
        else:
            raise LookupError(f"{name} is not a method")
        self._class_undo.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, wrapped)

    def _add_function(self, fn, probe: Probe) -> None:
        if _is_probe(fn):
            return
        wrapper = self._wrap(fn, getattr(fn, "__name__", repr(fn)), probe)
        self._functions[id(wrapper)] = (fn, wrapper)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, wrapper)

    def _wrap(self, fn, name: str, probe: Probe):
        if probe.callback is not None:
            return self._wrap_callback(fn, name, probe)
        tracer = self.tracer
        layer, op, outcome, tally = (probe.layer, probe.op, probe.outcome,
                                     probe.tally)
        split = layer if callable(layer) else None

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            frame = tracer.enter(split(args) if split else layer, name, op)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(frame)  # an op that raised has outcome "error"
                raise
            tracer.exit(frame, outcome(result) if outcome else None,
                        tally(result) if tally else ())
            return result
        probed._bench_probe = True
        return probed

    def _wrap_callback(self, fn, name: str, probe: Probe):
        signature = inspect.signature(fn)
        inner = replace(probe, callback=None)

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            action = bound.arguments[probe.callback]
            bound.arguments[probe.callback] = self._wrap(
                action, f"{name}.{probe.callback}", inner)
            return fn(*bound.args, **bound.kwargs)
        probed._bench_probe = True
        return probed

    # ------------------------------------------------------------- remove
    def remove(self) -> None:
        """Restore every class attribute and module binding probed."""
        for cls, attr, raw in reversed(self._class_undo):
            if raw is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, raw)
        self._class_undo.clear()
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                entry = self._functions.get(id(value))
                if entry is not None and entry[1] is value:
                    setattr(module, name, entry[0])
        self._functions.clear()


def _is_probe(fn) -> bool:
    return getattr(fn, "_bench_probe", False)


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]
