"""SC800–SC805 — interprocedural timing-taint flow.

This reuses the whole taint machinery (summaries, fixed point, traces,
call resolution) with a third lattice interpretation, after the
determinism pass's order taint: the ``secret`` class is re-read as
*timing taint* — "an adversary timing the remote channel learns
something about this value if it steers execution".  Three classes
flow:

- ``secret`` — the secret's *value* (keys, templates, seeds, private
  halves), seeded by name exactly like the secrecy lattice plus one
  sc-only source: reading any attribute of a secret-*typed* object
  (``self.d`` on ``RsaPrivateKey``).  Steering control flow (SC800/801),
  memory addressing (SC802) or a variable-time bigint op (SC803) on it
  is a finding.
- ``ctime`` — compare-sensitivity (the retired CD210's lattice):
  secret-bytes names and MAC/digest producer outputs.  A tag may be
  public, ``==`` on it still leaks the match prefix (SC805).
- ``sclen`` — the secret's *length*, minted by ``len()`` over secret
  taint.  Lengths may guard (``if len(a) != len(b)`` is the approved
  constant-time-equal idiom) but must not size loops or allocations
  (SC804).

Semantic twists relative to the secrecy lattice:

- A comparison's boolean *result* inherits its operands' secret
  dependence (``em[0] != 0x00`` is exactly as secret as ``em``), so
  branch tests see through compares — except ``==``/``!=`` on
  timing-classed operands, which report SC805 at the compare itself
  (the fix — ``constant_time_equal`` — lives there, not at the branch).
- ``x is None`` is declassified: identity against the None singleton
  reveals *presence* (enrollment/session state the paper treats as
  public), not key material.  Likewise membership carries only the
  needle's taint — ``in`` probes the container's keys, not its values.
- Declassifier-named functions and classes are not walked at all:
  ``constant_time_equal`` and the hash compression functions are the
  audited implementations of the discipline, not subjects of it.

Findings are funneled through the inherited ``_sink_hit`` machinery
with ``sc:``-prefixed labels, so interprocedural traces (a secret
passed into a callee that branches on it) come free from the
``FunctionSummary`` forwarding the base class already does.
"""

from __future__ import annotations

import ast

from ..config import AnalysisConfig
from ..core import ModuleContext, TraceHop, terminal_name
from ..taint.analysis import TaintAnalysis, _WalkState
from ..taint.model import (SECRECY, TIMING, FunctionSummary, SinkRecord,
                           Taint, make_source, merge)
from ..taint.symbols import FunctionInfo, ProjectIndex

__all__ = ["SidechannelAnalysis", "SCLEN"]

#: The sc-only token class carried by ``len(secret)`` results.
SCLEN = "sclen"

#: Builtins whose argument becomes an iteration/allocation size.
_SIZE_CONSUMERS = frozenset({"range", "bytes", "bytearray", "list"})

#: Builtins performing variable-time bigint arithmetic.
_BIGINT_CALLS = frozenset({"pow", "divmod"})

#: BinOp operators that are value-dependent on CPython bigints.
_BIGINT_OPS = (ast.Pow, ast.Div, ast.FloorDiv, ast.Mod)

_MESSAGES = {
    "SC800": ("secret-dependent branch: control flow forks on a value "
              "derived from {origin!r} — the taken path is observable "
              "through timing; make both paths do identical work or "
              "declassify explicitly (see trace)"),
    "SC801": ("secret-dependent loop exit/bound: the iteration count "
              "depends on {origin!r} — timing reveals it; run a fixed "
              "number of trips and select the result arithmetically "
              "(see trace)"),
    "SC802": ("secret-indexed lookup: the memory address probed depends "
              "on {origin!r} — cache timing reveals it (see trace)"),
    "SC803": ("variable-time bigint operation on secret operand "
              "{origin!r} outside the audited modpow boundary — CPython "
              "integer pow/divmod/%/// cost depends on operand values "
              "(see trace)"),
    "SC804": ("secret length {origin!r} flows into an iteration or "
              "allocation size — the trip count reveals it; pad the "
              "material to a fixed size first (see trace)"),
    "SC805": ("equality on a value derived from {origin!r} is not "
              "constant-time — bytes.__eq__ exits at the first "
              "mismatching byte; route it through "
              "crypto.constant_time_equal (see trace)"),
}

#: (sink label, token class) -> rule id.
_DISPATCH = {
    ("sc:branch", SECRECY): "SC800",
    ("sc:loop-exit", SECRECY): "SC801",
    ("sc:loop-bound", SECRECY): "SC801",
    ("sc:subscript", SECRECY): "SC802",
    ("sc:bigint", SECRECY): "SC803",
    ("sc:length", SCLEN): "SC804",
    ("sc:compare", SECRECY): "SC805",
    ("sc:compare", TIMING): "SC805",
}

_SINK_NOTES = {
    "sc:branch": "steers a branch here",
    "sc:loop-exit": "conditions a loop exit here",
    "sc:loop-bound": "bounds a loop here",
    "sc:subscript": "indexes a lookup here",
    "sc:bigint": "feeds a variable-time bigint op here",
    "sc:length": "sizes an iteration/allocation here",
    "sc:compare": "is compared with ==/!= here",
}


class _ScView:
    """The user's config re-skinned for timing-taint propagation.

    Attribute access falls through to the wrapped config; the
    name-matching methods the taint walker consults are overridden so
    that value taint seeds from the sc secret vocabulary, the sc
    declassifier list is the sanitizer set, and the SF111 boundary
    logic never runs (that is the secrecy pass's finding, not ours).
    ``is_secret_bytes_name``/``is_ctime_producer_name`` deliberately
    fall through: the CD210-heritage ``ctime`` lattice seeds unchanged.
    """

    def __init__(self, config: AnalysisConfig) -> None:
        self._config = config

    def __getattr__(self, name: str):
        return getattr(self._config, name)

    def is_taint_source_name(self, name: str) -> bool:
        return self._config.is_sc_secret_name(name)

    def is_sanitizer_name(self, name: str) -> bool:
        return self._config.is_sc_declassifier_name(name)

    def in_boundary_package(self, module: str) -> bool:
        return False  # SF111 logic is off entirely

    def is_taint_sink_name(self, name: str) -> bool:
        return False  # print/log sinks are the secrecy pass's domain


class SidechannelAnalysis(TaintAnalysis):
    """The taint walker re-targeted at secret-dependent timing."""

    def __init__(self, contexts: list[ModuleContext],
                 config: AnalysisConfig,
                 index: ProjectIndex | None = None) -> None:
        super().__init__(contexts, _ScView(config), index=index)
        self._sc_config = config
        self._loop_depth = 0

    # ------------------------------------------------------------- scoping
    def _sc_skipped(self, info: FunctionInfo) -> bool:
        cfg = self._sc_config
        if not cfg.in_sc_module(info.module):
            return True
        if cfg.is_sc_declassifier_name(info.short_name):
            return True  # the discipline's own audited implementation
        if info.class_qualname is not None:
            owner = info.class_qualname.rsplit(".", 1)[-1]
            if cfg.is_sc_declassifier_name(owner):
                return True  # e.g. every Sha256/Md5/HMAC method
        return False

    def _walk_function(self, info: FunctionInfo, report: bool) -> None:
        if self._sc_skipped(info):
            # The summary stays empty forever: callers see the function
            # as opaque, so calling it launders every argument.
            self.summaries.setdefault(
                info.qualname, FunctionSummary(qualname=info.qualname))
            return
        self._loop_depth = 0
        super()._walk_function(info, report)

    def _walk_module(self, ctx: ModuleContext, report: bool) -> None:
        if not self._sc_config.in_sc_module(ctx.module):
            return
        self._loop_depth = 0
        super()._walk_module(ctx, report)

    def _walk_scope(self, node: ast.AST, st: _WalkState) -> None:
        name = getattr(node, "name", None)  # a lambda has none
        if name is not None and self._sc_config.is_sc_declassifier_name(name):
            return  # a nested ``verify_*``/``Hmac*`` body: see _sc_skipped
        # A nested def or lambda runs when called, not inside the loop
        # that defines it.
        depth, self._loop_depth = self._loop_depth, 0
        try:
            super()._walk_scope(node, st)
        finally:
            self._loop_depth = depth

    # ------------------------------------------------------------ control flow
    def _exec(self, stmt: ast.stmt, st: _WalkState) -> None:
        if isinstance(stmt, (ast.If, ast.While)):
            test_taint = self._eval(stmt.test, st)
            is_loop = isinstance(stmt, ast.While)
            early = is_loop or (self._loop_depth > 0
                                and _exits_early(stmt))
            self._control_hit(test_taint, stmt.test, st, early=early)
            if is_loop:
                bound = self._of_class(test_taint, SCLEN)
                if bound:
                    self._sink_hit(bound, "sink", "sc:length",
                                   stmt.test, st)
                self._loop_depth += 1
            try:
                self._exec_stmts(stmt.body, st)
                self._exec_stmts(stmt.orelse, st)
            finally:
                if is_loop:
                    self._loop_depth -= 1
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_taint = self._eval(stmt.iter, st)
            # Iterating a secret container is fine (its length is usually
            # public); a *length*-classed bound is the leak.
            bound = self._of_class(iter_taint, SCLEN)
            if bound:
                self._sink_hit(bound, "sink", "sc:length", stmt.iter, st)
            self._assign(stmt.target, iter_taint, stmt.iter, st)
            self._loop_depth += 1
            try:
                self._exec_stmts(stmt.body, st)
                self._exec_stmts(stmt.orelse, st)
            finally:
                self._loop_depth -= 1
            return
        if isinstance(stmt, ast.Assert):
            test_taint = self._eval(stmt.test, st)
            self._control_hit(test_taint, stmt.test, st,
                              early=self._loop_depth > 0)
            if stmt.msg is not None:
                self._eval(stmt.msg, st)
            return
        super()._exec(stmt, st)

    def _control_hit(self, taint: Taint, anchor: ast.AST, st: _WalkState,
                     early: bool) -> None:
        """A branch test turned out tainted: SC800, or SC801 when the
        branch exits/bounds a loop.  Length taint never fires here —
        ``if len(a) != len(b)`` is the approved guard idiom."""
        relevant = {slot: tok for slot, tok in taint.items()
                    if tok.kind == "param" or tok.cls == SECRECY}
        if relevant:
            label = "sc:loop-exit" if early else "sc:branch"
            self._sink_hit(relevant, "sink", label, anchor, st)

    # ---------------------------------------------------------- expressions
    def _eval(self, node: ast.expr | None, st: _WalkState) -> Taint:
        if isinstance(node, ast.IfExp):
            test_taint = self._eval(node.test, st)
            self._control_hit(test_taint, node.test, st,
                              early=self._loop_depth > 0)
            return merge(self._eval(node.body, st),
                         self._eval(node.orelse, st))
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BIGINT_OPS):
            taint = merge(self._eval(node.left, st),
                          self._eval(node.right, st))
            operands = {slot: tok for slot, tok in taint.items()
                        if tok.kind == "param" or tok.cls == SECRECY}
            if operands:
                self._sink_hit(operands, "sink", "sc:bigint", node, st)
            return taint
        if (isinstance(node, ast.Subscript)
                and not isinstance(node.slice, (ast.Constant, ast.Slice))):
            index_taint = self._eval(node.slice, st)
            probe = {slot: tok for slot, tok in index_taint.items()
                     if tok.kind == "param" or tok.cls == SECRECY}
            if probe:
                self._sink_hit(probe, "sink", "sc:subscript", node, st)
            return self._eval(node.value, st)
        return super()._eval(node, st)

    def _eval_attribute(self, node: ast.Attribute, st: _WalkState) -> Taint:
        taint = super()._eval_attribute(node, st)
        # sc-only source: any attribute of a secret-*typed* object is
        # secret unless its own name says otherwise — ``self.d`` on
        # ``RsaPrivateKey`` seeds even though ``d`` matches no pattern.
        base_type = self._infer_type(node.value, st)
        if base_type is not None:
            owner = base_type.rsplit(".", 1)[-1]
            cfg = self._sc_config
            if (cfg.is_sc_secret_name(owner)
                    and not cfg.is_sc_declassifier_name(owner)
                    and not cfg.is_sc_public_name(node.attr)
                    and not self.config.is_declassified_name(node.attr)):
                hop = self._hop(
                    st, node,
                    f"attribute {node.attr!r} of secret-typed {owner}")
                taint = merge(taint, make_source(
                    SECRECY, f"{owner}.{node.attr}", hop))
        return taint

    def _eval_compare(self, node: ast.Compare, st: _WalkState) -> Taint:
        operands = [node.left, *node.comparators]
        taints = [self._eval(op, st) for op in operands]
        # ``x is None`` / ``x is not None``: declassified by model fiat.
        # Identity against the None singleton reveals only *presence*
        # (is a template enrolled, is a session live) — a protocol-state
        # bit the paper treats as public — never key material.
        if (all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(isinstance(op, ast.Constant) and op.value is None
                        for op in operands)):
            return {}
        merged = merge(*taints)
        if not merged:
            return {}
        if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
            # ``secret in table`` probes addresses just like ``table[secret]``
            # — but only the *needle* steers the probe sequence; a public
            # key looked up in a dict whose values hold secrets stays
            # public (membership walks keys/hashes, not values).
            probe = {slot: tok for slot, tok in taints[0].items()
                     if tok.kind == "param" or tok.cls == SECRECY}
            if probe:
                self._sink_hit(probe, "sink", "sc:subscript", node, st)
            return {slot: tok for slot, tok in taints[0].items()
                    if tok.kind == "param"
                    or tok.cls in (SECRECY, SCLEN)}
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            against_const = any(isinstance(op, ast.Constant)
                                for op in operands)
            direct = any(
                (name := terminal_name(op)) is not None
                and self._sc_config.is_secret_bytes_name(name)
                for op in operands)
            if not against_const and not direct:
                # Direct secret-bytes names stay CD202's territory; a
                # constant operand is a guard whose *result* still
                # carries the dependence (handled below).
                eq_taint = {
                    slot: tok for slot, tok in merged.items()
                    if tok.kind == "param" or tok.cls in (SECRECY, TIMING)}
                if eq_taint:
                    self._sink_hit(eq_taint, "sink", "sc:compare",
                                   node, st)
                return {}  # reported at the compare; don't re-flag the branch
        # Ordered/membership/const-guarded comparisons: the boolean
        # result inherits the operands' secret dependence, so a branch
        # on it reports SC800/SC801 where the fork actually happens.
        return {slot: tok for slot, tok in merged.items()
                if tok.kind == "param" or tok.cls in (SECRECY, SCLEN)}

    # --------------------------------------------------------------- calls
    def _eval_call(self, node: ast.Call, st: _WalkState) -> Taint:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else None
        if name == "len" and len(node.args) == 1 and not node.keywords:
            arg_taint = self._eval(node.args[0], st)
            hop = self._hop(st, node, "length taken here")
            result: Taint = {}
            for token in arg_taint.values():
                if token.kind == "source" and token.cls == SECRECY:
                    result = merge(result, make_source(
                        SCLEN, f"len({token.name})", hop))
            return result
        if name in _SIZE_CONSUMERS and node.args:
            arg_taint = merge(*(
                self._eval(a.value if isinstance(a, ast.Starred) else a, st)
                for a in node.args))
            sized = self._of_class(arg_taint, SCLEN)
            if sized:
                self._sink_hit(sized, "sink", "sc:length", node, st)
            if name == "range":
                bound = {slot: tok for slot, tok in arg_taint.items()
                         if tok.kind == "param" or tok.cls == SECRECY}
                if bound:
                    self._sink_hit(bound, "sink", "sc:loop-bound",
                                   node, st)
                return {}
            # bytes(secret_iterable) still *contains* the secret; only
            # the consumed length class stops here.
            return {slot: tok for slot, tok in arg_taint.items()
                    if tok.cls != SCLEN}
        if name in _BIGINT_CALLS and node.args:
            arg_taint = merge(*(self._eval(a, st) for a in node.args))
            operands = {slot: tok for slot, tok in arg_taint.items()
                        if tok.kind == "param" or tok.cls == SECRECY}
            if operands:
                self._sink_hit(operands, "sink", "sc:bigint", node, st)
            return arg_taint
        return super()._eval_call(node, st)

    # ----------------------------------------------------- sinks & reports
    def _of_class(self, taint: Taint, cls: str) -> Taint:
        return {slot: tok for slot, tok in taint.items()
                if tok.kind == "param" or tok.cls == cls}

    def _sink_hit(self, taint: Taint, kind: str, label: str,
                  anchor: ast.AST, st: _WalkState) -> None:
        if not label.startswith("sc:"):
            return  # base sink vocabulary (print/log/repr) is not ours
        line = getattr(anchor, "lineno", 1)
        col = getattr(anchor, "col_offset", 0)
        sink_hop = TraceHop(st.ctx.display_path, line,
                            _SINK_NOTES.get(label, f"reaches {label}"))
        for token in taint.values():
            if token.kind == "source":
                self._emit_sc(label, token, st.ctx.module, line, col,
                              token.trace + (sink_hop,), st)
            elif st.summary is not None:
                st.summary.add_param_sink(
                    token.name,
                    SinkRecord(kind=kind, label=label, module=st.ctx.module,
                               path=st.ctx.display_path, line=line, col=col,
                               source_line=st.ctx.source_line(line),
                               trace=token.trace[1:] + (sink_hop,)))

    def _forward_record(self, record: SinkRecord, taint: Taint,
                        call_hop: TraceHop, st: _WalkState) -> None:
        if not record.label.startswith("sc:"):
            return
        for token in taint.values():
            trace = token.trace + (call_hop,) + record.trace
            if token.kind == "source":
                self._emit_sc(record.label, token, record.module,
                              record.line, record.col, trace, st)
            elif st.summary is not None:
                st.summary.add_param_sink(
                    token.name,
                    SinkRecord(kind=record.kind, label=record.label,
                               module=record.module, path=record.path,
                               line=record.line, col=record.col,
                               source_line=record.source_line,
                               trace=token.trace[1:] + (call_hop,)
                               + record.trace))

    def _emit_sc(self, label: str, token, module: str, line: int, col: int,
                 trace: tuple, st: _WalkState) -> None:
        rule_id = _DISPATCH.get((label, token.cls))
        if rule_id is None:
            return
        self._emit(rule_id, module, line, col,
                   _MESSAGES[rule_id].format(origin=token.name), trace, st)

    def _emit_sf110(self, module, line, col, origin, label, trace, st):
        return  # secrecy-sink reporting belongs to the taint pass

    def _in_scope(self, module):
        return self._sc_config.in_sc_module(module)


class _EarlyExitFinder(ast.NodeVisitor):
    """Finds break/continue/return/raise without entering nested scopes."""

    def __init__(self) -> None:
        self.found = False

    def visit_Break(self, node: ast.Break) -> None:
        self.found = True

    def visit_Continue(self, node: ast.Continue) -> None:
        self.found = True

    def visit_Return(self, node: ast.Return) -> None:
        self.found = True

    def visit_Raise(self, node: ast.Raise) -> None:
        self.found = True

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # a nested def exits itself, not our loop

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _exits_early(stmt: ast.stmt) -> bool:
    """Does either arm of this If leave the enclosing loop/function?"""
    finder = _EarlyExitFinder()
    for body in (stmt.body, stmt.orelse):
        for child in body:
            finder.visit(child)
            if finder.found:
                return True
    return False
