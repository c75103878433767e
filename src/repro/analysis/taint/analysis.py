"""Fixed-point interprocedural taint propagation + SF110/SF111.

The analysis runs in two phases over the :class:`ProjectIndex`:

1. **Summary phase** — every function is walked once, then a worklist
   re-walks only the functions whose inputs moved: callers of a
   function whose summary grew, and readers of a class-attribute slot
   that picked up new taint.  Walking a function propagates taint
   through its statements (aliasing, tuple unpacking, container
   insertion, f-strings, attribute stores) and, at call sites,
   *applies* the callee's current summary: argument taint flows into
   the callee's recorded sinks, stores and return value.  Summaries
   only ever grow (monotone accumulation over a finite token
   universe), so the fixed point terminates — and skipping a function
   whose callee summaries and read slots are unchanged is sound
   because a re-walk with identical inputs cannot add anything.
2. **Report phase** — one more walk with stable summaries, now emitting
   findings.  Each finding carries the full source-to-sink trace,
   assembled from the source token's hops, the call-site hop, and the
   hops recorded inside callee summaries.

Seeding follows the repo's name-based philosophy (the same one CD202
uses): loading an identifier whose name matches the secret patterns
*is* a source, wherever it happens.  Two taint classes flow:

- ``secret`` — confidentiality (SF110: reaches an observable sink in
  untrusted code, whether by its own name or through any chain of
  aliases, containers, f-strings and calls; SF111: materialises in an
  untrusted frame straight from a trusted-layer call without an
  approved wrapper);
- ``ctime`` — timing sensitivity, seeded from key-material names and
  MAC/digest producers.  This pass only *propagates* it; the reporting
  moved to the side-channel stage (SC805, which retired the old local
  CD210 rule) so subclasses reinterpret one shared lattice.

Sanitizers (HMAC, hashes, ciphertext, signatures, ``len``...) stop
``secret`` taint; MAC/digest producers *start* ``ctime`` taint even
though they launder secrecy — a tag may be public, comparing it with
``==`` still leaks through timing.

The index models top-level functions and the methods of top-level
classes; every other scope (a nested def, a lambda, a class body and
the methods defined in it) is walked where it appears, for its sinks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..config import AnalysisConfig
from ..core import (Finding, ModuleContext, TraceHop, get_rule,
                    terminal_name)
from .model import (SECRECY, TIMING, FunctionSummary, SinkRecord, Taint,
                    Token, make_source, merge, source_tokens, with_hop)
from .symbols import ClassInfo, FunctionInfo, ProjectIndex, build_index

__all__ = ["TaintAnalysis", "run_taint"]

_MAX_ITERATIONS = 12
#: ``FunctionSummary.shape()`` of a summary nothing has flowed into yet.
_EMPTY_SHAPE = ((), (), (), (), ())
#: Container-mutating methods: ``x.append(secret)`` taints ``x``.
_MUTATORS = frozenset({
    "append", "add", "insert", "extend", "update", "setdefault",
    "appendleft", "push", "write",
})
#: The built-in observable sinks: logging calls (``<base>.<method>()``)
#: and the returns of the string-conversion dunders.
_LOG_METHODS = frozenset({
    "debug", "info", "warning", "warn", "error", "exception", "critical",
    "log",
})
_LOG_BASES = frozenset({"logging", "logger", "log", "_logger", "_log"})
_REPR_METHODS = frozenset({"__repr__", "__str__", "__format__"})
#: ``try`` statements: ``except*`` (``ast.TryStar``) arrived in 3.11.
_TRY_NODES = (ast.Try, getattr(ast, "TryStar", ast.Try))


@dataclass
class _WalkState:
    """Mutable cursor for one walk of a function, module or nested scope."""

    ctx: ModuleContext
    #: Calls and attribute reads are recorded under this name: the
    #: function's, ``<module>``'s, or that of the walk a scope sits in.
    qualname: str
    fn: FunctionInfo | None  # None for module-level code and nested scopes
    summary: FunctionSummary | None  # None likewise: nothing to summarise
    report: bool
    #: The def whose returns this walk sees (a ``__repr__``'s are a sink).
    def_name: str | None = None
    env: dict = field(default_factory=dict)  # var name -> Taint
    var_types: dict = field(default_factory=dict)  # var -> class qualname
    sanitizer_depth: int = field(init=False, default=0)
    in_raise: bool = field(init=False, default=False)


class TaintAnalysis:
    """One project-wide taint run over a list of module contexts."""

    def __init__(self, contexts: list[ModuleContext],
                 config: AnalysisConfig,
                 index: ProjectIndex | None = None) -> None:
        self.config = config
        #: The symbol table is shareable: the determinism pass reuses
        #: the one it builds rather than re-indexing every module.
        self.index: ProjectIndex = (index if index is not None
                                    else build_index(contexts))
        self.summaries: dict[str, FunctionSummary] = {}
        #: (class qualname, attr name) -> Taint stored there.
        self.attr_taint: dict[tuple[str, str], Taint] = {}
        #: caller qualname -> callee qualnames (for ``repro-lint graph``).
        self.call_edges: dict[str, set[str]] = {}
        #: attr slot -> function qualnames that read it (worklist deps).
        self.attr_readers: dict[tuple[str, str], set[str]] = {}
        self.findings: list[Finding] = []
        self._emitted: set[tuple] = set()
        #: name -> (seeds secrecy, seeds timing); the same identifiers
        #: recur thousands of times per walk, the config match is not free.
        self._name_seed_cache: dict[str, tuple[bool, bool]] = {}
        #: Def nodes the index walks on their own; any other def is a
        #: nested scope of whatever body it appears in.
        self._indexed_defs = {info.node
                              for info in self.index.functions.values()}

    # ------------------------------------------------------------- driving
    def run(self) -> list[Finding]:
        order = sorted(self.index.functions)
        modules = sorted(self.index.modules)
        pending = set(order)
        for _ in range(_MAX_ITERATIONS):
            if not pending:
                break
            # Attr-slot keys only ever grow (merge is first-token-wins
            # per key), so the key set is the whole change signal.
            attr_before = {slot: frozenset(taint)
                           for slot, taint in self.attr_taint.items()}
            grown: set[str] = set()
            for qualname in order:
                if qualname not in pending:
                    continue
                before = (self.summaries[qualname].shape()
                          if qualname in self.summaries else _EMPTY_SHAPE)
                self._walk_function(self.index.functions[qualname],
                                    report=False)
                if self.summaries[qualname].shape() != before:
                    grown.add(qualname)
            # Module bodies are small (indexed defs are skipped, class
            # bodies are mostly field declarations): re-walking them every
            # round is cheaper than tracking deps.
            for module in modules:
                self._walk_module(self.index.modules[module], report=False)
            # Comparing slot-key sets, not byte-string key material.
            grown_slots = [
                slot for slot, taint in self.attr_taint.items()
                if frozenset(taint) != attr_before.get(slot, frozenset())]
            callers: dict[str, set[str]] = {}
            for caller, callees in self.call_edges.items():
                for callee in callees:
                    callers.setdefault(callee, set()).add(caller)
            pending = set()
            for qualname in grown:
                pending.add(qualname)  # recursion feeds its own summary
                pending.update(callers.get(qualname, ()))
            for slot in grown_slots:
                pending.update(self.attr_readers.get(slot, ()))
            # Module-level callers carry a ``<module>`` qualname; their
            # bodies are re-walked unconditionally above.
            pending &= self.index.functions.keys()
        # At the fixed point a walk adds no state, only findings, so code
        # whose findings this pass drops is walked only if it can report
        # elsewhere.  Short of it, every walk may still feed a later one.
        converged = not pending
        for qualname in order:
            info = self.index.functions[qualname]
            if not converged or self._reports_from(qualname, info.module):
                self._walk_function(info, report=True)
        for module in modules:
            if (not converged
                    or self._reports_from(f"{module}.<module>", module)):
                self._walk_module(self.index.modules[module], report=True)
        self.findings.sort(
            key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
        return self.findings

    def _walk_function(self, info: FunctionInfo, report: bool) -> None:
        summary = self.summaries.setdefault(
            info.qualname, FunctionSummary(qualname=info.qualname))
        st = _WalkState(ctx=info.ctx, qualname=info.qualname, fn=info,
                        summary=summary, report=report,
                        def_name=info.short_name)
        st.var_types.update(info.param_types)
        self._seed_params(info, st)
        # Two passes per walk so taint reaching a name late in the body
        # still flows through earlier loop iterations.
        for _ in range(2):
            self._exec_stmts(info.node.body, st)

    def _walk_module(self, ctx: ModuleContext, report: bool) -> None:
        st = _WalkState(ctx=ctx, qualname=f"{ctx.module}.<module>", fn=None,
                        summary=None, report=report)
        for _ in range(2):
            self._exec_stmts(ctx.tree.body, st)

    def _eval_header(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                     | ast.ClassDef | ast.Lambda, st: _WalkState) -> None:
        """What a def, class or lambda evaluates where it is defined:
        its decorators, argument defaults, bases and class keywords."""
        if isinstance(node, ast.ClassDef):
            header = [*node.bases, *(kw.value for kw in node.keywords)]
        else:
            header = [*node.args.defaults, *node.args.kw_defaults]
        for expr in (*getattr(node, "decorator_list", ()), *header):
            self._eval(expr, st)

    def _walk_scope(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                    | ast.ClassDef | ast.Lambda, st: _WalkState) -> None:
        """Walk a scope the index does not model, for its sinks.

        The scope reads a copy of the enclosing names, its own
        parameters seed by name, and nothing it binds flows back out.
        """
        inner = _WalkState(ctx=st.ctx, qualname=st.qualname, fn=None,
                           summary=None, report=st.report,
                           env=dict(st.env), var_types=dict(st.var_types))
        if st.fn is not None and st.fn.class_qualname is not None:
            # A closure in a method reads the method's self and cls.
            inner.var_types.update(dict.fromkeys(("self", "cls"),
                                                 st.fn.class_qualname))
        if isinstance(node, ast.ClassDef):
            self._exec_stmts(node.body, inner)
            return
        args = node.args
        hop = self._hop(st, node, "parameter of a nested scope")
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                    args.vararg, args.kwarg):
            if arg is not None:
                inner.env[arg.arg] = self._name_sources(arg.arg, hop)
                inner.var_types.pop(arg.arg, None)
        if isinstance(node, ast.Lambda):
            self._eval(node.body, inner)
            return
        inner.def_name = node.name
        for _ in range(2):
            self._exec_stmts(node.body, inner)

    def _seed_params(self, info: FunctionInfo, st: _WalkState) -> None:
        args = info.node.args
        extra = [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        entry = TraceHop(st.ctx.display_path, info.node.lineno,
                         f"parameter of {info.short_name}()")
        for param in (*info.all_params, *extra):
            token = Token(cls="any", kind="param", name=param, trace=(entry,))
            taint: Taint = {token.slot: token}
            if param not in ("self", "cls"):
                taint = merge(taint, self._name_sources(param, entry))
            st.env[param] = taint

    def _name_seed(self, name: str) -> tuple[bool, bool]:
        """Cached ``(seeds secrecy, seeds timing)`` for an identifier."""
        cached = self._name_seed_cache.get(name)
        if cached is None:
            cached = (self.config.is_taint_source_name(name),
                      self.config.is_secret_bytes_name(name))
            self._name_seed_cache[name] = cached
        return cached

    def _name_sources(self, name: str, hop: TraceHop) -> Taint:
        """Name-based seeding: secret and/or timing-sensitive identifiers."""
        is_secret, is_bytes = self._name_seed(name)
        taint: Taint = {}
        if is_secret:
            taint = merge(taint, make_source(SECRECY, name, hop))
        if is_bytes:
            taint = merge(taint, make_source(TIMING, name, hop))
        return taint

    # ----------------------------------------------------------- statements
    def _exec_stmts(self, stmts: list[ast.stmt], st: _WalkState) -> None:
        for stmt in stmts:
            self._exec(stmt, st)

    def _exec(self, stmt: ast.stmt, st: _WalkState) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self._eval(stmt.value, st)
            for target in stmt.targets:
                self._assign(target, taint, stmt.value, st)
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                resolved = self.index._resolve_annotation(
                    st.ctx.module, stmt.annotation)
                if resolved:
                    st.var_types[stmt.target.id] = resolved
            if stmt.value is not None:
                taint = self._eval(stmt.value, st)
                self._assign(stmt.target, taint, stmt.value, st)
        elif isinstance(stmt, ast.AugAssign):
            taint = self._eval(stmt.value, st)
            if isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                st.env[name] = merge(st.env.get(name, {}), taint)
            else:
                self._store_into(stmt.target, taint, stmt, st)
        elif isinstance(stmt, ast.Return):
            self._exec_return(stmt, st)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, st)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test, st)
            self._exec_stmts(stmt.body, st)
            self._exec_stmts(stmt.orelse, st)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_taint = self._eval(stmt.iter, st)
            self._assign(stmt.target, iter_taint, stmt.iter, st)
            self._exec_stmts(stmt.body, st)
            self._exec_stmts(stmt.orelse, st)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._eval(item.context_expr, st)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taint,
                                 item.context_expr, st)
            self._exec_stmts(stmt.body, st)
        elif isinstance(stmt, _TRY_NODES):
            self._exec_stmts(stmt.body, st)
            for handler in stmt.handlers:
                if handler.name:
                    st.env[handler.name] = {}
                self._exec_stmts(handler.body, st)
            self._exec_stmts(stmt.orelse, st)
            self._exec_stmts(stmt.finalbody, st)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                st.in_raise = True
                try:
                    self._eval(stmt.exc, st)
                finally:
                    st.in_raise = False
            if stmt.cause is not None:
                self._eval(stmt.cause, st)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, st)
            if stmt.msg is not None:
                self._eval(stmt.msg, st)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    st.env.pop(target.id, None)
        elif isinstance(stmt, ast.Match):
            self._eval(stmt.subject, st)
            for case in stmt.cases:
                self._eval(case.guard, st)
                self._exec_stmts(case.body, st)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            self._eval_header(stmt, st)
            if stmt not in self._indexed_defs:
                self._walk_scope(stmt, st)

    def _exec_return(self, stmt: ast.Return, st: _WalkState) -> None:
        taint = self._eval(stmt.value, st) if stmt.value is not None else {}
        if st.summary is not None and taint:
            ret_hop = self._hop(st, stmt, f"returned from {st.def_name}()")
            for token in taint.values():
                if token.kind == "source":
                    if token.local:
                        continue  # producer taint does not cross returns
                    hopped = with_hop({token.slot: token}, ret_hop)
                    st.summary.returns.setdefault(
                        token.slot, hopped[token.slot])
                else:
                    st.summary.param_returns.add(token.name)
        if st.def_name in _REPR_METHODS and taint:
            self._sink_hit(taint, "sink", f"{st.def_name}() return value",
                           stmt, st)

    # ---------------------------------------------------------- assignment
    def _assign(self, target: ast.expr, taint: Taint,
                value_node: ast.expr | None, st: _WalkState) -> None:
        if isinstance(target, ast.Name):
            if taint and not self.config.is_declassified_name(target.id):
                hop = self._hop(st, target, f"assigned to {target.id!r}")
                st.env[target.id] = with_hop(taint, hop)
            else:
                st.env[target.id] = {}  # strong update: clean kills taint
            inferred = self._infer_type(value_node, st) if value_node else None
            if inferred:
                st.var_types[target.id] = inferred
            elif target.id in st.var_types:
                del st.var_types[target.id]
        elif isinstance(target, (ast.Tuple, ast.List)):
            elements = target.elts
            if (isinstance(value_node, (ast.Tuple, ast.List))
                    and len(value_node.elts) == len(elements)):
                for sub_target, sub_value in zip(elements, value_node.elts):
                    self._assign(sub_target, self._eval(sub_value, st),
                                 sub_value, st)
            else:
                for sub_target in elements:
                    inner = sub_target.value if isinstance(
                        sub_target, ast.Starred) else sub_target
                    self._assign(inner, taint, None, st)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taint, None, st)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._store_into(target, taint, target, st)

    def _store_into(self, target: ast.expr, taint: Taint, anchor: ast.AST,
                    st: _WalkState) -> None:
        """Taint flowing into an attribute/subscript/mutated container."""
        if not taint:
            return
        if isinstance(target, ast.Subscript):
            sl = target.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                if self.config.is_declassified_name(sl.value):
                    return
                base = target.value
                if isinstance(base, ast.Attribute):
                    base_type = self._infer_type(base.value, st)
                    if base_type is not None:
                        hop = self._hop(st, anchor,
                                        f"stored into field {sl.value!r}")
                        self._taint_attr(base_type,
                                         f"{base.attr}[{sl.value}]",
                                         with_hop(taint, hop))
                        return
            self._store_into(target.value, taint, anchor, st)
            return
        if isinstance(target, ast.Name):
            name = target.id
            hop = self._hop(st, anchor, f"stored into {name!r}")
            st.env[name] = merge(st.env.get(name, {}), with_hop(taint, hop))
            if st.summary is not None and st.fn is not None:
                if name in st.fn.all_params or name in ("self", "cls"):
                    for token in taint.values():
                        if token.kind == "param":
                            st.summary.param_stores.setdefault(
                                token.name, set()).add(name)
            return
        if isinstance(target, ast.Attribute):
            attr = target.attr
            base = target.value
            base_type = self._infer_type(base, st)
            if base_type is not None:
                hop = self._hop(st, anchor,
                                f"stored into attribute {attr!r}")
                self._taint_attr(base_type, attr, with_hop(taint, hop))
            if (isinstance(base, ast.Name) and base.id == "self"
                    and st.summary is not None):
                for token in taint.values():
                    if token.kind == "param":
                        st.summary.param_self_attrs.setdefault(
                            token.name, set()).add(attr)
            if isinstance(base, ast.Name):
                hop = self._hop(st, anchor, f"stored into {base.id!r}.{attr}")
                st.env[base.id] = merge(st.env.get(base.id, {}),
                                        with_hop(taint, hop))

    def _taint_attr(self, class_qualname: str, attr: str,
                    taint: Taint) -> None:
        if self.config.is_declassified_name(attr):
            return  # storing into a public-named field declassifies
        if self.config.is_declassified_name(class_qualname.rsplit(".", 1)[-1]):
            return  # ...so does storing into a Public-named class
        taint = {slot: token for slot, token in taint.items()
                 if not token.local}
        if not taint:
            return
        slot = (class_qualname, attr)
        self.attr_taint[slot] = merge(self.attr_taint.get(slot, {}), taint)

    # ---------------------------------------------------------- expressions
    def _eval(self, node: ast.expr | None, st: _WalkState) -> Taint:
        if node is None or isinstance(node, ast.Constant):
            return {}
        if isinstance(node, ast.Name):
            env = st.env.get(node.id)
            is_secret, is_bytes = self._name_seed(node.id)
            if not (is_secret or is_bytes):
                # Taint values are never mutated in place (merge/with_hop
                # always build fresh dicts), so the env entry is shareable.
                return env if env is not None else {}
            hop = self._hop(st, node, f"secret-named identifier {node.id!r}")
            return merge(env or {}, self._name_sources(node.id, hop))
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, st)
        if isinstance(node, ast.Call):
            return self._eval_call(node, st)
        if isinstance(node, ast.Compare):
            return self._eval_compare(node, st)
        if isinstance(node, ast.BinOp):
            return merge(self._eval(node.left, st),
                         self._eval(node.right, st))
        if isinstance(node, ast.BoolOp):
            return merge(*(self._eval(v, st) for v in node.values))
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, st)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, st)
            return merge(self._eval(node.body, st),
                         self._eval(node.orelse, st))
        if isinstance(node, ast.JoinedStr):
            return merge(*(self._eval(v, st) for v in node.values)) \
                if node.values else {}
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value, st)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return merge(*(self._eval(e, st) for e in node.elts)) \
                if node.elts else {}
        if isinstance(node, ast.Dict):
            # Values taint the container; keys do not (a dict indexed *by*
            # a secret does not itself contain the secret), but a sink
            # inside a key still runs.
            for key in node.keys:
                self._eval(key, st)
            return merge(*(self._eval(v, st) for v in node.values
                           if v is not None)) if node.values else {}
        if isinstance(node, ast.Subscript):
            sl = node.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                # ``env.fields["session_key"]`` is named access: the key
                # name seeds (or declassifies) exactly like an attribute,
                # and per-key slots keep ``fields["mac"]`` taint off
                # ``fields["domain"]``.
                self._eval(node.value, st)
                taint: Taint = {}
                if any(self._name_seed(sl.value)):
                    hop = self._hop(st, node,
                                    f"secret-named field {sl.value!r}")
                    taint = self._name_sources(sl.value, hop)
                base = node.value
                if isinstance(base, ast.Attribute):
                    base_type = self._infer_type(base.value, st)
                    if base_type is not None:
                        slot = (base_type, f"{base.attr}[{sl.value}]")
                        self._record_attr_read(st, slot)
                        stored = self.attr_taint.get(slot)
                        if stored:
                            read_hop = self._hop(
                                st, node,
                                f"read from field {sl.value!r}")
                            taint = merge(taint,
                                          with_hop(stored, read_hop))
                return taint
            self._eval(node.slice, st)
            return self._eval(node.value, st)  # container read propagates
        if isinstance(node, ast.Starred):
            return self._eval(node.value, st)
        if isinstance(node, ast.Await):
            return self._eval(node.value, st)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            # A generator's yields are its return values to the caller.
            taint = self._eval(node.value, st) if node.value is not None \
                else {}
            if st.summary is not None and st.fn is not None and taint:
                yield_hop = self._hop(
                    st, node, f"yielded from {st.fn.short_name}()")
                for token in taint.values():
                    if token.kind == "source":
                        if token.local:
                            continue
                        hopped = with_hop({token.slot: token}, yield_hop)
                        st.summary.returns.setdefault(token.slot,
                                                      hopped[token.slot])
                    else:
                        st.summary.param_returns.add(token.name)
            return {}
        if isinstance(node, ast.NamedExpr):
            taint = self._eval(node.value, st)
            self._assign(node.target, taint, node.value, st)
            return taint
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            iter_taints = []
            for gen in node.generators:
                iter_taint = self._eval(gen.iter, st)
                iter_taints.append(iter_taint)
                self._assign(gen.target, iter_taint, None, st)
                for cond in gen.ifs:
                    self._eval(cond, st)
            if isinstance(node, ast.DictComp):
                self._eval(node.key, st)
                element = self._eval(node.value, st)
            else:
                element = self._eval(node.elt, st)
            return merge(element, *iter_taints)
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                self._eval(part, st)
            return {}
        if isinstance(node, ast.Lambda):
            self._eval_header(node, st)
            self._walk_scope(node, st)
            return {}  # the function object, not what it returns
        return {}

    def _eval_attribute(self, node: ast.Attribute, st: _WalkState) -> Taint:
        base_taint = self._eval(node.value, st)
        taint: Taint = {}
        if any(self._name_seed(node.attr)):
            hop = self._hop(st, node,
                            f"secret-named attribute {node.attr!r}")
            taint = self._name_sources(node.attr, hop)
        base_type = self._infer_type(node.value, st)
        if base_type is not None:
            slot = (base_type, node.attr)
            self._record_attr_read(st, slot)
            stored = self.attr_taint.get(slot)
            if stored:
                read_hop = self._hop(st, node,
                                     f"read from attribute {node.attr!r}")
                taint = merge(taint, with_hop(stored, read_hop))
            prop = self.index.lookup_method(base_type, node.attr)
            if prop is not None and prop.is_property:
                self._record_edge(st, prop.qualname)
                bound = [("self", base_taint, node.value)]
                passthrough, fresh = self._apply_summary(
                    prop, base_type, bound, node, st,
                    self_node=node.value)
                taint = merge(taint, fresh, passthrough)
        # Deliberate precision choice: base-object taint does NOT leak
        # through attribute reads — ``record.key_pair.public_key`` stays
        # clean even when ``record`` is a tainted container.  Secret
        # attributes are caught by their own names or the attr map.
        return taint

    def _eval_compare(self, node: ast.Compare, st: _WalkState) -> Taint:
        # A comparison's boolean result is public in the secrecy lattice;
        # the side-channel subclass overrides this with timing semantics.
        for operand in (node.left, *node.comparators):
            self._eval(operand, st)
        return {}

    # --------------------------------------------------------------- calls
    def _eval_call(self, node: ast.Call, st: _WalkState) -> Taint:
        in_raise, st.in_raise = st.in_raise, False
        builtin_sink = self._builtin_sink_label(node.func)
        resolved, base_taint, base_node, bound_method = \
            self._resolve_callee(node.func, st)
        if isinstance(resolved, FunctionInfo):
            short = resolved.short_name
        elif isinstance(resolved, ClassInfo):
            short = resolved.name
        else:
            short = terminal_name(node.func)
        is_sanitizer = (short is not None
                        and self.config.is_sanitizer_name(short)
                        and not isinstance(resolved, ClassInfo))
        if is_sanitizer:
            st.sanitizer_depth += 1
        try:
            pos_args = []
            for arg in node.args:
                inner = arg.value if isinstance(arg, ast.Starred) else arg
                pos_args.append((self._eval(inner, st), inner))
            kw_args = [(kw.arg, self._eval(kw.value, st), kw.value)
                       for kw in node.keywords]
        finally:
            if is_sanitizer:
                st.sanitizer_depth -= 1
        all_args = pos_args + [(taint, anode) for _, taint, anode in kw_args]

        if builtin_sink is not None:
            self._check_sink_args(all_args, builtin_sink, st)
            return {}
        if short is not None and self.config.is_taint_sink_name(short):
            self._check_sink_args(
                all_args, f"configured sink {short}()", st)
        if in_raise:
            # The raised call builds the exception, by its class or by a
            # factory such as ``self._reject(reason, detail)``: its args
            # surface in tracebacks.
            self._check_sink_args(all_args, "exception argument", st)

        if isinstance(resolved, FunctionInfo):
            self._record_edge(st, resolved.qualname)
            result = self._apply_function_call(
                resolved, node, pos_args, kw_args, base_taint, base_node,
                bound_method, is_sanitizer, st)
        elif isinstance(resolved, ClassInfo):
            self._record_edge(st, resolved.qualname)
            result = self._apply_constructor(resolved, node, pos_args,
                                             kw_args, st)
        else:
            result = self._apply_unresolved(node, short, is_sanitizer,
                                            pos_args, kw_args, base_taint,
                                            base_node, st)
        return result

    def _apply_function_call(self, info: FunctionInfo, node: ast.Call,
                             pos_args, kw_args, base_taint: Taint,
                             base_node, bound_method: bool,
                             is_sanitizer: bool, st: _WalkState) -> Taint:
        bound = self._bind_args(info, pos_args, kw_args, base_taint,
                                base_node, bound_method)
        base_type = self._infer_type(base_node, st) if base_node is not None \
            else None
        passthrough, fresh = self._apply_summary(
            info, base_type or info.class_qualname, bound, node, st,
            self_node=base_node)
        short = info.short_name
        call_hop = self._hop(st, node, f"returned by {short}()")
        if is_sanitizer:
            # A resolved sanitizer-named call (sign/encrypt/*length*...)
            # launders its return value; its internal sinks and stores
            # were still applied above.  The one trace it leaves is the
            # timing sensitivity of MAC/digest producers, function-local.
            passthrough, fresh = {}, {}
        if (not is_sanitizer
                and self.config.in_boundary_package(info.module)
                and self.config.is_taint_source_name(short)):
            # Inside the boundary, a secret-named API *is* a secret source
            # even while its body's summary is still converging.
            fresh = merge(fresh, make_source(SECRECY, short, call_hop))
            if self.config.is_secret_bytes_name(short):
                fresh = merge(fresh, make_source(TIMING, short, call_hop))
        if self.config.is_ctime_producer_name(short):
            fresh = merge(fresh,
                          make_source(TIMING, short, call_hop, local=True))
        self._check_boundary_export(info, node, fresh, st)
        return merge(fresh, passthrough)

    def _apply_constructor(self, cls: ClassInfo, node: ast.Call,
                           pos_args, kw_args, st: _WalkState) -> Taint:
        if self.config.is_declassified_name(cls.name):
            return {}  # a Public-named value holds public data by contract
        init = self.index.lookup_method(cls.qualname, "__init__")
        result: Taint = {}
        if init is not None:
            # The call site depends on the __init__ summary, not just the
            # class: record the edge so the worklist revisits this caller.
            self._record_edge(st, init.qualname)
            bound = self._bind_args(init, pos_args, kw_args, {}, None, False)
            summary = self.summaries.get(init.qualname)
            stored_params = set()
            if summary is not None:
                stored_params = (set(summary.param_self_attrs)
                                 | {p for p, dsts in
                                    summary.param_stores.items()
                                    if "self" in dsts})
            _, fresh = self._apply_summary(init, cls.qualname, bound,
                                           node, st, self_node=None)
            held = merge(*(taint for param, taint, _ in bound
                           if taint and param in stored_params)) \
                if stored_params else {}
            result = merge(fresh, held)
        elif cls.is_dataclass and cls.fields:
            fields = list(cls.fields)
            tainted = []
            for i, (taint, anode) in enumerate(pos_args):
                if i < len(fields) and taint:
                    self._field_store(cls, fields[i], taint, anode, st)
                    tainted.append(taint)
            for name, taint, anode in kw_args:
                if name in fields and taint:
                    self._field_store(cls, name, taint, anode, st)
                    tainted.append(taint)
            result = merge(*tainted) if tainted else {}
        else:
            tainted = [taint for taint, _ in pos_args if taint]
            tainted += [taint for _, taint, _ in kw_args if taint]
            result = merge(*tainted) if tainted else {}
        if result:
            hop = self._hop(st, node, f"held by {cls.name} instance")
            result = with_hop(result, hop)
        return result

    def _field_store(self, cls: ClassInfo, field_name: str, taint: Taint,
                     anchor, st: _WalkState) -> None:
        hop = self._hop(st, anchor,
                        f"stored in {cls.name}.{field_name}")
        self._taint_attr(cls.qualname, field_name, with_hop(taint, hop))

    def _apply_unresolved(self, node: ast.Call, short: str | None,
                          is_sanitizer: bool, pos_args, kw_args,
                          base_taint: Taint, base_node,
                          st: _WalkState) -> Taint:
        arg_taints = [taint for taint, _ in pos_args if taint]
        arg_taints += [taint for _, taint, _ in kw_args if taint]
        if is_sanitizer:
            result: Taint = {}
        else:
            flowing = merge(base_taint, *arg_taints)
            if flowing:
                hop = self._hop(st, node,
                                f"through {short or 'a call'}()")
                result = with_hop(flowing, hop)
            else:
                result = {}
        if short is not None and self.config.is_ctime_producer_name(short):
            # Unresolved secret-*named* calls are NOT seeded (``d.keys()``
            # would taint every dict iteration); MAC/digest-named producers
            # are, but only function-locally.
            call_hop = self._hop(st, node, f"returned by {short}()")
            result = merge(result,
                           make_source(TIMING, short, call_hop, local=True))
        # ``records.append(secret)`` taints the container itself.
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS and arg_taints):
            self._store_into(node.func.value, merge(*arg_taints), node, st)
        return result

    def _bind_args(self, info: FunctionInfo, pos_args, kw_args,
                   self_taint: Taint, self_node,
                   bound_method: bool) -> list[tuple]:
        """[(param name, taint, arg node)] for one call site."""
        params = list(info.params)
        bound: list[tuple] = []
        if info.has_self and not bound_method:
            if params:
                bound.append((params[0], self_taint, self_node))
                params = params[1:]
        vararg = info.node.args.vararg
        kwarg = info.node.args.kwarg
        for taint, anode in pos_args:
            if params:
                bound.append((params.pop(0), taint, anode))
            elif vararg is not None:
                bound.append((vararg.arg, taint, anode))
        for name, taint, anode in kw_args:
            if name is None:  # **kwargs at the call site
                if kwarg is not None:
                    bound.append((kwarg.arg, taint, anode))
            elif name in info.all_params:
                bound.append((name, taint, anode))
            elif kwarg is not None:
                bound.append((kwarg.arg, taint, anode))
        return bound

    def _apply_summary(self, info: FunctionInfo,
                       class_qualname: str | None, bound: list[tuple],
                       node: ast.AST, st: _WalkState,
                       self_node: ast.expr | None) -> tuple[Taint, Taint]:
        """Apply a callee summary at a call site.

        Returns ``(passthrough, fresh)``: taint the caller handed in and
        got back, vs. taint newly surfaced by the callee's return value.
        Only ``fresh`` secret taint counts for SF111 — a pass-through
        value was already in the caller's hands.
        """
        summary = self.summaries.get(info.qualname)
        passthrough: Taint = {}
        fresh: Taint = {}
        if summary is None:
            return passthrough, fresh
        arg_nodes: dict = {}
        for bound_param, _, bound_node in bound:
            arg_nodes.setdefault(bound_param, bound_node)
        for param, taint, anode in bound:
            if not taint:
                continue
            anchor = anode if anode is not None else node
            call_hop = self._hop(
                st, anchor, f"passed to {info.short_name}() as {param!r}")
            for record in summary.param_sinks.get(param, {}).values():
                self._forward_record(record, taint, call_hop, st)
            attrs = summary.param_self_attrs.get(param, ())
            if attrs:
                if class_qualname is not None:
                    for attr in sorted(attrs):
                        self._taint_attr(class_qualname, attr,
                                         with_hop(taint, call_hop))
                if isinstance(self_node, ast.Name):
                    self._store_into(self_node, with_hop(taint, call_hop),
                                     anchor, st)
            for dst in sorted(summary.param_stores.get(param, ())):
                dst_node = arg_nodes.get(dst)
                if dst_node is not None:
                    self._store_into(dst_node, with_hop(taint, call_hop),
                                     anchor, st)
            if param in summary.param_returns:
                through = self._hop(
                    st, node,
                    f"through {info.short_name}() via {param!r}")
                passthrough = merge(passthrough, with_hop(taint, through))
        if summary.returns:
            ret_hop = self._hop(st, node,
                                f"returned by {info.short_name}()")
            fresh = merge(fresh, with_hop(summary.returns, ret_hop))
        return passthrough, fresh

    def _forward_record(self, record: SinkRecord, taint: Taint,
                        call_hop: TraceHop, st: _WalkState) -> None:
        """Argument taint meets a sink recorded inside the callee."""
        for token in taint.values():
            trace = token.trace + (call_hop,) + record.trace
            if token.kind == "source":
                if record.kind == "sink" and token.cls == SECRECY:
                    self._emit_sf110(record.module, record.line, record.col,
                                     token.name, record.label, trace, st)
            elif st.summary is not None:
                st.summary.add_param_sink(
                    token.name,
                    SinkRecord(kind=record.kind, label=record.label,
                               module=record.module, path=record.path,
                               line=record.line, col=record.col,
                               source_line=record.source_line,
                               trace=token.trace[1:] + (call_hop,)
                               + record.trace))

    def _check_boundary_export(self, info: FunctionInfo, node: ast.Call,
                               fresh: Taint, st: _WalkState) -> None:
        """SF111: trusted-layer call hands a raw secret to untrusted code."""
        if st.sanitizer_depth > 0:
            return
        if not self.config.in_boundary_package(info.module):
            return
        if self.config.in_trusted_package(st.ctx.module):
            return
        boundary_hop = self._hop(
            st, node,
            f"crosses the trust boundary into {st.ctx.module}")
        for token in source_tokens(fresh, SECRECY):
            self._emit(
                "SF111", st.ctx.module, node.lineno, node.col_offset,
                f"secret {token.name!r} returned by trusted "
                f"{info.qualname}() into untrusted {st.ctx.module}; keep it "
                "inside the boundary or wrap it (hmac/hash/encrypt)",
                token.trace + (boundary_hop,), st)

    # ----------------------------------------------------- sinks & reports
    def _builtin_sink_label(self, func: ast.expr) -> str | None:
        if isinstance(func, ast.Name) and func.id == "print":
            return "print()"
        if isinstance(func, ast.Attribute) and func.attr in _LOG_METHODS:
            base = terminal_name(func.value)
            if base is not None and base.lower() in _LOG_BASES:
                return f"logging call .{func.attr}()"
        if (isinstance(func, ast.Attribute) and func.attr == "warn"
                and terminal_name(func.value) == "warnings"):
            return "warnings.warn()"
        return None

    def _check_sink_args(self, args: list[tuple], label: str,
                         st: _WalkState) -> None:
        for taint, anode in args:
            if taint:
                self._sink_hit(taint, "sink", label, anode, st)

    def _sink_hit(self, taint: Taint, kind: str, label: str,
                  anchor: ast.AST, st: _WalkState) -> None:
        """Taint reached a local sink: report sources, summarise params."""
        line = getattr(anchor, "lineno", 1)
        col = getattr(anchor, "col_offset", 0)
        sink_hop = TraceHop(st.ctx.display_path, line, f"reaches {label}")
        for token in taint.values():
            if token.kind == "source":
                trace = token.trace + (sink_hop,)
                if kind == "sink" and token.cls == SECRECY:
                    self._emit_sf110(st.ctx.module, line, col, token.name,
                                     label, trace, st)
            elif st.summary is not None:
                st.summary.add_param_sink(
                    token.name,
                    SinkRecord(kind=kind, label=label, module=st.ctx.module,
                               path=st.ctx.display_path, line=line, col=col,
                               source_line=st.ctx.source_line(line),
                               trace=token.trace[1:] + (sink_hop,)))

    def _emit_sf110(self, module: str, line: int, col: int, origin: str,
                    label: str, trace: tuple, st: _WalkState) -> None:
        if self.config.in_trusted_package(module):
            return  # trusted layers legitimately handle secrets
        self._emit("SF110", module, line, col,
                   f"secret {origin!r} reaches {label} (see trace)", trace, st)

    def _in_scope(self, module: str) -> bool:
        """Does this pass report findings located in ``module``?"""
        return True

    def _reports_from(self, unit: str, module: str) -> bool:
        """Can walking ``unit`` (a function or ``<module>`` body in
        ``module``) emit a finding this pass keeps?  Its own sinks report
        in ``module``; a sink recorded in a callee's summary reports
        where that sink is."""
        return self._in_scope(module) or any(
            self._in_scope(record.module)
            for callee in self.call_edges.get(unit, ())
            if callee in self.summaries
            for records in self.summaries[callee].param_sinks.values()
            for record in records.values())

    def _emit(self, rule_id: str, module: str, line: int, col: int,
              message: str, trace: tuple, st: _WalkState) -> None:
        if not st.report:
            return
        if not self.config.rule_enabled(rule_id):
            return
        if not self._in_scope(module):
            return
        ctx = self.index.modules.get(module)
        if ctx is None:
            return
        if ctx.is_suppressed(rule_id, line):
            return
        # One finding per rule per location: a sink reached by several
        # taint origins is still one defect (the first trace wins).
        marker = (rule_id, ctx.display_path, line, col)
        if marker in self._emitted:
            return
        self._emitted.add(marker)
        self.findings.append(Finding(
            rule=rule_id, message=message, path=ctx.display_path,
            module=module, line=line, col=col,
            source_line=ctx.source_line(line), trace=tuple(trace),
            severity=get_rule(rule_id).severity))

    # ------------------------------------------------------- call resolution
    def _resolve_callee(self, func: ast.expr, st: _WalkState):
        """-> (FunctionInfo | ClassInfo | None, base taint, base node,
        bound_method: False when ``Cls.method(obj)`` passes self explicitly).
        """
        if isinstance(func, ast.Name):
            if (func.id == "cls" and st.fn is not None
                    and st.fn.class_qualname is not None):
                owner = self.index.classes.get(st.fn.class_qualname)
                if owner is not None:
                    return owner, {}, None, False
            dotted = self.index.qualify(st.ctx.module, func)
            resolved = self.index.resolve_qualname(dotted) if dotted else None
            return resolved, {}, None, False
        if isinstance(func, ast.Attribute):
            base = func.value
            base_type = self._infer_type(base, st)
            if base_type is not None:
                method = self.index.lookup_method(base_type, func.attr)
                if method is not None:
                    return method, self._eval(base, st), base, False
            dotted = self.index.qualify(st.ctx.module, func)
            if dotted is not None:
                resolved = self.index.resolve_qualname(dotted)
                if resolved is not None:
                    bound_method = (isinstance(resolved, FunctionInfo)
                                    and resolved.has_self)
                    return resolved, {}, None, bound_method
            return None, self._eval(base, st), base, False
        return None, {}, None, False

    def _record_edge(self, st: _WalkState, callee: str) -> None:
        self.call_edges.setdefault(st.qualname, set()).add(callee)

    def _record_attr_read(self, st: _WalkState,
                          slot: tuple[str, str]) -> None:
        """Remember who reads an attr slot — even while it is still
        clean, so the worklist revisits the reader once taint lands."""
        self.attr_readers.setdefault(slot, set()).add(st.qualname)

    def _infer_type(self, node: ast.expr | None,
                    st: _WalkState) -> str | None:
        """Best-effort class qualname of an expression's value."""
        if node is None:
            return None
        if isinstance(node, ast.Name):
            if (node.id in ("self", "cls") and st.fn is not None
                    and st.fn.class_qualname is not None):
                return st.fn.class_qualname
            return st.var_types.get(node.id)
        if isinstance(node, ast.Attribute):
            base_type = self._infer_type(node.value, st)
            if base_type is not None:
                return self.index.attr_type(base_type, node.attr)
            dotted = self.index.qualify(st.ctx.module, node)
            resolved = self.index.resolve_qualname(dotted) if dotted else None
            if isinstance(resolved, FunctionInfo) and resolved.is_property:
                return resolved.returns_type
            return None
        if isinstance(node, ast.Call):
            resolved, _, _, _ = self._resolve_callee(node.func, st)
            if isinstance(resolved, ClassInfo):
                return resolved.qualname
            if isinstance(resolved, FunctionInfo):
                return resolved.returns_type
            return None
        return None

    def _hop(self, st: _WalkState, node: ast.AST, note: str) -> TraceHop:
        return TraceHop(st.ctx.display_path, getattr(node, "lineno", 1),
                        note)


def run_taint(contexts: list[ModuleContext],
              config: AnalysisConfig) -> tuple[list[Finding], TaintAnalysis]:
    """Run the project-wide taint pass; returns (findings, analysis)."""
    analysis = TaintAnalysis(contexts, config)
    findings = analysis.run()
    return findings, analysis
