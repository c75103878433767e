"""Static extraction of the TRUST wire contract from code.

The extractor derives, from ASTs alone, everything the conformance
rules (CT700-CT705) and the committed ``contract.json`` artifact need:

* message-type constants, the wire version, and the supported-version
  set from the codec modules (``repro.net.message``);
* the endpoint registry — every ``@_endpoint``-decorated handler, its
  message type, summary, ``require()`` schema, field reads and response
  envelopes — from the server modules;
* client call shapes (every ``Envelope(MSG_X, {...})`` the client
  builds, including ``set_mac`` and ``fields["x"] = ...`` additions)
  and reply-field consumption from the client/read modules;
* the full reason-code vocabulary from ``_reject(...)`` /
  ``ProtocolError(...)`` / ``rejections[...]`` emission sites;
* version gates (``version [not] in ...`` comparisons) in ``dispatch``
  and the strict decode paths.

Everything is resolved through the shared taint/det
:class:`~repro.analysis.taint.symbols.ProjectIndex`, so import aliases
(``from .message import MSG_LOGIN_SUBMIT``) land on the same constants
the codec defines.  Extraction is deterministic: modules are visited in
sorted order and all sets are sorted at serialization time, so the
canonical payload is byte-stable across runs and hash seeds.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field

from ..config import AnalysisConfig
from ..core import ModuleContext, terminal_name
from ..taint.symbols import ProjectIndex, build_index

__all__ = ["WireContract", "extract_contract", "contract_payload",
           "render_contract"]

#: Names of the codec's version constants (mirrors ``repro.net.message``).
_VERSION_CONST = "PROTOCOL_VERSION"
_SUPPORTED_CONST = "SUPPORTED_PROTOCOL_VERSIONS"

#: The artifact's own schema version (bumped on payload shape changes).
CONTRACT_VERSION = 1


@dataclass
class EnvelopeSite:
    """One ``Envelope(MSG_X, {...})`` construction with a resolvable type."""

    msg_type: str
    fields: set
    function: str  # qualname of the enclosing function
    ctx: ModuleContext
    node: ast.AST


@dataclass
class EndpointDecl:
    """One registered dispatch endpoint (an ``@_endpoint`` method)."""

    msg_type: str
    summary: str
    handler_qualname: str
    ctx: ModuleContext
    node: ast.AST  # the handler's def
    #: The ``require()`` schema.
    request_fields: set = field(init=False, default_factory=set)
    #: ``fields[...]``/``.get`` reads.
    reads: set = field(init=False, default_factory=set)
    #: EnvelopeSite list.
    responses: list = field(init=False, default_factory=list)


@dataclass
class ReasonSite:
    """One emission of a rejection reason code."""

    reason: str
    ctx: ModuleContext
    node: ast.AST


@dataclass
class VersionGate:
    """One ``version [not] in ...`` comparison in dispatch/decode."""

    kind: str  # "dispatch" | "decode"
    symbol: str | None  # resolved comparator qualname, if a name
    values: frozenset | None  # literal int set, if spelled out
    ctx: ModuleContext
    node: ast.AST


@dataclass
class FieldRead:
    """One fail-open wire-field read in a strict context (CT704)."""

    name: str
    kind: str  # "subscript" (no require cover) | "get" (defaulted)
    ctx: ModuleContext
    node: ast.AST
    function: str


@dataclass
class WireContract:
    """Everything extracted from one analysis run's module set.

    The extraction phases fill every field; nothing passes one in.
    """

    #: qualname -> message-type literal.
    msg_constants: dict = field(init=False, default_factory=dict)
    #: msg -> EndpointDecl.
    endpoints: dict = field(init=False, default_factory=dict)
    #: msg -> field set.
    server_messages: dict = field(init=False, default_factory=dict)
    server_sites: list = field(init=False, default_factory=list)
    #: msg -> field set.
    client_messages: dict = field(init=False, default_factory=dict)
    client_sites: list = field(init=False, default_factory=list)
    #: Aggregated consumption.
    client_reads: set = field(init=False, default_factory=set)
    #: Every client-side string literal.
    reader_literals: set = field(init=False, default_factory=set)
    #: FieldRead list.
    strict_reads: list = field(init=False, default_factory=list)
    #: reason -> [ReasonSite].
    reasons: dict = field(init=False, default_factory=dict)
    #: VersionGate list.
    gates: list = field(init=False, default_factory=list)
    protocol_version: int | None = field(init=False, default=None)
    #: (ctx, node) of the assignment.
    version_site: tuple | None = field(init=False, default=None)
    supported_versions: frozenset | None = field(init=False, default=None)
    supported_symbols: set = field(init=False, default_factory=set)
    supported_site: tuple | None = field(init=False, default=None)
    #: (ctx, node, qualname) triples.
    decode_functions: list = field(init=False, default_factory=list)
    dispatch_functions: list = field(init=False, default_factory=list)
    #: (ctx, handler, qualname) triples.
    swallowed: list = field(init=False, default_factory=list)
    has_server: bool = field(init=False, default=False)
    has_client: bool = field(init=False, default=False)
    has_codec: bool = field(init=False, default=False)
    has_reader: bool = field(init=False, default=False)


# --------------------------------------------------------------- utilities

def _function_units(ctx: ModuleContext) -> list:
    """(func_node, qualname) for module-level functions and methods."""
    units = []
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            units.append((stmt, f"{ctx.module}.{stmt.name}"))
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    units.append(
                        (sub, f"{ctx.module}.{stmt.name}.{sub.name}"))
    return units


def _resolve_msg(ctx: ModuleContext, index: ProjectIndex, node: ast.AST,
                 msg_constants: dict) -> str | None:
    """The message-type literal an expression denotes, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    dotted = index.qualify(ctx.module, node)
    if dotted is None and isinstance(node, ast.Name):
        # Module-local constant: qualify() only covers functions/classes.
        dotted = f"{ctx.module}.{node.id}"
    if dotted is None:
        return None
    return msg_constants.get(dotted)


def _literal_int_set(node: ast.AST) -> frozenset | None:
    """``frozenset({1, 2})`` / ``{1}`` / ``(1,)`` as ints, else None."""
    if isinstance(node, ast.Call):
        name = terminal_name(node.func)
        if name in ("frozenset", "set") and len(node.args) == 1:
            node = node.args[0]
        else:
            return None
    if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        values = []
        for elt in node.elts:
            if (isinstance(elt, ast.Constant)
                    and isinstance(elt.value, int)
                    and not isinstance(elt.value, bool)):
                values.append(elt.value)
            else:
                return None
        return frozenset(values)
    return None


def _envelope_param(func_node) -> str | None:
    """The wire-envelope parameter name of a handler (skipping self)."""
    args = func_node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    return positional[0] if positional else None


def _require_sets(func_node) -> dict:
    """var name -> union of ``var.require(...)`` field names."""
    by_var: dict = {}
    for node in ast.walk(func_node):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "require"
                and isinstance(node.func.value, ast.Name)):
            names = {a.value for a in node.args
                     if isinstance(a, ast.Constant)
                     and isinstance(a.value, str)}
            by_var.setdefault(node.func.value.id, set()).update(names)
    return by_var


def _field_reads(func_node, var_names: set) -> list:
    """(field, kind, var, node) wire-field reads on the given vars."""
    reads = []
    for node in ast.walk(func_node):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "fields"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in var_names
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            reads.append((node.slice.value, "subscript",
                          node.value.value.id, node))
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "fields"
                and isinstance(node.func.value.value, ast.Name)
                and node.func.value.value.id in var_names
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            reads.append((node.args[0].value, "get",
                          node.func.value.value.id, node))
    return reads


def _envelope_call(ctx: ModuleContext, index: ProjectIndex,
                   config: AnalysisConfig, node: ast.AST, function: str,
                   msg_constants: dict) -> EnvelopeSite | None:
    """An EnvelopeSite if ``node`` is a statically-known construction."""
    if not isinstance(node, ast.Call):
        return None
    name = terminal_name(node.func)
    if name is None or not config.is_contract_envelope_name(name):
        return None
    if not node.args:
        return None
    msg = _resolve_msg(ctx, index, node.args[0], msg_constants)
    if msg is None:
        return None  # dynamic type (e.g. ``Envelope(envelope.msg_type, …)``)
    fields: set = set()
    if len(node.args) >= 2:
        literal = node.args[1]
        if not isinstance(literal, ast.Dict):
            return None  # comprehension/variable: not a declared schema
        for key in literal.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                fields.add(key.value)
            else:
                return None
    return EnvelopeSite(msg, fields, function, ctx, node)


def _envelope_sites(ctx: ModuleContext, index: ProjectIndex,
                    config: AnalysisConfig, func_node,
                    function: str, msg_constants: dict) -> list:
    """Every envelope construction in one function, with mac/field adds."""
    by_node: dict = {}  # id(Call node) -> site
    for node in ast.walk(func_node):
        site = _envelope_call(ctx, index, config, node, function,
                              msg_constants)
        if site is not None:
            by_node[id(node)] = site
    if not by_node:
        return []
    by_var: dict = {}  # var name -> site
    for node in ast.walk(func_node):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and id(node.value) in by_node):
            by_var[node.targets[0].id] = by_node[id(node.value)]
    for node in ast.walk(func_node):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "set_mac"):
            base = node.func.value
            if isinstance(base, ast.Name) and base.id in by_var:
                by_var[base.id].fields.add("mac")
            elif isinstance(base, ast.Call) and id(base) in by_node:
                by_node[id(base)].fields.add("mac")
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            # ``var.fields["x"] = ...`` adds a field post-construction.
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "fields"
                    and isinstance(target.value.value, ast.Name)
                    and target.value.value.id in by_var
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)):
                by_var[target.value.value.id].fields.add(target.slice.value)
    return list(by_node.values())


# -------------------------------------------------------- per-module walks

def _top_level_assigns(ctx: ModuleContext):
    for stmt in ctx.tree.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            yield stmt.targets[0].id, stmt.value, stmt


def _collect_msg_constants(ctx: ModuleContext,
                           contract: WireContract) -> None:
    """Phase 1: message-type constants from any contract module."""
    for name, value, _stmt in _top_level_assigns(ctx):
        if (name.startswith("MSG") and isinstance(value, ast.Constant)
                and isinstance(value.value, str)):
            contract.msg_constants[f"{ctx.module}.{name}"] = value.value


def _collect_version_constants(ctx: ModuleContext,
                               contract: WireContract) -> None:
    """Phase 1: the codec's wire-version and supported-set constants."""
    for name, value, stmt in _top_level_assigns(ctx):
        if (name == _VERSION_CONST and isinstance(value, ast.Constant)
                and isinstance(value.value, int)
                and not isinstance(value.value, bool)):
            contract.protocol_version = value.value
            contract.version_site = (ctx, stmt)
        elif name == _SUPPORTED_CONST:
            contract.supported_versions = _literal_int_set(value)
            contract.supported_symbols.add(f"{ctx.module}.{name}")
            contract.supported_site = (ctx, stmt)


def _version_gates(ctx: ModuleContext, index: ProjectIndex, func_node,
                   kind: str) -> list:
    gates = []
    for node in ast.walk(func_node):
        if (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.In, ast.NotIn))
                and terminal_name(node.left) == "version"):
            comp = node.comparators[0]
            symbol = index.qualify(ctx.module, comp)
            if symbol is None and isinstance(comp, ast.Name):
                symbol = f"{ctx.module}.{comp.id}"
            gates.append(VersionGate(kind, symbol, _literal_int_set(comp),
                                     ctx, node))
    return gates


def _collect_reason_sites(ctx: ModuleContext,
                          contract: WireContract) -> None:
    """Reason-code emissions: ``_reject``/``ProtocolError``/counters."""
    for node in ast.walk(ctx.tree):
        reason = None
        if isinstance(node, ast.Call):
            name = terminal_name(node.func)
            if name in ("_reject", "ProtocolError") and node.args:
                arg = node.args[0]
                if (isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)):
                    reason = arg.value
        elif (isinstance(node, ast.Subscript)
                and terminal_name(node.value) == "rejections"
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            reason = node.slice.value
        if reason is not None:
            contract.reasons.setdefault(reason, []).append(
                ReasonSite(reason, ctx, node))


def _collect_codec_functions(ctx: ModuleContext, index: ProjectIndex,
                             config: AnalysisConfig,
                             contract: WireContract) -> None:
    for func_node, qualname in _function_units(ctx):
        if not config.is_contract_decode_name(func_node.name):
            continue
        contract.decode_functions.append((ctx, func_node, qualname))
        contract.gates.extend(
            _version_gates(ctx, index, func_node, "decode"))
        for handler in ast.walk(func_node):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            if not any(isinstance(x, ast.Raise)
                       for x in ast.walk(handler)):
                contract.swallowed.append((ctx, handler, qualname))
    _collect_reason_sites(ctx, contract)


def _endpoint_decl(ctx: ModuleContext, index: ProjectIndex, func_node,
                   qualname: str,
                   msg_constants: dict) -> EndpointDecl | None:
    """An EndpointDecl if the function carries an ``*endpoint*`` decorator."""
    for dec in func_node.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        name = terminal_name(dec.func) or ""
        if "endpoint" not in name.lower():
            continue
        msg = None
        summary = ""
        for arg in dec.args:
            if msg is None:
                resolved = _resolve_msg(ctx, index, arg, msg_constants)
                if resolved is not None:
                    msg = resolved
                continue
            if (isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)):
                summary = arg.value
                break
        if msg is not None:
            return EndpointDecl(msg, summary, qualname, ctx, func_node)
    return None


def _collect_server(ctx: ModuleContext, index: ProjectIndex,
                    config: AnalysisConfig,
                    contract: WireContract) -> None:
    for func_node, qualname in _function_units(ctx):
        sites = _envelope_sites(ctx, index, config, func_node, qualname,
                                contract.msg_constants)
        contract.server_sites.extend(sites)
        for site in sites:
            contract.server_messages.setdefault(
                site.msg_type, set()).update(site.fields)
        decl = _endpoint_decl(ctx, index, func_node, qualname,
                              contract.msg_constants)
        if decl is not None:
            decl.responses = sites
            env = _envelope_param(func_node)
            if env is not None:
                requires = _require_sets(func_node).get(env, set())
                decl.request_fields = set(requires)
                for fld, kind, _var, node in _field_reads(func_node, {env}):
                    decl.reads.add(fld)
                    if kind == "get" or fld not in requires:
                        contract.strict_reads.append(
                            FieldRead(fld, kind, ctx, node, qualname))
            contract.endpoints[decl.msg_type] = decl
        if func_node.name == "dispatch":
            contract.dispatch_functions.append((ctx, func_node, qualname))
            contract.gates.extend(
                _version_gates(ctx, index, func_node, "dispatch"))
    _collect_reason_sites(ctx, contract)


def _collect_client(ctx: ModuleContext, index: ProjectIndex,
                    config: AnalysisConfig,
                    contract: WireContract) -> None:
    for func_node, qualname in _function_units(ctx):
        sites = _envelope_sites(ctx, index, config, func_node, qualname,
                                contract.msg_constants)
        contract.client_sites.extend(sites)
        for site in sites:
            contract.client_messages.setdefault(
                site.msg_type, set()).update(site.fields)
        # Received envelopes: results of ``channel.send`` / ``*.dispatch``.
        received = set()
        for node in ast.walk(func_node):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr in ("send", "dispatch")):
                received.add(node.targets[0].id)
        if not received:
            continue
        by_var = _require_sets(func_node)
        for fld, kind, var, node in _field_reads(func_node, received):
            if kind == "get" or fld not in by_var.get(var, set()):
                contract.strict_reads.append(
                    FieldRead(fld, kind, ctx, node, qualname))


def _collect_reads(ctx: ModuleContext, contract: WireContract) -> None:
    """Aggregated reply-field consumption + every client-side literal."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            contract.reader_literals.add(node.value)
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            if node.func.attr == "require":
                contract.client_reads.update(
                    a.value for a in node.args
                    if isinstance(a, ast.Constant)
                    and isinstance(a.value, str))
            elif (node.func.attr == "get"
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "fields"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                contract.client_reads.add(node.args[0].value)
        elif (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "fields"
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            contract.client_reads.add(node.slice.value)


# ------------------------------------------------------------- entry point

def extract_contract(contexts: list, config: AnalysisConfig,
                     index: ProjectIndex | None = None) -> WireContract:
    """Derive the wire contract from one analysis run's module set."""
    if index is None:
        index = build_index(contexts)
    ordered = sorted(contexts, key=lambda c: c.module)
    contract = WireContract()
    for ctx in ordered:  # phase 1: constants (aliases resolve against them)
        if (config.in_contract_codec_module(ctx.module)
                or config.in_contract_server_module(ctx.module)
                or config.in_contract_client_module(ctx.module)
                or config.in_contract_read_module(ctx.module)):
            _collect_msg_constants(ctx, contract)
        if config.in_contract_codec_module(ctx.module):
            contract.has_codec = True
            _collect_version_constants(ctx, contract)
    for ctx in ordered:  # phase 2: schemas, gates, reasons, reads
        if config.in_contract_codec_module(ctx.module):
            _collect_codec_functions(ctx, index, config, contract)
        if config.in_contract_server_module(ctx.module):
            contract.has_server = True
            _collect_server(ctx, index, config, contract)
        if config.in_contract_client_module(ctx.module):
            contract.has_client = True
            _collect_client(ctx, index, config, contract)
        if config.in_contract_read_module(ctx.module):
            contract.has_reader = True
            _collect_reads(ctx, contract)
    return contract


def contract_payload(contract: WireContract) -> dict:
    """The canonical JSON-able payload (all collections sorted)."""
    endpoints = {}
    for msg in sorted(contract.endpoints):
        decl = contract.endpoints[msg]
        endpoints[msg] = {
            "handler": decl.handler_qualname,
            "summary": decl.summary,
            "request_fields": sorted(decl.request_fields | decl.reads),
            "responses": sorted({s.msg_type for s in decl.responses}),
        }
    return {
        "contract_version": CONTRACT_VERSION,
        "protocol": {
            "wire_version": contract.protocol_version,
            "supported_versions": sorted(contract.supported_versions or ()),
        },
        "endpoints": endpoints,
        "server_messages": {
            msg: sorted(fields)
            for msg, fields in sorted(contract.server_messages.items())},
        "client_messages": {
            msg: sorted(fields)
            for msg, fields in sorted(contract.client_messages.items())},
        "client_reads": sorted(contract.client_reads),
        "reason_codes": sorted(contract.reasons),
    }


def render_contract(payload: dict) -> str:
    """Byte-stable canonical serialization of the contract artifact."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
