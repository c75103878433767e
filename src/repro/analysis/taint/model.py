"""Taint lattice: tokens, trace bookkeeping and function summaries.

A *taint value* is a small map of :class:`Token` objects keyed by
``(cls, kind, name)``:

``cls``
    ``"secret"`` — confidentiality taint (key material, templates,
    minutiae; feeds SF110/SF111), or ``"ctime"`` — timing sensitivity
    (MAC tags, digests, anything derived from key material; feeds the
    side-channel pass's SC805).  A value may carry both classes at once.

``kind``
    ``"source"`` — rooted at a concrete secret-named identifier, or
    ``"param"`` — parametric taint used while summarising a function:
    "whatever the caller passes for parameter *name*".

Merging is key-wise with first-token-wins, so traces stay stable and
the lattice has no infinite ascending chains: the token universe of one
project is finite, which is what makes the fixed point terminate.

A :class:`FunctionSummary` is the transfer function of one function as
seen from call sites: which source tokens its return value carries,
which parameters flow to the return value, which parameters reach sinks
or non-constant-time comparisons inside it (transitively), and which
parameters it stores into ``self`` attributes or other parameters.
Summary *shapes* deliberately exclude traces so the driver can test
convergence without being confused by trace refinements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import TraceHop

__all__ = [
    "SECRECY", "TIMING", "Token", "Taint", "SinkRecord", "FunctionSummary",
    "merge", "with_hop", "source_tokens", "make_source",
]

SECRECY = "secret"
TIMING = "ctime"

#: Hard cap on stored trace length; longer flows keep the head (origin
#: side) and tail (sink side) with a truncation marker in between.
MAX_TRACE_HOPS = 12


@dataclass(frozen=True)
class Token:
    """One unit of taint with the path it travelled so far."""

    cls: str  # SECRECY or TIMING
    kind: str  # "source" or "param"
    name: str  # origin identifier, or parameter name for kind="param"
    trace: tuple[TraceHop, ...] = ()
    #: Function-local taint (MAC/digest producer results): real enough to
    #: flag a comparison nearby, but it does not survive returns or
    #: attribute stores — the cross-function cases are covered by
    #: producer-*named* calls at each call site.
    local: bool = False

    @property
    def slot(self) -> tuple[str, str, str, bool]:
        return (self.cls, self.kind, self.name, self.local)


#: A taint value: token key -> token.  Plain dict so call sites can use
#: ``{}`` for "clean" without ceremony.
Taint = dict


def merge(*values: Taint) -> Taint:
    """Key-wise union; the first token seen for a key keeps its trace."""
    out: Taint = {}
    for value in values:
        for slot, token in value.items():
            out.setdefault(slot, token)
    return out


def _cap(trace: tuple[TraceHop, ...]) -> tuple[TraceHop, ...]:
    if len(trace) <= MAX_TRACE_HOPS:
        return trace
    head = trace[: MAX_TRACE_HOPS - 4]
    tail = trace[-3:]
    marker = TraceHop(path=tail[0].path, line=tail[0].line,
                      note="... (trace truncated)")
    return head + (marker,) + tail


def with_hop(value: Taint, hop: TraceHop) -> Taint:
    """The same taint value with one more trace hop on every token."""
    # Direct construction: ``dataclasses.replace`` re-validates fields on
    # every call and this runs hundreds of thousands of times per scan.
    return {slot: Token(cls=token.cls, kind=token.kind, name=token.name,
                        trace=_cap(token.trace + (hop,)), local=token.local)
            for slot, token in value.items()}


def source_tokens(value: Taint, cls: str | None = None) -> list[Token]:
    """The concrete (non-parametric) tokens in ``value``."""
    return [t for t in value.values()
            if t.kind == "source" and (cls is None or t.cls == cls)]


def make_source(cls: str, name: str, hop: TraceHop,
                local: bool = False) -> Taint:
    """A fresh single-token taint value rooted at ``hop``."""
    token = Token(cls=cls, kind="source", name=name, trace=(hop,),
                  local=local)
    return {token.slot: token}


@dataclass(frozen=True)
class SinkRecord:
    """A sink (or comparison) inside a function, reachable from a param.

    ``kind`` is ``"sink"`` (observable output: logging, print,
    exception args, ``__repr__``) or ``"compare"`` (an ``==``/``!=``
    that must be constant-time when fed key-derived bytes).  The record
    is anchored where the sink lives — that is the fix site — and
    ``trace`` holds the hops from the parameter entry to the sink, to be
    appended to the caller's argument trace.
    """

    kind: str
    label: str  # human description, e.g. "logging call" / "== comparison"
    module: str
    path: str
    line: int
    col: int
    source_line: str
    trace: tuple[TraceHop, ...] = ()

    @property
    def slot(self) -> tuple[str, str, str, int]:
        """Identity for dedup/convergence; excludes the trace."""
        return (self.kind, self.label, self.path, self.line)


@dataclass
class FunctionSummary:
    """Call-site-visible transfer function of one analysed function."""

    qualname: str
    #: Source tokens the return value carries (traces end at a return).
    returns: Taint = field(init=False, default_factory=dict)
    #: Parameters whose taint flows into the return value.
    param_returns: set = field(init=False, default_factory=set)
    #: param name -> sink/compare records its taint reaches.
    param_sinks: dict = field(init=False, default_factory=dict)
    #: param name -> ``self`` attribute names it is stored into.
    param_self_attrs: dict = field(init=False, default_factory=dict)
    #: param name -> other param names whose object it is stored into
    #: (container/attribute mutation visible to the caller).
    param_stores: dict = field(init=False, default_factory=dict)

    def add_param_sink(self, param: str, record: SinkRecord) -> bool:
        """Record a param-reachable sink; True if it is new."""
        records = self.param_sinks.setdefault(param, {})
        if record.slot in records:
            return False
        records[record.slot] = record
        return True

    def shape(self) -> tuple:
        """Trace-free shape used to detect fixed-point convergence."""
        return (
            tuple(sorted(self.returns)),
            tuple(sorted(self.param_returns)),
            tuple(sorted((p, k) for p, recs in self.param_sinks.items()
                         for k in recs)),
            tuple(sorted((p, a) for p, attrs in self.param_self_attrs.items()
                         for a in sorted(attrs))),
            tuple(sorted((p, d) for p, dsts in self.param_stores.items()
                         for d in sorted(dsts))),
        )
