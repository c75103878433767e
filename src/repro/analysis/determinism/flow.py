"""DT604/DT606 — interprocedural order-taint flow.

This reuses the whole taint machinery (summaries, fixed point, traces,
call resolution) with a different lattice interpretation: the "secret"
taint class is re-read as *order taint* — "this value depends on the
iteration order of an unordered ``set``".  Seeding happens at set
construction (literals, comprehensions, ``set()``/``frozenset()``
calls, ``field(default_factory=set)``); order-insensitive reductions
(``sorted``, ``len``, ``min``...) launder it; and a sink hit means the
nondeterministic order became observable: output (``print``/logging),
a digest, a wire encoding, a rendered report — or, for DT606, a float
accumulation whose result depends on operand order.

Dict iteration is deliberately *not* seeded: CPython dicts are
insertion-ordered, so a dict built deterministically iterates
deterministically — and a dict built *from* order-tainted input is
already caught because the taint propagates through its construction.

The swap is done by wrapping the user's config in :class:`_DetView`,
which turns off every secrecy/timing callback and answers the
source/sanitizer/sink questions from the ``det_*`` knobs instead, so
the inherited walker needs only these overrides: seeding in ``_eval``/
``_eval_call``, routing ``_emit_sf110`` to DT604/DT606, and the
``_in_scope`` predicate that skips the exempt modules.
"""

from __future__ import annotations

import ast

from ..config import AnalysisConfig
from ..core import ModuleContext
from ..taint.analysis import TaintAnalysis
from ..taint.model import SECRECY, make_source, merge
from ..taint.symbols import ProjectIndex

__all__ = ["OrderFlowAnalysis"]

#: Calls whose return value is a freshly constructed unordered set.
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})

#: The origin name order tokens carry (shows up in messages/traces).
_ORDER_ORIGIN = "set-iteration-order"


class _DetView:
    """The user's config re-skinned for order-taint propagation.

    Every attribute falls through to the wrapped config (pattern
    tuples, ``rule_enabled``, the ``det_*`` knobs); the name-matching
    *methods* the taint walker consults are overridden so that secrecy
    and timing never seed, order sanitizers launder, and the det sink
    vocabulary is what trips ``_check_sink_args``.
    """

    def __init__(self, config: AnalysisConfig) -> None:
        self._config = config

    def __getattr__(self, name: str):
        return getattr(self._config, name)

    # No name-based seeding: order taint roots at set construction only.
    def is_taint_source_name(self, name: str) -> bool:
        return False

    def is_secret_bytes_name(self, name: str) -> bool:
        return False

    def is_ctime_producer_name(self, name: str) -> bool:
        return False

    def is_declassified_name(self, name: str) -> bool:
        return False  # public-sounding names do not launder order

    def in_boundary_package(self, module: str) -> bool:
        return False  # SF111 logic is off entirely

    def is_sanitizer_name(self, name: str) -> bool:
        return self._config.is_det_order_sanitizer_name(name)

    def is_taint_sink_name(self, name: str) -> bool:
        return (self._config.is_det_order_sink_name(name)
                or self._config.is_det_accumulation_sink_name(name))


class OrderFlowAnalysis(TaintAnalysis):
    """The taint walker re-targeted at set-iteration-order flows."""

    def __init__(self, contexts: list[ModuleContext],
                 config: AnalysisConfig,
                 index: ProjectIndex | None = None) -> None:
        super().__init__(contexts, _DetView(config), index=index)
        self._det_config = config

    # ------------------------------------------------------------- seeding
    def _eval(self, node, st):
        taint = super()._eval(node, st)
        if isinstance(node, (ast.Set, ast.SetComp)):
            hop = self._hop(st, node, "unordered set constructed here")
            taint = merge(taint, make_source(SECRECY, _ORDER_ORIGIN, hop))
        return taint

    def _eval_call(self, node, st):
        result = super()._eval_call(node, st)
        func = node.func
        name = func.id if isinstance(func, ast.Name) else None
        if name in _SET_CONSTRUCTORS:
            hop = self._hop(st, node,
                            f"unordered set from {name}() call")
            result = merge(result,
                           make_source(SECRECY, _ORDER_ORIGIN, hop))
        elif name == "field":
            # ``field(default_factory=set)``: the dataclass attribute is
            # an unordered set even though no set expression appears.
            for kw in node.keywords:
                if (kw.arg == "default_factory"
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id in _SET_CONSTRUCTORS):
                    hop = self._hop(st, node,
                                    "unordered set default_factory")
                    result = merge(
                        result, make_source(SECRECY, _ORDER_ORIGIN, hop))
        return result

    # ------------------------------------------------------------ reporting
    def _in_scope(self, module):
        return not self._det_config.in_det_exempt_module(module)

    def _emit_sf110(self, module, line, col, origin, label, trace, st):
        short = _sink_short_name(label)
        if (short is not None
                and self._det_config.is_det_accumulation_sink_name(short)):
            self._emit(
                "DT606", module, line, col,
                f"float accumulation {short}() over operands derived from "
                "unordered set iteration — float addition is not "
                "associative, so the result is hash-order dependent; "
                "sort the operands first (see trace)", trace, st)
        else:
            self._emit(
                "DT604", module, line, col,
                f"set-iteration order reaches {label} — the observable "
                "output depends on PYTHONHASHSEED; sort before emitting "
                "(see trace)", trace, st)


def _sink_short_name(label: str) -> str | None:
    """``"configured sink sum()"`` -> ``"sum"`` (None for builtins)."""
    if label.startswith("configured sink ") and label.endswith("()"):
        return label[len("configured sink "):-2]
    return None
