"""SF110 — a secret reaches an observable sink, by its own name.

SF110 is the one rule for "a secret reaches a sink": the taint pass
reports a secret written straight into a sink exactly as it reports one
that got there through aliases, containers or calls
(``test_taint_flow.py``).  These fixtures pin the direct cases, in every
scope a sink can sit in: the taint walker reads nested defs, lambdas,
class bodies and the methods of classes defined inside functions, which
the symbol index does not model.

Fixtures that exercise the ``print()`` sink use a ``cli`` module
basename so OB501 (no print in library code) stays out of the way;
SF110 keys off the *package*, not the basename, so its behaviour is
identical.
"""

from __future__ import annotations

import sys
import textwrap

import pytest

from repro.analysis import AnalysisConfig, analyze_sources

from .conftest import rule_ids

MODULE = "repro.net.cli"

#: Sink snippets around ``{value}``.  Calls are expressions, so they fit
#: every scope; a raise is a statement, so lambdas and comprehensions
#: cannot hold one.  A raised call may build the exception through a
#: project function (``make_error``, ``Rejecting._reject`` below).
CALL_SINKS = {
    "print": "print({value})",
    "logger.info": "logger.info({value})",
    "warnings.warn": "warnings.warn({value})",
}
RAISE_SINKS = {
    "raise-positional": "raise ValueError({value})",
    "raise-keyword": "raise LeakError(detail={value})",
    "raise-factory": "raise make_error({value})",
    "raise-method-factory": 'raise self._reject("x", {value})',
}
#: Where a sink statement can sit; ``{sink}`` is one line of it.
STATEMENT_SCOPES = {
    "module": "{sink}",
    "function": "def run():\n    {sink}",
    "method": "class Holder(Rejecting):\n    def run(self):\n        {sink}",
    "nested-def": "def outer():\n    def run():\n        {sink}\n    return run",
    "method-closure": ("class Holder(Rejecting):\n    def run(self):\n"
                       "        def inner():\n            {sink}\n"
                       "        return inner"),
    "class-body": "class Holder:\n    {sink}",
    "local-class-method": ("def outer():\n    class Holder:\n"
                           "        def run(self):\n            {sink}\n"
                           "    return Holder"),
}
EXPRESSION_SCOPES = {
    "lambda": "run = lambda: {sink}",
    "comprehension": "runs = [{sink} for _ in range(2)]",
}
#: Where a string-conversion dunder can be defined; its return value is
#: the sink.
DUNDER_SCOPES = {
    "function": "def {dunder}(self):\n    return {value}",
    "method": "class Holder:\n    def {dunder}(self):\n        return {value}",
    "nested-def": ("def outer():\n    def {dunder}(self):\n"
                   "        return {value}\n    return {dunder}"),
    "class-body": ("class Outer:\n    class Holder:\n"
                   "        def {dunder}(self):\n            return {value}"),
    "local-class-method": ("def outer():\n    class Holder:\n"
                           "        def {dunder}(self):\n"
                           "            return {value}\n    return Holder"),
}
#: Expressions evaluated where a def, lambda, class, dict or match
#: stands, outside any body.
HEADERS = {
    "decorator": "@register(print(session_key))\ndef run():\n    pass",
    "default-argument": "def run(x=print(session_key)):\n    pass",
    "lambda-default": "run = lambda x=print(session_key): x",
    "class-base": "class Holder(make_base(print(session_key))):\n    pass",
    "class-keyword": ("class Holder(Base, meta=print(session_key)):\n"
                      "    pass"),
    "dict-key": "table = {print(session_key): 1}",
    "dict-comprehension-key": ("table = {print(session_key): n"
                               " for n in range(2)}"),
    "match-guard": ("def run(x):\n    match x:\n"
                    "        case 1 if print(session_key):\n"
                    "            pass"),
}
#: How the secret is written at the sink.
SHAPES = {
    "name": "session_key",
    "attribute": "vault.session_key",
    "fstring": 'f"key={session_key}"',
}
PRELUDE = """\
import logging
import warnings

logger = logging.getLogger(__name__)


class LeakError(Exception):
    pass


def make_error(detail):
    return LeakError(detail)


class Rejecting:
    def _reject(self, reason, detail):
        return LeakError(reason, detail)


"""


def _cases():
    """(id, snippet with ``{value}``) for every sink in every scope."""
    for sink, snippet in {**CALL_SINKS, **RAISE_SINKS}.items():
        scopes = dict(STATEMENT_SCOPES)
        if sink in CALL_SINKS:
            scopes.update(EXPRESSION_SCOPES)
        for scope, template in scopes.items():
            yield f"{sink}-{scope}", template.replace("{sink}", snippet)
    for dunder in ("__repr__", "__str__"):
        for scope, template in DUNDER_SCOPES.items():
            yield f"{dunder}-{scope}", template.replace("{dunder}", dunder)


CASES = dict(_cases())


def corpus_source(case: str, value: str) -> tuple[str, int]:
    """(module source, line the secret is written on) for one case."""
    return module_source(CASES[case].replace("{value}", value), value)


def module_source(snippet: str, marker: str) -> tuple[str, int]:
    """(``snippet`` after the prelude, the line ``marker`` is on)."""
    source = PRELUDE + snippet + "\n"
    line = next(number for number, text
                in enumerate(source.splitlines(), start=1)
                if marker in text)
    return source, line


def taint_lint(source, module=MODULE, config=None):
    """The full rule set plus the taint pass over one fixture module."""
    return analyze_sources({module: textwrap.dedent(source)},
                           config=config, taint=True)


def sf110_lines(findings) -> list[int]:
    return [f.line for f in findings if f.rule == "SF110"]


class TestSecretSinks:
    def test_secret_printed_is_flagged(self):
        findings = taint_lint("print(session_key)\n")
        assert rule_ids(findings) == ["SF110"]
        assert "session_key" in findings[0].message

    def test_secret_in_fstring_to_print_is_flagged(self):
        findings = taint_lint('print(f"template bytes: {template}")\n')
        assert rule_ids(findings) == ["SF110"]

    def test_secret_logged_is_flagged(self):
        findings = taint_lint(
            "import logging\n"
            "logger = logging.getLogger(__name__)\n"
            "def f(device_seed):\n"
            "    logger.info(device_seed)\n",
            module="repro.net.badmod")
        assert rule_ids(findings) == ["SF110"]

    def test_secret_in_exception_message_is_flagged(self):
        findings = taint_lint(
            "def f(minutiae):\n"
            '    raise ValueError(f"bad capture: {minutiae}")\n',
            module="repro.net.badmod")
        assert rule_ids(findings) == ["SF110"]

    def test_secret_in_repr_is_flagged(self):
        findings = taint_lint(
            "class Record:\n"
            "    def __repr__(self):\n"
            '        return f"Record({self.private_key})"\n',
            module="repro.net.badmod")
        assert rule_ids(findings) == ["SF110"]

    def test_secret_returned_from_str_is_flagged(self):
        findings = taint_lint(
            "class Record:\n"
            "    def __str__(self):\n"
            "        return self.password\n",
            module="repro.net.badmod")
        assert rule_ids(findings) == ["SF110"]


class TestDirectNamesReachEverySink:
    """Cases the split between a syntactic rule and the taint pass missed:
    each gave no finding, or two findings for one defect, before SF110
    reported direct names."""

    SINK_CONFIG = AnalysisConfig(taint_sinks=("set_attribute",))

    def test_direct_name_into_configured_sink(self):
        findings = taint_lint("""
            def record(span, session_key):
                span.set_attribute("k", session_key)
        """, module="repro.net.fixture", config=self.SINK_CONFIG)
        assert sf110_lines(findings) == [3]
        assert "configured sink set_attribute()" in findings[0].message

    def test_fstring_into_configured_sink(self):
        findings = taint_lint("""
            def record(span, session_key):
                span.set_attribute("k", f"{session_key}")
        """, module="repro.net.fixture", config=self.SINK_CONFIG)
        assert sf110_lines(findings) == [3]

    def test_exception_keyword_argument(self):
        findings = taint_lint("""
            class E(Exception):
                pass

            def fail(private_key):
                raise E(detail=private_key)
        """, module="repro.net.fixture")
        assert sf110_lines(findings) == [6]
        assert "exception argument" in findings[0].message

    def test_repr_fstring_is_one_finding(self):
        findings = taint_lint("""
            class A:
                def __repr__(self):
                    return f"A({self.session_key})"
        """, module="repro.net.fixture")
        assert [(f.rule, f.line, f.col) for f in findings] \
            == [("SF110", 4, 8)]
        assert "__repr__() return value" in findings[0].message


class TestEveryScope:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("case", CASES)
    def test_secret_at_sink_is_flagged(self, case, shape):
        source, line = corpus_source(case, SHAPES[shape])
        assert sf110_lines(taint_lint(source)) == [line]

    @pytest.mark.parametrize("position", HEADERS)
    def test_secret_outside_any_body_is_flagged(self, position):
        source, line = module_source(HEADERS[position], "session_key")
        assert sf110_lines(taint_lint(source)) == [line]

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="except* is Python 3.11 syntax")
    def test_secret_in_except_star_handler_is_flagged(self):
        findings = taint_lint("""
            def run(session_key):
                try:
                    pass
                except* ValueError:
                    print(session_key)
        """)
        assert sf110_lines(findings) == [6]

    @pytest.mark.parametrize("value", [
        "public_key", "len(minutiae)", "keystroke_timings",
        'f"{len(minutiae)} minutiae found"'])
    @pytest.mark.parametrize("scope", [*STATEMENT_SCOPES,
                                       *EXPRESSION_SCOPES])
    def test_public_value_at_sink_is_clean(self, scope, value):
        template = {**STATEMENT_SCOPES, **EXPRESSION_SCOPES}[scope]
        source, _ = module_source(
            template.replace("{sink}", f"print({value})"), value)
        assert sf110_lines(taint_lint(source)) == []

    @pytest.mark.parametrize("case", [case for case in CASES
                                      if case.startswith("print-")])
    def test_trusted_layer_is_exempt(self, case):
        source, _ = corpus_source(case, SHAPES["name"])
        assert sf110_lines(taint_lint(source,
                                      module="repro.flock.cli")) == []


class TestSecretNegatives:
    def test_public_key_is_not_secret(self):
        findings = taint_lint('print(f"bound {public_key}")\n')
        assert findings == []

    def test_derived_count_is_not_flagged(self):
        # len(minutiae) prints a count, not the minutiae themselves.
        findings = taint_lint('print(f"{len(minutiae)} minutiae found")\n')
        assert findings == []

    def test_plain_fstring_outside_sinks_is_clean(self):
        # An f-string is not a sink; only where it goes can be.
        findings = taint_lint('label = f"run-{seed}"\n',
                              module="repro.eval.goodmod")
        assert findings == []

    def test_trusted_layer_is_exempt(self):
        findings = taint_lint("print(session_key)\n",
                              module="repro.flock.cli")
        assert findings == []

    def test_keystroke_features_are_not_secrets(self):
        findings = taint_lint("print(keystroke_timings)\n",
                              module="repro.baselines.cli")
        assert findings == []


class TestSecretSuppression:
    def test_inline_suppression(self):
        findings = taint_lint(
            "print(session_key)  # trust-lint: disable=SF110\n")
        assert findings == []

    def test_suppressing_other_rule_does_not_hide(self):
        findings = taint_lint(
            "print(session_key)  # trust-lint: disable=TB001\n")
        assert rule_ids(findings) == ["SF110"]
