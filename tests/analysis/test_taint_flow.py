"""SF110/SF111 — interprocedural taint-flow rule fixtures.

Every rule gets true-positive and true-negative fixtures, the
cross-module cases exercise the project index + call graph, and the
trace tests pin the contract that each finding carries a full
source-to-sink path with a file:line on every hop.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import all_rules, analyze_sources
from repro.analysis.core import ModuleContext
from repro.analysis.taint import run_taint
from repro.analysis.config import AnalysisConfig

from .conftest import rule_ids


def taint_lint(sources, config=None):
    """Run the full rule set *plus* the taint pass over fixture modules."""
    if isinstance(sources, str):
        sources = {"repro.net.fixture": sources}
    sources = {m: textwrap.dedent(s) for m, s in sources.items()}
    return analyze_sources(sources, config=config, taint=True)


def by_rule(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


def _contexts(sources):
    return [ModuleContext.build(Path(f"{m}.py"), f"{m}.py", m,
                                textwrap.dedent(s))
            for m, s in sources.items()]


ALIAS_LEAK = """
def show(session_key):
    alias = session_key
    print(alias)
"""

FLOCK_VAULT = """
session_key = b"\\x00" * 32

def get_session_key():
    return session_key

def get_session_tag(message):
    return hmac_digest(session_key, message)
"""

NET_CLIENT = """
from repro.flock import vault

def fetch():
    raw = vault.get_session_key()
    return raw
"""

CORE_VAULT = """
def fetch_device_key():
    device_key = load()
    return device_key
"""

NET_SHOW = """
from repro.core import vault

def show():
    material = vault.fetch_device_key()
    print(material)
"""

EQ_HELPER = """
def equal(a, b):
    return a == b
"""


class TestSF110:
    def test_alias_reaching_print_is_flagged(self):
        findings = taint_lint(ALIAS_LEAK)
        hits = by_rule(findings, "SF110")
        assert len(hits) == 1
        assert "session_key" in hits[0].message
        assert hits[0].line == 4  # at the sink, not at the alias

    def test_cross_module_return_flow_is_flagged(self):
        findings = taint_lint({"repro.core.vault": CORE_VAULT,
                               "repro.net.viewer": NET_SHOW})
        hits = by_rule(findings, "SF110")
        assert len(hits) == 1
        assert hits[0].module == "repro.net.viewer"
        assert "device_key" in hits[0].message
        # The trace spans both files: source in the vault, sink here.
        paths = {hop.path for hop in hits[0].trace}
        assert "repro.core.vault.py" in paths
        assert "repro.net.viewer.py" in paths

    def test_tuple_and_container_hops_are_followed(self):
        findings = taint_lint("""
            def pack(session_key):
                pair = (session_key, 1)
                k, _count = pair
                print(k)
        """)
        assert by_rule(findings, "SF110")

    def test_fstring_hop_is_followed(self):
        findings = taint_lint("""
            def show(device_template):
                label = f"template={device_template!r}"
                print(label)
        """)
        assert by_rule(findings, "SF110")

    def test_reassignment_clears_the_alias(self):
        findings = taint_lint("""
            def show(session_key):
                alias = session_key
                alias = "redacted"
                print(alias)
        """)
        assert by_rule(findings, "SF110") == []

    def test_trusted_layer_is_exempt(self):
        findings = taint_lint({"repro.flock.debug": ALIAS_LEAK})
        assert by_rule(findings, "SF110") == []

    def test_sanitized_value_is_clean(self):
        findings = taint_lint("""
            def show(session_key):
                fingerprint_hex = sha256_hex(session_key)
                print(fingerprint_hex)
        """)
        assert by_rule(findings, "SF110") == []

    def test_inline_suppression_applies(self):
        findings = taint_lint("""
            def show(session_key):
                alias = session_key
                print(alias)  # trust-lint: disable=SF110
        """)
        assert by_rule(findings, "SF110") == []


class TestSF101BlindSpotRetired:
    """The retired syntactic rule SF101 could not see through
    ``alias = session_key``; SF110 reports the direct name and the alias
    alike, so one rule owns the property and no sink has a blind side.
    """

    def test_sf110_catches_the_direct_name(self):
        findings = taint_lint("""
            def show(session_key):
                print(session_key)
        """)
        assert len(by_rule(findings, "SF110")) == 1
        assert "SF101" not in {rule.id for rule in all_rules()}

    def test_sf110_catches_the_alias(self):
        hits = by_rule(taint_lint(ALIAS_LEAK), "SF110")
        assert len(hits) == 1

    def test_lint_alone_reports_no_secret_sink(self):
        # The default, lint-only run leaves every secret sink, direct
        # names included, to --taint.
        findings = analyze_sources(
            {"repro.net.fixture": "print(session_key)\n"})
        assert not [f for f in findings if f.rule.startswith("SF")]


class TestSF111:
    def test_raw_secret_export_is_flagged(self):
        findings = taint_lint({"repro.flock.vault": FLOCK_VAULT,
                               "repro.net.client": NET_CLIENT})
        hits = by_rule(findings, "SF111")
        assert len(hits) == 1
        assert hits[0].module == "repro.net.client"
        assert "get_session_key" in hits[0].message
        assert any("trust boundary" in hop.note for hop in hits[0].trace)

    def test_wrapped_export_is_clean(self):
        findings = taint_lint({
            "repro.flock.vault": FLOCK_VAULT,
            "repro.net.client": """
                from repro.flock import vault

                def fetch(message):
                    tag = vault.get_session_tag(message)
                    return tag
            """,
        })
        assert by_rule(findings, "SF111") == []

    def test_trusted_consumer_is_exempt(self):
        findings = taint_lint({
            "repro.flock.vault": FLOCK_VAULT,
            "repro.crypto.consumer": """
                from repro.flock import vault

                def rewrap():
                    raw = vault.get_session_key()
                    return raw
            """,
        })
        assert by_rule(findings, "SF111") == []


class TestCD210Retirement:
    """CD210 is retired: its cases report as SC805 from the sc pass."""

    _HANDSHAKE = """
        from repro.net import util

        def handshake(session_key, candidate):
            return util.equal(session_key, candidate)
    """

    def test_taint_pass_no_longer_reports_compares(self):
        findings = taint_lint({"repro.net.util": EQ_HELPER,
                               "repro.net.session": self._HANDSHAKE})
        assert "CD210" not in rule_ids(findings)
        assert "SC805" not in rule_ids(findings)  # sc pass not requested

    def test_sc_pass_subsumes_the_interprocedural_compare(self):
        findings = analyze_sources(
            {"repro.net.util": textwrap.dedent(EQ_HELPER),
             "repro.net.session": textwrap.dedent(self._HANDSHAKE)},
            taint=True, sc=True)
        hits = by_rule(findings, "SC805")
        assert len(hits) == 1
        # Anchored at the fix site: the comparison inside the helper.
        assert hits[0].module == "repro.net.util"
        assert "constant_time_equal" in hits[0].message
        # CD202 (local + name-based) cannot see this one.
        assert "CD202" not in rule_ids(findings)

    def test_public_values_compare_freely(self):
        findings = analyze_sources(
            {"repro.net.util": textwrap.dedent(EQ_HELPER),
             "repro.net.session": textwrap.dedent("""
                 from repro.net import util

                 def handshake(domain, candidate):
                     return util.equal(domain, candidate)
             """)},
            taint=True, sc=True)
        assert by_rule(findings, "SC805") == []


class TestProjectIndex:
    def test_symbol_table_and_call_graph(self):
        contexts = _contexts({"repro.flock.vault": FLOCK_VAULT,
                              "repro.net.client": NET_CLIENT})
        _, analysis = run_taint(contexts, AnalysisConfig.default())
        assert "repro.flock.vault.get_session_key" in analysis.index.functions
        assert "repro.net.client.fetch" in analysis.index.functions
        assert ("repro.flock.vault.get_session_key"
                in analysis.call_edges["repro.net.client.fetch"])

    def test_method_resolution_through_self(self):
        contexts = _contexts({"repro.net.holder": """
            class Holder:
                def __init__(self, session_key):
                    self._raw = session_key

                def dump(self):
                    print(self._raw)
        """})
        findings, analysis = run_taint(contexts, AnalysisConfig.default())
        assert "repro.net.holder.Holder.dump" in analysis.index.functions
        assert [f.rule for f in findings] == ["SF110"]

    def test_closure_in_a_method_resolves_self(self):
        contexts = _contexts({"repro.net.holder": """
            class Holder:
                def __init__(self, session_key):
                    self._raw = session_key

                def dump(self):
                    def show():
                        print(self._raw)
                    show()
        """})
        findings, _ = run_taint(contexts, AnalysisConfig.default())
        assert [(f.rule, f.line) for f in findings] == [("SF110", 8)]


class TestTraces:
    def test_every_finding_carries_a_full_trace(self):
        findings = taint_lint({"repro.flock.vault": FLOCK_VAULT,
                               "repro.net.client": NET_CLIENT,
                               "repro.net.alias": ALIAS_LEAK})
        taint_findings = [f for f in findings
                          if f.rule in ("SF110", "SF111")]
        assert taint_findings
        for finding in taint_findings:
            assert finding.trace, f"{finding.rule} finding without a trace"
            for hop in finding.trace:
                assert hop.path
                assert hop.line >= 1
                assert hop.note
