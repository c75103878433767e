"""SC800–SC805 — side-channel flow rules and the dynamic trace witness.

Every rule gets a seeded mutation fixture (the minimal secret-dependent
construct it must catch) plus a clean counterpart; the declassification
model (``is None``, membership, ``constant_time_equal``, public
patterns) is pinned explicitly; the suppression audit proves the only
SC suppressions in the tree live inside the documented modpow boundary
and carry reasons; and the witness tests run the branch/opcode-trace
harness over the constant-time primitives — the same RSA code every
caller runs, ladder and CRT included.
"""

from __future__ import annotations

import ast
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import analyze_sources
from repro.analysis.config import AnalysisConfig
from repro.analysis.core import ModuleContext
from repro.analysis.sidechannel.witness import (compare_traces, record_trace,
                                                run_witness, witness_cases)

from .conftest import rule_ids

REPO_ROOT = Path(__file__).resolve().parents[2]


def sc_lint(sources, config=None):
    """Run the full rule set *plus* the sc pass over fixture modules."""
    if isinstance(sources, str):
        sources = {"repro.crypto.fixture": sources}
    sources = {m: textwrap.dedent(s) for m, s in sources.items()}
    return analyze_sources(sources, config=config, sc=True)


def by_rule(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


class TestSC800Branch:
    def test_branch_on_secret_is_flagged(self):
        hits = by_rule(sc_lint("""
            def route(session_key):
                if session_key:
                    return 1
                return 0
        """), "SC800")
        assert len(hits) == 1
        assert "session_key" in hits[0].message
        assert hits[0].trace  # every sc finding carries a trace

    def test_branch_on_public_value_is_clean(self):
        findings = sc_lint("""
            def route(domain):
                if domain:
                    return 1
                return 0
        """)
        assert by_rule(findings, "SC800") == []

    def test_is_none_presence_check_is_declassified(self):
        findings = sc_lint("""
            def enrolled(device_template):
                if device_template is not None:
                    return True
                return False
        """)
        assert by_rule(findings, "SC800") == []

    def test_const_guarded_compare_result_steers_branch(self):
        # ``x == 5`` against a constant is not an SC805 (the guard is
        # fine) but its *result* still carries the dependence: branching
        # on it reports where the fork happens.
        hits = by_rule(sc_lint("""
            def pick(private_flag):
                ok = private_flag == 5
                if ok:
                    return 1
                return 0
        """), "SC800")
        assert len(hits) == 1


class TestSC801Loops:
    def test_while_on_secret_is_flagged(self):
        hits = by_rule(sc_lint("""
            def countdown(private_exponent):
                while private_exponent:
                    private_exponent = private_exponent >> 1
        """), "SC801")
        assert len(hits) == 1
        assert "private_exponent" in hits[0].message

    def test_secret_range_bound_is_flagged(self):
        hits = by_rule(sc_lint("""
            def spin(private_count):
                total = 0
                for _ in range(private_count):
                    total += 1
                return total
        """), "SC801")
        assert len(hits) == 1

    def test_early_exit_inside_loop_is_flagged(self):
        hits = by_rule(sc_lint("""
            def find(secret_code, items):
                for item in items:
                    if item > secret_code:
                        return item
                return None
        """), "SC801")
        assert len(hits) == 1

    def test_nested_def_in_a_loop_branches_outside_it(self):
        # The nested def runs when called, not inside the loop that
        # defines it: its early return is a branch (SC800), not a loop
        # exit (SC801).
        findings = sc_lint("""
            def build(items):
                handlers = []
                for item in items:
                    def handler(session_key):
                        if session_key:
                            return item
                        return None
                    handlers.append(handler)
                return handlers
        """)
        assert [(f.rule, f.line) for f in findings
                if f.rule.startswith("SC")] == [("SC800", 6)]

    def test_fixed_trip_arithmetic_select_is_clean(self):
        findings = sc_lint("""
            def fold(private_d):
                acc = 0
                for i in range(16):
                    acc |= (private_d >> i) & 1
                return acc
        """)
        assert by_rule(findings, "SC801") == []
        assert by_rule(findings, "SC800") == []


class TestSC802Subscript:
    def test_secret_indexed_lookup_is_flagged(self):
        hits = by_rule(sc_lint("""
            def sbox(private_index, table):
                return table[private_index]
        """), "SC802")
        assert len(hits) == 1

    def test_secret_membership_probe_is_flagged(self):
        hits = by_rule(sc_lint("""
            def known(private_index, table):
                return private_index in table
        """), "SC802")
        assert len(hits) == 1

    def test_public_needle_in_secret_container_is_clean(self):
        # Membership walks the container's keys/hashes: a public needle
        # probed against a secret-holding store leaks nothing.
        findings = sc_lint("""
            def lookup(domain, key_store):
                return domain in key_store
        """)
        assert by_rule(findings, "SC802") == []

    def test_constant_subscript_is_clean(self):
        findings = sc_lint("""
            def first(session_key):
                return session_key[0]
        """)
        assert by_rule(findings, "SC802") == []


class TestSC803Bigint:
    def test_secret_modulo_is_flagged(self):
        hits = by_rule(sc_lint("""
            def reduce(private_d, modulus):
                return private_d % modulus
        """), "SC803")
        assert len(hits) == 1

    def test_secret_pow_call_is_flagged(self):
        hits = by_rule(sc_lint("""
            def raise_to(base, private_d, modulus):
                return pow(base, private_d, modulus)
        """), "SC803")
        assert len(hits) == 1

    def test_constant_cost_arithmetic_is_clean(self):
        findings = sc_lint("""
            def mix(private_d):
                return (private_d + 1) * 3 ^ 0x5A
        """)
        assert by_rule(findings, "SC803") == []


class TestSC804Length:
    def test_length_sized_allocation_is_flagged(self):
        hits = by_rule(sc_lint("""
            def pad(session_key):
                return bytes(len(session_key))
        """), "SC804")
        assert len(hits) == 1
        assert "len(session_key)" in hits[0].message

    def test_length_bounded_loop_is_flagged(self):
        hits = by_rule(sc_lint("""
            def wipe(session_key):
                out = []
                for _ in range(len(session_key)):
                    out.append(0)
                return out
        """), "SC804")
        assert len(hits) == 1

    def test_length_guard_idiom_is_approved(self):
        # ``if len(a) != len(b)`` is the approved constant-time-equal
        # prelude: length may guard, it must not size.
        findings = sc_lint("""
            def gate(session_key, candidate_key):
                if len(session_key) != len(candidate_key):
                    return False
                return constant_time_equal(session_key, candidate_key)
        """)
        assert by_rule(findings, "SC804") == []
        assert by_rule(findings, "SC800") == []


class TestSC805Compare:
    def test_mac_output_equality_is_flagged(self):
        hits = by_rule(sc_lint({"repro.net.fixture": """
            def check(message, provided):
                expected_value = hmac_sha256(b"k", message)
                return expected_value == provided
        """}), "SC805")
        assert len(hits) == 1
        assert "constant_time_equal" in hits[0].message

    def test_constant_time_helper_is_clean(self):
        findings = sc_lint({"repro.net.fixture": """
            def check(message, provided):
                expected_value = hmac_sha256(b"k", message)
                return constant_time_equal(expected_value, provided)
        """})
        assert by_rule(findings, "SC805") == []

    def test_direct_secret_bytes_compare_stays_cd202(self):
        # Direct ``session_key == candidate`` is the local name-based
        # rule's territory; SC805 covers what CD202 cannot see.
        findings = sc_lint({"repro.net.fixture": """
            def check(session_key, candidate):
                return session_key == candidate
        """})
        assert by_rule(findings, "SC805") == []
        assert "CD202" in rule_ids(findings)


class TestInterprocedural:
    HELPER = """
        def pick(value, table):
            if value:
                return table[0]
            return table[1]
    """

    def test_secret_steering_a_callee_branch_is_traced(self):
        findings = sc_lint({"repro.crypto.helper": self.HELPER,
                            "repro.net.caller": """
            from repro.crypto import helper

            def run(session_key, table):
                return helper.pick(session_key, table)
        """})
        hits = by_rule(findings, "SC800")
        assert len(hits) == 1
        # Anchored at the fix site: the branch inside the helper.
        assert hits[0].module == "repro.crypto.helper"
        assert "session_key" in hits[0].message
        paths = {hop.path for hop in hits[0].trace}
        assert "repro.net.caller.py" in paths
        assert "repro.crypto.helper.py" in paths

    def test_public_argument_through_same_helper_is_clean(self):
        findings = sc_lint({"repro.crypto.helper": self.HELPER,
                            "repro.net.caller": """
            from repro.crypto import helper

            def run(domain, table):
                return helper.pick(domain, table)
        """})
        assert by_rule(findings, "SC800") == []

    def test_modules_outside_sc_scope_are_not_reported(self):
        findings = sc_lint({"repro.runtime.helper": """
            def route(session_key):
                if session_key:
                    return 1
                return 0
        """})
        assert [f for f in findings if f.rule.startswith("SC")] == []


class TestDeclassification:
    def test_constant_time_equal_result_may_branch(self):
        # The whole point of the discipline: route the compare through
        # the helper, then branch freely on its boolean.
        findings = sc_lint("""
            def gate(session_key, candidate):
                ok = constant_time_equal(session_key, candidate)
                if ok:
                    return 1
                return 0
        """)
        assert [f for f in findings if f.rule.startswith("SC")] == []

    def test_extended_public_patterns_declassify(self):
        fixture = """
            def poll(has_private_key):
                if has_private_key:
                    return 1
                return 0
        """
        base = AnalysisConfig.default()
        assert by_rule(sc_lint(fixture, config=base), "SC800")
        widened = replace(
            base, sc_public_patterns=base.sc_public_patterns + ("has_*",))
        assert by_rule(sc_lint(fixture, config=widened), "SC800") == []

    def test_declassifier_bodies_are_not_walked(self):
        # A function *named* like the audited comparator is the
        # discipline's implementation, not a subject of it.
        findings = sc_lint("""
            def constant_time_equal(a_key, b_key):
                result = 0
                for x, y in zip(a_key, b_key):
                    if x != y:
                        result = 1
                return result == 0
        """)
        assert [f for f in findings if f.rule.startswith("SC")] == []

    @pytest.mark.parametrize("scope", [
        "def make(session_key):\n"
        "    def verify_tag(t):\n"
        "        if session_key[0]:\n"
        "            return t\n"
        "    return verify_tag\n",
        "def make(session_key):\n"
        "    class HmacState:\n"
        "        def step(self):\n"
        "            if session_key[0]:\n"
        "                return 1\n"
        "    return HmacState\n",
    ], ids=["nested-def", "local-class-method"])
    def test_nested_declassifier_bodies_are_not_walked(self, scope):
        # The walker reads nested scopes, but one named like a
        # declassifier is exempt there exactly as at top level.
        findings = sc_lint(scope)
        assert [f for f in findings if f.rule.startswith("SC")] == []
        branching = scope.replace("verify_tag", "route_tag") \
            .replace("HmacState", "RouteState")
        assert [f.rule for f in sc_lint(branching)
                if f.rule.startswith("SC")] == ["SC800"]


class TestSuppressionAudit:
    """The acceptance bar: SC suppressions exist only inside the
    documented modpow boundary, and every one carries a reason."""

    @staticmethod
    def _boundary_spans(config):
        # Qualnames may carry a class segment (``...rsa.RsaPrivateKey.
        # _private_op``): the module is the longest prefix that exists
        # as a file, the last segment is the function to span.
        spans = {}
        for qualname in config.sc_modpow_boundary:
            parts = qualname.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                path = (REPO_ROOT / "src"
                        / Path(*parts[:cut]).with_suffix(".py"))
                if path.is_file():
                    spans.setdefault(".".join(parts[:cut]), {})[
                        parts[-1]] = None
                    break
            else:
                raise AssertionError(f"unresolvable boundary: {qualname}")
        for module, wanted in spans.items():
            path = REPO_ROOT / "src" / Path(*module.split(".")).with_suffix(
                ".py")
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.name in wanted):
                    wanted[node.name] = (node.lineno, node.end_lineno)
        return spans

    def test_sc_suppressions_only_in_boundary_and_reason_coded(self):
        config = AnalysisConfig.default()
        spans = self._boundary_spans(config)
        audited = 0
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
            text = path.read_text()
            if "disable=SC" not in text:
                continue
            rel = path.relative_to(REPO_ROOT / "src")
            module = ".".join(rel.with_suffix("").parts)
            ctx = ModuleContext.build(path, str(rel), module, text)
            for line, rules in ctx.line_suppressions.items():
                sc_rules = {r for r in (rules or ()) if r.startswith("SC")}
                if not sc_rules:
                    continue
                audited += 1
                assert module in spans, (
                    f"SC suppression outside the boundary: {rel}:{line}")
                assert any(lo <= line <= hi
                           for span in spans[module].values()
                           if span for lo, hi in [span]), (
                    f"SC suppression outside the boundary: {rel}:{line}")
                assert ctx.suppression_reasons.get(line), (
                    f"SC suppression without a reason: {rel}:{line}")
        assert audited > 0  # the boundary is real: rsa.py carries them

    def test_accelerated_backend_interior_is_in_the_boundary(self):
        """The accelerated paths folded into ``rsa.py`` — CRT parameters
        derived once per key, the CRT private op, the Montgomery ladder —
        are the whole boundary; the repo's pyproject leaves it at that
        default, and every boundary function carries reason-coded
        suppressions (none is listed for nothing)."""
        config = AnalysisConfig.default()
        assert set(config.sc_modpow_boundary) == {
            "repro.crypto.rsa.RsaPrivateKey.__post_init__",
            "repro.crypto.rsa.RsaPrivateKey._private_op",
            "repro.crypto.rsa._ladder_pow"}
        pyproject = AnalysisConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
        assert pyproject.sc_modpow_boundary == config.sc_modpow_boundary
        spans = self._boundary_spans(config)
        assert set(spans) == {"repro.crypto.rsa"}
        path = REPO_ROOT / "src" / "repro" / "crypto" / "rsa.py"
        rel = path.relative_to(REPO_ROOT / "src")
        ctx = ModuleContext.build(path, str(rel), "repro.crypto.rsa",
                                  path.read_text())
        sc_lines = [line for line, rules in ctx.line_suppressions.items()
                    if any(r.startswith("SC") for r in (rules or ()))]
        for name, (lo, hi) in spans["repro.crypto.rsa"].items():
            assert any(lo <= line <= hi for line in sc_lines), (
                f"boundary function {name} carries no SC suppression")
        for line in sc_lines:
            assert ctx.suppression_reasons.get(line), (
                f"rsa.py:{line} suppression without a reason")


@pytest.fixture(scope="module")
def witness_results():
    return {r.name: r for r in run_witness()}


class TestWitness:
    def test_mac_compare_traces_identically(self, witness_results):
        result = witness_results["mac-compare"]
        assert result.equal
        assert result.events_a > 0  # the tracer really saw crypto frames

    def test_chacha20_keystream_traces_identically(self, witness_results):
        result = witness_results["chacha20-keystream"]
        assert result.equal
        assert result.events_a > 0

    def test_rsa_private_op_traces_identically(self, witness_results):
        result = witness_results["rsa-private-op"]
        assert result.equal
        assert result.events_a > 0

    def test_rsa_unpad_traces_identically(self, witness_results):
        result = witness_results["rsa-decrypt-unpad"]
        assert result.equal
        assert result.events_a > 0

    @pytest.mark.parametrize("case,frame", [
        ("rsa-private-op", "_private_op"),
        ("rsa-decrypt-unpad", "_ladder_pow"),
    ])
    def test_rsa_traces_cover_the_code_that_runs(self, case, frame):
        # Signing records the CRT op, decryption the ladder it runs on:
        # the witness traces the fleet's RSA code, not a stand-in.
        run_a = next(a for name, a, _ in witness_cases() if name == case)
        assert frame in {event[1] for event in record_trace(run_a)}

    def test_harness_detects_an_early_exit_compare(self):
        # Negative control: a naive compare MUST diverge, or the
        # witness proves nothing.
        def naive_equal(a, b):
            for x, y in zip(a, b):
                if x != y:
                    return False
            return True

        tag = bytes(range(32))
        broken = bytes([tag[0] ^ 0xFF]) + tag[1:]
        result = compare_traces(
            "naive", lambda: naive_equal(tag, tag),
            lambda: naive_equal(tag, broken),
            in_scope=lambda code: code.co_name == "naive_equal")
        assert not result.equal
        assert result.divergence_index >= 0
        assert result.events_b < result.events_a

    def test_record_trace_scope_filter(self):
        def noop():
            return 1

        assert record_trace(noop) == []  # not a crypto frame
