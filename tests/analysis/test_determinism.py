"""DT6xx/RC61x — determinism & shard-isolation rule fixtures.

One seeded mutation fixture per rule, each asserting the expected
finding *and* its trace; config tests for the ``[tool.trust-lint.det]``
sub-table; and cross-stage interaction tests (suppressions and
fingerprints keep rule families distinct).
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import AnalysisConfig, analyze_sources


def det_lint(sources, config=None, taint=False):
    """Run the rules plus the determinism pass over fixture modules."""
    if isinstance(sources, str):
        sources = {"repro.net.fixture": sources}
    sources = {m: textwrap.dedent(s) for m, s in sources.items()}
    return analyze_sources(sources, config=config, taint=taint, det=True)


def by_rule(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


# --------------------------------------------------------------- fixtures

WALL_CLOCK = """
import time

def stamp(event):
    return (time.time(), event)
"""

UNSEEDED_RNG = """
import random

def jitter():
    return random.random() * 0.1
"""

ID_KEYING = """
def register(handlers, handler):
    handlers[id(handler)] = handler
"""

SET_ORDER_TO_SINK = """
def summarize(shards):
    active = {name for name in shards if shards[name]}
    report = []
    for name in active:
        report.append(name)
    return ", ".join(report)
"""

ENV_READ = """
import os

def shard_count():
    return int(os.environ.get("SHARDS", "4"))
"""

FLOAT_ACCUMULATION = """
def total_latency(samples):
    seen = set(samples)
    return sum(seen)
"""

MUTABLE_GLOBAL = """
CACHE = {}

def remember(key, value):
    CACHE[key] = value
"""

CLASS_ATTR_MUTATION = """
class Counter:
    total = 0

def bump():
    Counter.total += 1
"""

SHARD_ESCAPE = {
    "repro.net.webserver": """
        class WebServer:
            def __init__(self):
                self._sessions = {}
    """,
    "repro.runtime.dispatcher": """
        from repro.net.webserver import WebServer

        def steal(victim: WebServer):
            return victim._sessions
    """,
}


class TestNondeterminismSources:
    def test_dt601_wall_clock_read(self):
        findings = by_rule(det_lint(WALL_CLOCK), "DT601")
        assert len(findings) == 1
        assert "time.time" in findings[0].message
        assert findings[0].line == 5
        assert any("wall-clock" in hop.note for hop in findings[0].trace)

    def test_dt602_global_rng_draw(self):
        findings = by_rule(det_lint(UNSEEDED_RNG), "DT602")
        assert len(findings) == 1
        assert "random.random" in findings[0].message

    def test_dt602_seeded_constructor_is_clean(self):
        clean = """
        import random

        def stream(seed):
            return random.Random(seed)
        """
        assert not by_rule(det_lint(clean), "DT602")

    def test_dt603_id_keying(self):
        findings = by_rule(det_lint(ID_KEYING), "DT603")
        assert len(findings) == 1
        assert "id()" in findings[0].message

    def test_dt604_set_order_reaches_join(self):
        findings = by_rule(det_lint(SET_ORDER_TO_SINK), "DT604")
        assert len(findings) == 1
        finding = findings[0]
        assert "PYTHONHASHSEED" in finding.message
        # Full construction-to-sink trace, every hop anchored.
        notes = [hop.note for hop in finding.trace]
        assert any("unordered set" in note for note in notes)
        assert any("reaches" in note for note in notes)
        assert all(hop.path and hop.line for hop in finding.trace)

    def test_dt604_inside_a_nested_def(self):
        findings = by_rule(det_lint("""
            def summarize(shards):
                def render():
                    active = {name for name in shards if shards[name]}
                    return ", ".join(active)
                return render
        """), "DT604")
        assert [f.line for f in findings] == [5]

    def test_dt604_sorted_launders_order(self):
        clean = """
        def summarize(shards):
            active = {name for name in shards if shards[name]}
            return ", ".join(sorted(active))
        """
        assert not by_rule(det_lint(clean), "DT604")

    def test_dt605_environ_read(self):
        findings = by_rule(det_lint(ENV_READ), "DT605")
        assert findings
        assert "os.environ" in findings[0].message

    def test_dt606_float_accumulation_is_warning(self):
        findings = by_rule(det_lint(FLOAT_ACCUMULATION), "DT606")
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert "not associative" in findings[0].message
        assert any("unordered set" in hop.note for hop in findings[0].trace)


class TestShardIsolationEscapes:
    def test_rc610_module_global_mutation(self):
        findings = by_rule(det_lint(MUTABLE_GLOBAL), "RC610")
        assert len(findings) == 1
        finding = findings[0]
        assert "CACHE" in finding.message
        # Two hops: the definition and the mutation site.
        assert len(finding.trace) == 2
        assert "defined here" in finding.trace[0].note
        assert finding.trace[0].line == 2
        assert finding.trace[1].line == finding.line

    def test_rc610_import_time_construction_is_clean(self):
        clean = """
        REGISTRY = {}

        def _register(name, value):
            REGISTRY[name] = value
        REGISTRY["a"] = 1
        """
        # Module-level writes are import-time; only the function-body
        # mutation flags.
        findings = by_rule(det_lint(clean), "RC610")
        assert len(findings) == 1
        assert findings[0].line == 5

    def test_rc611_class_attribute_mutation(self):
        findings = by_rule(det_lint(CLASS_ATTR_MUTATION), "RC611")
        assert len(findings) == 1
        assert "Counter.total" in findings[0].message

    def test_rc611_instance_attribute_is_clean(self):
        clean = """
        class Counter:
            def __init__(self):
                self.total = 0

            def bump(self):
                self.total += 1
        """
        assert not by_rule(det_lint(clean), "RC611")

    def test_rc612_private_reach_in_on_shard_root(self):
        findings = by_rule(det_lint(SHARD_ESCAPE), "RC612")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.severity == "warning"
        assert "WebServer._sessions" in finding.message
        assert finding.module == "repro.runtime.dispatcher"
        assert any("reach-in" in hop.note for hop in finding.trace)

    def test_rc612_conduit_call_is_clean(self):
        sources = dict(SHARD_ESCAPE)
        sources["repro.runtime.dispatcher"] = """
            from repro.net.webserver import WebServer

            def migrate(source: WebServer, target: WebServer, account):
                blob = source.export_account(account)
                return target.import_account(blob)
        """
        assert not by_rule(det_lint(sources), "RC612")


class TestDetConfig:
    def test_pyproject_det_overrides(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(textwrap.dedent("""
            [tool.trust-lint.det]
            exempt-modules = ["somepkg.generated"]
            extend-order-sinks = ["publish*"]
            extend-sanitizers = ["stable_order"]
            shard-packages = ["somepkg.workers"]
            extend-conduits = ["hand_off"]
        """))
        config = AnalysisConfig.from_pyproject(pyproject)
        assert config.in_det_exempt_module("somepkg.generated")
        assert not config.in_det_exempt_module("repro.analysis.engine")
        assert config.is_det_order_sink_name("publish_report")
        assert config.is_det_order_sanitizer_name("stable_order")
        assert config.in_det_shard_package("somepkg.workers.pool")
        assert config.is_det_conduit_name("hand_off")

    def test_unknown_det_key_is_rejected(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.trust-lint.det]\nextend-sink = []\n")
        with pytest.raises(ValueError, match="extend-sink"):
            AnalysisConfig.from_pyproject(pyproject)

    def test_extended_sink_trips_dt604(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(textwrap.dedent("""
            [tool.trust-lint.det]
            extend-order-sinks = ["publish*"]
        """))
        config = AnalysisConfig.from_pyproject(pyproject)
        source = """
        def publish_names(names):
            pass

        def emit(pool):
            members = set(pool)
            publish_names(members)
        """
        findings = by_rule(det_lint(source, config=config), "DT604")
        assert len(findings) == 1
        assert "publish_names" in findings[0].message


class TestExemptModules:
    """Code in ``exempt-modules`` reports nothing of its own, but its
    calls still carry order taint into sinks recorded in scope."""

    SHOW = """
        def show(items):
            print(", ".join(items))
    """

    def test_exempt_caller_reaches_an_in_scope_sink(self):
        findings = det_lint({
            "repro.util": self.SHOW,
            "repro.analysis.tool": """
                from repro.util import show

                def run(names):
                    show({name for name in names})
            """,
        })
        found = by_rule(findings, "DT604")
        assert [(f.module, f.line) for f in found] == [("repro.util", 3)] * 2

    def test_exempt_code_alone_is_not_walked_for_reports(self, monkeypatch):
        from repro.analysis.determinism.flow import OrderFlowAnalysis

        walked = []
        walk = OrderFlowAnalysis._walk_function

        def recording(self, info, report):
            if report:
                walked.append(info.qualname)
            walk(self, info, report)

        monkeypatch.setattr(OrderFlowAnalysis, "_walk_function", recording)
        findings = det_lint({
            "repro.util": self.SHOW,
            "repro.analysis.tool": """
                def run(names):
                    print(", ".join({name for name in names}))
            """,
        })
        assert not by_rule(findings, "DT604")
        assert walked == ["repro.util.show"]


class TestCrossStageInteraction:
    def test_sf110_suppression_does_not_silence_dt604(self):
        """Per-rule suppressions are rule-scoped, not stage-scoped."""
        source = """
        # trust-lint: disable-file=SF110

        def leak(session_key, shards):
            alias = session_key
            pending = set(shards)
            print(alias, pending)
        """
        findings = det_lint(source, taint=True)
        assert not by_rule(findings, "SF110")  # suppressed
        assert by_rule(findings, "DT604")  # still reported

    def test_det_suppression_does_not_silence_sf110(self):
        source = """
        # trust-lint: disable-file=DT604

        def leak(session_key, shards):
            alias = session_key
            pending = set(shards)
            print(alias, pending)
        """
        findings = det_lint(source, taint=True)
        assert by_rule(findings, "SF110")
        assert not by_rule(findings, "DT604")

    def test_fingerprints_keep_rule_families_distinct(self):
        """An SF and a DT finding on the same line keep separate SARIF
        ``partialFingerprints``: fingerprints include the rule id."""
        source = textwrap.dedent("""
        def leak(session_key, shards):
            alias = session_key
            pending = set(shards)
            print(alias, pending)
        """)
        findings = det_lint({"repro.net.fixture": source}, taint=True)
        sf = by_rule(findings, "SF110")
        dt = by_rule(findings, "DT604")
        assert sf and dt
        assert sf[0].fingerprint() != dt[0].fingerprint()
