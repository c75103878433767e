"""Engine behaviour: file discovery, module naming, fingerprints, config."""

from __future__ import annotations

import json
import re
import textwrap
import time
from dataclasses import fields
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, analyze_paths, render_sarif
from repro.analysis.cli import main
from repro.analysis.core import ModuleContext
from repro.analysis.engine import module_name_for


def _write_pkg(root: Path, dotted: str, name: str, source: str) -> Path:
    """Create a package chain ``dotted`` and drop ``name.py`` inside it."""
    current = root
    for part in dotted.split("."):
        current = current / part
        current.mkdir(exist_ok=True)
        (current / "__init__.py").touch()
    path = current / f"{name}.py"
    path.write_text(textwrap.dedent(source))
    return path


class TestModuleNaming:
    def test_nested_module(self, tmp_path):
        path = _write_pkg(tmp_path, "repro.net", "webserver", "x = 1\n")
        module, is_package = module_name_for(path)
        assert module == "repro.net.webserver"
        assert not is_package

    def test_package_init(self, tmp_path):
        _write_pkg(tmp_path, "repro.crypto", "rng", "x = 1\n")
        module, is_package = module_name_for(
            tmp_path / "repro" / "crypto" / "__init__.py")
        assert module == "repro.crypto"
        assert is_package

    def test_bare_script(self, tmp_path):
        path = tmp_path / "script.py"
        path.write_text("x = 1\n")
        module, is_package = module_name_for(path)
        assert module == "script"
        assert not is_package


class TestAnalyzePaths:
    def test_violations_found_across_tree(self, tmp_path):
        _write_pkg(tmp_path, "repro.crypto", "badmod", "import random\n")
        _write_pkg(tmp_path, "repro.net", "leaky", "print(session_key)\n")
        report = analyze_paths([tmp_path], taint=True)
        assert sorted(f.rule for f in report.findings) \
            == ["CD201", "OB501", "SF110"]
        assert report.files_scanned >= 2
        assert not report.clean

    def test_clean_tree(self, tmp_path):
        _write_pkg(tmp_path, "repro.net", "goodmod", "x = 1\n")
        report = analyze_paths([tmp_path])
        assert report.clean
        assert report.findings == []

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        _write_pkg(tmp_path, "repro.net", "broken", "def f(:\n")
        report = analyze_paths([tmp_path])
        assert not report.clean
        assert len(report.parse_errors) == 1

    def test_suppressed_findings_are_counted(self, tmp_path):
        _write_pkg(tmp_path, "repro.crypto", "badmod",
                   "import random  # trust-lint: disable=CD201\n")
        report = analyze_paths([tmp_path])
        assert report.clean
        assert report.suppressed_count == 1

    def test_disabled_rule_does_not_run(self, tmp_path):
        _write_pkg(tmp_path, "repro.crypto", "badmod", "import random\n")
        config = AnalysisConfig(disabled_rules=("CD201",))
        report = analyze_paths([tmp_path], config)
        assert report.clean


#: Two findings on line 2 (RB302 and CD201), one CD201 on lines 1 and 3.
_TWO_RULES = """\
import random
def f(items=[]): return random.random(){}
import random as again
"""


def _scan(tmp_path, source):
    """Scan one ``repro.crypto`` module: (rule, line) pairs and the
    suppressed count."""
    _write_pkg(tmp_path, "repro.crypto", "badmod", source)
    report = analyze_paths([tmp_path])
    return ([(f.rule, f.line) for f in report.findings],
            report.suppressed_count)


class TestSuppression:
    """An inline ``# trust-lint: disable`` comment is the one way to
    silence a finding: it covers the rules it names, on its own line or,
    as ``disable-file``, in its own module."""

    def test_unsuppressed_fixture(self, tmp_path):
        assert _scan(tmp_path, _TWO_RULES.format("")) == (
            [("CD201", 1), ("RB302", 2), ("CD201", 2), ("CD201", 3)], 0)

    def test_line_directive_covers_only_its_line(self, tmp_path):
        findings, suppressed = _scan(tmp_path, _TWO_RULES.format(
            "  # trust-lint: disable=CD201"))
        assert findings == [("CD201", 1), ("RB302", 2), ("CD201", 3)]
        assert suppressed == 1

    def test_rule_list_covers_each_listed_rule(self, tmp_path):
        findings, suppressed = _scan(tmp_path, _TWO_RULES.format(
            "  # trust-lint: disable=RB302, CD201"))
        assert findings == [("CD201", 1), ("CD201", 3)]
        assert suppressed == 2

    def test_directive_for_another_rule_silences_nothing(self, tmp_path):
        findings, suppressed = _scan(tmp_path, _TWO_RULES.format(
            "  # trust-lint: disable=CD203"))
        assert ("RB302", 2) in findings and ("CD201", 2) in findings
        assert suppressed == 0

    @pytest.mark.parametrize("directive", ["disable", "disable=*"],
                             ids=["bare", "wildcard"])
    def test_directive_without_rule_ids_covers_every_rule(self, tmp_path,
                                                          directive):
        findings, suppressed = _scan(tmp_path, _TWO_RULES.format(
            f"  # trust-lint: {directive}"))
        assert findings == [("CD201", 1), ("CD201", 3)]
        assert suppressed == 2

    def test_file_directive_covers_its_rule_on_every_line(self, tmp_path):
        findings, suppressed = _scan(
            tmp_path, "# trust-lint: disable-file=CD201\n"
            + _TWO_RULES.format(""))
        assert findings == [("RB302", 3)]
        assert suppressed == 3

    def test_bare_file_directive_covers_every_rule(self, tmp_path):
        findings, suppressed = _scan(
            tmp_path, "# trust-lint: disable-file\n" + _TWO_RULES.format(""))
        assert findings == []
        assert suppressed == 4

    def test_directive_text_in_a_string_is_not_a_comment(self, tmp_path):
        findings, suppressed = _scan(tmp_path, _TWO_RULES.format(
            '; note = "# trust-lint: disable"'))
        assert ("RB302", 2) in findings and ("CD201", 2) in findings
        assert suppressed == 0

    def test_reason_tail_is_recorded_per_line(self):
        source = ("import random  # trust-lint: disable=CD201 -- "
                  "seeded fixture\n"
                  "import os  # trust-lint: disable=CD201\n")
        ctx = ModuleContext.build(Path("m.py"), "m.py", "repro.crypto.m",
                                  source)
        assert ctx.is_suppressed("CD201", 1)
        assert not ctx.is_suppressed("RB302", 1)
        assert ctx.suppression_reasons == {1: "seeded fixture"}


class TestFingerprint:
    def test_fingerprint_survives_line_motion(self, tmp_path):
        """SARIF's ``partialFingerprints`` keep matching a finding whose
        line moved but whose text did not."""
        path = _write_pkg(tmp_path, "repro.crypto", "badmod",
                          "import random\n")
        (before,) = analyze_paths([tmp_path]).findings
        path.write_text("# a new leading comment\nimport random\n")
        (after,) = analyze_paths([tmp_path]).findings
        assert after.line == before.line + 1
        assert after.fingerprint() == before.fingerprint()

    def test_fingerprint_follows_the_line_text(self, tmp_path):
        path = _write_pkg(tmp_path, "repro.crypto", "badmod",
                          "import random\n")
        (before,) = analyze_paths([tmp_path]).findings
        path.write_text("import random as rnd\n")
        (after,) = analyze_paths([tmp_path]).findings
        assert (after.rule, after.line) == (before.rule, before.line)
        assert after.fingerprint() != before.fingerprint()

    def test_fingerprint_names_the_module(self, tmp_path):
        _write_pkg(tmp_path, "repro.crypto", "one", "import random\n")
        _write_pkg(tmp_path, "repro.crypto", "two", "import random\n")
        one, two = analyze_paths([tmp_path]).findings
        assert {one.module, two.module} == {"repro.crypto.one",
                                            "repro.crypto.two"}
        assert one.fingerprint() != two.fingerprint()

    def test_sarif_carries_the_fingerprint(self, tmp_path):
        _write_pkg(tmp_path, "repro.crypto", "badmod",
                   "import random\nimport random\n")
        report = analyze_paths([tmp_path])
        results = json.loads(render_sarif(report))["runs"][0]["results"]
        assert [r["partialFingerprints"]["trustLint/v1"] for r in results] \
            == [f.fingerprint() for f in report.findings]
        # The same text in one module: one fingerprint, two results.
        assert len(results) == 2
        assert len({f.fingerprint() for f in report.findings}) == 1


def _ext(*added):
    """Expected value of an ``extend-*`` key: the default plus ``added``."""
    return lambda default: default + added


#: Every [tool.trust-lint] key: (sub-table, "" for the top table; key;
#: TOML value; config field; expected field value).  Mixed-case values show which keys
#: lower-case (the fnmatch pattern lists) and which keep case (module,
#: qualname, path and rule-id lists).
_KEY_CASES = [
    ("", "paths", ["Lib", "tools"], "default_paths", ("Lib", "tools")),
    ("", "disable", ["RB302", "CD201"], "disabled_rules",
     ("RB302", "CD201")),
    ("", "extend-secret-patterns", ["*Pin*"], "secret_patterns",
     _ext("*pin*")),
    ("", "extend-public-patterns", ["Monkey*"], "public_patterns",
     _ext("monkey*")),
    ("taint", "extend-sources", ["*Nonce*"], "taint_sources",
     _ext("*nonce*")),
    ("taint", "extend-sinks", ["Emit*"], "taint_sinks", _ext("emit*")),
    ("taint", "extend-sanitizers", ["Wrap*"], "taint_sanitizers",
     _ext("wrap*")),
    ("det", "exempt-modules", ["Repro.Tools"], "det_exempt_modules",
     ("Repro.Tools",)),
    ("det", "extend-order-sinks", ["Publish*"], "det_order_sinks",
     _ext("publish*")),
    ("det", "extend-accumulation-sinks", ["Fold*"],
     "det_accumulation_sinks", _ext("fold*")),
    ("det", "extend-sanitizers", ["Canonical*"], "det_order_sanitizers",
     _ext("canonical*")),
    ("det", "shard-packages", ["Repro.Fleet"], "det_shard_packages",
     ("Repro.Fleet",)),
    ("det", "shard-roots", ["repro.runtime.Shard"], "det_shard_roots",
     ("repro.runtime.Shard",)),
    ("det", "extend-conduits", ["Hand_Over"], "det_conduits",
     _ext("Hand_Over")),
    ("contract", "server-modules", ["Repro.Srv"], "contract_server_modules",
     ("Repro.Srv",)),
    ("contract", "codec-modules", ["Repro.Codec"], "contract_codec_modules",
     ("Repro.Codec",)),
    ("contract", "client-modules", ["Repro.Cli"], "contract_client_modules",
     ("Repro.Cli",)),
    ("contract", "read-modules", ["Repro.Ui"], "contract_read_modules",
     ("Repro.Ui",)),
    ("contract", "consumer-paths", ["Tests"], "contract_consumer_paths",
     ("Tests",)),
    ("contract", "golden", "Golden.json", "contract_golden", "Golden.json"),
    ("contract", "decode-patterns", ["Parse*"], "contract_decode_patterns",
     ("parse*",)),
    ("contract", "envelope-names", ["Frame"], "contract_envelope_names",
     ("Frame",)),
    ("sc", "modules", ["Repro.Vault"], "sc_modules", ("Repro.Vault",)),
    ("sc", "extend-declassifiers", ["Blind*"], "sc_declassifiers",
     _ext("blind*")),
    ("sc", "extend-secret-patterns", ["*Otp*"], "sc_secret_patterns",
     _ext("*otp*")),
    ("sc", "extend-public-patterns", ["Has_*"], "sc_public_patterns",
     _ext("has_*")),
    ("sc", "modpow-boundary", ["repro.crypto.rsa.Key._Op"],
     "sc_modpow_boundary", ("repro.crypto.rsa.Key._Op",)),
]


class TestConfig:
    def test_pyproject_overrides(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(textwrap.dedent("""
            [tool.trust-lint]
            paths = ["lib"]
            disable = ["RB302"]
            extend-public-patterns = ["monkey*"]
        """))
        config = AnalysisConfig.from_pyproject(pyproject)
        assert config.default_paths == ("lib",)
        assert not config.rule_enabled("RB302")
        assert not config.is_taint_source_name("monkeypatch")
        assert config.is_taint_source_name("session_key")

    @pytest.mark.parametrize("body,key", [
        ("[tool.trust-lint]\ntypo-option = 1\n", "typo-option"),
        # Keys of retired settings: the baseline file and the verify
        # table, whose values the verify CLI flags carry.
        ('[tool.trust-lint]\nbaseline = "b.json"\n', "baseline"),
        ("[tool.trust-lint.verify]\ndepth = 12\n", "verify"),
    ], ids=["typo", "baseline", "verify-table"])
    def test_unknown_option_is_rejected(self, tmp_path, capsys, monkeypatch,
                                        body, key):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(body)
        message = f"unknown [tool.trust-lint] options: [{key!r}]"
        with pytest.raises(ValueError, match=re.escape(message)):
            AnalysisConfig.from_pyproject(pyproject)
        # The scan and verify stop with a usage error instead of running
        # on a setting they would silently ignore.
        (tmp_path / "ok.py").write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        for argv in (["ok.py"], ["verify", "--depth", "1"]):
            assert main(argv) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table,key,value,attr,expected", _KEY_CASES,
        ids=[f"{table or 'top'}:{key}" for table, key, *_ in _KEY_CASES])
    def test_every_key_lands_on_its_field(self, tmp_path, table, key, value,
                                          attr, expected):
        header = f"tool.trust-lint.{table}" if table else "tool.trust-lint"
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(f"[{header}]\n{key} = {json.dumps(value)}\n")
        config = AnalysisConfig.from_pyproject(pyproject)
        default = AnalysisConfig.default()
        if callable(expected):  # extend-* keys append to the default
            expected = expected(getattr(default, attr))
        assert getattr(config, attr) == expected
        # No other field moved.
        changed = [f.name for f in fields(AnalysisConfig)
                   if getattr(config, f.name) != getattr(default, f.name)]
        assert changed == [attr]

    @pytest.mark.parametrize("table", ["", "taint", "det", "contract",
                                       "sc"])
    def test_unknown_key_in_each_table_is_rejected(self, tmp_path, table):
        header = f"tool.trust-lint.{table}" if table else "tool.trust-lint"
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(f"[{header}]\ntypo-key = 1\n")
        with pytest.raises(ValueError, match=re.escape(
                f"unknown [{header}] options: ['typo-key']")):
            AnalysisConfig.from_pyproject(pyproject)

    def test_key_cases_cover_every_key(self):
        from repro.analysis.config import _OVERRIDES

        assert sorted((table, key) for table, key, *_ in _KEY_CASES) \
            == sorted((table, key) for table, keys in _OVERRIDES.items()
                      for key in keys)

    def test_repo_config_restates_no_default(self):
        """Each key of this repository's own ``[tool.trust-lint]`` moves
        its field off the default: a default lives in ``AnalysisConfig``
        alone, so the two cannot drift apart."""
        import tomllib

        from repro.analysis.config import _OVERRIDES

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        section = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
            "tool"]["trust-lint"]
        default = AnalysisConfig.default()
        keys = [(table, key)
                for table, values in section.items()
                if isinstance(values, dict)
                for key in values] + [
            ("", key) for key, value in section.items()
            if not isinstance(value, dict)]
        assert keys
        for table, key in keys:
            override = {table: {key: section[table][key]}} if table \
                else {key: section[key]}
            attr, _convert = _OVERRIDES[table][key]
            before = getattr(default, attr)
            after = getattr(default.with_overrides(override), attr)
            if key.startswith("extend-"):
                added = after[len(before):]
                assert added and not set(added) & set(before), (table, key)
            else:
                assert after != before, (table, key)

    def test_secret_name_matching(self):
        config = AnalysisConfig.default()
        assert config.is_taint_source_name("session_key")
        assert config.is_taint_source_name("device_template")
        assert config.is_taint_source_name("minutiae")
        assert config.is_taint_source_name("seed")
        assert not config.is_taint_source_name("public_key")
        assert not config.is_taint_source_name("keystroke_timings")
        assert not config.is_taint_source_name("domain")

    def test_secret_bytes_matching(self):
        config = AnalysisConfig.default()
        assert config.is_secret_bytes_name("session_key")
        assert config.is_secret_bytes_name("mac")
        assert config.is_secret_bytes_name("expected_tag")
        assert not config.is_secret_bytes_name("public_key")
        assert not config.is_secret_bytes_name("key_bits")


class TestWorkerRobustness:
    """A crashing rule or a dead worker pool must not abort the scan."""

    def test_rule_crash_surfaces_file_and_keeps_scanning(self, tmp_path,
                                                         monkeypatch):
        from repro.analysis.rules.crypto_discipline import StdlibRandomInCrypto

        _write_pkg(tmp_path, "repro.crypto", "crashy", "x = 1\n")
        _write_pkg(tmp_path, "repro.crypto", "noisy", "import random\n")

        original = StdlibRandomInCrypto.check

        def exploding(self, ctx, config):
            if ctx.module.endswith("crashy"):
                raise RuntimeError("rule exploded")
            yield from original(self, ctx, config)

        monkeypatch.setattr(StdlibRandomInCrypto, "check", exploding)
        report = analyze_paths([tmp_path], jobs=1)
        # The crash is attributed to the file it died on...
        (crashed,) = [(display, message)
                      for display, message in report.parse_errors
                      if "crashy" in display]
        assert "rule crash: RuntimeError: rule exploded" in crashed[1]
        # ...and the other file was still scanned normally.
        assert any(f.rule == "CD201" and "noisy" in f.path
                   for f in report.findings)

    def test_rule_crash_is_a_failing_exit_code(self, tmp_path, monkeypatch):
        from repro.analysis.cli import _exit_code
        from repro.analysis.rules.crypto_discipline import StdlibRandomInCrypto

        _write_pkg(tmp_path, "repro.crypto", "crashy", "x = 1\n")

        def exploding(self, ctx, config):
            raise RuntimeError("boom")
            yield  # pragma: no cover

        monkeypatch.setattr(StdlibRandomInCrypto, "check", exploding)
        report = analyze_paths([tmp_path], jobs=1)
        assert report.parse_errors
        # Even the laxest threshold cannot mask a crashed worker.
        assert _exit_code(report, "error") == 1

    def test_broken_pool_falls_back_to_sequential(self, tmp_path,
                                                  monkeypatch):
        _write_pkg(tmp_path, "repro.crypto", "badmod", "import random\n")
        _install_dying_pool(monkeypatch)
        report = analyze_paths([tmp_path], jobs=2)
        assert not report.parse_errors
        assert any(f.rule == "CD201" for f in report.findings)

    def test_broken_pool_reruns_offloaded_stages_inline(self, tmp_path,
                                                        monkeypatch):
        _write_pkg(tmp_path, "repro.crypto", "badmod", "import random\n")
        _write_pkg(tmp_path, "repro.runtime", "clock", _DT601_SOURCE)
        _install_dying_pool(monkeypatch)
        report = analyze_paths([tmp_path], jobs=2, taint=True, det=True)
        assert not report.parse_errors
        assert report.stages == ("taint", "det")
        assert {"CD201", "DT601"} <= {f.rule for f in report.findings}


def _install_dying_pool(monkeypatch) -> None:
    """Replace the engine's pool with one whose every task dies."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.analysis import engine

    class DyingPool:
        def __init__(self, max_workers=None, mp_context=None,
                     initializer=None, initargs=()):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            raise BrokenProcessPool("worker died")

        def map(self, fn, payloads, chunksize=1):
            raise BrokenProcessPool("worker died")

    monkeypatch.setattr(engine, "ProcessPoolExecutor", DyingPool)


_DT601_SOURCE = """\
import time


def stamp():
    return time.time()
"""


def _offload_fixture(root: Path) -> None:
    """One finding per stage, each but DT601 with a multi-hop trace."""
    _write_pkg(root, "repro.runtime", "clock", _DT601_SOURCE + """

def render(names):
    return ", ".join({n for n in names})
""")
    _write_pkg(root, "repro.crypto", "leaky", """\
def check(session_key):
    if session_key[0] == 0:
        return 1
    return 0
""")
    _write_pkg(root, "repro.net", "shout", """\
def show(session_key):
    alias = session_key
    print(alias)  # trust-lint: disable=OB501
""")


class TestStagePool:
    """The det and sc stages ride the scan pool beside the taint pass."""

    def test_offloaded_stages_match_inline_run(self, tmp_path, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        from repro.analysis import engine

        _offload_fixture(tmp_path)
        offloaded = []

        class RecordingPool(ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                if fn is engine._stage_worker:
                    offloaded.append(args[0].name)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
        stages = {"taint": True, "det": True, "sc": True}
        inline = analyze_paths([tmp_path], jobs=1, **stages)
        assert offloaded == []
        pooled = analyze_paths([tmp_path], jobs=2, **stages)
        assert offloaded == ["det", "sc"]

        rules = [f.rule for f in inline.findings]
        assert {"SF110", "DT601", "DT604", "SC800"} <= set(rules)
        assert all(f.trace for f in inline.findings if f.rule != "DT601")
        # Finding equality covers message, location, severity and every
        # trace hop, so the workers shipped their findings back intact.
        assert pooled.findings == inline.findings
        assert pooled.stages == inline.stages == ("taint", "det", "sc")
        assert list(pooled.stage_stats) == list(inline.stage_stats) \
            == ["lint", "taint", "det", "sc"]
        assert {name: stats["findings"]
                for name, stats in pooled.stage_stats.items()} \
            == {"lint": 0, "taint": 1, "det": 2, "sc": 1}

    def test_lint_clock_excludes_inline_stages(self, tmp_path, monkeypatch):
        from repro.analysis.contract import conformance

        for i in range(4):
            _write_pkg(tmp_path, "repro.net", f"mod{i}", f"x = {i}\n")
        original = conformance.extract_contract

        def slow_extract(*args, **kwargs):
            time.sleep(0.5)
            return original(*args, **kwargs)

        monkeypatch.setattr(conformance, "extract_contract", slow_extract)
        report = analyze_paths([tmp_path], contract=True, jobs=2)
        assert report.stage_stats["contract"]["elapsed_s"] >= 0.5
        # The scan's own busy time: four one-line files, not the window
        # in which the parent also ran the slowed contract stage.
        assert report.stage_stats["lint"]["elapsed_s"] < 0.25
