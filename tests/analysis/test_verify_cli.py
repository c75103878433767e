"""The ``repro-lint verify`` subcommand and severity-aware exit codes."""

from __future__ import annotations

import json

import pytest

from repro.analysis.cli import build_verify_parser, main
from repro.analysis.verify import SCENARIOS

#: A broken-variant invocation that finds PV402+PV403 within depth 4.
_MUTATED = ["verify", "--no-config", "--depth", "4", "--entry", "login",
            "--mutate", "skip-login-signature-check"]
#: A clean invocation kept cheap for the test suite.
_CLEAN = ["verify", "--no-config", "--depth", "4"]


class TestVerifySubcommand:
    def test_list_entries(self, capsys):
        assert main(["verify", "--list-entries"]) == 0
        out = capsys.readouterr().out
        for scenario in ("register", "login", "session", "challenge",
                         "reset", "transfer"):
            assert scenario in out
        assert "--mutate skip-replay-check" in out

    def test_clean_run_exits_zero_with_stats(self, capsys):
        assert main(_CLEAN) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "explored state(s)" in out
        assert "verify: depth budget 4, adversary on" in out
        assert "states/s" in out
        assert "BUDGET EXCEEDED" not in out

    def test_mutated_run_exits_one_with_counterexample(self, capsys):
        assert main(_MUTATED) == 1
        out = capsys.readouterr().out
        assert "PV403" in out
        assert "mutations: skip-login-signature-check" in out
        assert "trace:" in out
        assert "src/repro/net/webserver.py" in out

    def test_json_format_carries_severity_and_stats(self, capsys):
        assert main(_MUTATED + ["--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verify"]["depth"] == 4
        assert payload["verify"]["exhausted"] is True
        assert payload["verify"]["scenarios"][0]["name"] == "login"
        rules = {f["rule"] for f in payload["findings"]}
        assert "PV403" in rules
        assert all(f["severity"] == "error" for f in payload["findings"])
        assert all(f["trace"] for f in payload["findings"])

    def test_sarif_format_embeds_verify_properties(self, capsys):
        assert main(_MUTATED + ["--format", "sarif"]) == 1
        sarif = json.loads(capsys.readouterr().out)
        run = sarif["runs"][0]
        assert run["properties"]["verify"]["states"] > 0
        results = [r for r in run["results"] if r["ruleId"] == "PV403"]
        assert results and results[0]["level"] == "error"
        assert results[0]["codeFlows"]

    def test_unknown_entry_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["verify", "--no-config", "--entry", "bogus"])
        assert exc_info.value.code == 2

    def test_config_disable_drops_pv_findings(self, tmp_path, capsys,
                                              monkeypatch):
        """``[tool.trust-lint] disable`` reaches verify as it reaches
        every scan stage; ``--no-config`` still reports the rules."""
        (tmp_path / "pyproject.toml").write_text(
            '[tool.trust-lint]\ndisable = ["PV402", "PV403"]\n')
        monkeypatch.chdir(tmp_path)
        with_config = [arg for arg in _MUTATED if arg != "--no-config"]
        assert main(with_config) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "PV40" not in out
        assert main(with_config + ["--no-config"]) == 1
        assert "PV403" in capsys.readouterr().out

    def test_config_disable_drops_only_the_listed_rules(self, tmp_path,
                                                        capsys, monkeypatch):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.trust-lint]\ndisable = ["PV402"]\n')
        monkeypatch.chdir(tmp_path)
        with_config = [arg for arg in _MUTATED if arg != "--no-config"]
        assert main(with_config) == 1
        out = capsys.readouterr().out
        assert "PV403" in out
        assert "PV402" not in out

    def test_unknown_rule_in_config_disable_exits_two(self, tmp_path,
                                                      capsys, monkeypatch):
        """A ``disable`` id that names no rule stops verify before it
        explores, as it stops every scan."""
        (tmp_path / "pyproject.toml").write_text(
            '[tool.trust-lint]\ndisable = ["PV499"]\n')
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--depth", "1"]) == 2
        captured = capsys.readouterr()
        assert "configuration error: unknown rule id 'PV499'" \
            in captured.err
        assert captured.out == ""
        assert main(["verify", "--depth", "1", "--no-config"]) == 0


#: A cheap run whose JSON statistics echo every exploration setting.
_BASE = ["verify", "--no-config", "--depth", "2", "--format", "json"]

#: Each exploration flag: (arguments added to ``_BASE``; the setting it
#: moves; the value that setting takes).
_FLAG_CASES = [
    (["--depth", "3"], "depth", 3),
    (["--max-states", "999"], "max_states", 999),
    (["--entry", "login", "--entry", "register"], "scenarios",
     ["login", "register"]),
    (["--no-adversary"], "adversary", False),
    (["--mutate", "skip-replay-check"], "mutations", ["skip-replay-check"]),
]


def _settings(capsys, argv):
    """The exploration settings a verify run reports in its JSON."""
    main(argv)
    stats = json.loads(capsys.readouterr().out)["verify"]
    return {"depth": stats["depth"], "max_states": stats["max_states"],
            "adversary": stats["adversary"],
            "mutations": stats["mutations"],
            "scenarios": [s["name"] for s in stats["scenarios"]]}


class TestExplorationFlags:
    """The command-line flags are the one home of verify's exploration
    settings; no ``[tool.trust-lint]`` key restates them."""

    def test_unset_flags_take_the_ci_pin(self, capsys):
        assert build_verify_parser().parse_args([]).depth == 12
        assert _settings(capsys, _BASE) == {
            "depth": 2, "max_states": 150_000, "adversary": True,
            "mutations": [], "scenarios": list(SCENARIOS)}
        assert len(SCENARIOS) == 6

    @pytest.mark.parametrize(
        "extra,setting,value", _FLAG_CASES,
        ids=[extra[0].lstrip("-") for extra, *_ in _FLAG_CASES])
    def test_every_flag_lands_on_its_setting(self, capsys, extra, setting,
                                             value):
        base = _settings(capsys, _BASE)
        settings = _settings(capsys, _BASE + extra)
        assert settings[setting] == value
        assert [key for key in settings
                if settings[key] != base[key]] == [setting]


class TestFailOnThreshold:
    def test_pv400_note_respects_fail_on(self, capsys):
        truncated = ["verify", "--no-config", "--depth", "6",
                     "--entry", "login", "--max-states", "40"]
        # A budget note is a finding by default...
        assert main(truncated) == 1
        out = capsys.readouterr().out
        assert "PV400" in out
        assert "[note]" in out
        assert "BUDGET EXCEEDED" in out
        # ...but --fail-on error treats coverage caveats as non-fatal.
        assert main(truncated + ["--fail-on", "error"]) == 0

    def test_scan_fail_on_error_still_fails_on_errors(self, tmp_path,
                                                      capsys):
        pkg = tmp_path / "repro" / "crypto"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").touch()
        (pkg / "__init__.py").touch()
        (pkg / "badmod.py").write_text("import random\n")
        assert main([str(tmp_path), "--no-config"]) == 1
        assert main([str(tmp_path), "--no-config",
                     "--fail-on", "error"]) == 1
        capsys.readouterr()
