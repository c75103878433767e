"""CT700-CT705 — wire-contract extraction & conformance fixtures.

A three-module client/codec/server fixture protocol that is contract-
clean as written, plus one seeded mutation per CT rule asserting that
exactly that rule fires; config tests for ``[tool.trust-lint.contract]``;
CLI tests for ``repro-lint contract`` / ``--contract`` / ``--stats``;
and a subprocess byte-stability check across ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, analyze_sources
from repro.analysis.cli import main
from repro.analysis.contract import (contract_payload, extract_contract,
                                     render_contract, run_contract)
from repro.analysis.core import ModuleContext

REPO_ROOT = Path(__file__).resolve().parents[2]

# --------------------------------------------------------------- fixture

CODEC = """
PROTOCOL_VERSION = 1
SUPPORTED_PROTOCOL_VERSIONS = frozenset({1})

MSG_PING = "ping"
MSG_PONG = "pong"


class ProtocolError(Exception):
    def __init__(self, reason, detail=""):
        super().__init__(reason)
        self.reason = reason
        self.detail = detail


class Envelope:
    def __init__(self, msg_type, fields, version=PROTOCOL_VERSION):
        self.msg_type = msg_type
        self.fields = dict(fields)
        self.version = version
        self.mac = b""

    def set_mac(self, tag):
        self.mac = tag
        self.fields["mac"] = tag
        return self

    def require(self, *names):
        for name in names:
            if name not in self.fields:
                raise ProtocolError("malformed-message", name)
        return self


def decode_envelope(frame):
    try:
        msg_type, version, fields = frame
    except (TypeError, ValueError) as exc:
        raise ProtocolError("malformed-message", str(exc))
    if version not in SUPPORTED_PROTOCOL_VERSIONS:
        raise ProtocolError("unsupported-version", str(version))
    return Envelope(msg_type, fields, version=version)
"""

SERVER = """
from fix.codec import (MSG_PING, MSG_PONG, SUPPORTED_PROTOCOL_VERSIONS,
                       Envelope, ProtocolError)

ENDPOINTS = {}


def _endpoint(registry, msg_type, summary):
    def wrap(func):
        registry[msg_type] = (func.__name__, summary)
        return func
    return wrap


class Server:
    def _reject(self, reason, detail):
        return ProtocolError(reason, detail)

    def dispatch(self, envelope):
        if envelope.version not in SUPPORTED_PROTOCOL_VERSIONS:
            raise self._reject("unsupported-version", str(envelope.version))
        if envelope.msg_type not in ENDPOINTS:
            raise self._reject("unknown-endpoint", envelope.msg_type)
        return self._serve_ping(envelope)

    @_endpoint(ENDPOINTS, MSG_PING, "answer one ping")
    def _serve_ping(self, envelope):
        envelope.require("blob", "nonce", "mac")
        if not envelope.fields["blob"]:
            raise self._reject("bad-blob", "empty payload")
        reply = Envelope(MSG_PONG, {
            "blob": envelope.fields["blob"],
            "nonce": envelope.fields["nonce"],
        })
        return reply.set_mac(b"tag")
"""

CLIENT = """
from fix.codec import MSG_PING, Envelope, ProtocolError

RETRYABLE = (
    "unsupported-version",
    "unknown-endpoint",
    "bad-blob",
    "malformed-message",
)


class Client:
    def __init__(self, server):
        self.server = server

    def ping(self, blob):
        ping = Envelope(MSG_PING, {"blob": blob, "nonce": b"n1"})
        ping.set_mac(b"tag")
        try:
            reply = self.server.dispatch(ping)
        except ProtocolError as exc:
            if exc.reason in RETRYABLE:
                return None
            raise
        reply.require("blob", "nonce", "mac")
        return reply.fields["blob"]
"""


def fixture_sources(codec=CODEC, server=SERVER, client=CLIENT):
    return {"fix.codec": textwrap.dedent(codec),
            "fix.server": textwrap.dedent(server),
            "fix.client": textwrap.dedent(client)}


def fixture_config(**overrides) -> AnalysisConfig:
    base = replace(
        AnalysisConfig.default(),
        contract_server_modules=("fix.server",),
        contract_codec_modules=("fix.codec",),
        contract_client_modules=("fix.client",),
        contract_read_modules=("fix.client",),
        contract_consumer_paths=(),
        contract_golden="",
    )
    return replace(base, **overrides) if overrides else base


def ct_lint(sources, config=None):
    config = config if config is not None else fixture_config()
    findings = analyze_sources(sources, config=config, contract=True)
    return [f for f in findings if f.rule.startswith("CT")]


def build_ctxs(sources):
    return [ModuleContext.build(Path(f"{m}.py"), f"{m}.py", m, s)
            for m, s in sources.items()]


def ct_rules(findings) -> set:
    return {f.rule for f in findings}


# -------------------------------------------------------------- extraction


class TestExtraction:
    def test_base_fixture_is_contract_clean(self):
        assert ct_lint(fixture_sources()) == []

    def test_payload_shape(self):
        contract = extract_contract(build_ctxs(fixture_sources()),
                                    fixture_config())
        payload = contract_payload(contract)
        assert payload["protocol"] == {"wire_version": 1,
                                       "supported_versions": [1]}
        assert payload["endpoints"]["ping"]["summary"] == "answer one ping"
        assert payload["endpoints"]["ping"]["request_fields"] == [
            "blob", "mac", "nonce"]
        assert payload["endpoints"]["ping"]["responses"] == ["pong"]
        assert payload["client_messages"]["ping"] == ["blob", "mac",
                                                      "nonce"]
        assert payload["server_messages"]["pong"] == ["blob", "mac",
                                                      "nonce"]
        assert payload["reason_codes"] == [
            "bad-blob", "malformed-message", "unknown-endpoint",
            "unsupported-version"]

    def test_render_is_canonical_and_newline_terminated(self):
        _, payload = run_contract(build_ctxs(fixture_sources()),
                                  fixture_config())
        text = render_contract(payload)
        assert text.endswith("\n")
        assert json.loads(text) == payload
        # Canonical: keys sorted at every level.
        assert text == render_contract(json.loads(text))

    def test_extraction_is_independent_of_module_order(self):
        sources = fixture_sources()
        forward = contract_payload(
            extract_contract(build_ctxs(sources), fixture_config()))
        reversed_ctxs = list(reversed(build_ctxs(sources)))
        backward = contract_payload(
            extract_contract(reversed_ctxs, fixture_config()))
        assert forward == backward


# ---------------------------------------------------- one mutation per rule


class TestSeededMutations:
    def test_ct700_client_sends_unregistered_type(self):
        client = CLIENT.replace(
            "from fix.codec import MSG_PING, Envelope, ProtocolError",
            "from fix.codec import MSG_PING, Envelope, ProtocolError\n\n"
            "MSG_PUSH = \"push\"",
        ) + textwrap.dedent("""
            def push(server, blob):
                note = Envelope(MSG_PUSH, {"blob": blob})
                note.set_mac(b"tag")
                return server.dispatch(note)
        """)
        findings = ct_lint(fixture_sources(client=client))
        assert ct_rules(findings) == {"CT700"}
        assert "push" in findings[0].message
        assert findings[0].path == "fix.client.py"

    def test_ct700_endpoint_unreachable_from_client(self):
        server = SERVER + textwrap.dedent("""
            MSG_PUSH = "push"


            class PushServer(Server):
                @_endpoint(ENDPOINTS, MSG_PUSH, "accept a push")
                def _serve_push(self, envelope):
                    envelope.require("blob", "mac")
                    reply = Envelope(MSG_PONG, {
                        "blob": envelope.fields["blob"],
                        "nonce": b"n2",
                    })
                    return reply.set_mac(b"tag")
        """)
        findings = ct_lint(fixture_sources(server=server))
        assert ct_rules(findings) == {"CT700"}
        assert "no client call shape" in findings[0].message

    def test_ct701_server_field_never_read(self):
        server = SERVER.replace(
            '"nonce": envelope.fields["nonce"],',
            '"nonce": envelope.fields["nonce"],\n'
            '            "extra": b"",')
        findings = ct_lint(fixture_sources(server=server))
        assert ct_rules(findings) == {"CT701"}
        assert "'extra'" in findings[0].message
        assert "never read" in findings[0].message

    def test_ct701_client_field_never_decoded(self):
        client = CLIENT.replace('{"blob": blob, "nonce": b"n1"}',
                                '{"blob": blob, "nonce": b"n1", '
                                '"junk": b"x"}')
        findings = ct_lint(fixture_sources(client=client))
        assert ct_rules(findings) == {"CT701"}
        assert "'junk'" in findings[0].message
        assert "never decoded" in findings[0].message

    def test_ct701_server_requires_unproduced_field(self):
        server = SERVER.replace(
            'envelope.require("blob", "nonce", "mac")',
            'envelope.require("blob", "nonce", "proof", "mac")')
        findings = ct_lint(fixture_sources(server=server))
        assert ct_rules(findings) == {"CT701"}
        assert "'proof'" in findings[0].message
        assert "never produces" in findings[0].message

    def test_ct702_unobserved_reason_code(self):
        server = SERVER.replace(
            'raise self._reject("bad-blob", "empty payload")',
            'raise self._reject("bad-blob", "empty payload")\n'
            '        if len(envelope.fields) > 16:\n'
            '            raise self._reject("quota-exceeded", "too big")')
        findings = ct_lint(fixture_sources(server=server))
        assert ct_rules(findings) == {"CT702"}
        assert "quota-exceeded" in findings[0].message

    def test_ct702_consumer_path_assertions_count(self, tmp_path,
                                                  monkeypatch):
        server = SERVER.replace(
            'raise self._reject("bad-blob", "empty payload")',
            'raise self._reject("bad-blob", "empty payload")\n'
            '        if len(envelope.fields) > 16:\n'
            '            raise self._reject("quota-exceeded", "too big")')
        consumer = tmp_path / "consumers"
        consumer.mkdir()
        (consumer / "test_quota.py").write_text(
            'def test_quota(client):\n'
            '    assert client.reason == "quota-exceeded"\n')
        monkeypatch.chdir(tmp_path)
        config = fixture_config(contract_consumer_paths=("consumers",))
        assert ct_lint(fixture_sources(server=server), config=config) == []

    def test_ct703_gate_disagrees_with_codec(self):
        server = SERVER.replace(
            "if envelope.version not in SUPPORTED_PROTOCOL_VERSIONS:",
            "if envelope.version not in {1, 2}:")
        findings = ct_lint(fixture_sources(server=server))
        assert ct_rules(findings) == {"CT703"}
        assert "[1, 2]" in findings[0].message

    def test_ct703_missing_dispatch_gate(self):
        server = SERVER.replace(
            "        if envelope.version not in SUPPORTED_PROTOCOL_VERSIONS:"
            "\n            raise self._reject(\"unsupported-version\", "
            "str(envelope.version))\n", "")
        findings = ct_lint(fixture_sources(server=server))
        # The gate is gone *and* its reason code with it, so the
        # vocabulary check in the client goes stale too.
        assert "CT703" in ct_rules(findings)
        ct703 = [f for f in findings if f.rule == "CT703"]
        assert "without an envelope-version gate" in ct703[0].message

    def test_ct704_decode_swallows_malformed_input(self):
        codec = CODEC.replace(
            "    except (TypeError, ValueError) as exc:\n"
            "        raise ProtocolError(\"malformed-message\", str(exc))",
            "    except (TypeError, ValueError):\n"
            "        msg_type, version, fields = \"ping\", 1, {}")
        findings = ct_lint(fixture_sources(codec=codec))
        assert ct_rules(findings) == {"CT704"}
        assert "swallows" in findings[0].message

    def test_ct704_unchecked_reply_read(self):
        client = CLIENT.replace('reply.require("blob", "nonce", "mac")',
                                'reply.require("nonce", "mac")')
        findings = ct_lint(fixture_sources(client=client))
        assert ct_rules(findings) == {"CT704"}
        assert "'blob'" in findings[0].message
        assert "require()" in findings[0].message

    def test_ct704_defaulted_reply_read(self):
        client = CLIENT.replace('return reply.fields["blob"]',
                                'return reply.fields.get("blob", b"")')
        findings = ct_lint(fixture_sources(client=client))
        assert ct_rules(findings) == {"CT704"}
        assert "defaulted" in findings[0].message

    def test_ct705_breaking_and_additive_drift(self, tmp_path):
        golden = tmp_path / "contract.json"
        _, payload = run_contract(build_ctxs(fixture_sources()),
                                  fixture_config())
        golden.write_text(render_contract(payload), encoding="utf-8")
        config = fixture_config(contract_golden=str(golden))
        assert ct_lint(fixture_sources(), config=config) == []

        # Remove a reply field (breaking) and add a reason (additive).
        server = SERVER.replace('"nonce": envelope.fields["nonce"],\n', '')
        server = server.replace(
            'raise self._reject("bad-blob", "empty payload")',
            'raise self._reject("bad-blob", "empty payload")\n'
            '        if len(envelope.fields) > 16:\n'
            '            raise self._reject("quota-exceeded", "too big")')
        client = CLIENT.replace('"bad-blob",',
                                '"bad-blob",\n    "quota-exceeded",')
        client = client.replace('reply.require("blob", "nonce", "mac")',
                                'reply.require("blob", "mac")')
        findings = ct_lint(fixture_sources(server=server, client=client),
                           config=config)
        assert ct_rules(findings) == {"CT705"}
        removed = [f for f in findings if "removed" in f.message]
        added = [f for f in findings if "added" in f.message]
        assert removed and all(f.severity == "error" for f in removed)
        assert added and all(f.severity == "warning" for f in added)

    def test_ct705_missing_golden_is_a_warning(self, tmp_path):
        config = fixture_config(
            contract_golden=str(tmp_path / "absent.json"))
        findings = ct_lint(fixture_sources(), config=config)
        assert ct_rules(findings) == {"CT705"}
        assert findings[0].severity == "warning"
        assert "missing" in findings[0].message

    def test_ct705_unreadable_golden_is_an_error(self, tmp_path):
        golden = tmp_path / "contract.json"
        golden.write_text("{not json", encoding="utf-8")
        config = fixture_config(contract_golden=str(golden))
        findings = ct_lint(fixture_sources(), config=config)
        assert ct_rules(findings) == {"CT705"}
        assert findings[0].severity == "error"


# ------------------------------------------------- config & suppressions


class TestConfigAndSuppression:
    def test_contract_subtable_round_trip(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(textwrap.dedent("""
            [tool.trust-lint.contract]
            server-modules = ["fix.server"]
            codec-modules = ["fix.codec"]
            client-modules = ["fix.client"]
            read-modules = ["fix.client", "fix.ui"]
            consumer-paths = ["tests"]
            golden = "artifacts/contract.json"
            decode-patterns = ["decode*", "parse_*"]
            envelope-names = ["Envelope", "Frame"]
        """), encoding="utf-8")
        config = AnalysisConfig.from_pyproject(pyproject)
        assert config.contract_server_modules == ("fix.server",)
        assert config.contract_read_modules == ("fix.client", "fix.ui")
        assert config.contract_golden == "artifacts/contract.json"
        assert config.is_contract_decode_name("parse_frame")
        assert config.is_contract_envelope_name("Frame")

    def test_unknown_contract_key_is_rejected(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.trust-lint.contract]\n"
                             "golden-file = \"x.json\"\n",
                             encoding="utf-8")
        with pytest.raises(ValueError, match="golden-file"):
            AnalysisConfig.from_pyproject(pyproject)

    def test_disabled_rule_is_skipped(self):
        server = SERVER.replace(
            '"nonce": envelope.fields["nonce"],',
            '"nonce": envelope.fields["nonce"],\n'
            '            "extra": b"",')
        config = fixture_config(
            disabled_rules=fixture_config().disabled_rules + ("CT701",))
        assert ct_lint(fixture_sources(server=server), config=config) == []

    def test_line_suppression_silences_one_site(self):
        client = CLIENT.replace(
            'reply.require("blob", "nonce", "mac")',
            'reply.require("nonce", "mac")')
        client = client.replace(
            'return reply.fields["blob"]',
            'return reply.fields["blob"]  # trust-lint: disable=CT704')
        assert ct_lint(fixture_sources(client=client)) == []


# ------------------------------------------------------------------- CLI


def _write_project(tmp_path: Path) -> Path:
    proj = tmp_path / "proj"
    pkg = proj / "fix"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    for module, source in fixture_sources().items():
        (pkg / f"{module.split('.')[1]}.py").write_text(source,
                                                        encoding="utf-8")
    (proj / "pyproject.toml").write_text(textwrap.dedent("""
        [tool.trust-lint]
        paths = ["fix"]

        [tool.trust-lint.contract]
        server-modules = ["fix.server"]
        codec-modules = ["fix.codec"]
        client-modules = ["fix.client"]
        read-modules = ["fix.client"]
        consumer-paths = []
        golden = ""
    """), encoding="utf-8")
    return proj


class TestCli:
    def test_contract_flag_clean_project(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.chdir(_write_project(tmp_path))
        assert main(["--contract"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_contract_flag_reports_mutation(self, tmp_path, monkeypatch,
                                            capsys):
        proj = _write_project(tmp_path)
        client = proj / "fix" / "client.py"
        client.write_text(
            client.read_text(encoding="utf-8").replace(
                'reply.require("blob", "nonce", "mac")',
                'reply.require("nonce", "mac")'),
            encoding="utf-8")
        monkeypatch.chdir(proj)
        assert main(["--contract"]) == 1
        assert "CT704" in capsys.readouterr().out

    def test_contract_subcommand_prints_canonical_json(self, tmp_path,
                                                       monkeypatch,
                                                       capsys):
        monkeypatch.chdir(_write_project(tmp_path))
        assert main(["contract"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["endpoints"]["ping"]["responses"] == ["pong"]

    def test_contract_subcommand_write(self, tmp_path, monkeypatch):
        proj = _write_project(tmp_path)
        monkeypatch.chdir(proj)
        out = proj / "contract.json"
        assert main(["contract", "--write", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["contract_version"] == 1

    def test_stats_breakdown_on_stderr(self, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.chdir(_write_project(tmp_path))
        assert main(["--contract", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "stats: lint" in err
        assert "stats: contract" in err
        assert "stats: total" in err

    def test_stats_writes_nothing_under_results(self, tmp_path, monkeypatch,
                                                capsys):
        """Committed results are a function of the tree: ``--stats``
        timings go to stderr only, never into ``benchmarks/results/``."""
        proj = _write_project(tmp_path)
        results = proj / "benchmarks" / "results"
        results.mkdir(parents=True)
        monkeypatch.chdir(proj)
        assert main(["--contract", "--stats"]) == 0
        assert "stats: total" in capsys.readouterr().err
        assert list(results.iterdir()) == []

    def test_sarif_output_carries_ct_rule(self, tmp_path, monkeypatch,
                                          capsys):
        proj = _write_project(tmp_path)
        server = proj / "fix" / "server.py"
        server.write_text(
            server.read_text(encoding="utf-8").replace(
                '"nonce": envelope.fields["nonce"],',
                '"nonce": envelope.fields["nonce"],\n'
                '            "extra": b"",'),
            encoding="utf-8")
        monkeypatch.chdir(proj)
        assert main(["--contract", "--format", "sarif"]) == 1
        sarif = json.loads(capsys.readouterr().out)
        assert "CT701" in {r["ruleId"]
                           for r in sarif["runs"][0]["results"]}

    def test_contract_json_is_byte_stable_across_hash_seeds(self,
                                                            tmp_path):
        proj = _write_project(tmp_path)
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            src = str(REPO_ROOT / "src")
            env["PYTHONPATH"] = src
            proc = subprocess.run(
                [sys.executable, "-m", "repro.analysis", "contract",
                 "fix"],
                cwd=proj, env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
