"""The ``python -m repro`` command-line interface."""

import re

import pytest

from repro.cli import main


def _span_tree(out):
    """``(indent, span name)`` of every span line in a text trace export."""
    return [(len(line) - len(line.lstrip(" ")), line.split()[0])
            for line in out.splitlines()
            if re.match(r" +\S+ \(\d+\.\.\d+\)", line)]


class TestCli:
    def test_sensors_command(self, capsys):
        assert main(["sensors"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "160.0 ms" in out

    def test_demo_command(self, capsys):
        assert main(["demo", "--requests", "2"]) == 0
        out = capsys.readouterr().out
        assert "login: ok" in out
        assert "request 2: ok" in out

    def test_audit_command(self, capsys):
        assert main(["audit"]) == 0
        out = capsys.readouterr().out
        assert "SUSPICIOUS" in out

    def test_placement_command(self, capsys):
        assert main(["placement", "--touches", "100", "--sensors", "2"]) == 0
        out = capsys.readouterr().out
        assert "capture rate" in out

    def test_load_command(self, capsys):
        assert main(["--seed", "11", "load", "--devices", "24",
                     "--shards", "4", "--requests", "2"]) == 0
        out = capsys.readouterr().out
        assert "24 devices over 4 shards" in out
        assert "fleet overview" in out
        assert "per-shard balance" in out
        assert "FAIL" not in out

    def test_attacks_command(self, capsys):
        assert main(["attacks"]) == 0
        out = capsys.readouterr().out
        assert "impostor-unlock: blocked (detected)" in out
        assert "malware-fake-touch: blocked (detected)" in out
        assert "verdict: ALL ATTACKS BLOCKED" in out

    def test_gesture_trace_command(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace t0001\n")
        tree = _span_tree(out)
        login = [(2, "client.login"), (4, "flock.touch"),
                 (6, "sensor.capture"), (6, "flock.match"),
                 (4, "server.dispatch")]
        verified_gesture = [(2, "gesture"), (4, "pipeline.process"),
                            (6, "flock.touch"), (8, "sensor.capture"),
                            (8, "flock.match"), (4, "client.request"),
                            (6, "server.dispatch")]
        assert tree[:len(login)] == login
        assert tree[len(login):len(login) + len(verified_gesture)] == \
            verified_gesture
        assert sum(name == "gesture" for _, name in tree) == 8

    @pytest.mark.parametrize("argv", [["demo", "--requests", "2"],
                                      ["attacks"], ["audit"], ["trace"]],
                             ids=lambda argv: argv[0])
    def test_command_repeats_byte_for_byte(self, capsys, argv):
        """Each command runs on a world of its own: a second run in the
        same interpreter prints exactly what the first did."""
        runs = []
        for _ in range(2):
            code = main(argv)
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
