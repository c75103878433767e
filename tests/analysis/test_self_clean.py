"""Tier-1 gate: TRUST-lint reports zero findings over this repository.

This is the merge-time contract: every rule runs over ``src/`` and finds
nothing, and the only findings it skips are inline suppressions — so any
change that logs a template, imports stdlib random into the crypto
substrate, or punches through the layering DAG fails the suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_analysis_pass_is_clean_over_src():
    # --taint includes the interprocedural SF110/SF111 pass, --det the
    # determinism/shard-isolation pass (DT6xx/RC61x), --contract the
    # wire-contract conformance pass (CT7xx) and --sc the constant-time
    # side-channel pass (SC8xx), so aliased leaks, cross-call timing
    # compares, hash-order-dependent output, shard-boundary escapes,
    # client/server schema drift and secret-dependent control flow all
    # gate merges.
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--taint", "--det",
         "--contract", "--sc", "src"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (
        f"TRUST-lint found violations:\n{proc.stdout}\n{proc.stderr}")
    assert "0 finding(s)" in proc.stdout


def test_examples_and_benchmarks_parse_cleanly():
    # The satellite trees are linted too, but only for the robustness
    # rules and without the taint pass: examples legitimately print keys
    # they generate for display.
    from repro.analysis import analyze_paths

    report = analyze_paths([REPO_ROOT / "examples", REPO_ROOT / "benchmarks"])
    assert report.parse_errors == []
    assert [f for f in report.findings if f.rule.startswith("RB")] == []
