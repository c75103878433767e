"""Shared helpers for the TRUST-lint test suite."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import AnalysisConfig, analyze_sources


@pytest.fixture
def lint():
    """Run the full rule set over a dedented snippet; returns findings."""

    def _lint(source: str, module: str = "somepkg.somemod",
              config: AnalysisConfig | None = None, is_package: bool = False):
        return analyze_sources({module: textwrap.dedent(source)},
                               config=config, is_package=is_package)

    return _lint


def rule_ids(findings) -> list[str]:
    """The rule ids of a finding list, in report order."""
    return [f.rule for f in findings]
