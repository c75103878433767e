"""Shared benchmark infrastructure.

Each benchmark module regenerates one table/figure of the paper (see
DESIGN.md's experiment index).  The regenerated artifact is both written to
``benchmarks/results/<experiment>.txt`` and echoed to the real stdout
(bypassing pytest capture), so ``pytest benchmarks/ --benchmark-only``
leaves a full set of reproduced tables behind (pytest's default fd-level
capture swallows the echo; ``-s`` shows it).  Host timings differ from run
to run, so they are only echoed (:func:`show`): every committed result file
is a function of the tree alone.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def emit(experiment: str, text: str) -> None:
    """Persist + display one experiment's regenerated artifact."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.txt"
    path.write_text(text + "\n")
    show(experiment, text)


def show(title: str, text: str) -> None:
    """Display ``text`` on the real stdout only (host timings)."""
    banner = f"\n{'=' * 72}\n{title}\n{'=' * 72}\n"
    print(banner + text, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20120601)  # MICRO 2012 vintage


@pytest.fixture(scope="session")
def touch_traces():
    """One long session trace per example user (shared across benches)."""
    from repro.touchgen import SessionConfig, SessionGenerator, example_users

    traces = {}
    for user in example_users():
        generator = SessionGenerator(user)
        traces[user.user_id] = generator.generate(
            SessionConfig(n_interactions=600), seed=17)
    return traces
