"""Host-measured benchmark of the TRUST reproduction.

``python -m bench`` runs the workloads in ``BENCHMARK.json`` against the
``repro`` package in this checkout's ``src`` and prints every metric.
See README.md for the workloads, the metrics and how to read a traced run.
"""

from pathlib import Path

#: The checkout root: ``src``, ``pyproject.toml`` and ``BENCHMARK.json``.
ROOT = Path(__file__).resolve().parent.parent
