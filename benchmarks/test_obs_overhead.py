"""Observability overhead guard and trace-export smoke.

Two invariants protect the substrate added for cross-layer tracing:

- *tracing is cheap and changes nothing*: a default fleet run with
  instrumentation left at its NOOP default reproduces the checked-in
  ``fleet_load.txt`` summary bytes; attaching a live bundle changes
  nothing the fleet reports; and, timed on the host in interleaved pairs,
  the smoke fleet with a live bundle takes at most 1.25x its NOOP time
  (median ratio).  The modeled throughput the guard once compared is an
  output of the virtual clock and cannot move, so host time is what is
  bounded;
- the *export format is pinned*: the trace CLI's JSON output for the
  default fleet scenario must match the golden
  ``results/trace_smoke.json`` byte for byte, so exporter or span-name
  drift shows up as a reviewable diff instead of silently re-shaping
  downstream tooling.
"""

import json
import statistics
import time

from repro.cli import main
from repro.obs import NOOP, Instrumentation
from repro.runtime import FleetConfig, FleetSimulation

from .conftest import RESULTS_DIR, emit, show

BASELINE = RESULTS_DIR / "fleet_load.txt"
GOLDEN_TRACE = RESULTS_DIR / "trace_smoke.json"

#: The CI load-smoke fleet (48 devices, 4 shards, 2 requests each).
SMOKE_FLEET = FleetConfig(n_devices=48, n_shards=4, seed=7,
                          requests_per_device=2)
#: Interleaved NOOP/live pairs, and the bound on their median host-time
#: ratio (live / NOOP).
OVERHEAD_PAIRS = 7
OVERHEAD_GUARD = 1.25


def _host_seconds(obs: Instrumentation) -> float:
    """Host wall-clock of building and running the smoke fleet."""
    start = time.perf_counter()
    FleetSimulation(SMOKE_FLEET, obs=obs).run()
    return time.perf_counter() - start


class TestNoopOverheadGuard:
    def test_noop_fleet_matches_checked_in_baseline(self):
        result = FleetSimulation(FleetConfig()).run()  # obs defaults to NOOP
        assert result.summary in BASELINE.read_text()

    def test_live_tracing_host_overhead_within_guard(self):
        _host_seconds(Instrumentation.live())  # warm-up, not measured
        pairs = []
        for index in range(OVERHEAD_PAIRS):
            # Alternate which side runs first, so drift favours neither.
            if index % 2:
                live = _host_seconds(Instrumentation.live())
                noop = _host_seconds(NOOP)
            else:
                noop = _host_seconds(NOOP)
                live = _host_seconds(Instrumentation.live())
            pairs.append((noop, live))
        ratios = sorted(live / noop for noop, live in pairs)
        median = statistics.median(ratios)
        emit("obs_overhead", "\n".join([
            "observability overhead guard (host wall-clock, "
            f"{OVERHEAD_PAIRS} interleaved pairs after one warm-up run; "
            "the timings are printed, not committed)",
            "",
            "fleet | 48 devices, 4 shards, 2 requests each",
            f"guard | median live/NOOP ratio <= {OVERHEAD_GUARD}"]))
        show("obs_overhead host timings (measured, not committed)",
             "\n".join([
                 f"NOOP median     | "
                 f"{statistics.median(n for n, _ in pairs):.3f} s",
                 f"live median     | "
                 f"{statistics.median(v for _, v in pairs):.3f} s",
                 f"live/NOOP ratio | median {median:.2f} (range "
                 f"{ratios[0]:.2f}-{ratios[-1]:.2f})"]))
        assert median <= OVERHEAD_GUARD, (
            f"live tracing costs x{median:.2f} host time (guard "
            f"x{OVERHEAD_GUARD}); ratios {[round(r, 2) for r in ratios]}")

    def test_live_instrumentation_changes_no_reported_byte(self):
        plain = FleetSimulation(SMOKE_FLEET).run()
        traced = FleetSimulation(SMOKE_FLEET, obs=Instrumentation.live()).run()
        assert plain.summary == traced.summary
        assert plain.trace == traced.trace


class TestTraceExportSmoke:
    def test_cli_fleet_trace_matches_golden(self, capsys):
        code = main(["trace", "--scenario", "fleet", "--format", "json"])
        assert code == 0
        out = capsys.readouterr().out
        json.loads(out)  # well-formed before anything else
        assert out == GOLDEN_TRACE.read_text(), \
            "trace export drifted from benchmarks/results/trace_smoke.json"
