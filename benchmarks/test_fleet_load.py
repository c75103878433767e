"""Fleet load benchmark: 1,000 devices over 4 shards.

The acceptance experiment for the multi-tenant runtime: the default
:class:`~repro.runtime.fleet.FleetConfig` fleet runs end to end through
``WebServer.dispatch`` twice, and the replay must reproduce the first
run's report byte for byte — metrics summary *and* event trace.  The
regenerated report lands in ``benchmarks/results/fleet_load.txt``: the
summary's throughput, p50/p99 latency and utilization are modeled on the
virtual clock.  The host wall-clock of the run is measured, so it is
printed, not committed.

The CI smoke fleet (48 devices, 4 shards, 2 requests each) is pinned too:
``python -m repro load --devices 48 --shards 4 --requests 2`` must print
``benchmarks/results/load_smoke.txt`` byte for byte.
"""

import time

from repro.cli import main
from repro.runtime import EXPECTED_REJECTIONS, FleetConfig, FleetSimulation

from .conftest import RESULTS_DIR, emit, show


def _timed_run(config: FleetConfig):
    started = time.perf_counter()
    result = FleetSimulation(config).run()
    return result, time.perf_counter() - started


class TestFleetLoad:
    def test_thousand_device_fleet_replays_identically(self):
        config = FleetConfig()  # 1000 devices, 4 shards, seed 7
        first, first_wall = _timed_run(config)
        replay, _ = _timed_run(config)

        # Determinism: byte-identical summaries and identical event traces.
        assert first.summary.encode("utf-8") == replay.summary.encode("utf-8")
        assert first.trace == replay.trace

        # The scenario is healthy: traffic flowed and only the workload's
        # expected rejection codes (risk-induced terminations) appeared.
        assert first.metrics.throughput_rps > 0
        assert first.unexpected_rejections == {}
        assert set(first.pool.rejection_totals()) <= EXPECTED_REJECTIONS
        assert first.metrics.count("register", "ok") >= 0.99 * config.n_devices
        assert first.cache.hit_rate("cert-signature") > 0.9

        events = len(first.trace)
        emit("fleet_load", "\n".join([
            first.summary,
            "",
            f"replay check: two runs byte-identical ({events} events)",
        ]))
        show("fleet_load host wall-clock (measured: one run, warm-up "
             "included; not committed)",
             f"  {first_wall:6.1f} s  {events / first_wall:7.1f} events/s")

    def test_smoke_fleet_matches_golden(self, capsys):
        assert main(["load", "--devices", "48", "--shards", "4",
                     "--requests", "2"]) == 0
        assert capsys.readouterr().out == \
            (RESULTS_DIR / "load_smoke.txt").read_text(), \
            "smoke fleet drifted from benchmarks/results/load_smoke.txt"

    def test_thousand_device_fleet_is_hash_seed_invariant(self):
        """The full-scale dynamic determinism witness: same-process
        replays share one hash seed, so run the default fleet in two
        subprocesses under different PYTHONHASHSEED values and require
        byte-identical summary + trace export (what DT604 guards)."""
        from tests.runtime.test_fleet_replay import run_fleet_under_hash_seed

        first = run_fleet_under_hash_seed(0, devices=1000, timeout=600)
        second = run_fleet_under_hash_seed(1, devices=1000, timeout=600)
        assert first == second
        assert b"--- trace ---" in first
