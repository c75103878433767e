"""Fleet determinism: one config, two runs, byte-identical everything.

The small fleet here (tier-1 sized) is the replay witness for the load
benchmark in ``benchmarks/test_fleet_load.py``, which runs the full
1,000-device default configuration.  Same-process replays share one
hash seed, so :class:`TestHashSeedWitness` additionally runs the fleet
in two subprocesses under *different* ``PYTHONHASHSEED`` values — the
dynamic counterpart of the static DT604 rule: if any set-iteration
order reached the summary or the trace, the bytes would differ.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime import (
    EXPECTED_REJECTIONS,
    FleetConfig,
    FleetSimulation,
    draw_risk,
)

import numpy as np


SMALL = FleetConfig(n_devices=36, n_shards=4, seed=11,
                    requests_per_device=2, challenge_fraction=0.2,
                    hijack_fraction=0.1, prototype_count=4,
                    ramp_s=10.0)


@pytest.fixture(scope="module")
def result():
    return FleetSimulation(SMALL).run()


@pytest.fixture(scope="module")
def replay():
    return FleetSimulation(SMALL).run()


class TestDeterministicReplay:
    def test_trace_is_identical(self, result, replay):
        assert result.trace == replay.trace

    def test_summary_is_byte_identical(self, result, replay):
        assert result.summary.encode("utf-8") == \
            replay.summary.encode("utf-8")

    def test_metrics_are_identical(self, result, replay):
        def outcomes(run):
            return run.metrics.registry.snapshot()["fleet.interactions"]

        assert outcomes(result) == outcomes(replay)
        assert result.metrics.horizon_s == replay.metrics.horizon_s
        assert result.metrics.bytes_to_server == \
            replay.metrics.bytes_to_server
        assert result.cache.stats() == replay.cache.stats()

    def test_different_seed_diverges(self, result):
        import dataclasses
        other = FleetSimulation(dataclasses.replace(SMALL, seed=12)).run()
        assert other.trace != result.trace


class TestFleetBehavior:
    def test_every_device_progressed(self, result):
        registered = result.metrics.count("register", "ok")
        assert registered == SMALL.n_devices
        assert result.metrics.count("login", "ok") == registered

    def test_only_expected_rejections(self, result):
        assert result.unexpected_rejections == {}
        for code in result.pool.rejection_totals():
            assert code in EXPECTED_REJECTIONS

    def test_workload_mix_produced_both_branches(self, result):
        assert result.metrics.count("challenge", "ok") > 0
        assert result.metrics.count("request", "risk-too-high") > 0

    def test_traffic_spread_over_all_shards(self, result):
        per_shard = {sid: result.pool.shards[sid].dispatch_calls.total()
                     for sid in result.pool.shard_ids}
        assert len(per_shard) == SMALL.n_shards
        assert all(count > 0 for count in per_shard.values())
        assert sum(result.pool.account_totals().values()) == SMALL.n_devices

    def test_cert_cache_amortizes_prototype_batches(self, result):
        # Clones share their prototype's device certificate, so the pool
        # only ever verifies `prototype_count` distinct certs.
        rows = {kind: (hits, misses)
                for kind, hits, misses, _rate in result.cache.stats()}
        hits, misses = rows["cert-signature"]
        assert misses == SMALL.prototype_count
        assert hits == SMALL.n_devices - SMALL.prototype_count

    def test_latency_respects_the_floor(self, result):
        from repro.runtime import SERVICE_TIME_S
        for op, count, mean, p50, p99 in result.metrics.latency_rows():
            floor = SERVICE_TIME_S[op] + SMALL.network_rtt_s
            assert p50 >= floor - 1e-12
            assert p99 >= p50
            assert count > 0

    def test_summary_reports_every_section(self, result):
        for heading in ("fleet overview", "end-to-end latency",
                        "verification cache", "per-shard balance"):
            assert heading in result.summary
        assert "throughput" in result.summary


_REPO_ROOT = Path(__file__).resolve().parents[2]

#: Runs the witness fleet and prints the two observable artifacts: the
#: metrics summary and the full event-trace export.
_WITNESS_SCRIPT = """\
import sys
from repro.runtime import FleetConfig, FleetSimulation

config = FleetConfig(n_devices=int(sys.argv[1]), n_shards=4, seed=11,
                     requests_per_device=2, challenge_fraction=0.2,
                     hijack_fraction=0.1, prototype_count=4, ramp_s=10.0)
result = FleetSimulation(config).run()
sys.stdout.write(result.summary)
sys.stdout.write("\\n--- trace ---\\n")
for stamp, label in result.trace:
    sys.stdout.write(f"{stamp!r} {label}\\n")
"""


def run_fleet_under_hash_seed(hash_seed: int, devices: int = 36,
                              timeout: int = 300) -> bytes:
    """Fleet summary+trace bytes from a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", _WITNESS_SCRIPT, str(devices)],
        capture_output=True, env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


class TestHashSeedWitness:
    def test_fleet_output_is_hash_seed_invariant(self):
        first = run_fleet_under_hash_seed(0)
        second = run_fleet_under_hash_seed(1)
        assert b"--- trace ---" in first
        assert first == second


class TestWorkloadDraw:
    def test_risk_bands_match_fractions(self):
        config = SMALL
        rng = np.random.default_rng(99)
        draws = [draw_risk(rng, config) for _ in range(4000)]
        hijack = sum(1 for r in draws if r > 0.75)
        challenged = sum(1 for r in draws if 0.5 < r <= 0.75)
        benign = sum(1 for r in draws if r <= 0.5)
        assert hijack + challenged + benign == len(draws)
        assert hijack / len(draws) == pytest.approx(
            config.hijack_fraction, abs=0.02)
        assert challenged / len(draws) == pytest.approx(
            config.challenge_fraction, abs=0.03)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(n_devices=0)
        with pytest.raises(ValueError):
            FleetConfig(n_shards=0)
        with pytest.raises(ValueError):
            FleetConfig(challenge_fraction=0.9, hijack_fraction=0.2)
        with pytest.raises(ValueError):
            FleetConfig(processor_mode="quantum")
