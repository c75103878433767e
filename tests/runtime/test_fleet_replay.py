"""Fleet determinism: one config, two runs, byte-identical everything.

The small fleet here (tier-1 sized) is the replay witness for the load
benchmark in ``benchmarks/test_fleet_load.py``, which runs the full
1,000-device default configuration.  Same-process replays share one
hash seed, so :class:`TestHashSeedWitness` additionally runs the fleet
in two subprocesses under *different* ``PYTHONHASHSEED`` values — the
dynamic counterpart of the static DT604 rule: if any set-iteration
order reached the summary or the trace, the bytes would differ.
"""

import gc
import hashlib
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.crypto import CertificateAuthority, HmacDrbg, generate_keypair
from repro.flock import ModeledFingerprintProcessor
from repro.obs import Instrumentation
from repro.runtime import (
    BUTTON_XY,
    EXPECTED_REJECTIONS,
    DeviceFactory,
    FleetConfig,
    FleetSimulation,
    draw_risk,
)
from repro.runtime.fleet import NETWORK_RTT_S, _entropy

import numpy as np


SMALL = FleetConfig(n_devices=36, n_shards=4, seed=11,
                    requests_per_device=2, challenge_fraction=0.2,
                    hijack_fraction=0.1, batch_count=4,
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


#: SHA-256 of ``SMALL``'s trace as the hash-seed witness prints it, one
#: ``f"{stamp!r} {label}"`` line per event, recorded when the trace was a
#: list of ``(time, label)`` tuples.
SMALL_TRACE_EXPORT = \
    "b59deeaea0b3f1b48b589c7c2dfada9a1442a9b4a6a350a219bb4431b5207399"


class TestFinishedRun:
    """A finished run keeps its result, not its fleet, and runs once."""

    @pytest.fixture(scope="class")
    def default_run(self):
        """The default fleet's simulation, kept alive as a bench keeps its
        set-up, with its result and a weak reference to a member."""
        sim = FleetSimulation(FleetConfig())
        member = weakref.ref(sim.actors[0].device)
        return sim, sim.run(), member

    def test_a_simulation_runs_once(self):
        sim = FleetSimulation(FleetConfig(n_devices=30, n_shards=2, seed=3,
                                          requests_per_device=1))
        sim.run()
        with pytest.raises(RuntimeError, match="runs once"):
            sim.run()

    def test_the_result_does_not_keep_the_fleet(self, default_run):
        sim, result, member = default_run
        gc.collect()
        assert member() is None
        assert sim.actors is None and sim.pool is None
        assert result.pool.account_totals()
        assert result.metrics.count("register", "ok") > 0

    def test_trace_length_is_the_reported_event_count(self, default_run):
        _, result, _ = default_run
        report = (_REPO_ROOT / "benchmarks" / "results"
                  / "fleet_load.txt").read_text()
        events = re.search(r"byte-identical \((\d+) events\)", report)
        assert len(result.trace) == int(events.group(1))

    def test_trace_iterates_as_the_witness_prints_it(self, result):
        pairs = list(result.trace)
        assert all(type(stamp) is float and type(label) is str
                   for stamp, label in pairs)
        export = "".join(f"{stamp!r} {label}\n" for stamp, label in pairs)
        assert hashlib.sha256(export.encode()).hexdigest() == \
            SMALL_TRACE_EXPORT

    def test_trace_reads_as_its_list_of_pairs(self, result, replay):
        pairs = [(stamp, label) for stamp, label in replay.trace]
        assert result.trace == replay.trace
        assert result.trace == pairs and pairs == result.trace
        assert not result.trace != pairs
        assert result.trace[0] == pairs[0]
        assert result.trace[-1] == pairs[-1]
        assert result.trace[3:9] == pairs[3:9]
        assert result.trace.count(pairs[5]) == pairs.count(pairs[5])
        assert result.trace != pairs[:-1]
        assert result.trace != tuple(pairs)

    def test_one_label_string_per_actor_and_op(self, result):
        labels = {}
        for _, label in result.trace:
            assert labels.setdefault(label, label) is label

    def test_a_live_tracer_still_reads_the_clock_after_the_run(self):
        obs = Instrumentation.live()
        result = FleetSimulation(FleetConfig(n_devices=4, n_shards=2,
                                             seed=3, requests_per_device=1),
                                 obs=obs).run()
        with obs.tracer.span("after-run") as span:
            pass
        assert span.start_time == result.trace[-1][0]


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

    def test_cert_cache_amortizes_batches(self, result):
        # Members of one batch share its device certificate, so the pool
        # only ever verifies `batch_count` distinct certs.
        rows = {kind: (hits, misses)
                for kind, hits, misses, _rate in result.cache.stats()}
        hits, misses = rows["cert-signature"]
        assert misses == SMALL.batch_count
        assert hits == SMALL.n_devices - SMALL.batch_count

    def test_cache_holds_one_entry_per_device_certificate(self, result):
        # Certificate signatures are the only memoized predicate, so the
        # cache grows with distinct device certificates and nothing else.
        assert [row[0] for row in result.cache.stats()] == ["cert-signature"]
        assert len(result.cache) == SMALL.batch_count

    def test_latency_respects_the_floor(self, result):
        from repro.runtime import SERVICE_TIME_S
        for op, count, mean, p50, p99 in result.metrics.latency_rows():
            floor = SERVICE_TIME_S[op] + NETWORK_RTT_S
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
                     hijack_fraction=0.1, batch_count=4, ramp_s=10.0)
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


#: A four-member, two-batch fleet for the factory's known answers.
BATCHES = FleetConfig(n_devices=4, n_shards=2, seed=11, batch_count=2,
                      keypair_pool_size=3)

#: Per member of ``BATCHES``: SHA-256 of its certificate bytes, SHA-256 of
#: its device public key, SHA-256 of its pooled service public key, and
#: the first 32 bytes its DRBG draws.  Members 0 and 2 (and 1 and 3) are
#: one batch: same certificate and device key, their own DRBG stream.
MEMBER_ANSWERS = [
    ("c90c13296e8d08985a2608b9b69b093a729f03542ccbdcef8d720d5841d71634",
     "02eee64a076da72557c8667d5cec8c3a0d318c2d0227edf6734154b97667908f",
     "7a04f1528d36d40689d5524380f9b66fffe98369d7367273f93a56e5f11c1b1c",
     "3d8cfe1e9db55b0b63f14a9c93e0052735e5f033c9c7732b7444e0fc963bbdad"),
    ("5dd5c3a5fccdfc7375df1d94548eb477765be853159e1dc5604bdc5c8fa5e1f8",
     "f4b7a18d52c55223ec8ee376b58a3e870a7f7e5f0722bb6a52e772aa0da628dd",
     "982e5e4ad5bb8ea849a2b9cf5e19de8ad22380373889ad3fd4ce26c93fe6d372",
     "d3c1bc13c767276c4d57ad4fb5524e804d5b5c583639a371cdbcf32e7c4eab87"),
    ("c90c13296e8d08985a2608b9b69b093a729f03542ccbdcef8d720d5841d71634",
     "02eee64a076da72557c8667d5cec8c3a0d318c2d0227edf6734154b97667908f",
     "2682ceb0b7c648d87736e5a91f720bb3cc4e1d2c4bf40f020e67c256d25d134b",
     "15eac41a6ee1adb7c56c064cdc5d8fe9b09b439dbedf00de9211de3aa36c999b"),
    ("5dd5c3a5fccdfc7375df1d94548eb477765be853159e1dc5604bdc5c8fa5e1f8",
     "f4b7a18d52c55223ec8ee376b58a3e870a7f7e5f0722bb6a52e772aa0da628dd",
     "7a04f1528d36d40689d5524380f9b66fffe98369d7367273f93a56e5f11c1b1c",
     "b331ba7900af49b35037638908f1c8c6005ad99fd559611cb879d36b6885ec30"),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestDeviceFactory:
    @pytest.fixture
    def sim(self):
        return FleetSimulation(BATCHES)

    def test_members_match_known_answers(self, sim):
        for actor, (cert, key, pooled, drbg) in zip(sim.actors,
                                                     MEMBER_ANSWERS,
                                                     strict=True):
            flock = actor.device.flock
            assert actor.device.device_id == flock.device_id == \
                f"fleet-dev-{actor.index:05d}"
            assert _digest(flock.certificate.to_bytes()) == cert
            assert _digest(flock.public_key.to_bytes()) == key
            assert _digest(
                flock.crypto.keypair_source().public_key.to_bytes()) == pooled
            assert flock.crypto.rng.generate(32).hex() == drbg

    def test_batch_members_share_key_and_certificate_only(self, sim):
        first, second = sim.actors[0], sim.actors[2]
        a, b = first.device.flock, second.device.flock
        assert a.public_key == b.public_key
        assert a.certificate.to_bytes() == b.certificate.to_bytes()
        assert a.crypto.rng is not b.crypto.rng

        domain = sim.pool.domain
        master = sim.factory.master
        assert first.client.register(first.account, BUTTON_XY, master,
                                     first.rng).success
        login = first.client.login(first.account, BUTTON_XY, master,
                                   first.rng)
        assert login.success
        assert a.flash.has_record(domain) and a.has_session(domain)
        # The batch mate holds no record and no session of its own ...
        assert not b.flash.has_record(domain)
        assert not b.has_session(domain)
        # ... and its DRBG did not advance with the first member's draws.
        assert b.crypto.rng.generate(32).hex() == MEMBER_ANSWERS[2][3]

    def test_members_share_the_layout_not_the_sensors(self, sim):
        a, b = (actor.device.flock.controller for actor in sim.actors[:2])
        assert a.layout is b.layout
        assert all(x is not y for x, y in zip(a._arrays, b._arrays,
                                              strict=True))

    def test_entropy_is_the_generators_first_32_bytes(self):
        """``_entropy`` reads four raw 64-bit outputs: the bytes
        ``Generator.bytes(32)`` gives for the same stream."""
        for seed in range(100):
            config = FleetConfig(seed=seed)
            for stream in [(3, seed % 4), (4,), (5, seed), (5, 999 - seed),
                           (6, seed)]:
                expected = np.random.default_rng(
                    (seed,) + stream).bytes(32)
                assert _entropy(config, *stream) == expected, (seed, stream)

    def test_each_setup_mints_each_key_once(self):
        """A set-up generates the CA key, the pool's one service key, a
        key per batch and the service-keypair pool: each once, each
        distinct.  A second set-up generates them all again."""
        runs = []
        for _ in range(2):
            moduli = []

            def profile(frame, event, arg, moduli=moduli):
                if event == "return" \
                        and frame.f_code is generate_keypair.__code__:
                    moduli.append(arg.n)

            sys.setprofile(profile)
            try:
                FleetSimulation(BATCHES)
            finally:
                sys.setprofile(None)
            runs.append(moduli)
        expected = 2 + BATCHES.batch_count + BATCHES.keypair_pool_size
        assert len(runs[0]) == len(set(runs[0])) == expected
        assert runs[1] == runs[0]

    def test_every_device_runs_the_enrolled_modeled_processor(self):
        """Fleets are always modeled: every member comes enrolled with
        the fleet finger, ready for its first login."""
        config = FleetConfig(n_devices=3, batch_count=2,
                             keypair_pool_size=1, seed=11)
        ca = CertificateAuthority(rng=HmacDrbg(b"factory-ca"), key_bits=512)
        factory = DeviceFactory(config, ca)
        for index in range(config.n_devices):
            device = factory.build(index)
            assert device.flock.processor_mode == "modeled"
            processor = device.flock._local_processor
            assert isinstance(processor, ModeledFingerprintProcessor)
            assert processor.enrolled_finger_id == factory.master.finger_id


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

    def test_each_fraction_and_the_ramp_are_checked_at_construction(self):
        """A negative fraction passed when the sum fit in [0, 1], running
        another breach mix, and a negative ramp failed only inside
        ``run()``, after the whole set-up."""
        with pytest.raises(ValueError):
            FleetConfig(challenge_fraction=-0.5, hijack_fraction=0.6)
        with pytest.raises(ValueError):
            FleetConfig(challenge_fraction=1.2, hijack_fraction=-0.3)
        with pytest.raises(ValueError):
            FleetConfig(ramp_s=-1.0)
