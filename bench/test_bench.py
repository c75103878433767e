"""Benchmark self-tests: ``python -m pytest bench -q`` (well under a minute).

Every workload runs traced at a tiny size; the result must pass its own
output checks and carry every metric ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from bench import ROOT
from bench import run as bench_run
from bench.__main__ import _driver_metrics, _lines
from bench.spread import load, summarise

SPEC = bench_run.declared()


@pytest.fixture(scope="module", autouse=True)
def checkout():
    """``repro`` from ``src``, one set-up per run."""
    bench_run.use_checkout_src()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench_run, "SETUP_REPS", 1)
        yield


def tiny(name: str):
    from bench.workloads import ContinuousWorkload, FleetWorkload
    return {
        "onboard-modeled": lambda: FleetWorkload(
            name, ("register", "login"), n_devices=12),
        "steady-requests": lambda: FleetWorkload(
            name, ("request",), n_devices=6, requests_per_device=20,
            challenge_fraction=0.1, hijack_fraction=0.0),
        "continuous-image": lambda: ContinuousWorkload(gestures=60),
    }[name]()


@pytest.fixture(scope="module")
def traced():
    """Each workload, tiny, measured and traced once."""
    return {w["name"]: bench_run.run_workload(tiny(w["name"]), seed=3,
                                              seconds=0.01, trace=True)
            for w in SPEC["workloads"]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_is_correct_and_complete(traced, workload):
    result = traced[workload]
    assert result["correct"], result["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert set(result[section]) == set(declared)
        metrics = _driver_metrics(dict(result, trace=section == "per_layer"),
                                  SPEC)
        assert {name: m["unit"] for name, m in metrics.items()} == declared
    for name, (value, _, _) in result["end_to_end"].items():
        assert value > 0, name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_layer_shares_sum_to_the_traced_wall(traced, workload):
    layers = traced[workload]["per_layer"]
    shares = sum(value for name, (value, _, _) in layers.items()
                 if name.endswith(".self_pct"))
    unattributed = layers["bench.unattributed_pct"][0]
    assert shares + unattributed == pytest.approx(100, abs=5)
    assert unattributed >= -0.5


def test_thin_percentiles_print_na(traced):
    assert bench_run.percentile(list(range(100)), 0.95) is None
    assert bench_run.percentile(list(range(200)), 0.95) == 189
    result = traced["onboard-modeled"]
    assert result["detail"]["register_p95_ms"][0] is None
    assert "onboard-modeled register_p95_ms n/a ms n=12" in _lines(result)


def test_probes_are_removed_after_a_run(traced):
    import repro.crypto
    from repro.net import TrustClient
    from repro.net.message import canonical_payload
    for fn in (TrustClient.register, repro.crypto.sha256, canonical_payload,
               repro.crypto.HmacDrbg.generate):
        assert not getattr(fn, "_bench_probe", False), fn


def test_every_table_entry_resolves():
    from bench.layers import LAYERS
    from bench.probe import resolve
    for boundary in LAYERS:
        for target in boundary.targets:
            resolve(target)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    child = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "steady-requests",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout


def test_host_speed_scales_by_the_nearest_samples():
    from bench.speed import NEAREST, REFERENCE_S, HostSpeed
    speed = HostSpeed()
    # A fast stretch, then one where the kernel takes twice as long.
    speed.starts = [float(t) for t in range(4 * NEAREST)]
    speed.durations = [REFERENCE_S] * (2 * NEAREST) \
        + [2 * REFERENCE_S] * (2 * NEAREST)
    assert speed.scale(3.0, 4.0) == 1.0
    assert speed.scale(4 * NEAREST - 2.0, 4 * NEAREST + 5.0) == 0.5
    assert speed.scale(-9.0, -8.0) == 1.0  # before the first sample
    assert speed.factor() == pytest.approx(2 / 3)
    speed.sample(3)
    assert len(speed.durations) == 4 * NEAREST + 3
    assert speed.busy_s(speed.starts[-3], speed.clock()) \
        == pytest.approx(sum(speed.durations[-3:]))


def test_spread_reads_results(tmp_path):
    for seed, value in enumerate((1.0, 2.0, 3.0, 4.0)):
        result = {"workload": "w", "metrics": {
            "ops_per_s": {"value": value, "unit": "1/s"}}}
        (tmp_path / f"{seed}.json").write_text(json.dumps(result))
    values = load(sorted(tmp_path.glob("*.json")))
    assert values == {("w", "ops_per_s"): [1.0, 2.0, 3.0, 4.0]}
    summary = summarise(values[("w", "ops_per_s")])
    assert summary["median"] == 2.5
    assert summary["range"] == pytest.approx(3 / 2.5)
