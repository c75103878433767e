"""Run one workload: warm up, set up, measure, check, optionally trace.

The measured run installs only the operation probes (client calls and
gestures), so its numbers carry two clock reads per operation and nothing
else.  Between operations it samples the host's speed, and the end-to-end
times are scaled to the reference speed (``speed.py``).  A traced run
then replays the same rounds with every layer probed; its per-layer
numbers come from that replay, and its output must equal the measured
run's byte for byte.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from . import ROOT
from .layers import (CRITICAL_OPS, OP_BOUNDARIES, active_layers, install,
                     layer_names)
from .probe import SPAN_FIELDS, Probes, Tracer
from .speed import HostSpeed
from .workloads import derive

__all__ = ["declared", "percentile", "run_workload", "use_checkout_src"]

clock = time.perf_counter

#: Set-ups per run, each from its own seed; ``setup_s`` is their median.
SETUP_REPS = 5
#: Full span trees are kept for this many operations of each kind.
KEEP_OPS = 200
#: A tail percentile is reported only with this many samples beyond it.
MIN_TAIL = 10
#: Largest share of a traced run that may fall outside every span.
MAX_UNATTRIBUTED = 0.10


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"bench: repro imported from {repro.__file__}, "
                         f"not from {src}")


def declared() -> dict:
    """``BENCHMARK.json``: workloads and metric declarations."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values, q: float) -> float | None:
    """Nearest-rank ``q`` quantile; None with < MIN_TAIL samples beyond."""
    rank = math.ceil(q * len(values))
    if not values or len(values) - rank < MIN_TAIL:
        return None
    return sorted(values)[rank - 1]


class Measurement:
    """Set-up intervals, rounds, the tracer and host speed of one run."""

    def __init__(self, setups, rounds, tracer, speed=None, wall_s=None,
                 began=None) -> None:
        #: ``(start, end)`` of each set-up.
        self.setups = setups
        self.rounds = rounds
        self.tracer = tracer
        self.speed = speed
        self.windows = [w for r in rounds for w in r.windows]
        #: Host seconds inside the measured windows, less the host-speed
        #: samples taken between operations there.
        self.window_s = sum(end - start for start, end in self.windows)
        if speed is not None:
            self.window_s -= sum(speed.busy_s(*w) for w in self.windows)
        #: Operations that started inside the measured windows.
        self.ops = [op for op in tracer.ops
                    if any(w0 <= op[1] <= w1 for w0, w1 in self.windows)]
        #: Host seconds of the whole (traced) phase, set-up included,
        #: and the clock reading it began at.
        self.wall_s = wall_s
        self.began = began

    def counts(self) -> dict[str, float]:
        """Round counts summed; end-of-run state taken from the last."""
        total: dict[str, float] = {}
        for r in self.rounds:
            for key, value in r.counts.items():
                total[key] = total.get(key, 0) + value
        if self.rounds and "active_sessions_end" in self.rounds[-1].counts:
            total["active_sessions_end"] = \
                self.rounds[-1].counts["active_sessions_end"]
        return total


def measure(workload, seed: int, seconds: float) -> Measurement:
    """Warm up, set up ``SETUP_REPS`` times, run rounds for ``seconds``.

    Host speed is sampled before every set-up and round, after the last
    round and between operations.
    """
    workload.warm_up(derive(seed, 1))
    speed = HostSpeed(clock)
    tracer = Tracer(KEEP_OPS, idle=speed.tick)
    probes = Probes(tracer)
    install(probes, OP_BOUNDARIES, crypto=False)
    try:
        setups, state = [], None
        # The run keeps the last set-up, the one from the run seed itself.
        for stream in range(SETUP_REPS - 1, -1, -1):
            state = None  # release the previous set-up before the next
            speed.sample()
            start = clock()
            state = workload.setup(derive(seed, 2 + stream) if stream
                                   else seed)
            setups.append((start, clock()))
        rounds = []
        began = clock()
        # Another round only if, at the mean round length so far, it ends
        # within the budget.
        while len(rounds) < workload.min_rounds or \
                (clock() - began) * (len(rounds) + 1) / len(rounds) <= seconds:
            speed.sample()
            rounds.append(workload.run_round(state, seed, len(rounds)))
        speed.sample()
    finally:
        probes.remove()
    return Measurement(setups, rounds, tracer, speed)


def replay_traced(workload, seed: int, rounds: int) -> Measurement:
    """One set-up plus ``rounds`` rounds with every layer probed."""
    tracer = Tracer(KEEP_OPS)
    probes = Probes(tracer)
    install(probes)
    try:
        began = clock()
        state = workload.setup(seed)
        replay = [workload.run_round(state, seed, index)
                  for index in range(rounds)]
        wall = clock() - began
    finally:
        probes.remove()
    return Measurement([], replay, tracer, wall_s=wall, began=began)


def end_to_end(m: Measurement, counted: list) -> dict:
    """``name -> (value, unit, samples)`` for the end-to-end metrics.

    Times are at the reference host speed (see ``speed.py``).
    """
    scale = m.speed.scale
    setups = [(end - start) * scale(start, end) for start, end in m.setups]
    latencies = [(end - start) * scale(start, end)
                 for _, start, end, _ in counted]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms",
                      len(latencies)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", None),
    }


def detail(workload, m: Measurement, counted: list, attempted: int,
           failed: int) -> dict:
    """Host speed, raw times, rate, per-kind percentiles and failure ratio
    (reported only; every time here is raw host time)."""
    latencies = [end - start for _, start, end, _ in counted]
    metrics = {
        "host_speed": (m.speed.factor(), "ratio", len(m.speed.durations)),
        "setup_raw_s": (statistics.median(end - start
                                          for start, end in m.setups),
                        "s", len(m.setups)),
        "op_p50_raw_ms": (statistics.median(latencies) * 1e3, "ms",
                          len(latencies)),
        "ops_per_s": (len(latencies) / m.window_s, "1/s", len(latencies)),
        "failed_op_ratio": (failed / attempted, "ratio", attempted)}
    by_prefix: dict[str, list[float]] = {}
    for op in m.ops:
        prefix = workload.timed(op)
        if prefix is not None:
            by_prefix.setdefault(prefix, []).append(op[2] - op[1])
    for prefix, tail in workload.tails.items():
        values = by_prefix.get(prefix, [])
        n = len(values)
        metrics[f"{prefix}_p50_ms"] = (
            statistics.median(values) * 1e3 if values else None, "ms", n)
        tail_value = percentile(values, tail)
        metrics[f"{prefix}_p{round(tail * 100)}_ms"] = (
            tail_value * 1e3 if tail_value is not None else None, "ms", n)
    return metrics


def per_layer(traced: Measurement, measured: Measurement) -> dict:
    """``name -> (value, unit, None)`` for the per-layer metrics."""
    tracer, wall = traced.tracer, traced.wall_s
    calls = tracer.layer_calls()
    metrics = {}
    for layer in layer_names():
        metrics[f"{layer}.calls"] = (calls[layer], "count", None)
        metrics[f"{layer}.self_pct"] = (
            100 * tracer.self_s.get(layer, 0.0) / wall, "%", None)
    counts = traced.counts()

    def ratio(num, den):
        return num / den if den else 0.0

    kind = "cert-signature"
    metrics[f"runtime.cache.hit_ratio.{kind}"] = (
        ratio(counts.get(f"cache.hits.{kind}", 0),
              counts.get(f"cache.lookups.{kind}", 0)), "ratio", None)
    for reason in ("risk-too-high", "other"):
        metrics[f"net.rejections.{reason}"] = (
            counts.get(f"rejections.{reason}", 0), "count", None)
    metrics["net.active_sessions_end"] = (
        counts.get("active_sessions_end", 0), "count", None)
    tallies = tracer.tallies

    def tally(label, kinds=None):
        return sum(count for (op, name), count in tallies.items()
                   if name == label and (kinds is None or op in kinds))

    metrics["flock.capture_ratio"] = (
        ratio(tally("captured"), tally("touch")), "ratio", None)
    metrics["flock.verify_ratio"] = (
        ratio(tally("verified"), tally("captured")), "ratio", None)
    metrics["flock.attempts_per_verified_op"] = (
        ratio(tally("touch", CRITICAL_OPS), tally("verified", CRITICAL_OPS)),
        "ratio", None)
    metrics["fingerprint.enhance_ratio"] = (ratio(
        tracer.calls[("fingerprint.enhance", "minutiae_with_enhancement")],
        tracer.calls[("flock.match",
                      "ImageFingerprintProcessor.authenticate")]),
        "ratio", None)
    metrics["bench.unattributed_pct"] = (
        100 * (wall - tracer.covered_s) / wall, "%", None)
    metrics["bench.trace_overhead_pct"] = (
        100 * (traced.window_s / measured.window_s - 1), "%", None)
    return metrics


def trace_checks(workload, traced: Measurement,
                 measured: Measurement) -> list[str]:
    """The traced replay is faithful, complete and fully attributed."""
    errors = []
    if [r.output for r in traced.rounds] != \
            [r.output for r in measured.rounds]:
        errors.append("traced replay output differs from the measured run")
    calls = traced.tracer.layer_calls()
    errors.extend(f"layer {layer} recorded no calls"
                  for layer in active_layers(workload.name)
                  if not calls[layer])
    wall = traced.wall_s
    self_total = sum(traced.tracer.self_s.values())
    unattributed = wall - traced.tracer.covered_s
    if abs(self_total + unattributed - wall) > 0.05 * wall:
        errors.append(f"layer self times {self_total:.3f} s + unattributed "
                      f"{unattributed:.3f} s != traced wall {wall:.3f} s")
    if unattributed > MAX_UNATTRIBUTED * wall:
        errors.append(f"{unattributed / wall:.1%} of the traced run is "
                      f"outside every layer")
    return errors


def write_spans(path: Path, workload: str, seed: int,
                traced: Measurement) -> None:
    """Kept span trees, times in seconds from the traced phase's start."""
    began = traced.began
    spans = [list(span) for span in traced.tracer.spans]
    for span in spans:
        span[3] = round(span[3] - began, 9)
        span[4] = round(span[4] - began, 9)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "keep_ops_per_kind": KEEP_OPS,
                                "fields": SPAN_FIELDS, "spans": spans}))


def run_workload(workload, seed: int, seconds: float,
                 trace: bool = False, spans_path: Path | None = None) -> dict:
    """Measure (and with ``trace`` replay) one workload; the result dict."""
    measured = measure(workload, seed, seconds)
    errors = [error for r in measured.rounds for error in r.errors]
    counted = workload.counted(measured.ops)
    attempted = len(measured.ops)
    failed = workload.failed(measured.ops)
    if not counted:
        errors.append("no operation completed")
    e2e = end_to_end(measured, counted) if counted else {}
    result = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": bool(trace), "rounds": len(measured.rounds),
              "attempted": attempted, "failed": failed,
              "end_to_end": e2e,
              "detail": detail(workload, measured, counted, attempted,
                               failed) if counted else {}}
    if trace:
        traced = replay_traced(workload, seed, len(measured.rounds))
        layers = per_layer(traced, measured)
        errors.extend(trace_checks(workload, traced, measured))
        result["per_layer"] = layers
        if spans_path is not None:
            write_spans(spans_path, workload.name, seed, traced)
    result["errors"] = errors
    result["correct"] = not errors
    return result
