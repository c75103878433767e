"""Command line: ``python -m bench [--workload W] [--seed N] [--seconds S]
[--trace [0|1]] [--out PATH]``.

With ``--workload`` the workload runs in this process.  Without it, every
workload in ``BENCHMARK.json`` runs in a fresh subprocess of its own, one
after another.  Each metric is printed as ``workload metric value unit``
(``n=`` gives the sample count); the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from . import ROOT
from .run import declared, run_workload, use_checkout_src

RESULTS = ROOT / "bench" / "results"
#: A workload subprocess that runs longer than this is stopped.
CHILD_TIMEOUT_S = 900


def _parser(workloads: list[str]) -> argparse.ArgumentParser:
    def non_negative(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    def positive(text: str) -> float:
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("must be > 0")
        return value

    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[1])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=non_negative, default=7)
    parser.add_argument("--seconds", type=positive,
                        default=declared()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--out", type=Path,
                        help="result JSON path (default: bench/results/)")
    return parser


def _format(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _lines(result: dict) -> list[str]:
    lines = []
    for section in ("end_to_end", "detail", "per_layer"):
        for name, (value, unit, samples) in result.get(section, {}).items():
            count = f" n={samples}" if samples is not None else ""
            lines.append(f"{result['workload']} {name} {_format(value)} "
                         f"{unit}{count}")
    lines.extend(f"{result['workload']} CHECK FAILED: {error}"
                 for error in result["errors"])
    return lines


def _driver_metrics(result: dict, spec: dict) -> dict:
    """The declared metrics of the result, checked against ``spec``."""
    section = "per_layer" if result["trace"] else "end_to_end"
    computed = result.get(section, {})
    metrics = {}
    for metric in spec[section]:
        name = metric["name"]
        if name not in computed:
            if result["correct"]:
                raise SystemExit(f"bench: declared metric {name} missing")
            continue
        value, unit, _ = computed[name]
        if unit != metric["unit"]:
            raise SystemExit(f"bench: {name} measured in {unit}, declared "
                             f"in {metric['unit']}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _default_out(label: str, seed: int, trace: int) -> Path:
    return RESULTS / f"{label}-seed{seed}-trace{trace}.json"


def _run_one(args, spec: dict) -> int:
    use_checkout_src()
    from .workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    spans = RESULTS / f"trace-{args.workload}.json" if args.trace else None
    result = run_workload(workload, args.seed, args.seconds,
                          trace=bool(args.trace), spans_path=spans)
    result["metrics"] = _driver_metrics(result, spec)
    out = args.out or _default_out(args.workload, args.seed, args.trace)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(_lines(result)))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def _run_all(args, spec: dict) -> int:
    results = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        out = _default_out(workload, args.seed, args.trace)
        out.unlink(missing_ok=True)
        command = [sys.executable, "-m", "bench", "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(out)]
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
        print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
        if not out.is_file():
            raise SystemExit(f"bench: {workload} exited {child.returncode} "
                             f"without a result")
        results[workload] = json.loads(out.read_text())
    out = args.out or _default_out("all", args.seed, args.trace)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workloads": results}, indent=1) + "\n")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{workload}.{name}": metric
                    for workload, r in results.items()
                    for name, metric in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    spec = declared()
    args = _parser([w["name"] for w in spec["workloads"]]).parse_args(argv)
    if args.workload:
        return _run_one(args, spec)
    return _run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
