"""Run-to-run spread of benchmark results.

    python bench/spread.py RESULT.json... [--second RESULT.json...]

Reads result files written by ``python -m bench`` (single-workload files
or the combined ``all-*`` ones) and prints, per workload and metric, the
sample count, median, first and third quartiles, the quartile spread and
the full range (max - min), each as a share of the median, next to the
metric's regression bound from ``BENCHMARK.json``.  With ``--second``, a
second set of runs of the same commit is summarised too and its median
compared with the first: the shift must stay within the bound.

Quartiles are ``statistics.quantiles(values, n=4)``.  A metric is marked
``ok`` when its quartile spread is below a third of its bound (``setup_s``
is exempt) and, with ``--second``, the second median is not worse by more
than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths: list[Path]) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over the given result files."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for path in paths:
        data = json.loads(path.read_text())
        for result in data.get("workloads", {"": data}).values():
            for name, metric in result["metrics"].items():
                values[(result["workload"], name)].append(metric["value"])
    return values


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    scale = abs(median) or 1.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "iqr": (q3 - q1) / scale,
            "range": (max(values) - min(values)) / scale}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / (abs(first) or 1.0)
    return -change if better == "higher" else change


def report(first: dict, second: dict | None, spec: dict) -> list[str]:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    header = (f"{'workload':18} {'metric':32} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'iqr/med':>8} {'rng/med':>8} "
              f"{'bound':>6}")
    if second is not None:
        header += f" {'median2':>12} {'worse':>7}"
    lines = [header + "  status"]
    for (workload, name), values in sorted(first.items()):
        metric = declared.get(name, {})
        bound = metric.get("bound")
        s = summarise(values)
        line = (f"{workload:18} {name:32} {s['n']:3d} {s['median']:12.6g} "
                f"{s['q1']:12.6g} {s['q3']:12.6g} {s['iqr']:8.2%} "
                f"{s['range']:8.2%} "
                + (f"{bound:6.2f}" if bound is not None else f"{'-':>6}"))
        ok = bound is None or name == "setup_s" or s["iqr"] < bound / 3
        if second is not None and (workload, name) in second:
            median2 = statistics.median(second[(workload, name)])
            worse = worse_by(s["median"], median2, metric.get("better",
                                                              "lower"))
            line += f" {median2:12.6g} {worse:7.2%}"
            ok = ok and (bound is None or worse <= bound)
        lines.append(line + ("  ok" if ok else "  WIDE"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--second", nargs="+", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    first = load(args.results)
    second = load(args.second) if args.second else None
    lines = report(first, second, spec)
    print("\n".join(lines))
    return 0 if all(not line.endswith("WIDE") for line in lines) else 1


if __name__ == "__main__":
    raise SystemExit(main())
