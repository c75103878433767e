"""TRUST-lint throughput — a full-tree pass must stay interactive.

The analysis pass is a tier-1 gate (tests/analysis/test_self_clean.py),
so it runs on every merge; this smoke check keeps it from quietly
degrading into something nobody wants to run.  Budgets: 10 s for the
per-module scan over ``src/``, 5 s for the interprocedural taint pass
on top of it, and 8 s total for the combined lint + taint + det +
contract + sc run (the exact command the CI analysis job executes).

Two rows answer whether the process pool pays for itself: the
pool-vs-sequential scan, as the median of three interleaved pairs, and
the six-stage run at ``jobs=1``, which turns off both the scan pool and
the det/sc overlap.  Each asserts that the two runs agree
finding-for-finding.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from statistics import median

from repro.analysis import analyze_paths
from repro.analysis.config import AnalysisConfig

from .conftest import emit

REPO_ROOT = Path(__file__).resolve().parents[1]
BUDGET_SECONDS = 10.0
TAINT_BUDGET_SECONDS = 5.0
COMBINED_BUDGET_SECONDS = 8.0
SCAN_PAIRS = 3
ALL_STAGES = {"taint": True, "det": True, "contract": True, "sc": True}

#: The repo's own policy (pyproject [tool.trust-lint]) — what the CI
#: job actually runs with; the sc declassification model lives there.
CONFIG = AnalysisConfig.from_pyproject(REPO_ROOT / "pyproject.toml")


def _timed(**kwargs):
    start = time.perf_counter()
    report = analyze_paths([REPO_ROOT / "src"], CONFIG, **kwargs)
    return report, time.perf_counter() - start


def _fingerprints(report):
    return [f.fingerprint() for f in report.findings]


def test_full_tree_pass_under_budget(monkeypatch):
    # The contract stage reads its golden and consumer paths relative to
    # the working directory, as the CI job runs it.
    monkeypatch.chdir(REPO_ROOT)
    pairs = [(_timed(), _timed(jobs=1)) for _ in range(SCAN_PAIRS)]
    report, report_seq = pairs[0][0][0], pairs[0][1][0]
    scan_times = [pool for (_, pool), _ in pairs]
    elapsed = median(scan_times)
    elapsed_seq = median(seq for _, (_, seq) in pairs)
    report_taint, elapsed_taint = _timed(taint=True)
    report_det, elapsed_det = _timed(det=True)
    report_ct, elapsed_ct = _timed(contract=True)
    report_sc, elapsed_sc = _timed(sc=True)
    report_all, elapsed_all = _timed(**ALL_STAGES)
    report_all_seq, elapsed_all_seq = _timed(jobs=1, **ALL_STAGES)

    per_file = elapsed / max(report.files_scanned, 1)
    emit(
        "analysis_perf",
        "TRUST-lint full-tree pass\n"
        f"  files scanned      : {report.files_scanned}\n"
        f"  findings           : {len(report.findings)}\n"
        f"  scan (parallel)    : {elapsed * 1000:.1f} ms"
        f"  ({per_file * 1000:.2f} ms/file; median of {SCAN_PAIRS} "
        "interleaved pairs)\n"
        f"  scan (sequential)  : {elapsed_seq * 1000:.1f} ms"
        f"  (speedup x{elapsed_seq / max(elapsed, 1e-9):.2f})\n"
        f"  scan + taint pass  : {elapsed_taint * 1000:.1f} ms"
        f"  ({len(report_taint.findings)} finding(s), "
        f"{len(report_taint.findings) - len(report.findings)} from taint)\n"
        f"  scan + det pass    : {elapsed_det * 1000:.1f} ms"
        f"  ({len(report_det.findings)} finding(s), "
        f"{len(report_det.findings) - len(report.findings)} from det)\n"
        f"  scan + contract    : {elapsed_ct * 1000:.1f} ms"
        f"  ({len(report_ct.findings)} finding(s), "
        f"{len(report_ct.findings) - len(report.findings)} from contract)\n"
        f"  scan + sc pass     : {elapsed_sc * 1000:.1f} ms"
        f"  ({len(report_sc.findings)} finding(s), "
        f"{len(report_sc.findings) - len(report.findings)} from sc)\n"
        f"  six-stage run      : {elapsed_all * 1000:.1f} ms"
        f"  ({len(report_all.findings)} finding(s))\n"
        f"  six-stage, jobs=1  : {elapsed_all_seq * 1000:.1f} ms"
        f"  (pool + overlap speedup "
        f"x{elapsed_all_seq / max(elapsed_all, 1e-9):.2f})\n"
        f"  budgets            : scan {BUDGET_SECONDS:.0f} s, "
        f"with taint +{TAINT_BUDGET_SECONDS:.0f} s, "
        f"combined {COMBINED_BUDGET_SECONDS:.0f} s",
    )

    assert report.parse_errors == []
    assert report.stages == ()
    assert report_taint.stages == ("taint",)
    assert report_det.stages == ("det",)
    assert report_ct.stages == ("contract",)
    assert report_sc.stages == ("sc",)
    assert report_all.stages == report_all_seq.stages \
        == ("taint", "det", "contract", "sc")
    # The contract stage diffs what it extracts against the committed
    # golden (CT705), so a clean six-stage run means the extraction
    # reproduced a non-empty contract.json.
    golden = json.loads(Path(CONFIG.contract_golden).read_text())
    assert golden["endpoints"]
    assert not [f for f in report_all.findings if f.rule == "CT705"]
    # Per-stage clocks and counts (the ``--stats`` surface).
    for stage in ("lint", "taint", "det", "contract", "sc"):
        assert report_all.stage_stats[stage]["elapsed_s"] >= 0.0
        assert report_all.stage_stats[stage]["findings"] >= 0
    for pool_time in scan_times:
        assert pool_time < BUDGET_SECONDS, (
            f"analysis pass took {pool_time:.1f}s "
            f"(> {BUDGET_SECONDS}s budget)")
    assert elapsed_taint < BUDGET_SECONDS + TAINT_BUDGET_SECONDS, (
        f"taint pass took {elapsed_taint:.1f}s "
        f"(> {BUDGET_SECONDS + TAINT_BUDGET_SECONDS}s budget)")
    assert elapsed_all < COMBINED_BUDGET_SECONDS, (
        f"six-stage lint+taint+det+contract+sc pass took {elapsed_all:.1f}s "
        f"(> {COMBINED_BUDGET_SECONDS}s budget)")
    # Pooled and sequential runs must agree exactly (determinism).
    for (pool_report, _), (seq_report, _) in pairs:
        assert _fingerprints(pool_report) == _fingerprints(seq_report)
    assert _fingerprints(report_all) == _fingerprints(report_all_seq)


VERIFY_DEPTH = 10
VERIFY_BUDGET_SECONDS = 30.0


def test_verify_pass_under_budget():
    """The protocol model checker: exhaustive, clean, and interactive.

    Depth 10 keeps the benchmark well inside CI time while still
    exercising every scenario's full transition repertoire; the CI
    gate itself pins depth 12 (~20 s).
    """
    from repro.analysis.verify import run_verify

    start = time.perf_counter()
    findings, stats = run_verify(depth=VERIFY_DEPTH)
    elapsed = time.perf_counter() - start

    per_scenario = "\n".join(
        f"    {sc['name']:10s} {sc['states']:6d} states "
        f"(peak frontier {sc['max_frontier']})"
        for sc in stats["scenarios"])
    emit(
        "verify_perf",
        "TRUST-verify model-checking pass\n"
        f"  depth budget       : {stats['depth']}\n"
        f"  states explored    : {stats['states']}\n"
        f"  transitions        : {stats['transitions']}\n"
        f"  throughput         : {stats['states_per_s']} states/s\n"
        f"  peak frontier      : {stats['max_frontier']}\n"
        f"  wall time          : {elapsed:.2f} s "
        f"(budget {VERIFY_BUDGET_SECONDS:.0f} s)\n"
        + per_scenario,
    )

    assert findings == [], [f.message for f in findings]
    assert stats["exhausted"] is True
    assert stats["states_per_s"] > 0
    assert stats["max_frontier"] > 0
    assert elapsed < VERIFY_BUDGET_SECONDS, (
        f"verify pass took {elapsed:.1f}s "
        f"(> {VERIFY_BUDGET_SECONDS}s budget)")
