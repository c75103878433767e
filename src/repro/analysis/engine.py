"""TRUST-lint engine: discover files, run rules, filter findings.

The engine owns everything between "a list of paths" and "a list of
findings": Python-file discovery, dotted-module-name recovery (walking up
``__init__.py`` markers so rules see ``repro.net.webserver`` regardless of
where the tree is checked out), rule execution, suppression filtering and
baseline subtraction.

Two kinds of work run.  The per-module rules look at one file at a
time; the project-wide stages of :data:`STAGES` (taint, det, contract,
sc) each look at every module at once, on one symbol index built before
any of them.  On a big tree (or an explicit ``jobs > 1``) one
fork-context process pool carries both: the per-file scan in chunks
and, when taint is requested, the det and sc stages as tasks that
inherit the parsed modules and the index copy-on-write, while the parent
runs taint and contract.  Results are merged in submission and table
order and globally sorted, so the output is byte-identical to a
sequential run.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .baseline import apply_baseline
from .config import AnalysisConfig
from .contract import run_contract
from .core import Finding, ModuleContext, ProjectRule, all_rules
from .determinism import run_det
from .sidechannel import run_sc
from .taint import TaintAnalysis
from .taint.symbols import ProjectIndex, build_index

__all__ = ["AnalysisReport", "STAGES", "Stage", "analyze_paths",
           "analyze_source", "analyze_sources", "build_contexts",
           "module_name_for"]

#: Below this many files a process pool costs more than it saves.
_PARALLEL_THRESHOLD = 24
_MAX_WORKERS = 8


@dataclass(frozen=True)
class Stage:
    """One project-wide pass over every module of the run at once."""

    #: CLI flag, ``analyze_paths`` keyword and ``--stats`` row.
    name: str
    #: What the pass checks (the CLI flag's help text).
    summary: str
    run: Callable[[list[ModuleContext], AnalysisConfig, ProjectIndex],
                  list[Finding]]
    #: Runs as a pool task beside the parent's taint pass when the pool
    #: is up; the other stages run in the parent.
    offload: bool = False


def _taint(contexts: list[ModuleContext], config: AnalysisConfig,
           index: ProjectIndex) -> list[Finding]:
    return TaintAnalysis(contexts, config, index=index).run()


def _contract(contexts: list[ModuleContext], config: AnalysisConfig,
              index: ProjectIndex) -> list[Finding]:
    return run_contract(contexts, config, index=index)[0]


#: The project-wide stages, in report order.
STAGES: tuple[Stage, ...] = (
    Stage("taint", "interprocedural secret-flow pass (SF110/SF111, with "
          "full traces)", _taint),
    Stage("det", "determinism & shard-isolation pass (DT6xx/RC61x, with "
          "full traces)", run_det, offload=True),
    Stage("contract", "wire-contract conformance pass (CT700-CT705)",
          _contract),
    Stage("sc", "constant-time / side-channel pass (SC800-SC805, with "
          "full traces)", run_sc, offload=True),
)


@dataclass
class AnalysisReport:
    """Outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    files_scanned: int = 0
    suppressed_count: int = 0
    baselined_count: int = 0
    #: Names of the project-wide stages that ran, in :data:`STAGES` order.
    stages: tuple[str, ...] = ()
    #: Busy seconds and reported findings per stage, ``"lint"`` (the
    #: per-module scan) first: ``{"lint": {"elapsed_s": ...,
    #: "findings": ...}}``.  Each stage reports its own clock (the scan
    #: the sum of its per-file times), so overlapped stages can sum to
    #: more than the run's total wall time.
    stage_stats: dict = field(default_factory=dict)
    #: Exploration statistics when this report came from ``repro-lint
    #: verify`` (states, transitions, per-scenario breakdown); else None.
    verify_stats: dict | None = None

    @property
    def clean(self) -> bool:
        """No new findings and every file parsed."""
        return not self.findings and not self.parse_errors


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py" and path.is_file():
            files.add(path)
    return sorted(files)


def module_name_for(path: Path) -> tuple[str, bool]:
    """(dotted module name, is_package) for a file on disk.

    Walks up while ``__init__.py`` siblings exist, so
    ``src/repro/net/webserver.py`` maps to ``repro.net.webserver`` no
    matter what the checkout prefix is.  Files outside any package map to
    their bare stem.
    """
    resolved = path.resolve()
    is_package = resolved.name == "__init__.py"
    parts: list[str] = [] if is_package else [resolved.stem]
    current = resolved.parent
    while (current / "__init__.py").is_file():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(parts) or resolved.stem, is_package


def _load_context(file_path: Path,
                  display: str) -> tuple[ModuleContext | None, str | None]:
    """(context, error message) — exactly one of the two is None."""
    try:
        source = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, f"unreadable: {exc}"
    module, is_package = module_name_for(file_path)
    try:
        ctx = ModuleContext.build(file_path, display, module, source,
                                  is_package=is_package)
    except SyntaxError as exc:
        return None, f"syntax error: {exc.msg} (line {exc.lineno})"
    return ctx, None


def _check_module(ctx: ModuleContext,
                  config: AnalysisConfig) -> tuple[list[Finding], int]:
    """The per-module rules over one module: (findings, suppressed)."""
    findings: list[Finding] = []
    suppressed = 0
    for rule in all_rules():
        if isinstance(rule, ProjectRule):
            continue  # reported by the project-wide stages
        if not config.rule_enabled(rule.id):
            continue
        for finding in rule.check(ctx, config):
            if ctx.is_suppressed(finding.rule, finding.line):
                suppressed += 1
            else:
                findings.append(finding)
    return findings, suppressed


def _scan_worker(payload: tuple[str, str, AnalysisConfig]) -> dict:
    """Scan one file with the per-module rules (process-pool safe)."""
    path_str, display, config = payload
    started = time.perf_counter()
    ctx, error = _load_context(Path(path_str), display)
    findings: list[Finding] = []
    suppressed = 0
    if ctx is not None:
        try:
            findings, suppressed = _check_module(ctx, config)
        except Exception as exc:  # trust-lint: disable=RB301
            # A rule crash must not abort the whole run: surface the file
            # it died on as a parse-style error and keep scanning the rest.
            error = f"rule crash: {type(exc).__name__}: {exc}"
    return {"display": display, "error": error, "findings": findings,
            "suppressed": suppressed,
            "elapsed_s": time.perf_counter() - started}


#: (contexts, config, index) in a pool worker: set by the pool's
#: initializer, whose arguments a forked worker inherits copy-on-write
#: instead of receiving them pickled.
_worker_inputs: tuple = ()


def _init_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _stage_worker(stage: Stage,
                  inputs: tuple = ()) -> tuple[list[Finding], float]:
    """Run one stage: (findings, busy seconds).  A pool task passes no
    ``inputs`` and runs on its worker's inherited ones."""
    started = time.perf_counter()
    findings = stage.run(*(inputs or _worker_inputs))
    return findings, time.perf_counter() - started


def _effective_jobs(jobs: int | None, file_count: int) -> int:
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1  # pool tasks inherit their inputs through fork
    if jobs is not None:
        return max(1, jobs)
    if file_count < _PARALLEL_THRESHOLD:
        return 1
    return max(1, min(_MAX_WORKERS, os.cpu_count() or 1))


def _selected(**wanted: bool) -> tuple[Stage, ...]:
    return tuple(stage for stage in STAGES if wanted[stage.name])


def _location(finding: Finding) -> tuple:
    return (finding.path, finding.line, finding.col, finding.rule)


def build_contexts(
        file_paths: list[Path]) -> tuple[list[ModuleContext],
                                         list[tuple[str, str]]]:
    """Parse every file into a ModuleContext; returns (contexts, errors)."""
    contexts: list[ModuleContext] = []
    errors: list[tuple[str, str]] = []
    for file_path in file_paths:
        ctx, error = _load_context(file_path, _display_path(file_path))
        if ctx is None:
            errors.append((_display_path(file_path), error or "unreadable"))
        else:
            contexts.append(ctx)
    return contexts, errors


def analyze_paths(paths: list[Path] | list[str],
                  config: AnalysisConfig | None = None,
                  baseline: dict[str, int] | None = None,
                  *, taint: bool = False, det: bool = False,
                  contract: bool = False, sc: bool = False,
                  jobs: int | None = None) -> AnalysisReport:
    """Run every enabled rule over the Python files under ``paths``.

    ``taint``, ``det``, ``contract`` and ``sc`` additionally run the
    project-wide stages of the same names (see :data:`STAGES`) over the
    whole file set.  ``jobs`` forces a pool size (default: automatic —
    sequential for small trees, up to 8 processes for large ones); any
    value above 1 uses the pool.
    """
    config = config if config is not None else AnalysisConfig.default()
    stages = _selected(taint=taint, det=det, contract=contract, sc=sc)
    file_paths = iter_python_files([Path(p) for p in paths])
    payloads = [(str(p), _display_path(p), config) for p in file_paths]
    workers = _effective_jobs(jobs, len(file_paths))
    inputs: tuple = ()
    if stages:
        contexts, _ = build_contexts(file_paths)  # the scan reports errors
        inputs = (contexts, config, build_index(contexts))
    # The det and sc stages only pay for a pool slot when the parent has
    # the taint pass to overlap them with.
    offload = [s for s in stages if s.offload and taint and workers > 1]
    scanned: list[dict] | None = None
    ran: dict[str, tuple[list[Finding], float]] = {}
    if workers > 1:
        chunk = max(1, len(payloads) // (workers * 4))
        try:
            with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_init_worker, initargs=inputs) as pool:
                tasks = {s.name: pool.submit(_stage_worker, s)
                         for s in offload}
                scan = pool.map(_scan_worker, payloads, chunksize=chunk)
                for stage in stages:
                    if stage.name not in tasks:
                        ran[stage.name] = _stage_worker(stage, inputs)
                scanned = list(scan)
                for name, task in tasks.items():
                    ran[name] = task.result()
        except BrokenProcessPool:
            # A worker died outright (OOM kill, unpicklable crash).
            # Everything is pure, so redo what is missing inline, where a
            # failure is attributed to the file causing it.
            pass
    if scanned is None:
        scanned = [_scan_worker(payload) for payload in payloads]
    for stage in stages:
        if stage.name not in ran:
            ran[stage.name] = _stage_worker(stage, inputs)

    report = AnalysisReport(stages=tuple(s.name for s in stages))
    raw_findings: list[Finding] = []
    for result in scanned:  # submission order: deterministic
        if result["error"] is not None:
            report.parse_errors.append((result["display"], result["error"]))
            continue
        report.files_scanned += 1
        report.suppressed_count += result["suppressed"]
        raw_findings.extend(result["findings"])
    report.stage_stats["lint"] = {
        "elapsed_s": sum(result["elapsed_s"] for result in scanned)}
    stage_of_rule: dict[str, str] = {}
    for stage in stages:
        findings, elapsed = ran[stage.name]
        raw_findings.extend(findings)
        stage_of_rule.update((f.rule, stage.name) for f in findings)
        report.stage_stats[stage.name] = {"elapsed_s": elapsed}
    raw_findings.sort(key=_location)
    report.findings, report.baselined_count = apply_baseline(
        raw_findings, baseline or {})
    counts = Counter(stage_of_rule.get(f.rule, "lint")
                     for f in report.findings)
    for name, stats in report.stage_stats.items():
        stats["findings"] = counts[name]
    return report


def analyze_source(source: str, module: str = "snippet",
                   config: AnalysisConfig | None = None,
                   is_package: bool = False,
                   taint: bool = False, det: bool = False,
                   contract: bool = False, sc: bool = False) -> list[Finding]:
    """Run the rules over one in-memory snippet (test/fixture entry point)."""
    return analyze_sources({module: source}, config=config,
                           is_package=is_package, taint=taint, det=det,
                           contract=contract, sc=sc)


def analyze_sources(sources: dict[str, str],
                    config: AnalysisConfig | None = None,
                    is_package: bool = False,
                    taint: bool = False, det: bool = False,
                    contract: bool = False, sc: bool = False) -> list[Finding]:
    """Run the rules over a set of in-memory modules ({module: source}).

    The multi-module form exists for taint fixtures: cross-module flows
    need every module in one index.  ``is_package`` applies to modules
    whose source should be treated as a package ``__init__``.
    """
    config = config if config is not None else AnalysisConfig.default()
    contexts = []
    for module, source in sources.items():
        contexts.append(ModuleContext.build(
            Path(f"{module}.py"), f"{module}.py", module, source,
            is_package=is_package))
    findings: list[Finding] = []
    for ctx in contexts:
        findings.extend(_check_module(ctx, config)[0])
    stages = _selected(taint=taint, det=det, contract=contract, sc=sc)
    if stages:
        index = build_index(contexts)
        for stage in stages:
            findings.extend(stage.run(contexts, config, index))
    findings.sort(key=_location)
    return findings


def _display_path(path: Path) -> str:
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)
