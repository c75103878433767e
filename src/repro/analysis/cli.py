"""TRUST-lint command line: ``python -m repro.analysis`` / ``repro-lint``.

Exit codes: 0 clean, 1 findings (or parse errors), 2 usage/config error.

Besides the per-module scan, ``--taint`` runs the interprocedural
secret-flow pass (SF110/SF111), ``--det`` runs the determinism &
shard-isolation pass (DT6xx/RC61x), ``--contract`` runs the
wire-contract conformance pass (CT7xx), ``--sc`` runs the
constant-time / side-channel pass (SC800-SC805),
``repro-lint graph`` dumps the
call graph those passes share, for auditing how a trace was resolved,
``repro-lint contract`` emits the extracted wire contract as canonical
JSON, and ``repro-lint verify`` model-checks the TRUST protocol state
machine under a Dolev-Yao adversary (PV4xx).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from .baseline import apply_baseline, load_baseline, update_baseline
from .config import AnalysisConfig, find_pyproject
from .core import get_rule
from .engine import (STAGES, AnalysisReport, analyze_paths, build_contexts,
                     iter_python_files)
from .reporters import (render_json, render_rule_list, render_sarif,
                        render_text)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=("TRUST-lint: AST-based checks for the paper's "
                     "trust-boundary, secret-hygiene and crypto-discipline "
                     "invariants"),
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to analyze (default: "
                        "the [tool.trust-lint] paths, then 'src')")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="report format (default: text)")
    for stage in STAGES:
        parser.add_argument(f"--{stage.name}", action="store_true",
                            help=f"also run the {stage.summary}")
    parser.add_argument("--stats", action="store_true",
                        help="print a per-stage timing and finding-count "
                        "breakdown to stderr after the report")
    parser.add_argument("--changed-only", action="store_true",
                        help="scan files changed versus --since (git diff "
                        "plus untracked files) and their dependents per "
                        "the import/call graph")
    parser.add_argument("--since", metavar="REF", default="HEAD",
                        help="git ref --changed-only compares against "
                        "(default: HEAD)")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="baseline file of grandfathered findings")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write current findings to the baseline file "
                        "and exit 0")
    parser.add_argument("--merge", action="store_true",
                        help="with --update-baseline: keep existing "
                        "entries and add new ones instead of replacing")
    parser.add_argument("--disable", metavar="RULES", default="",
                        help="comma-separated rule ids to disable")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("--no-config", action="store_true",
                        help="ignore [tool.trust-lint] in pyproject.toml")
    _add_fail_on(parser)
    return parser


_SEVERITY_RANK = {"note": 0, "warning": 1, "error": 2}


def _changed_files(since: str) -> set[Path] | None:
    """Resolved paths changed vs ``since``, plus untracked files.

    Returns None when git is unavailable or the ref does not resolve —
    the caller reports that as a usage error.  The caller widens the set
    with :func:`_expand_dependents`, but the project-wide passes still
    see only that slice of the tree; that trades whole-program precision
    for pre-commit speed, which is the point of the flag.
    """
    import subprocess
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True).stdout.strip()
        diff = subprocess.run(
            ["git", "diff", "--name-only", since, "--"],
            capture_output=True, text=True, check=True).stdout
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    root = Path(top)
    return {(root / line).resolve()
            for line in (diff + untracked).splitlines() if line.strip()}


def _module_of(dotted: str, modules: set[str]) -> str | None:
    """Longest known-module prefix of a dotted name, if any."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        prefix = ".".join(parts[:i])
        if prefix in modules:
            return prefix
    return None


def _expand_dependents(scan_files: list[Path],
                       all_files: list[Path]) -> list[Path]:
    """Changed files plus every file that imports or calls into them.

    A pre-commit scan of just the edited file misses breakage in its
    callers — exactly what the project-wide passes exist to catch.  This
    builds the shared symbol table over the *full* default path set,
    derives module-level dependency edges from imports and resolved call
    sites, and pulls every transitive dependent of a changed module into
    the scan.
    """
    import ast
    from .taint.symbols import build_index
    contexts, _ = build_contexts(all_files)
    if not contexts:
        return scan_files
    index = build_index(contexts)
    modules = set(index.modules)
    path_of = {ctx.module: Path(ctx.path).resolve() for ctx in contexts}

    # module -> modules it depends on (imports + resolved call targets).
    deps: dict[str, set[str]] = {m: set() for m in modules}
    for module, aliases in index.imports.items():
        for target in aliases.values():
            dep = _module_of(target, modules)
            if dep is not None and dep != module:
                deps[module].add(dep)
    for fn in index.functions.values():
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = index.qualify(fn.module, node.func)
            if dotted is None:
                continue
            resolved = index.resolve_qualname(dotted)
            if resolved is not None and resolved.module != fn.module:
                deps[fn.module].add(resolved.module)

    dependents: dict[str, set[str]] = {m: set() for m in modules}
    for module, targets in deps.items():
        for dep in targets:
            dependents[dep].add(module)

    changed = {p.resolve() for p in scan_files}
    queue = [m for m in modules if path_of[m] in changed]
    seen = set(queue)
    while queue:
        for dependent in sorted(dependents[queue.pop()]):
            if dependent not in seen:
                seen.add(dependent)
                queue.append(dependent)
    return sorted(changed | {path_of[m] for m in seen})


def _print_stats(report: AnalysisReport, total_s: float) -> str:
    """Per-stage breakdown (stderr) and one perf-log row (returned)."""
    cells = []
    for stage in ("lint", *report.stages):
        stats = report.stage_stats[stage]
        print(f"stats: {stage:8s} findings={stats['findings']:<3d} "
              f"elapsed={stats['elapsed_s']:.2f}s", file=sys.stderr)
        cells.append(f"{stage}={stats['elapsed_s']:.2f}s")
    print(f"stats: total    findings={len(report.findings):<3d} "
          f"elapsed={total_s:.2f}s files={report.files_scanned}",
          file=sys.stderr)
    return (f"repro-lint --stats: files={report.files_scanned} "
            f"findings={len(report.findings)} " + " ".join(cells)
            + f" total={total_s:.2f}s")


def _append_perf_row(row: str) -> None:
    """Append the --stats row to the committed perf log, when present."""
    root = find_pyproject(Path.cwd())
    if root is None:
        return
    results = root.parent / "benchmarks" / "results"
    if not results.is_dir():
        return
    log = results / "analysis_perf.txt"
    with log.open("a", encoding="utf-8") as handle:
        handle.write(row + "\n")


def _add_fail_on(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fail-on", choices=("error", "warning", "note"),
                        default="note", metavar="SEVERITY",
                        help="lowest severity that makes the exit code "
                        "non-zero: error, warning or note (default: note "
                        "— any finding is fatal)")


def _exit_code(report, fail_on: str) -> int:
    """0/1 per the severity threshold; parse errors are always fatal."""
    if report.parse_errors:
        return 1
    threshold = _SEVERITY_RANK[fail_on]
    if any(_SEVERITY_RANK.get(f.severity, 2) >= threshold
           for f in report.findings):
        return 1
    return 0


def build_graph_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint graph",
        description=("dump the interprocedural call graph the taint pass "
                     "resolves, one 'caller -> callee' edge per line"),
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: 'src')")
    parser.add_argument("--focus", metavar="PREFIX", default="",
                        help="only edges where caller or callee starts "
                        "with this dotted prefix")
    return parser


class _UsageError(Exception):
    """A usage or configuration error: ``repro-lint: <message>``, exit 2."""


def _load_config(args: argparse.Namespace) -> AnalysisConfig:
    """``[tool.trust-lint]`` from the pyproject above the first path (or
    the working directory), plus any ``--disable`` rule ids."""
    config = AnalysisConfig.default()
    paths = getattr(args, "paths", None)
    extra = tuple(r.strip() for r in getattr(args, "disable", "").split(",")
                  if r.strip())
    try:
        if not args.no_config:
            pyproject = find_pyproject(Path(paths[0]) if paths
                                       else Path.cwd())
            if pyproject is not None:
                config = AnalysisConfig.from_pyproject(pyproject)
        for rule_id in extra:
            get_rule(rule_id)  # reject typos loudly
    except (ValueError, OSError) as exc:
        raise _UsageError(f"configuration error: {exc}") from None
    return replace(config, disabled_rules=config.disabled_rules + extra)


def _existing(paths: list[str]) -> list[str]:
    """``paths``, once every one of them exists."""
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        raise _UsageError(f"no such path(s): {', '.join(missing)}")
    return paths


def _load_baseline(args: argparse.Namespace,
                   config: AnalysisConfig) -> tuple[str | None,
                                                    dict[str, int]]:
    """(baseline file, grandfathered fingerprints) for this run."""
    path = args.baseline or config.baseline_path or None
    if not path or args.update_baseline:
        return path, {}
    try:
        return path, load_baseline(path)
    except (ValueError, OSError) as exc:
        raise _UsageError(f"bad baseline: {exc}") from None


_RENDERERS = {"text": render_text, "json": render_json,
              "sarif": render_sarif}


def _finish(args: argparse.Namespace, report: AnalysisReport,
            baseline_path: str | None) -> int:
    """Rewrite the baseline (exit 0) or print the report (exit per
    ``--fail-on``)."""
    if args.update_baseline:
        if not baseline_path:
            raise _UsageError("--update-baseline needs --baseline FILE "
                              "or a [tool.trust-lint] baseline setting")
        added, removed, kept = update_baseline(
            baseline_path, report.findings, merge=args.merge)
        mode = "merged into" if args.merge else "written to"
        print(f"baseline {mode} {baseline_path}: {added} added, "
              f"{removed} removed, {kept} kept")
        return 0
    print(_RENDERERS[args.format](report))
    return _exit_code(report, args.fail_on)


def _graph_main(argv: list[str]) -> int:
    args = build_graph_parser().parse_args(argv)
    paths = _existing(args.paths or ["src"])
    from .taint import run_taint
    contexts, errors = build_contexts(
        iter_python_files([Path(p) for p in paths]))
    for display, message in errors:
        print(f"{display}: PARSE {message}", file=sys.stderr)
    _, analysis = run_taint(contexts, AnalysisConfig.default())
    count = 0
    for caller in sorted(analysis.call_edges):
        for callee in sorted(analysis.call_edges[caller]):
            if args.focus and not (caller.startswith(args.focus)
                                   or callee.startswith(args.focus)):
                continue
            print(f"{caller} -> {callee}")
            count += 1
    print(f"{count} edge(s), {len(analysis.index.functions)} function(s)",
          file=sys.stderr)
    return 0


def build_verify_parser() -> argparse.ArgumentParser:
    from .verify import MUTATIONS, SCENARIOS
    parser = argparse.ArgumentParser(
        prog="repro-lint verify",
        description=("model-check the TRUST protocol state machine "
                     "(PV4xx): bounded exhaustive exploration of an "
                     "abstracted device/server/FLock model under a "
                     "Dolev-Yao network adversary"),
    )
    parser.add_argument("--depth", type=int, default=None, metavar="N",
                        help="BFS depth budget in protocol transitions "
                        "(default: [tool.trust-lint.verify] depth, "
                        "then 12)")
    parser.add_argument("--max-states", type=int, default=None,
                        metavar="N",
                        help="per-scenario state budget; exceeding it "
                        "emits PV400 (default: 150000)")
    parser.add_argument("--entry", action="append", default=None,
                        choices=sorted(SCENARIOS), metavar="NAME",
                        help="scenario entry point to explore; repeatable "
                        "(default: all six)")
    parser.add_argument("--no-adversary", action="store_true",
                        help="disable the Dolev-Yao adversary's "
                        "replay/forge/reorder transitions")
    parser.add_argument("--mutate", action="append", default=None,
                        choices=sorted(MUTATIONS), metavar="NAME",
                        help="enable a deliberate protocol breakage "
                        "(counterexample demo/tests); repeatable")
    parser.add_argument("--list-entries", action="store_true",
                        help="list scenario entry points and mutations, "
                        "then exit")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="report format (default: text)")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="baseline file of grandfathered findings")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write current findings to the baseline file "
                        "and exit 0")
    parser.add_argument("--merge", action="store_true",
                        help="with --update-baseline: keep existing "
                        "entries and add new ones instead of replacing")
    parser.add_argument("--no-config", action="store_true",
                        help="ignore [tool.trust-lint] in pyproject.toml")
    _add_fail_on(parser)
    return parser


def _verify_main(argv: list[str]) -> int:
    from .verify import MUTATIONS, SCENARIOS, run_verify
    args = build_verify_parser().parse_args(argv)

    if args.list_entries:
        for name in SCENARIOS:
            sc = SCENARIOS[name]
            print(f"{name:10s} enters at {sc.entry}: {sc.description}")
        print()
        for name in sorted(MUTATIONS):
            print(f"--mutate {name}: {MUTATIONS[name]}")
        return 0

    config = _load_config(args)
    baseline_path, baseline = _load_baseline(args, config)
    try:
        findings, stats = run_verify(
            config,
            depth=args.depth,
            max_states=args.max_states,
            entries=tuple(args.entry) if args.entry else None,
            adversary=False if args.no_adversary else None,
            mutations=tuple(args.mutate or ()),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    report = AnalysisReport(verify_stats=stats)
    report.findings, report.baselined_count = apply_baseline(findings,
                                                             baseline)
    return _finish(args, report, baseline_path)


def build_contract_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint contract",
        description=("extract the wire contract (endpoints, envelope "
                     "schemas, client call shapes, reason codes, version "
                     "gates) and emit it as canonical JSON"),
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to extract from "
                        "(default: the [tool.trust-lint] paths, then "
                        "'src')")
    parser.add_argument("--write", metavar="FILE", default=None,
                        help="write the contract to FILE instead of "
                        "stdout (for regenerating the committed golden)")
    parser.add_argument("--no-config", action="store_true",
                        help="ignore [tool.trust-lint] in pyproject.toml")
    return parser


def _contract_main(argv: list[str]) -> int:
    args = build_contract_parser().parse_args(argv)
    config = _load_config(args)
    paths = _existing(args.paths or list(config.default_paths))
    from .contract import (contract_payload, extract_contract,
                           render_contract)
    contexts, errors = build_contexts(
        iter_python_files([Path(p) for p in paths]))
    for display, message in errors:
        print(f"{display}: PARSE {message}", file=sys.stderr)
    text = render_contract(contract_payload(extract_contract(contexts,
                                                             config)))
    if args.write:
        Path(args.write).write_text(text, encoding="utf-8")
        print(f"contract written to {args.write}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 1 if errors else 0


def _lint_main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rule_list())
        return 0

    config = _load_config(args)
    paths = _existing(args.paths or list(config.default_paths))
    baseline_path, baseline = _load_baseline(args, config)

    scan_paths: list[Path] | list[str] = paths
    if args.changed_only:
        changed = _changed_files(args.since)
        if changed is None:
            raise _UsageError(f"--changed-only: git diff against "
                              f"{args.since!r} failed (not a git "
                              "checkout, or bad ref)")
        all_files = iter_python_files([Path(p) for p in paths])
        scan_paths = [p for p in all_files if p.resolve() in changed]
        if scan_paths:
            scan_paths = _expand_dependents(scan_paths, all_files)

    run_started = time.perf_counter()
    report = analyze_paths(scan_paths, config, baseline=baseline,
                           **{stage.name: getattr(args, stage.name)
                              for stage in STAGES})
    run_elapsed = time.perf_counter() - run_started
    code = _finish(args, report, baseline_path)
    if args.stats and not args.update_baseline:
        _append_perf_row(_print_stats(report, run_elapsed))
    return code


_SUBCOMMANDS = {"graph": _graph_main, "verify": _verify_main,
                "contract": _contract_main}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv and argv[0] in _SUBCOMMANDS:
            return _SUBCOMMANDS[argv[0]](argv[1:])
        return _lint_main(argv)
    except _UsageError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
