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
    parser.add_argument("--disable", metavar="RULES", default="",
                        help="comma-separated rule ids to disable")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("--no-config", action="store_true",
                        help="ignore [tool.trust-lint] in pyproject.toml")
    _add_fail_on(parser)
    return parser


_SEVERITY_RANK = {"note": 0, "warning": 1, "error": 2}


def _print_stats(report: AnalysisReport, total_s: float) -> None:
    """Per-stage finding counts and elapsed times, on stderr."""
    for stage in ("lint", *report.stages):
        stats = report.stage_stats[stage]
        print(f"stats: {stage:8s} findings={stats['findings']:<3d} "
              f"elapsed={stats['elapsed_s']:.2f}s", file=sys.stderr)
    print(f"stats: total    findings={len(report.findings):<3d} "
          f"elapsed={total_s:.2f}s files={report.files_scanned}",
          file=sys.stderr)


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
    the working directory), plus any ``--disable`` rule ids.  A rule id
    that names no rule, in either list, is an error."""
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
        for rule_id in config.disabled_rules + extra:
            get_rule(rule_id)  # reject typos and retired ids loudly
    except (ValueError, OSError) as exc:
        raise _UsageError(f"configuration error: {exc}") from None
    return replace(config, disabled_rules=config.disabled_rules + extra)


def _existing(paths: list[str]) -> list[str]:
    """``paths``, once every one of them exists."""
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        raise _UsageError(f"no such path(s): {', '.join(missing)}")
    return paths


_RENDERERS = {"text": render_text, "json": render_json,
              "sarif": render_sarif}


def _finish(args: argparse.Namespace, report: AnalysisReport) -> int:
    """Print the report; the exit code follows ``--fail-on``."""
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
    from .verify import MUTATIONS, SCENARIOS, VerifyOptions
    parser = argparse.ArgumentParser(
        prog="repro-lint verify",
        description=("model-check the TRUST protocol state machine "
                     "(PV4xx): bounded exhaustive exploration of an "
                     "abstracted device/server/FLock model under a "
                     "Dolev-Yao network adversary"),
    )
    parser.add_argument("--depth", type=int, default=VerifyOptions.depth,
                        metavar="N",
                        help="BFS depth budget in protocol transitions "
                        "(default: %(default)s)")
    parser.add_argument("--max-states", type=int,
                        default=VerifyOptions.max_states, metavar="N",
                        help="per-scenario state budget; exceeding it "
                        "emits PV400 (default: %(default)s)")
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
    findings, stats = run_verify(
        depth=args.depth,
        max_states=args.max_states,
        entries=tuple(args.entry or SCENARIOS),
        adversary=not args.no_adversary,
        mutations=tuple(args.mutate or ()),
    )
    report = AnalysisReport(
        findings=[f for f in findings if config.rule_enabled(f.rule)],
        verify_stats=stats)
    return _finish(args, report)


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
    run_started = time.perf_counter()
    report = analyze_paths(paths, config, taint=args.taint, det=args.det,
                           contract=args.contract, sc=args.sc)
    run_elapsed = time.perf_counter() - run_started
    code = _finish(args, report)
    if args.stats:
        _print_stats(report, run_elapsed)
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
