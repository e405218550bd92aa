"""The simlint command line: ``python -m repro.analysis`` / ``simlint``.

Exit codes: 0 — clean (every finding pragma-suppressed or baselined);
1 — new findings; 2 — usage error (unknown rule, missing path).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from .explain import EXPLANATIONS
from .findings import Baseline, Finding, suppressed
from .imports import check_layering
from .modules import collect_modules
from .rules import ALL_CODES, RULES, Project

DEFAULT_PATHS = ("src", "benchmarks", "examples")
DEFAULT_BASELINE = "simlint.baseline.json"


def lint_paths(paths: Iterable[Path], select: Optional[Iterable[str]] = None,
               root: Optional[Path] = None) -> List[Finding]:
    """Run the selected rules over *paths*; pragmas already applied."""
    codes = set(select) if select else set(ALL_CODES)
    modules = collect_modules(paths, root=root)
    project = Project(modules)
    findings: List[Finding] = []
    by_path = {module.display_path: module for module in modules}
    for module in modules:
        for code in sorted(codes):
            spec = RULES[code]
            if spec.check is None:
                continue
            findings.extend(spec.check(module, project))
    if "SL004" in codes:
        findings.extend(check_layering(modules))
    kept = []
    for finding in findings:
        module = by_path.get(finding.path)
        if module is not None and suppressed(finding, module.disabled):
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return kept


def _split_baseline(findings: Sequence[Finding], baseline: Baseline
                    ) -> Tuple[List[Finding], List[Finding]]:
    new = [f for f in findings if not baseline.contains(f)]
    old = [f for f in findings if baseline.contains(f)]
    return new, old


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description="Architectural lint for the page-overlays simulator "
                    "(determinism, layering, config-owned latencies, "
                    "stats discipline, component protocol, hot-path "
                    "memory, hook-contract coverage).")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint "
                             f"(default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--baseline", metavar="FILE",
                        default=DEFAULT_BASELINE,
                        help="baseline file of grandfathered findings "
                             f"(default: {DEFAULT_BASELINE})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from current findings "
                             "and exit 0")
    parser.add_argument("--format", choices=("text", "json"),
                        default=None,
                        help="output format (default: text)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable JSON output "
                             "(alias for --format json)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list the rules and exit")
    parser.add_argument("--explain", metavar="CODE",
                        help="print a rule's rationale and a worked fix, "
                             "then exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in ALL_CODES:
            print(f"{code}  {RULES[code].summary}")
        return 0

    if args.explain:
        code = args.explain.strip().upper()
        if code not in RULES:
            print(f"simlint: unknown rule: {code}; "
                  f"known: {', '.join(ALL_CODES)}", file=sys.stderr)
            return 2
        explanation = EXPLANATIONS.get(code)
        if explanation is None:
            print(f"simlint: no explanation recorded for {code}",
                  file=sys.stderr)
            return 2
        print(explanation.format(RULES[code].summary))
        return 0

    output = args.format or ("json" if args.as_json else "text")

    select = None
    if args.select:
        select = [code.strip().upper() for code in args.select.split(",")
                  if code.strip()]
        unknown = [code for code in select if code not in RULES]
        if unknown:
            print(f"simlint: unknown rule(s): {', '.join(unknown)}; "
                  f"known: {', '.join(ALL_CODES)}", file=sys.stderr)
            return 2

    raw_paths = args.paths or [p for p in DEFAULT_PATHS if Path(p).exists()]
    paths = [Path(p) for p in raw_paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"simlint: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    findings = lint_paths(paths, select=select)

    baseline = Baseline(Path(args.baseline))
    if not args.no_baseline:
        baseline = Baseline.load(Path(args.baseline))
    if args.write_baseline:
        baseline.write(findings)
        print(f"simlint: wrote {len(findings)} finding(s) to "
              f"{args.baseline}")
        return 0
    new, old = _split_baseline(findings, baseline)

    if output == "json":
        payload = {
            "version": 1,
            "counts": {"total": len(findings), "new": len(new),
                       "baselined": len(old)},
            "findings": [dict(f.as_json(), baselined=baseline.contains(f))
                         for f in findings],
        }
        print(json.dumps(payload, indent=2))
    else:
        for finding in new:
            print(finding.format())
        if old:
            print(f"simlint: {len(old)} baselined finding(s) suppressed "
                  f"({args.baseline})")
        if new:
            print(f"simlint: {len(new)} new finding(s)")
        else:
            print("simlint: clean")
    return 1 if new else 0


def run() -> int:
    """Console entry point: ``main`` plus a quiet exit when the reader
    closes the pipe early (``simlint --explain SL004 | head``)."""
    try:
        return main()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
