"""Observability toolbox over result artifacts.

Usage::

    python -m repro.obs validate results/*.json
    python -m repro.obs compare baseline.json fresh.json \\
        [--threshold PCT] [--thresholds PATTERN=PCT ...] \\
        [--fail-on-missing] [--show-all]
    python -m repro.obs report results/run.profile.json [...]

``validate`` routes each file by suffix — ``*.trace.json`` to the
Chrome-trace shape, ``*.profile.json`` to the profile schema,
``*.faults.json`` to the fault-campaign schema, ``BENCH_perf.json``
to the speed-record schema, everything else to the full run-document
schema — and exits nonzero if any artifact fails; this is the CI gate
for uploaded artifacts.

``compare`` prints a differential report of two documents' numeric
leaves (environment sections excluded) and exits nonzero when any
delta exceeds its threshold — this is the CI perf gate.  Thresholds
are percent; ``--thresholds`` patterns match dotted metric paths,
first match wins, ``--threshold`` sets the default (0: byte-exact).

``report`` pretty-prints an artifact: the where-did-the-cycles-go tree
and host seconds by layer for profile documents, and the flattened
metric table for plain run documents.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

from .compare import (compare_files, flatten_document, format_compare,
                      parse_threshold_specs)
from .profile import format_profile
from .schema import (BENCH_PERF_SCHEMA, FAULTS_SCHEMA, PROFILE_SCHEMA,
                     RUN_SCHEMA, schema_errors)

_CHROME_TRACE_SCHEMA = {
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ph", "ts", "pid", "tid"],
                "properties": {
                    "name": {"type": "string"},
                    "ph": {"type": "string"},
                    "ts": {"type": "number"},
                    "pid": {"type": "integer"},
                    "tid": {"type": "integer"},
                },
            },
        },
    },
}


def schema_for(path: Path):
    """The schema an artifact must satisfy, routed by filename suffix."""
    if path.name.endswith(".trace.json"):
        return _CHROME_TRACE_SCHEMA
    if path.name.endswith(".profile.json"):
        return PROFILE_SCHEMA
    if path.name.endswith(".faults.json"):
        return FAULTS_SCHEMA
    if path.name == "BENCH_perf.json":
        return BENCH_PERF_SCHEMA
    return RUN_SCHEMA


def validate_file(path: Path) -> List[str]:
    """Schema problems in *path* (empty list: valid)."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        return [f"unreadable: {error}"]
    return schema_errors(doc, schema_for(path))


def _cmd_validate(args: List[str]) -> int:
    if not args:
        print(__doc__)
        return 2
    failures = 0
    for name in args:
        path = Path(name)
        problems = validate_file(path)
        if problems:
            failures += 1
            print(f"FAIL {path}")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(f"ok   {path}")
    if failures:
        print(f"{failures} of {len(args)} artifact(s) failed validation")
        return 1
    print(f"{len(args)} artifact(s) valid")
    return 0


def _looks_numeric(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _cmd_compare(args: List[str]) -> int:
    files: List[str] = []
    specs: List[str] = []
    default = 0.0
    fail_on_missing = show_all = False
    index = 0
    while index < len(args):
        arg = args[index]
        index += 1
        if arg == "--threshold":
            if index >= len(args):
                print(f"--threshold needs a value\n{__doc__}")
                return 2
            default = float(args[index])
            index += 1
        elif arg == "--thresholds":
            # Consume the following spec-shaped tokens (pattern=pct or a
            # bare percent); filenames are left for the positionals.
            while index < len(args) and not args[index].startswith("--") \
                    and ("=" in args[index]
                         or _looks_numeric(args[index])):
                specs.append(args[index])
                index += 1
        elif arg == "--fail-on-missing":
            fail_on_missing = True
        elif arg == "--show-all":
            show_all = True
        elif arg.startswith("--"):
            print(f"unknown flag {arg}\n{__doc__}")
            return 2
        else:
            files.append(arg)
    if len(files) != 2:
        print(__doc__)
        return 2
    try:
        result = compare_files(files[0], files[1],
                               thresholds=parse_threshold_specs(specs),
                               default_threshold=default,
                               fail_on_missing=fail_on_missing)
    except (OSError, json.JSONDecodeError, ValueError) as error:
        print(f"compare failed: {error}")
        return 2
    print(format_compare(result, show_all=show_all))
    return 0 if result.ok else 1


def _report_one(path: Path) -> int:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"unreadable {path}: {error}")
        return 1
    print(f"== {path} ==")
    if path.name.endswith(".profile.json"):
        if doc.get("profile") is None:
            print("(no cycles attributed)")
        else:
            print(format_profile(doc["profile"], host=doc.get("host")))
    else:
        from ..eval.reporting import table
        flat = flatten_document(doc)
        run = doc.get("manifest", {}).get("run", path.stem)
        rows = [[key, f"{value:,g}"] for key, value in flat.items()]
        print(table(["metric", "value"], rows,
                    title=f"run {run}: {len(flat)} metric(s)"))
    return 0


def _cmd_report(args: List[str]) -> int:
    if not args:
        print(__doc__)
        return 2
    failures = sum(_report_one(Path(name)) for name in args)
    return 1 if failures else 0


_COMMANDS = {
    "validate": _cmd_validate,
    "compare": _cmd_compare,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] not in _COMMANDS:
        print(__doc__)
        return 2
    return _COMMANDS[args[0]](args[1:])


if __name__ == "__main__":
    raise SystemExit(main())
