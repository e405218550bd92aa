"""Findings, per-line pragmas and the grandfathering baseline.

A :class:`Finding` is one rule violation at one source location.  Its
*fingerprint* — ``(path, code, symbol)`` — deliberately excludes the
line number so a baseline entry survives unrelated edits to the file;
``symbol`` is the enclosing definition (``Class.method``) plus the
offending identifier, which moves far less often than line numbers do.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

#: ``# simlint: disable=SL001,SL004`` (or ``disable=all``) on a line
#: suppresses that line's findings.
PRAGMA_RE = re.compile(
    r"#\s*simlint\s*:\s*disable\s*=\s*([A-Za-z0-9_,\s]+)")


def parse_pragmas(lines: Iterable[str]) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the codes disabled on that line."""
    disabled: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = PRAGMA_RE.search(text)
        if match:
            codes = {code.strip().upper() if code.strip() != "all" else "all"
                     for code in match.group(1).split(",") if code.strip()}
            disabled[number] = {c.lower() if c == "ALL" else c for c in codes}
    return disabled


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str          # "SL001" .. "SL006"
    path: str          # repo-relative, forward slashes
    line: int          # 1-based
    col: int           # 0-based (ast convention)
    message: str
    symbol: str = ""   # fingerprint anchor: "Class.method:identifier"

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        return (self.path, self.code, self.symbol or self.message)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_json(self) -> Dict[str, object]:
        return {"code": self.code, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message,
                "symbol": self.symbol}


def suppressed(finding: Finding, disabled: Dict[int, Set[str]]) -> bool:
    codes = disabled.get(finding.line)
    return bool(codes) and ("all" in codes or finding.code in codes)


@dataclass
class Baseline:
    """The checked-in set of grandfathered findings.

    New code must lint clean; the baseline lets a rule land before every
    historical violation is fixed, without letting *new* violations in.
    """

    path: Path
    fingerprints: Set[Tuple[str, str, str]] = field(default_factory=set)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        baseline = cls(path=path)
        if path.is_file():
            payload = json.loads(path.read_text())
            for entry in payload.get("findings", []):
                baseline.fingerprints.add(
                    (entry["path"], entry["code"],
                     entry.get("symbol") or entry.get("message", "")))
        return baseline

    def contains(self, finding: Finding) -> bool:
        return finding.fingerprint in self.fingerprints

    def write(self, findings: Iterable[Finding]) -> None:
        entries: List[Dict[str, str]] = []
        seen: Set[Tuple[str, str, str]] = set()
        for finding in sorted(findings,
                              key=lambda f: (f.path, f.code, f.symbol)):
            if finding.fingerprint in seen:
                continue
            seen.add(finding.fingerprint)
            entries.append({"path": finding.path, "code": finding.code,
                            "symbol": finding.symbol or finding.message})
        payload = {"version": 1, "findings": entries}
        self.path.write_text(json.dumps(payload, indent=2) + "\n")
        self.fingerprints = seen
