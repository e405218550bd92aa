"""Differential run reports — the regression gate over result artifacts.

Two runs of the same experiment under the same seed must agree; a
change that moves cycle counts shows up here as a per-metric delta.
:func:`compare_documents` flattens two ``results/*.json`` documents
(or ``*.profile.json`` artifacts) to dotted-path numeric leaves,
pairs them up, and judges each pair against a
percentage threshold — first matching ``fnmatch`` pattern wins, so a
gate can hold ``*.cpi`` to 5% while allowing ``*.wall*`` anything.

Environment-dependent material never participates: the ``manifest``
(host, timestamps, durations), the ``host`` section of profile
documents and the ``wall`` section of perf-suite documents are
excluded before flattening, exactly mirroring
``RunManifest.deterministic_dict``.

CI runs this as ``python -m repro.obs compare baseline.json fresh.json
--threshold 20`` and fails the build on any verdict of ``regression``
or ``from-zero`` (the process exits nonzero).  A metric whose baseline
is exactly zero has no meaningful percent delta, so any departure from
it gets the dedicated ``from-zero`` verdict and fails the gate rather
than sneaking under a finite threshold.  Paths present in only one
document are reported but do not fail the gate — experiments grow
metrics — unless ``fail_on_missing`` is set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from math import inf, isfinite
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

#: Top-level document keys that carry environment data, not results.
EXCLUDED_SECTIONS = ("manifest", "wall", "host")

#: Default gate width, in percent, when no pattern matches a path.
DEFAULT_THRESHOLD_PCT = 0.0


def flatten_document(doc: Any, prefix: str = "",
                     exclude: Sequence[str] = EXCLUDED_SECTIONS
                     ) -> Dict[str, float]:
    """Every numeric leaf of *doc* keyed by dotted path.

    Dict keys extend the path with ``.key``; list elements with
    ``[index]``.  Booleans and strings are not metrics and are skipped,
    as are the top-level *exclude* sections.
    """
    flat: Dict[str, float] = {}

    def walk(node: Any, path: str) -> None:
        if isinstance(node, bool) or node is None:
            return
        if isinstance(node, (int, float)):
            flat[path] = node
        elif isinstance(node, dict):
            for key, value in node.items():
                if not path and key in exclude:
                    continue
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for index, value in enumerate(node):
                walk(value, f"{path}[{index}]")

    walk(doc, prefix)
    return flat


def parse_threshold_specs(specs: Sequence[str]) -> List[Tuple[str, float]]:
    """``pattern=pct`` strings to ``(pattern, pct)`` pairs.

    A bare number is shorthand for ``*=pct``.  Malformed specs raise
    ``ValueError`` naming the offending spec.
    """
    rules: List[Tuple[str, float]] = []
    for spec in specs:
        pattern, sep, pct = spec.rpartition("=")
        if not sep:
            pattern, pct = "*", spec
        try:
            rules.append((pattern or "*", float(pct)))
        except ValueError:
            raise ValueError(f"bad threshold spec {spec!r}; "
                             f"expected pattern=percent") from None
    return rules


@dataclass
class MetricDelta:
    """One compared path: values, change, and the verdict."""

    path: str
    a: Optional[float]
    b: Optional[float]
    threshold_pct: float
    # equal | changed | regression | from-zero | only-a | only-b
    verdict: str = ""
    pct: float = 0.0

    def judge(self) -> "MetricDelta":
        if self.a is None:
            self.verdict, self.pct = "only-b", inf
            return self
        if self.b is None:
            self.verdict, self.pct = "only-a", -inf
            return self
        if self.b == self.a:
            self.verdict, self.pct = "equal", 0.0
            return self
        if self.a == 0:
            # No percentage exists relative to a zero baseline: a metric
            # that springs from 0 is infinitely changed, so no finite
            # threshold can wave it through.  The distinct verdict keeps
            # it from masquerading as an in-gate "changed".
            self.verdict, self.pct = "from-zero", inf
            return self
        self.pct = (self.b - self.a) / abs(self.a) * 100.0
        self.verdict = ("regression"
                        if abs(self.pct) > self.threshold_pct
                        else "changed")
        return self

    @property
    def delta(self) -> float:
        return (self.b or 0) - (self.a or 0)


@dataclass
class CompareResult:
    """All per-path verdicts plus the gate decision."""

    label_a: str
    label_b: str
    deltas: List[MetricDelta] = field(default_factory=list)
    fail_on_missing: bool = False

    def by_verdict(self, *verdicts: str) -> List[MetricDelta]:
        return [d for d in self.deltas if d.verdict in verdicts]

    @property
    def regressions(self) -> List[MetricDelta]:
        out = self.by_verdict("regression", "from-zero")
        if self.fail_on_missing:
            out += self.by_verdict("only-a", "only-b")
        return out

    @property
    def ok(self) -> bool:
        return not self.regressions


def threshold_for(path: str, rules: Sequence[Tuple[str, float]],
                  default: float = DEFAULT_THRESHOLD_PCT) -> float:
    for pattern, pct in rules:
        if fnmatchcase(path, pattern):
            return pct
    return default


def compare_documents(doc_a: Any, doc_b: Any,
                      thresholds: Sequence[Tuple[str, float]] = (),
                      default_threshold: float = DEFAULT_THRESHOLD_PCT,
                      label_a: str = "A", label_b: str = "B",
                      fail_on_missing: bool = False) -> CompareResult:
    """Pair up every numeric leaf of two documents and judge the deltas."""
    flat_a = flatten_document(doc_a)
    flat_b = flatten_document(doc_b)
    result = CompareResult(label_a, label_b, fail_on_missing=fail_on_missing)
    for path in sorted(set(flat_a) | set(flat_b)):
        result.deltas.append(MetricDelta(
            path=path, a=flat_a.get(path), b=flat_b.get(path),
            threshold_pct=threshold_for(path, thresholds,
                                        default_threshold)).judge())
    return result


def compare_files(path_a: Union[str, Path], path_b: Union[str, Path],
                  thresholds: Sequence[Tuple[str, float]] = (),
                  default_threshold: float = DEFAULT_THRESHOLD_PCT,
                  fail_on_missing: bool = False) -> CompareResult:
    """:func:`compare_documents` over two JSON files on disk."""
    doc_a = json.loads(Path(path_a).read_text())
    doc_b = json.loads(Path(path_b).read_text())
    return compare_documents(doc_a, doc_b, thresholds=thresholds,
                             default_threshold=default_threshold,
                             label_a=str(path_a), label_b=str(path_b),
                             fail_on_missing=fail_on_missing)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.4g}"
    return f"{value:,.0f}"


def format_compare(result: CompareResult, show_all: bool = False,
                   limit: int = 40) -> str:
    """The differential report as an aligned text table.

    By default only non-equal paths are listed (a clean seeded rerun
    prints just the summary line); ``show_all`` includes the equal ones.
    """
    from ..eval.reporting import table
    interesting = [d for d in result.deltas
                   if show_all or d.verdict != "equal"]
    counts = {}
    for delta in result.deltas:
        counts[delta.verdict] = counts.get(delta.verdict, 0) + 1
    summary = ", ".join(f"{count} {verdict}"
                        for verdict, count in sorted(counts.items()))
    lines = [f"compare: A = {result.label_a}",
             f"         B = {result.label_b}",
             f"{len(result.deltas)} metric(s): {summary}"]
    if interesting:
        rows = []
        for delta in interesting[:limit]:
            pct = (f"{delta.pct:+.2f}%" if isfinite(delta.pct)
                   else "n/a")
            rows.append([delta.path, _fmt(delta.a), _fmt(delta.b),
                         pct, f"{delta.threshold_pct:g}%", delta.verdict])
        lines.append(table(
            ["metric", "A", "B", "delta", "gate", "verdict"], rows))
        if len(interesting) > limit:
            lines.append(f"... {len(interesting) - limit} more row(s)")
    lines.append("PASS" if result.ok
                 else f"FAIL: {len(result.regressions)} regression(s)")
    return "\n".join(lines)
