"""Run comparison and the regression gate.

The contract under test (DESIGN.md "Observability"):

* flattening covers every numeric leaf (dicts by key, lists by index)
  and excludes the environment sections (``manifest``, ``wall``,
  ``host``);
* thresholds are percent, matched by ``fnmatch`` pattern, first match
  wins; a zero baseline moving at all earns the dedicated ``from-zero``
  verdict and fails the gate regardless of threshold;
* two seeded reruns of the same experiment compare clean (exit 0);
  an injected change beyond its threshold fails the gate (exit 1).
"""

import json

import pytest

from repro.obs import (CompareResult, MetricDelta, compare_documents,
                       compare_files, emit_run, flatten_document,
                       format_compare, parse_threshold_specs)
from repro.obs.__main__ import main as obs_cli
from repro.obs.compare import threshold_for


class TestFlatten:
    def test_covers_nested_dicts_and_lists(self):
        flat = flatten_document({"a": {"b": 1}, "c": [2, {"d": 3.5}]})
        assert flat == {"a.b": 1, "c[0]": 2, "c[1].d": 3.5}

    def test_excludes_environment_sections_and_non_numbers(self):
        flat = flatten_document({
            "manifest": {"duration_seconds": 1.0},
            "wall": {"sections": {"simulate": {"seconds": 2.0}}},
            "host": {"seconds": 2.0, "layers": [{"seconds": 2.0}]},
            "data": {"flag": True, "name": "x", "missing": None, "v": 7}})
        assert flat == {"data.v": 7}

    def test_excluded_sections_only_apply_at_top_level(self):
        flat = flatten_document({"data": {"manifest": {"v": 1}}})
        assert flat == {"data.manifest.v": 1}


class TestThresholds:
    def test_parse_specs_and_bare_numbers(self):
        rules = parse_threshold_specs(["*.cpi=5", "system.*=12.5", "20"])
        assert rules == [("*.cpi", 5.0), ("system.*", 12.5), ("*", 20.0)]

    def test_malformed_spec_names_offender(self):
        with pytest.raises(ValueError, match="nonsense"):
            parse_threshold_specs(["nonsense=abc"])

    def test_first_matching_pattern_wins(self):
        rules = [("*.cpi", 5.0), ("*", 50.0)]
        assert threshold_for("data.cpi", rules) == 5.0
        assert threshold_for("data.cycles", rules) == 50.0
        assert threshold_for("data.cycles", [], default=7.0) == 7.0


class TestVerdicts:
    def test_identical_documents_compare_clean(self):
        doc = {"data": {"x": 1, "y": [2, 3]}}
        result = compare_documents(doc, doc)
        assert result.ok
        assert {d.verdict for d in result.deltas} == {"equal"}

    def test_changes_within_threshold_pass(self):
        result = compare_documents({"x": 100}, {"x": 110},
                                   default_threshold=20)
        assert result.ok
        assert result.deltas[0].verdict == "changed"
        assert result.deltas[0].pct == pytest.approx(10.0)

    def test_changes_beyond_threshold_regress(self):
        result = compare_documents({"x": 100}, {"x": 130},
                                   default_threshold=20)
        assert not result.ok
        assert result.regressions[0].path == "x"

    def test_improvements_beyond_threshold_also_flag(self):
        # The gate is symmetric: a surprise 2x speedup is a changed
        # simulation, which is exactly what a regression gate must catch.
        result = compare_documents({"x": 100}, {"x": 40},
                                   default_threshold=20)
        assert not result.ok

    def test_zero_baseline_moving_gets_the_from_zero_verdict(self):
        """No percentage exists relative to 0: the departure is named
        ``from-zero`` (not a threshold-relative "changed"/"regression")
        and fails the gate no matter how wide the threshold."""
        result = compare_documents({"x": 0}, {"x": 1},
                                   default_threshold=1e9)
        assert not result.ok
        (delta,) = result.deltas
        assert delta.verdict == "from-zero"
        assert delta.pct == float("inf")

    def test_zero_to_zero_is_equal_and_to_zero_is_percent(self):
        assert compare_documents({"x": 0}, {"x": 0}).ok
        result = compare_documents({"x": 4}, {"x": 0},
                                   default_threshold=150)
        (delta,) = result.deltas
        assert delta.verdict == "changed" and delta.pct == -100.0

    def test_per_pattern_thresholds_override_default(self):
        result = compare_documents(
            {"cpi": 100, "cycles": 100}, {"cpi": 104, "cycles": 104},
            thresholds=[("cpi", 5.0)], default_threshold=0.0)
        verdicts = {d.path: d.verdict for d in result.deltas}
        assert verdicts == {"cpi": "changed", "cycles": "regression"}

    def test_missing_paths_report_but_pass_unless_strict(self):
        a, b = {"x": 1, "old": 2}, {"x": 1, "new": 3}
        lax = compare_documents(a, b)
        assert lax.ok
        assert {d.verdict for d in lax.deltas} == {"equal", "only-a",
                                                   "only-b"}
        strict = compare_documents(a, b, fail_on_missing=True)
        assert not strict.ok
        assert len(strict.regressions) == 2


class TestSeededReruns:
    def _emit(self, tmp_path, name, data):
        return emit_run(name, data, results_dir=tmp_path)

    def test_identical_seeded_reruns_exit_zero(self, tmp_path):
        # Same deterministic payload, two separate emissions: the
        # manifests differ (timestamps), the comparison must not.
        data = {"latency": {"copy": 5706, "overlay": 1457}}
        first = self._emit(tmp_path, "first", data)
        second = self._emit(tmp_path, "second", data)
        assert obs_cli(["compare", str(first), str(second)]) == 0

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        base = self._emit(tmp_path, "base",
                          {"latency": {"copy": 5706, "overlay": 1457}})
        worse = self._emit(tmp_path, "worse",
                           {"latency": {"copy": 5706, "overlay": 2500}})
        assert obs_cli(["compare", str(base), str(worse),
                        "--threshold", "20"]) == 1
        out = capsys.readouterr().out
        assert "data.latency.overlay" in out
        assert "FAIL" in out

    def test_threshold_flags_reach_the_verdict(self, tmp_path):
        base = self._emit(tmp_path, "a", {"cpi": 100, "cycles": 100})
        fresh = self._emit(tmp_path, "b", {"cpi": 104, "cycles": 104})
        assert obs_cli(["compare", str(base), str(fresh),
                        "--thresholds", "*.cpi=5", "*=1"]) == 1
        assert obs_cli(["compare", str(base), str(fresh),
                        "--thresholds", "*=5"]) == 0


class TestCli:
    def test_usage_errors_exit_two(self, tmp_path):
        assert obs_cli([]) == 2
        assert obs_cli(["compare", "only-one.json"]) == 2
        assert obs_cli(["compare", "--bogus", "a", "b"]) == 2
        missing = tmp_path / "nope.json"
        assert obs_cli(["compare", str(missing), str(missing)]) == 2

    def test_format_compare_lists_only_differences_by_default(self):
        result = compare_documents({"x": 1, "y": 2}, {"x": 1, "y": 3})
        rendered = format_compare(result)
        assert "y" in rendered
        lines = [line for line in rendered.splitlines() if "equal" in line]
        assert all(line.startswith(("1 equal", "2 metric"))
                   for line in lines)
        everything = format_compare(result, show_all=True)
        assert "\nx " in everything or "x  " in everything


class TestMetricDelta:
    def test_judge_covers_every_verdict(self):
        assert MetricDelta("p", None, 1, 0).judge().verdict == "only-b"
        assert MetricDelta("p", 1, None, 0).judge().verdict == "only-a"
        assert MetricDelta("p", 5, 5, 0).judge().verdict == "equal"
        assert MetricDelta("p", 4, 5, 50).judge().verdict == "changed"
        assert MetricDelta("p", 4, 8, 50).judge().verdict == "regression"
        assert MetricDelta("p", 0, 1, 50).judge().verdict == "from-zero"

    def test_from_zero_fails_the_gate(self):
        result = CompareResult("a", "b", [
            MetricDelta("p", 0, 3, 1e9).judge()])
        assert [d.path for d in result.regressions] == ["p"]
        assert not result.ok

    def test_compare_result_regression_accessors(self):
        result = CompareResult("a", "b", [
            MetricDelta("p", 4, 8, 50).judge(),
            MetricDelta("q", 1, None, 0).judge()])
        assert [d.path for d in result.regressions] == ["p"]
        result.fail_on_missing = True
        assert [d.path for d in result.regressions] == ["p", "q"]
