"""Tests for the simlint architectural linter (repro.analysis).

Every rule is demonstrated on a fixture pair under
``tests/fixtures/simlint/`` — one clean file that must produce no
findings and one violating file whose findings we pin down — plus a
self-lint test asserting the repo's own source passes with an empty
baseline.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_CODES,
    Baseline,
    Finding,
    collect_modules,
    lint_paths,
)
from repro.analysis.cli import main
from repro.analysis.findings import parse_pragmas, suppressed

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "simlint"


def findings_for(name, select=None):
    return lint_paths([FIXTURES / name], select=select, root=REPO_ROOT)


def codes_of(findings):
    return sorted({f.code for f in findings})


class TestSL001Determinism:
    def test_violations_flagged(self):
        findings = findings_for("sl001_violation.py", select=["SL001"])
        messages = [f.message for f in findings]
        assert len(findings) == 5
        assert any("time.time" in m for m in messages)
        assert any("datetime.now" in m for m in messages)
        assert any("random.choice" in m for m in messages)
        assert any("random.random" in m for m in messages)
        assert any("randrange" in m for m in messages)

    def test_clean_file_passes(self):
        assert findings_for("sl001_clean.py", select=["SL001"]) == []


class TestSL002ConfigOwnedLatencies:
    def test_violations_flagged(self):
        findings = findings_for("sl002_violation.py", select=["SL002"])
        symbols = sorted(f.symbol for f in findings)
        assert len(findings) == 4
        assert any("PROBE_LATENCY" in s for s in symbols)
        assert any("miss_latency" in s for s in symbols)
        assert any("total_cycles" in s for s in symbols)
        assert any("tag_latency" in s for s in symbols)

    def test_clean_file_passes(self):
        # DEFAULT_CONFIG references, zero initialisers and non-timing
        # literals all pass.
        assert findings_for("sl002_clean.py", select=["SL002"]) == []


class TestSL003StatsDiscipline:
    def test_adhoc_counter_flagged(self):
        findings = findings_for("sl003_violation.py", select=["SL003"])
        assert len(findings) == 1
        assert "hits" in findings[0].message
        assert "LeakyCache" in findings[0].symbol

    def test_private_attrs_exempt(self):
        findings = findings_for("sl003_violation.py", select=["SL003"])
        assert not any("_probes" in f.message for f in findings)

    def test_registered_counters_pass(self):
        assert findings_for("sl003_clean.py", select=["SL003"]) == []


class TestSL004Layering:
    def test_upward_import_and_cycle_flagged(self):
        findings = lint_paths([FIXTURES / "layering_bad"],
                              select=["SL004"], root=REPO_ROOT)
        upward = [f for f in findings if "cycle" not in f.symbol]
        cycles = [f for f in findings if "cycle" in f.symbol]
        assert len(upward) == 1
        assert "repro.engine.widget" in upward[0].symbol
        assert "techniques" in upward[0].message
        assert cycles, "module cycle alpha<->beta should be reported"
        assert any("alpha" in f.message and "beta" in f.message
                   for f in cycles)

    def test_clean_tree_passes(self):
        findings = lint_paths([FIXTURES / "layering_clean"],
                              select=["SL004"], root=REPO_ROOT)
        assert findings == []

    def test_function_body_imports_are_deferred(self):
        # layering_clean's engine.widget reaches up inside a function
        # body; that is the sanctioned lazy escape hatch.
        module = next(
            m for m in collect_modules([FIXTURES / "layering_clean"],
                                       root=REPO_ROOT)
            if m.module == "repro.engine.widget")
        assert "techniques" in module.path.read_text()


class TestSL006HotPathSlots:
    def test_unslotted_class_flagged(self):
        findings = findings_for("sl006_violation.py", select=["SL006"])
        assert len(findings) == 1
        assert "BareEntry" in findings[0].symbol
        assert "__slots__" in findings[0].message

    def test_exemptions(self):
        # Slotted classes, Component subclasses, dataclasses and
        # exception classes in the same marked module all pass.
        findings = findings_for("sl006_violation.py", select=["SL006"])
        symbols = " ".join(f.symbol for f in findings)
        for exempt in ("SlottedEntry", "HotCache", "StatsBlock",
                       "HotPathError"):
            assert exempt not in symbols

    def test_unmarked_module_passes(self):
        assert findings_for("sl006_clean.py", select=["SL006"]) == []


class TestPragmas:
    def test_parse_pragmas(self):
        disabled = parse_pragmas([
            "x = 1",
            "y = time.time()  # simlint: disable=SL001",
            "z = 2  # simlint: disable=SL002, SL003",
            "w = 3  # simlint: disable=all",
        ])
        assert disabled == {2: {"SL001"}, 3: {"SL002", "SL003"},
                            4: {"all"}}

    def test_suppressed(self):
        finding = Finding(code="SL001", path="f.py", line=2, col=0,
                          message="m")
        assert suppressed(finding, {2: {"SL001"}})
        assert suppressed(finding, {2: {"all"}})
        assert not suppressed(finding, {2: {"SL002"}})
        assert not suppressed(finding, {3: {"SL001"}})

    def test_pragma_fixture(self):
        findings = findings_for("pragma_suppressed.py")
        # Three pragma'd lines are silenced; the bare time.time() on the
        # last line is the only survivor.
        assert len(findings) == 1
        assert findings[0].code == "SL001"
        assert "time.time" in findings[0].message


class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = findings_for("sl002_violation.py", select=["SL002"])
        assert findings
        path = tmp_path / "baseline.json"
        baseline = Baseline(path)
        baseline.write(findings)

        reloaded = Baseline.load(path)
        assert all(reloaded.contains(f) for f in findings)
        other = Finding(code="SL001", path="nope.py", line=1, col=0,
                        message="m", symbol="s")
        assert not reloaded.contains(other)

    def test_fingerprint_survives_line_moves(self):
        a = Finding(code="SL002", path="f.py", line=10, col=4,
                    message="m", symbol="Cls.method:lat")
        b = Finding(code="SL002", path="f.py", line=99, col=0,
                    message="m", symbol="Cls.method:lat")
        assert a.fingerprint == b.fingerprint

    def test_missing_baseline_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        finding = Finding(code="SL001", path="f.py", line=1, col=0,
                          message="m")
        assert not baseline.contains(finding)


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ALL_CODES:
            assert code in out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["--select", "SL999", "src"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["definitely/not/a/path"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_violation_file_exits_1(self, capsys):
        rc = main(["--no-baseline", "--select", "SL001",
                   str(FIXTURES / "sl001_violation.py")])
        assert rc == 1
        assert "SL001" in capsys.readouterr().out

    def test_clean_file_exits_0(self, capsys):
        rc = main(["--no-baseline", "--select", "SL001",
                   str(FIXTURES / "sl001_clean.py")])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_json_output(self, capsys):
        rc = main(["--no-baseline", "--json", "--select", "SL002",
                   str(FIXTURES / "sl002_violation.py")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["new"] == payload["counts"]["total"] == 4
        assert all(f["code"] == "SL002" for f in payload["findings"])

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        baseline = tmp_path / "bl.json"
        target = str(FIXTURES / "sl002_violation.py")
        assert main(["--baseline", str(baseline), "--write-baseline",
                     "--select", "SL002", target]) == 0
        capsys.readouterr()
        # Baselined findings no longer fail the run.
        assert main(["--baseline", str(baseline), "--select", "SL002",
                     target]) == 0
        assert "baselined" in capsys.readouterr().out


class TestSelfLint:
    """The repo's own source must satisfy its own architecture rules."""

    def test_repo_lints_clean(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--no-baseline",
             "src", "benchmarks", "examples"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"),
                 "PATH": "/usr/bin:/bin:/usr/local/bin"})
        assert result.returncode == 0, result.stdout + result.stderr

    def test_src_lints_clean_in_process(self):
        findings = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert findings == [], [f.format() for f in findings]


class TestExplain:
    def test_every_rule_has_an_explanation(self):
        from repro.analysis.explain import EXPLANATIONS
        assert sorted(EXPLANATIONS) == sorted(ALL_CODES)
        for code, explanation in EXPLANATIONS.items():
            assert explanation.rationale.strip(), code
            assert explanation.fix.strip(), code

    def test_cli_explain(self, capsys):
        assert main(["--explain", "sl006"]) == 0
        out = capsys.readouterr().out
        assert "SL006" in out and "__slots__" in out and "Fix:" in out

    def test_cli_explain_unknown_rule(self, capsys):
        assert main(["--explain", "SL999"]) == 2
        assert "unknown rule" in capsys.readouterr().err
