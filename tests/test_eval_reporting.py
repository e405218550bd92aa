"""Tests for the text table helper and the CLI runner."""

import json
import re

import pytest

from repro.__main__ import EXPERIMENTS, main as cli_main
from repro.eval.reporting import table


class TestTable:
    def test_alignment(self):
        text = table(["name", "value"], [["ab", 1], ["c", 22]])
        lines = text.splitlines()
        assert lines[0].index("value") == lines[2].index("1")

    def test_empty_rows(self):
        text = table(["h1", "h2"], [])
        assert "h1" in text

    def test_ragged_rows_do_not_raise(self):
        text = table(["a", "bb", "ccc"], [["x"], ["y", "z"], []])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 5  # header + rule + 3 rows

    def test_rows_longer_than_headers_are_truncated(self):
        text = table(["only"], [["kept", "dropped"]])
        assert "kept" in text and "dropped" not in text


class TestCLI:
    def test_list_returns_zero(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["figure99"]) == 2
        assert "unknown" in capsys.readouterr().out

    def test_runs_cheap_experiments(self, capsys):
        assert cli_main(["table2", "hardware_cost", "remap_latency"]) == 0
        out = capsys.readouterr().out
        assert "Processor" in out
        assert "94.5" in out.replace(" ", "")
        assert "faster" in out

    def test_every_experiment_registered_with_description(self):
        for name, (func, description) in EXPERIMENTS.items():
            assert callable(func)
            assert description

    def test_json_flag_writes_validated_artifact(self, tmp_path, capsys):
        from repro.obs import validate_run
        assert cli_main(["--json", "--results-dir", str(tmp_path),
                         "hardware_cost"]) == 0
        doc = json.loads((tmp_path / "hardware_cost.json").read_text())
        validate_run(doc)
        assert doc["data"]["cost"]["omt_cache_bytes"] > 0

    def test_trace_flag_writes_trace_sibling(self, tmp_path, capsys):
        assert cli_main(["--trace", "--results-dir", str(tmp_path),
                         "remap_latency"]) == 0
        trace = json.loads(
            (tmp_path / "remap_latency.trace.json").read_text())
        assert trace["traceEvents"]

    def test_unknown_option_rejected(self, capsys):
        assert cli_main(["--bogus"]) == 2
        assert "unknown option" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--fleet-workers", "2"],
                                       ["--resume"]])
    def test_sweep_has_no_worker_or_resume_flags(self, flags, capsys):
        assert cli_main(flags + ["sparsity_sweep"]) == 2
        assert "unknown option" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--metrics"],
                                       ["--metrics-interval", "10"]])
    def test_metrics_flags_are_unknown_options(self, flags, capsys):
        assert cli_main(flags + ["remap_latency"]) == 2
        assert "unknown option" in capsys.readouterr().out

    def test_results_dir_requires_argument(self, capsys):
        assert cli_main(["--results-dir"]) == 2


#: The CLI's per-run bookkeeping lines, which vary from run to run.
_BOOKKEEPING = re.compile(r"^\[(wrote .*|\S+ done in [\d.]+s)\]\n", re.M)


class TestForkSuiteSharing:
    """Figures 8 and 9 plot one fork suite: an invocation simulates it
    once, unless an observability flag asks each figure for its own run."""

    @pytest.fixture
    def suite_calls(self, monkeypatch):
        from repro.eval import fork_experiment
        real = fork_experiment.run_suite
        calls = []

        def small_suite():
            calls.append(1)
            return real(["hmmer"], scale=0.25)

        monkeypatch.setattr(fork_experiment, "run_suite", small_suite)
        return calls

    def test_one_invocation_runs_the_suite_once(self, suite_calls, tmp_path,
                                                capsys):
        both_dir = tmp_path / "both"
        assert cli_main(["--json", "--results-dir", str(both_dir),
                         "figure8", "figure9"]) == 0
        both = _BOOKKEEPING.sub("", capsys.readouterr().out)
        assert len(suite_calls) == 1
        for name in ("figure8", "figure9"):
            alone_dir = tmp_path / name
            assert cli_main(["--json", "--results-dir", str(alone_dir),
                             name]) == 0
            alone = _BOOKKEEPING.sub("", capsys.readouterr().out)
            assert alone in both
            shared_doc = json.loads((both_dir / f"{name}.json").read_text())
            alone_doc = json.loads((alone_dir / f"{name}.json").read_text())
            assert shared_doc["data"] == alone_doc["data"]
        assert len(suite_calls) == 3

    @pytest.mark.parametrize("flag", ["--trace", "--profile"])
    def test_observed_figures_each_simulate(self, suite_calls, tmp_path,
                                            capsys, flag):
        assert cli_main([flag, "--results-dir", str(tmp_path),
                         "figure8", "figure9"]) == 0
        capsys.readouterr()
        assert len(suite_calls) == 2
        for name in ("figure8", "figure9"):
            assert (tmp_path / f"{name}.{flag[2:]}.json").exists()
