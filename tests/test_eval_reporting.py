"""Tests for the ASCII reporting helpers and the CLI runner."""

import json
import re

import pytest

from repro.__main__ import EXPERIMENTS, main as cli_main
from repro.eval.reporting import (bar_chart, grouped_bar_chart, series_plot,
                                  table)


class TestBarCharts:
    def test_bars_scale_with_values(self):
        text = bar_chart([("a", 10.0), ("b", 5.0)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].count("#") == 2 * lines[2].count("#")

    def test_zero_value_has_no_bar(self):
        text = bar_chart([("a", 10.0), ("zero", 0.0)])
        assert "#" not in text.splitlines()[1].split("|")[1].split()[0:1] or True
        zero_line = [l for l in text.splitlines() if l.startswith("zero")][0]
        assert "#" not in zero_line

    def test_empty_rows(self):
        assert bar_chart([], title="nothing") == "nothing"

    def test_unit_suffix(self):
        assert "2.00x" in bar_chart([("r", 2.0)], unit="x")

    def test_grouped_chart_has_both_series(self):
        text = grouped_bar_chart([("bench", 4.0, 2.0)],
                                 series=("cow", "oow"))
        assert "#" in text and "=" in text
        assert "cow" in text and "oow" in text

    def test_all_zero_rows_render_without_bars(self):
        text = bar_chart([("a", 0.0), ("b", 0.0)])
        assert "#" not in text
        assert "0.00" in text

    def test_all_negative_rows_render_without_bars(self):
        # A negative peak must not flip the scaling into full-width bars.
        text = bar_chart([("a", -3.0), ("b", -1.0)])
        assert "#" not in text

    def test_grouped_chart_all_zero_rows(self):
        text = grouped_bar_chart([("bench", 0.0, 0.0)], series=("x", "y"))
        bar_lines = [line for line in text.splitlines() if "|" in line]
        assert bar_lines
        assert all("#" not in line and "=" not in line
                   for line in bar_lines)


class TestSeriesPlot:
    def test_plot_contains_points_and_reference(self):
        points = [(1.0, 0.5), (4.0, 1.0), (8.0, 2.0)]
        text = series_plot(points, title="fig", x_label="L",
                           y_label="ratio", y_reference=1.0)
        assert "fig" in text
        assert text.count("*") == 3
        assert "-" in text  # the reference line
        assert "L" in text and "ratio" in text

    def test_single_point(self):
        text = series_plot([(1.0, 1.0)])
        assert "*" in text

    def test_single_point_with_reference_outside_range(self):
        text = series_plot([(2.0, 5.0)], y_reference=1.0)
        assert "*" in text and "-" in text

    def test_degenerate_canvas_is_clamped(self):
        # height=1 used to divide by zero; tiny widths fed negative
        # widths into the format spec.
        text = series_plot([(0.0, 1.0), (1.0, 2.0)], height=1, width=2)
        assert "*" in text

    def test_empty_points(self):
        assert series_plot([], title="t") == "t"


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

    @pytest.mark.parametrize("flag", ["--trace", "--metrics", "--profile"])
    def test_observed_figures_each_simulate(self, suite_calls, tmp_path,
                                            capsys, flag):
        assert cli_main([flag, "--results-dir", str(tmp_path),
                         "figure8", "figure9"]) == 0
        capsys.readouterr()
        assert len(suite_calls) == 2
        for name in ("figure8", "figure9"):
            assert (tmp_path / f"{name}.{flag[2:]}.json").exists()
