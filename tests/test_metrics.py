"""Time-series metrics sampling: epochs, binding, capacity, artifacts.

The contract under test (DESIGN.md "Observability"):

* the sampler snapshots selected stats scalars the first time the
  simulated timeline crosses each epoch boundary — never on wall time;
* machines bind themselves through the engine's root hook; harnesses
  that build several machines produce one segment per machine;
* retention is bounded: past ``capacity`` samples are counted as
  dropped, not stored;
* the exported ``*.metrics.json`` document validates against
  :data:`repro.obs.METRICS_SCHEMA` and renders as sparklines.
"""

import json
from dataclasses import dataclass

import pytest

from repro.engine import tracing
from repro.engine.clock import SimClock
from repro.engine.stats import StatsRegistry
from repro.engine.tracing import TraceError
from repro.eval.reporting import SPARK_TICKS, sparkline
from repro.obs import (METRICS_SCHEMA, MetricsSampler, format_metrics,
                       metrics_document, metrics_session, schema_errors,
                       write_metrics)
from repro.obs.__main__ import main as obs_cli


@dataclass
class _Ticks:
    ticks: int = 0


@dataclass
class _Reads:
    reads: int = 0


def _registry():
    registry = StatsRegistry("system")
    registry.own_block(_Ticks())
    registry.child("dram").own_block(_Reads())
    return registry


class TestSampling:
    def test_rejects_nonpositive_interval_and_capacity(self):
        with pytest.raises(ValueError):
            MetricsSampler(interval=0)
        with pytest.raises(ValueError):
            MetricsSampler(capacity=0)

    def test_samples_once_per_crossed_epoch(self):
        registry = _registry()
        sampler = MetricsSampler(interval=100, registry=registry)
        block = registry._own_block
        for cycle in (10, 50, 99):          # all inside epoch 0: no sample
            sampler.on_cycle(cycle)
        assert sampler.total_samples == 0
        block.ticks += 3
        sampler.on_cycle(120)               # crosses into epoch 1
        sampler.on_cycle(180)               # same epoch: no second sample
        sampler.on_cycle(350)               # skips epoch 2, lands in 3
        samples = sampler.segments[0].samples
        assert [s.cycle for s in samples] == [120, 350]
        assert [s.epoch for s in samples] == [1, 3]
        assert samples[0].values["system.ticks"] == 3

    def test_select_patterns_filter_paths(self):
        registry = _registry()
        sampler = MetricsSampler(interval=10, registry=registry,
                                 select=["system.dram.*"])
        sampler.on_cycle(25)
        values = sampler.segments[0].samples[0].values
        assert set(values) == {"system.dram.reads"}

    def test_capacity_bounds_retention_and_counts_drops(self):
        sampler = MetricsSampler(interval=1, registry=_registry(),
                                 capacity=3)
        for cycle in range(1, 9):
            sampler.on_cycle(cycle)
        assert sampler.total_samples == 3
        assert sampler.dropped == 5

    def test_unbound_sampler_ignores_cycles(self):
        sampler = MetricsSampler(interval=1)
        sampler.on_cycle(1000)
        assert sampler.total_samples == 0
        assert sampler.segments == []


class TestEngineBinding:
    def test_clock_observation_drives_installed_sampler(self):
        cursor = SimClock().cursor("core0")
        with metrics_session(interval=50) as sampler:
            sampler.bind(_registry())
            cursor.advance(40)       # epoch 0
            cursor.advance(40)       # crosses 50
            cursor.advance_to(210)   # crosses 200
        cycles = [s.cycle for s in sampler.segments[0].samples]
        assert cycles == [80, 210]

    def test_root_hook_binds_matching_roots_only(self):
        from repro.core.framework import OverlaySystem
        with metrics_session(interval=1) as sampler:
            OverlaySystem()
            OverlaySystem()
        assert [segment.system for segment in sampler.segments] == \
            ["system", "system"]

    def test_session_is_exclusive_and_always_disarms(self):
        with metrics_session() as sampler:
            assert tracing.active_sampler() is sampler
            with pytest.raises(TraceError):
                tracing.install_sampler(MetricsSampler())
        assert tracing.active_sampler() is None
        tracing.uninstall_sampler()  # second uninstall is a no-op

    def test_sampling_leaves_simulated_time_untouched(self):
        plain = SimClock()
        plain.cursor("core0").advance(123)
        with metrics_session(interval=10) as sampler:
            sampler.bind(_registry())
            sampled = SimClock()
            sampled.cursor("core0").advance(123)
        assert sampled.now == plain.now
        assert sampled.peak == plain.peak
        assert sampler.total_samples > 0


class TestArtifact:
    def _sampled(self):
        sampler = MetricsSampler(interval=10, registry=_registry())
        block = sampler._registry._own_block
        for cycle in range(10, 60, 10):
            block.ticks += cycle
            sampler.on_cycle(cycle)
        return sampler

    def test_document_validates_against_schema(self, tmp_path):
        path = write_metrics("unit", self._sampled(), results_dir=tmp_path)
        assert path.name == "unit.metrics.json"
        doc = json.loads(path.read_text())
        assert schema_errors(doc, METRICS_SCHEMA) == []
        assert obs_cli(["validate", str(path)]) == 0

    def test_format_metrics_renders_sparklines(self):
        doc = metrics_document("unit", self._sampled())
        rendered = format_metrics(doc)
        assert "epoch = 10 cycles" in rendered
        assert "system.ticks" in rendered
        assert any(tick in rendered for tick in SPARK_TICKS)

    def test_report_subcommand_routes_by_suffix(self, tmp_path, capsys):
        path = write_metrics("unit", self._sampled(), results_dir=tmp_path)
        assert obs_cli(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "segment" in out


class TestSparkline:
    def test_empty_and_flat_series(self):
        assert sparkline([]) == ""
        assert sparkline([5, 5, 5]) == SPARK_TICKS[0] * 3

    def test_scales_to_own_range(self):
        line = sparkline([0, 1, 2, 3])
        assert line[0] == SPARK_TICKS[0]
        assert line[-1] == SPARK_TICKS[-1]

    def test_downsamples_to_width_by_bucket_mean(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10
        assert line[0] == SPARK_TICKS[0] and line[-1] == SPARK_TICKS[-1]

    def test_non_finite_values_render_as_spaces(self):
        assert sparkline([float("nan"), 1.0, float("inf")])[0] == " "
        assert sparkline([float("nan")]) == " "
