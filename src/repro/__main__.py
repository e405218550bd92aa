"""Command-line experiment runner: regenerate any table or figure.

Usage::

    python -m repro list
    python -m repro table2
    python -m repro figure8 figure9
    python -m repro all                      # everything (several minutes)
    python -m repro --json figure8           # also write results/figure8.json
    python -m repro --json --trace remap-latency   # + results/*.trace.json
    python -m repro --metrics figure9        # + results/figure9.metrics.json
    python -m repro --profile figure9        # + results/figure9.profile.json

Options:
    --json             write a machine-readable results/<name>.json
                       (manifest + data) next to the printed output
    --trace            arm the engine event tracer for each experiment
                       and write results/<name>.trace.json (implies --json)
    --metrics          sample the stats tree every epoch of simulated
                       cycles and write results/<name>.metrics.json with
                       a sparkline summary on stdout (implies --json)
    --metrics-interval N
                       epoch length in simulated cycles (default 1000;
                       implies --metrics)
    --profile          attribute simulated cycles to components and
                       write results/<name>.profile.json plus the
                       where-did-the-cycles-go tree (implies --json)
    --results-dir DIR  directory for the JSON artifacts (default:
                       ./results, or $REPRO_RESULTS_DIR)
    --max-cycles N     abort any experiment whose simulated clock passes
                       N cycles (raises SimulationHangError with a
                       last-progress snapshot) — a watchdog against
                       runaway simulations
    --fleet-workers N  run shardable experiments (currently: sparsity)
                       through the repro.fleet worker pool with N
                       processes (0 = auto: $REPRO_FLEET_WORKERS, then
                       the CPU count); the merged output is identical
                       to the serial path
    --resume           reuse content-addressed shard artifacts under
                       <results-dir>/fleet/ from earlier fleet runs,
                       so repeated or killed sweeps skip finished work

Running ``all`` with ``--json`` additionally writes results/cli_all.json
aggregating every experiment's data payload into one document.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict


def _run_table2():
    from .eval.config import DEFAULT_CONFIG
    print("Table 2: Main parameters of our simulated system")
    print(DEFAULT_CONFIG.format_table())
    return {"config": asdict(DEFAULT_CONFIG)}


def _run_figure8():
    from .eval.fork_experiment import format_figure8, run_suite, summarize
    results = run_suite()
    print(format_figure8(results))
    print(f"mean memory reduction: "
          f"{summarize(results)['memory_reduction']:.0%}  [paper: 53%]")
    return {"benchmarks": [asdict(result) for result in results],
            "summary": summarize(results)}


def _run_figure9():
    from .eval.fork_experiment import format_figure9, run_suite, summarize
    results = run_suite()
    print(format_figure9(results))
    print(f"mean performance improvement: "
          f"{summarize(results)['performance_improvement']:.0%}  "
          f"[paper: 15%]")
    return {"benchmarks": [asdict(result) for result in results],
            "summary": summarize(results)}


def _run_figure10():
    from .eval.reporting import series_plot
    from .eval.spmv_experiment import format_figure10, run_figure10
    points = run_figure10(matrix_count=16, repeats=2)
    print(format_figure10(points))
    print()
    print(series_plot([(p.locality, p.relative_performance) for p in points],
                      title="overlay performance relative to CSR "
                            "(above the line: overlays win)",
                      x_label="non-zero value locality L",
                      y_label="CSR cycles / overlay cycles",
                      y_reference=1.0))
    return {"points": [asdict(point) for point in points]}


def _run_figure11():
    from .eval.granularity_experiment import format_figure11, run_figure11
    points = run_figure11(matrix_count=16)
    print(format_figure11(points))
    return {"points": [asdict(point) for point in points]}


def _run_sparsity():
    from .eval.sparsity_sweep import format_sweep, run_sparsity_sweep
    from .fleet.runner import (FleetSummary, default_fleet_resume,
                               default_fleet_workers)
    workers = default_fleet_workers()
    fleet_summary = {} if workers is not None else None
    points = run_sparsity_sweep(fleet_workers=workers,
                                resume=default_fleet_resume(),
                                fleet_summary=fleet_summary)
    print(format_sweep(points))
    if fleet_summary:
        print(f"[fleet: {FleetSummary(**fleet_summary).describe()}]")
    return {"points": [asdict(point) for point in points]}


def _run_hardware_cost():
    from .eval.hardware_cost import compute_hardware_cost, format_hardware_cost
    cost = compute_hardware_cost()
    print(format_hardware_cost(cost))
    return {"cost": asdict(cost)}


def _run_remap_latency():
    from .eval.remap_latency import format_remap_latency, measure_remap_latency
    result = measure_remap_latency()
    print(format_remap_latency(result))
    return {"latency": asdict(result)}


EXPERIMENTS = {
    "table2": (_run_table2, "Table 2: simulated system configuration"),
    "figure8": (_run_figure8, "Figure 8: additional memory after fork"),
    "figure9": (_run_figure9, "Figure 9: CPI after fork"),
    "figure10": (_run_figure10, "Figure 10: SpMV overlays vs CSR"),
    "figure11": (_run_figure11, "Figure 11: memory overhead by granularity"),
    "sparsity": (_run_sparsity, "Section 5.2 sparsity sweep vs dense"),
    "hardware-cost": (_run_hardware_cost, "Section 4.5 hardware cost"),
    "remap-latency": (_run_remap_latency, "Remap critical-path latency"),
}


def _run_one(target: str, emit_json: bool, trace: bool, results_dir,
             metrics_interval=None, profile: bool = False):
    """Run one experiment, optionally capturing observability artifacts.

    Returns the experiment's data payload (for ``all`` aggregation).
    """
    runner = EXPERIMENTS[target][0]
    if not emit_json:
        return runner()
    from contextlib import ExitStack

    from .engine.tracing import (SamplerFanout, install_sampler,
                                 uninstall_sampler)
    from .obs import (MetricsSampler, ProfileAccumulator, RunManifest,
                      WallClockProfiler, emit_run, format_metrics,
                      format_profile, metrics_document, tracing_session,
                      write_metrics, write_profile)
    manifest = RunManifest.create(target)
    sampler = (MetricsSampler(interval=metrics_interval)
               if metrics_interval else None)
    accumulator = ProfileAccumulator() if profile else None
    wall = WallClockProfiler() if profile else None
    recorders = [r for r in (sampler, accumulator) if r is not None]
    tracer = None
    with ExitStack() as stack:
        if recorders:
            install_sampler(recorders[0] if len(recorders) == 1
                            else SamplerFanout(*recorders))
            stack.callback(uninstall_sampler)
        if trace:
            tracer = stack.enter_context(tracing_session())
        if wall is not None:
            with wall.section("simulate"):
                data = runner()
        else:
            data = runner()
    path = emit_run(target, data, manifest=manifest, tracer=tracer,
                    results_dir=results_dir)
    print(f"[wrote {path}]")
    if sampler is not None:
        print(format_metrics(metrics_document(target, sampler),
                             max_series=8))
        metrics_path = write_metrics(target, sampler,
                                     results_dir=results_dir)
        print(f"[wrote {metrics_path}]")
    if accumulator is not None:
        node = accumulator.finish()
        if node is not None:
            print(format_profile(node, wall=wall.to_dict()))
        profile_path = write_profile(target, node, wall=wall,
                                     systems=accumulator.systems,
                                     results_dir=results_dir)
        print(f"[wrote {profile_path}]")
    return data


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv)
    emit_json = False
    trace = False
    profile = False
    metrics_interval = None
    results_dir = None
    targets = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--json":
            emit_json = True
        elif arg == "--trace":
            trace = emit_json = True
        elif arg == "--metrics":
            emit_json = True
            if metrics_interval is None:
                from .obs import DEFAULT_INTERVAL
                metrics_interval = DEFAULT_INTERVAL
        elif arg == "--metrics-interval":
            i += 1
            if i >= len(args):
                print("--metrics-interval requires a cycle count")
                return 2
            try:
                metrics_interval = int(args[i])
            except ValueError:
                print(f"--metrics-interval needs an integer, "
                      f"got {args[i]!r}")
                return 2
            if metrics_interval <= 0:
                print("--metrics-interval must be positive")
                return 2
            emit_json = True
        elif arg == "--profile":
            profile = emit_json = True
        elif arg == "--results-dir":
            i += 1
            if i >= len(args):
                print("--results-dir requires a directory argument")
                return 2
            results_dir = args[i]
        elif arg == "--max-cycles":
            i += 1
            if i >= len(args):
                print("--max-cycles requires a cycle count")
                return 2
            try:
                max_cycles = int(args[i])
            except ValueError:
                print(f"--max-cycles needs an integer, got {args[i]!r}")
                return 2
            if max_cycles <= 0:
                print("--max-cycles must be positive")
                return 2
            from .engine.clock import set_default_max_cycles
            set_default_max_cycles(max_cycles)
        elif arg == "--fleet-workers":
            i += 1
            if i >= len(args):
                print("--fleet-workers requires a worker count")
                return 2
            try:
                fleet_workers = int(args[i])
            except ValueError:
                print(f"--fleet-workers needs an integer, got {args[i]!r}")
                return 2
            if fleet_workers < 0:
                print("--fleet-workers must be >= 0 (0 = auto)")
                return 2
            from .fleet.runner import default_fleet_resume, set_default_fleet
            set_default_fleet(fleet_workers, resume=default_fleet_resume())
        elif arg == "--resume":
            from .fleet.runner import default_fleet_workers, set_default_fleet
            set_default_fleet(default_fleet_workers(), resume=True)
        elif arg.startswith("-"):
            print(f"unknown option {arg}; try `python -m repro list`")
            return 2
        else:
            targets.append(arg)
        i += 1
    if not targets or targets == ["list"]:
        print(__doc__)
        print("experiments:")
        for name, (_, description) in EXPERIMENTS.items():
            print(f"  {name:<14} {description}")
        return 0
    run_all = targets == ["all"]
    if run_all:
        targets = list(EXPERIMENTS)
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"try `python -m repro list`")
        return 2
    aggregated = {}
    for i, target in enumerate(targets):
        if i:
            print("\n" + "=" * 72 + "\n")
        # Wall-clock here times the *harness*, not the simulation; the
        # simulated timeline comes solely from SimClock.
        started = time.time()  # simlint: disable=SL001
        aggregated[target] = _run_one(target, emit_json, trace, results_dir,
                                      metrics_interval=metrics_interval,
                                      profile=profile)
        elapsed = time.time() - started  # simlint: disable=SL001
        print(f"[{target} done in {elapsed:.1f}s]")
    if run_all and emit_json:
        from .obs import emit_run
        path = emit_run("cli_all", {"experiments": aggregated},
                        results_dir=results_dir)
        print(f"[wrote {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
