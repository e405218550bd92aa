"""Command-line experiment runner: regenerate any table or figure.

Usage::

    python -m repro list
    python -m repro table2
    python -m repro figure8 figure9
    python -m repro all                      # every experiment
    python -m repro --json figure8           # also write results/figure8.json
    python -m repro --json --trace remap_latency   # + results/*.trace.json
    python -m repro --profile figure9        # + results/figure9.profile.json

Options:
    --json             write a machine-readable results/<name>.json
                       (manifest + data) next to the printed output
    --trace            arm the engine event tracer for each experiment
                       and write results/<name>.trace.json (implies --json)
    --profile          run each experiment under cProfile, print where
                       the simulated cycles went (by component) and where
                       the host seconds went (by layer), and write both
                       to results/<name>.profile.json (implies --json)
    --results-dir DIR  directory for the JSON artifacts (default:
                       ./results, or $REPRO_RESULTS_DIR)
    --max-cycles N     abort any experiment whose simulated clock passes
                       N cycles (raises SimulationHangError with a
                       last-progress snapshot) — a watchdog against
                       runaway simulations

Figures 8 and 9 plot one fork suite, so an invocation running both
simulates it once, unless ``--trace`` or ``--profile`` asks each
experiment to record its own run.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict
from functools import lru_cache

from .config import DEFAULT_CONFIG
from .eval import (BLOCK_SIZES, compute_hardware_cost, crossover_locality,
                   fork_experiment, format_ablations, format_figure8,
                   format_figure9, format_figure10, format_figure11,
                   format_hardware_cost, format_multiprogrammed,
                   format_remap_latency, format_sweep, format_techniques,
                   mean_overhead, measure_remap_latency, run_ablations,
                   run_figure10, run_figure11, run_multiprogrammed,
                   run_sparsity_sweep, run_techniques, summarize)


def _run_table2():
    print("Table 2: Main parameters of our simulated system")
    print(DEFAULT_CONFIG.format_table())
    return {"config": asdict(DEFAULT_CONFIG)}


@lru_cache(maxsize=None)
def _fork_suite():
    """The fork suite Figures 8 and 9 both plot: one run per invocation."""
    return fork_experiment.run_suite()


def _run_figure8():
    results = _fork_suite()
    print(format_figure8(results))
    print(f"\nmean memory reduction (overlay-on-write vs copy-on-write): "
          f"{summarize(results)['memory_reduction']:.0%}  [paper: 53%]")
    return {"benchmarks": [asdict(result) for result in results],
            "summary": summarize(results)}


def _run_figure9():
    results = _fork_suite()
    print(format_figure9(results))
    improvement = summarize(results)["performance_improvement"]
    print(f"\nmean performance improvement (overlay-on-write vs "
          f"copy-on-write): {improvement:.0%}  [paper: 15%]")
    return {"benchmarks": [asdict(result) for result in results],
            "summary": summarize(results)}


def _run_figure10():
    points = run_figure10(matrix_count=16)
    print(format_figure10(points))
    print("[paper: crossover at L ~ 4.5; overlays beat CSR on "
          "34/87 = 39% of matrices]")
    return {"points": [asdict(point) for point in points],
            "crossover_locality": crossover_locality(points)}


def _run_figure11():
    points = run_figure11(matrix_count=16)
    print(format_figure11(points))
    print("[paper: 4KB pages cost ~53x Ideal on average; 64B close to CSR; "
          "finer granularities beat CSR on more matrices]")
    return {"points": [asdict(point) for point in points],
            "mean_overheads": {size: mean_overhead(points, size)
                               for size in BLOCK_SIZES}}


def _run_sparsity_sweep():
    points = run_sparsity_sweep()
    print(format_sweep(points))
    print("[paper: overlays outperform the dense representation at all "
          "sparsity levels; the gap grows linearly with the fraction of "
          "zero cache lines]")
    return {"points": [asdict(point) for point in points]}


def _run_hardware_cost():
    cost = compute_hardware_cost()
    print(format_hardware_cost(cost))
    print("[paper: 4KB + 8.5KB + 82KB = 94.5KB]")
    return {"cost": asdict(cost)}


def _run_remap_latency():
    result = measure_remap_latency()
    print(format_remap_latency(result))
    return {"latency": asdict(result)}


def _run_ablations():
    data = run_ablations()
    print(format_ablations(data))
    return data


def _run_techniques():
    data = run_techniques()
    print(format_techniques(data))
    return data


def _run_multiprogrammed():
    data = run_multiprogrammed()
    print(format_multiprogrammed(data))
    return data


#: Each experiment's name is the stem of its committed ``results/`` files.
EXPERIMENTS = {
    "table2": (_run_table2, "Table 2: simulated system configuration"),
    "figure8": (_run_figure8, "Figure 8: additional memory after fork"),
    "figure9": (_run_figure9, "Figure 9: CPI after fork"),
    "figure10": (_run_figure10, "Figure 10: SpMV overlays vs CSR"),
    "figure11": (_run_figure11, "Figure 11: memory overhead by granularity"),
    "sparsity_sweep": (_run_sparsity_sweep,
                       "Section 5.2 sparsity sweep vs dense"),
    "hardware_cost": (_run_hardware_cost, "Section 4.5 hardware cost"),
    "remap_latency": (_run_remap_latency, "Remap critical-path latency"),
    "ablations": (_run_ablations, "DESIGN.md design ablations"),
    "techniques": (_run_techniques,
                   "Table 1: the five non-quantified techniques"),
    "multiprogrammed": (_run_multiprogrammed,
                        "Fork study with a streaming co-runner"),
}


def _run_one(target: str, emit_json: bool, trace: bool, results_dir,
             profile: bool = False):
    """Run one experiment, optionally capturing observability artifacts."""
    runner = EXPERIMENTS[target][0]
    if not emit_json:
        runner()
        return
    import cProfile
    from contextlib import ExitStack

    from .engine.tracing import (install_root_observer,
                                 uninstall_root_observer)
    from .obs import (ProfileAccumulator, RunManifest, emit_run,
                      format_profile, host_layers, tracing_session,
                      write_profile)
    manifest = RunManifest.create(target)
    if profile or trace:
        _fork_suite.cache_clear()  # the artifacts must see a simulation
    tracer = None
    accumulator = ProfileAccumulator() if profile else None
    profiler = cProfile.Profile() if profile else None
    with ExitStack() as stack:
        if accumulator is not None:
            install_root_observer(accumulator)
            stack.callback(uninstall_root_observer)
        if trace:
            tracer = stack.enter_context(tracing_session())
        data = runner() if profiler is None else profiler.runcall(runner)
    path = emit_run(target, data, manifest=manifest, tracer=tracer,
                    results_dir=results_dir)
    print(f"[wrote {path}]")
    if profile:
        node = accumulator.finish()
        host = host_layers(profiler)
        if node is not None:
            print(format_profile(node, host=host))
        profile_path = write_profile(target, node, host=host,
                                     systems=accumulator.systems,
                                     results_dir=results_dir)
        print(f"[wrote {profile_path}]")


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv)
    emit_json = False
    trace = False
    profile = False
    results_dir = None
    targets = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--json":
            emit_json = True
        elif arg == "--trace":
            trace = emit_json = True
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
        elif arg.startswith("-"):
            print(f"unknown option {arg}; try `python -m repro list`")
            return 2
        else:
            targets.append(arg)
        i += 1
    if not targets or targets == ["list"]:
        print(__doc__)
        print("experiments:")
        width = max(map(len, EXPERIMENTS))
        for name, (_, description) in EXPERIMENTS.items():
            print(f"  {name:<{width}} {description}")
        return 0
    if targets == ["all"]:
        targets = list(EXPERIMENTS)
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"try `python -m repro list`")
        return 2
    _fork_suite.cache_clear()
    for i, target in enumerate(targets):
        if i:
            print("\n" + "=" * 72 + "\n")
        # Wall-clock here times the *harness*, not the simulation; the
        # simulated timeline comes solely from SimClock.
        started = time.time()  # simlint: disable=SL001
        _run_one(target, emit_json, trace, results_dir, profile=profile)
        elapsed = time.time() - started  # simlint: disable=SL001
        print(f"[{target} done in {elapsed:.1f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
