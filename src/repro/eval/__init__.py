"""Experiment harnesses regenerating every table and figure of the
paper's evaluation (Section 5), plus the design ablations, Table 1
technique measurements and multiprogrammed study of DESIGN.md.
``python -m repro`` runs each of them by name."""

from .ablations import format_ablations, run_ablations
from .config import DEFAULT_CONFIG, SystemConfig
from .fork_experiment import (BenchmarkComparison, PolicyRun, format_figure8,
                              format_figure9, run_benchmark, run_policy,
                              run_suite, summarize)
from .granularity_experiment import (BLOCK_SIZES, Figure11Point,
                                     format_figure11, mean_overhead,
                                     run_figure11)
from .hardware_cost import (HardwareCost, compute_hardware_cost,
                            format_hardware_cost)
from .multiprogrammed import format_multiprogrammed, run_multiprogrammed
from .remap_latency import (RemapLatency, format_remap_latency,
                            measure_remap_latency)
from .sparsity_sweep import (SparsityPoint, format_sweep,
                             run_sparsity_point_shard, run_sparsity_sweep,
                             sparsity_shards)
from .spmv_experiment import (Figure10Point, crossover_locality,
                              format_figure10, run_figure10)
from .techniques_experiment import format_techniques, run_techniques

__all__ = ["BLOCK_SIZES", "BenchmarkComparison", "DEFAULT_CONFIG",
           "Figure10Point", "Figure11Point", "HardwareCost", "PolicyRun",
           "RemapLatency", "SparsityPoint", "SystemConfig",
           "compute_hardware_cost", "crossover_locality", "format_ablations",
           "format_figure10", "format_figure11", "format_figure8",
           "format_figure9", "format_hardware_cost", "format_multiprogrammed",
           "format_remap_latency", "format_sweep", "format_techniques",
           "mean_overhead", "run_ablations", "run_benchmark", "run_figure10",
           "run_figure11", "run_multiprogrammed", "run_policy",
           "run_sparsity_point_shard", "run_sparsity_sweep", "run_suite",
           "run_techniques", "sparsity_shards", "summarize"]
